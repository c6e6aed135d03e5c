"""The eight-quadratic isotropy system for four-axis spherical wrists.

With e_1 = [1, 0, 0], e_2 = [c, s, 0], e_3 = [x, y, z], e_4 = [u, v, w],
the isotropy condition sum_k e_k e_k^T = (4/3) I together with the unit
norms of e_2 and e_3 gives eight quadratic equations in the eight
unknowns (c, s, x, y, z, u, v, w); the normality of e_4 is implied.
The Bezout number of the system is 2^8 = 256 (eight quadratics); the
actual number of real solutions is 32.

The system is solved exactly by an elimination cascade: five unknowns
(u, z, v, s, w) reduce to independent square-root sign choices,

    u = +-1/3,   z = +-sqrt(6) u,   v = +-sqrt(2) u,
    s = +-2 sqrt(2)/3,   w = +-(1/3) sqrt(6 (2 - 9 u^2)),

and the remaining three follow by back-substitution,

    x = -w u / z,   y = -v w / z,   c = u (w y - v z) / (s z).

The 2^5 = 32 sign patterns give the 32 solutions, every component of
which has magnitude 1/3, sqrt(2)/3, sqrt(6)/3 or 2 sqrt(2)/3.  No
unknown vanishes at any solution; division guards in the cascade turn
that argument into runtime assertions.

An independent multi-start damped-Newton root hunt over the residual map
cross-checks the enumeration: converged starts must cluster at the 32
closed-form solutions and nowhere else.  The hunt is vectorized and
deterministic for a fixed seed.  It solves its Newton systems in fixed,
cache-sized batches of starts, and it hunts the starts in contiguous
blocks: on Linux, when more than one CPU is usable and the caller has one
thread, every block but the first runs in a forked worker.  Every step of
the hunt acts on each start alone, so neither the batch size nor the
blocks change a single bit of the result.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import sys
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .spheregeom import ONE_THIRD as _T, SQRT2_THIRD as _R2, SQRT6_THIRD as _R6, TWO_SQRT2_THIRD as _S, PointSet

RESIDUAL_TOL = 1e-12
NONVANISHING_FLOOR = _T

#: Product of the equation degrees: upper bound on the root count.
BEZOUT_COUNT = 2**8
#: Sharper mixed-volume bound, quoted for reference; not recomputed here.
BKK_BOUND_CITED = 192

#: The 32 solutions (c, s, x, y, z, u, v, w), exact radicals in double
#: precision, in catalog order 1..32.
SOLUTION_CATALOG = (
    (_T, -_S, -_T, -_R2, _R6, _T, _R2, _R6),
    (_T, -_S, -_T, -_R2, _R6, -_T, -_R2, -_R6),
    (_T, -_S, -_T, -_R2, -_R6, _T, _R2, -_R6),
    (_T, -_S, -_T, -_R2, -_R6, -_T, -_R2, _R6),
    (_T, -_S, _T, _R2, _R6, _T, _R2, -_R6),
    (_T, -_S, _T, _R2, _R6, -_T, -_R2, _R6),
    (_T, -_S, _T, _R2, -_R6, _T, _R2, _R6),
    (_T, -_S, _T, _R2, -_R6, -_T, -_R2, -_R6),
    (_T, _S, -_T, _R2, _R6, _T, -_R2, _R6),
    (_T, _S, -_T, _R2, _R6, -_T, _R2, -_R6),
    (_T, _S, -_T, _R2, -_R6, _T, -_R2, -_R6),
    (_T, _S, -_T, _R2, -_R6, -_T, _R2, _R6),
    (_T, _S, _T, -_R2, _R6, _T, -_R2, -_R6),
    (_T, _S, _T, -_R2, _R6, -_T, _R2, _R6),
    (_T, _S, _T, -_R2, -_R6, _T, -_R2, _R6),
    (_T, _S, _T, -_R2, -_R6, -_T, _R2, -_R6),
    (-_T, -_S, -_T, _R2, _R6, _T, -_R2, _R6),
    (-_T, -_S, -_T, _R2, _R6, -_T, _R2, -_R6),
    (-_T, -_S, -_T, _R2, -_R6, -_T, _R2, _R6),
    (-_T, -_S, -_T, _R2, -_R6, _T, -_R2, -_R6),
    (-_T, -_S, _T, -_R2, _R6, _T, -_R2, -_R6),
    (-_T, -_S, _T, -_R2, _R6, -_T, _R2, _R6),
    (-_T, -_S, _T, -_R2, -_R6, -_T, _R2, -_R6),
    (-_T, -_S, _T, -_R2, -_R6, _T, -_R2, _R6),
    (-_T, _S, -_T, -_R2, -_R6, _T, _R2, -_R6),
    (-_T, _S, -_T, -_R2, -_R6, -_T, -_R2, _R6),
    (-_T, _S, -_T, -_R2, _R6, -_T, -_R2, -_R6),
    (-_T, _S, -_T, -_R2, _R6, _T, _R2, _R6),
    (-_T, _S, _T, _R2, -_R6, -_T, -_R2, -_R6),
    (-_T, _S, _T, _R2, -_R6, _T, _R2, _R6),
    (-_T, _S, _T, _R2, _R6, -_T, -_R2, _R6),
    (-_T, _S, _T, _R2, _R6, _T, _R2, -_R6),
)

#: Index of the trivially isotropic set (the regular tetrahedron) in the catalog.
TRIVIAL_SET_INDEX = 18

_RADICAL_NAMES = ((_T, "1/3"), (_R2, "sqrt(2)/3"), (_R6, "sqrt(6)/3"), (_S, "2*sqrt(2)/3"))


def radical_string(value: float) -> str:
    """Exact-radical spelling of a catalog component, e.g. '-2*sqrt(2)/3'."""
    for mag, name in _RADICAL_NAMES:
        if abs(abs(value) - mag) <= RESIDUAL_TOL:
            return name if value >= 0 else "-" + name
    raise ValueError(f"{value!r} is not a catalog radical")


@dataclass(frozen=True)
class SolutionRecord:
    """One root (c, s, x, y, z, u, v, w) of the isotropy system.

    index is the 1-based row in SOLUTION_CATALOG once matched;
    sign_pattern records the five square-root branch choices
    (s_u, s_z, s_v, s_s, s_w) that produced the record, when known.
    """

    c: float
    s: float
    x: float
    y: float
    z: float
    u: float
    v: float
    w: float
    index: int | None = None
    sign_pattern: tuple | None = None

    @property
    def components(self) -> tuple:
        return (self.c, self.s, self.x, self.y, self.z, self.u, self.v, self.w)

    @property
    def axes(self) -> PointSet:
        """The induced four axes e_1..e_4 on the unit sphere."""
        return PointSet(_axes_of(self.components)[0])


def _axes_of(points) -> np.ndarray:
    """Axes e_1..e_4 induced by unknowns (c, s, x, y, z, u, v, w), stacked (m, 8): shape (m, 4, 3).

    One tuple of unknowns gives m = 1.  The axes are not validated, so a
    stack costs no PointSet per row; SolutionRecord.axes validates one.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 8)
    axes = np.zeros((pts.shape[0], 4, 3))
    axes[:, 0, 0] = 1.0
    axes[:, 1, :2] = pts[:, :2]
    axes[:, 2] = pts[:, 2:5]
    axes[:, 3] = pts[:, 5:]
    return axes


#: The axes e_1..e_4 of every catalog row, shape (32, 4, 3).
_CATALOG_AXES = _axes_of(SOLUTION_CATALOG)


def residuals(points) -> np.ndarray:
    """Left-minus-right values of the eight defining quadratics.

    points is one tuple (c, s, x, y, z, u, v, w) or a stack of them,
    shape (..., 8); the result has the same shape.  Order: three
    diagonal isotropy equations, three off-diagonal ones, then the unit
    norms of e_2 and e_3.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1:] != (8,):
        raise ValueError(f"expected (..., 8) unknowns, got shape {pts.shape}")
    c, s, x, y, z, u, v, w = (pts[..., i] for i in range(8))
    return np.stack(
        [
            1.0 + c * c + x * x + u * u - 4.0 / 3.0,
            s * s + y * y + v * v - 4.0 / 3.0,
            z * z + w * w - 4.0 / 3.0,
            c * s + x * y + u * v,
            z * y + w * v,
            x * z + u * w,
            c * c + s * s - 1.0,
            x * x + y * y + z * z - 1.0,
        ],
        axis=-1,
    )


def _jacobian_batch(pts: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Analytic Jacobian of the residual map, stacked (m, 8, 8).

    With out, an (m, 8, 8) buffer whose structural zeros are already
    zero, only the nonzero entries are written, so slices of one zeroed
    buffer serve batches of every size.
    """
    if out is None:
        out = np.zeros((pts.shape[0], 8, 8))
    c, s, x, y, z, u, v, w = (pts[:, i] for i in range(8))
    out[:, 0, 0] = out[:, 6, 0] = 2 * c
    out[:, 0, 2] = 2 * x
    out[:, 0, 5] = 2 * u
    out[:, 1, 1] = out[:, 6, 1] = 2 * s
    out[:, 1, 3] = 2 * y
    out[:, 1, 6] = 2 * v
    out[:, 2, 4] = 2 * z
    out[:, 2, 7] = 2 * w
    out[:, 3, 0], out[:, 3, 1], out[:, 3, 2], out[:, 3, 3], out[:, 3, 5], out[:, 3, 6] = s, c, y, x, v, u
    out[:, 4, 3], out[:, 4, 4], out[:, 4, 6], out[:, 4, 7] = z, y, w, v
    out[:, 5, 2], out[:, 5, 4], out[:, 5, 5], out[:, 5, 7] = z, x, w, u
    out[:, 7, 2], out[:, 7, 3], out[:, 7, 4] = out[:, 0, 2], out[:, 1, 3], out[:, 2, 4]
    return out


def sign_patterns() -> list:
    """All 32 branch choices (s_u, s_z, s_v, s_s, s_w), s_u most significant."""
    return list(itertools.product((1, -1), repeat=5))


def solve_closed_form(pattern: Sequence[int]) -> SolutionRecord:
    """Evaluate the elimination cascade for one square-root sign pattern.

    pattern is (s_u, s_z, s_v, s_s, s_w) with entries +-1.  Every one of
    the 32 patterns is regular: the divisions by z and s are guarded by
    runtime assertions (|z| = sqrt(6)/3, |s| = 2 sqrt(2)/3 always).
    """
    s_u, s_z, s_v, s_s, s_w = (int(b) for b in pattern)
    for b in (s_u, s_z, s_v, s_s, s_w):
        if b not in (1, -1):
            raise ValueError(f"sign pattern entries must be +-1, got {pattern!r}")
    u = s_u * (1.0 / 3.0)
    z = s_z * math.sqrt(6.0) * u
    v = s_v * math.sqrt(2.0) * u
    s = s_s * (2.0 * math.sqrt(2.0) / 3.0)
    w = s_w * (1.0 / 3.0) * math.sqrt(6.0 * (2.0 - 9.0 * u * u))
    if abs(z) < 0.1 or abs(s) < 0.1:
        raise ArithmeticError(f"vanishing divisor in back-substitution: z={z!r}, s={s!r}")
    x = -w * u / z
    y = -v * w / z
    c = u * (w * y - v * z) / (s * z)
    rec = SolutionRecord(c, s, x, y, z, u, v, w, sign_pattern=(s_u, s_z, s_v, s_s, s_w))
    worst = float(np.max(np.abs(residuals(rec.components))))
    if worst > RESIDUAL_TOL:
        raise ArithmeticError(f"closed-form solution violates the system: residual {worst!r}")
    return rec


def catalog_distances(axes) -> np.ndarray:
    """Max-norm distances from axis sets (..., 4, 3) to the 32 catalog axis sets.

    Entry [..., k] is the distance to catalog row k + 1.
    """
    return np.max(np.abs(np.asarray(axes, dtype=float)[..., None, :, :] - _CATALOG_AXES), axis=(-2, -1))


def _catalog_rows(axes) -> np.ndarray:
    """match_catalog_index of axis sets (..., 4, 3), one distance table for all: shape (...), 0 where none matches."""
    hits = catalog_distances(axes) <= RESIDUAL_TOL
    return np.where(hits.any(axis=-1), np.argmax(hits, axis=-1) + 1, 0)


def match_catalog_index(axes) -> int | None:
    """1-based catalog row whose axes e_1..e_4 all match within RESIDUAL_TOL, if any.

    Catalog rows lie at least 2/3 apart in max-norm, so at most one row matches.
    """
    return int(_catalog_rows(np.reshape(axes, (4, 3)))) or None


def enumerate_solutions() -> list:
    """All 32 solutions, matched bijectively to the catalog and sorted.

    Raises if any branch fails to match a catalog row within
    RESIDUAL_TOL or if the branch-to-row assignment is not a bijection.
    The returned records carry the catalog's exact-radical doubles; the
    floating-point output of the cascade only serves to establish the
    match.
    """
    records = [solve_closed_form(pattern) for pattern in sign_patterns()]
    rows = _catalog_rows(_axes_of([rec.components for rec in records]))
    by_index: dict[int, SolutionRecord] = {}
    for rec, idx in zip(records, rows.tolist()):
        if not idx:
            raise ArithmeticError(f"closed-form solution {rec.components} matches no catalog row")
        if idx in by_index:
            raise ArithmeticError(f"catalog row {idx} matched by two sign patterns")
        by_index[idx] = SolutionRecord(*SOLUTION_CATALOG[idx - 1], index=idx, sign_pattern=rec.sign_pattern)
    if sorted(by_index) != list(range(1, 33)):
        raise ArithmeticError("sign patterns do not cover the catalog bijectively")
    return [by_index[i] for i in range(1, 33)]


@dataclass(frozen=True, eq=False)
class OracleReport:
    """Outcome of a multi-start Newton hunt over the residual map."""

    roots: np.ndarray  # (k, 8) cluster representatives, lexicographically sorted
    n_starts: int
    n_converged: int
    n_discarded: int
    iterations: np.ndarray  # (n_starts,) iterations to converge, -1 if discarded

    @property
    def n_roots(self) -> int:
        return self.roots.shape[0]


def _cluster(points: np.ndarray, radius: float) -> np.ndarray:
    """Greedy clustering in lexicographic order, one pass per cluster.

    Visiting the points in lexicographic order, a point becomes a
    representative unless an earlier representative lies within radius.
    Equivalently, the first point not yet covered is the next
    representative, and every point within radius of it is covered at
    once.  Representatives come out lexicographically sorted.
    """
    rest = points[np.lexsort(points.T[::-1])]
    reps = []
    while rest.shape[0]:
        rep = rest[0]
        covered = np.linalg.norm(rest - rep, axis=1) <= radius
        covered[0] = True  # a representative never survives its own pass, even if not finite
        reps.append(rep)
        rest = rest[~covered]
    return np.array(reps) if reps else np.empty((0, 8))


START_BOX = 1.5  # half-width of the cube the oracle's starts are drawn from
CONVERGE_TOL = 1e-10  # residual norm below which a start has converged
CLUSTER_RADIUS = 1e-6  # converged points this close are one root
_SOLVE_CHUNK = 2048  # starts per Jacobian solve: a (2048, 8, 8) buffer is 1 MB and stays in cache


def _newton_steps(pts: np.ndarray, r: np.ndarray, jac_buf: np.ndarray) -> np.ndarray:
    """Newton steps solving J(pts) step = -r, stacked (m, 8), _SOLVE_CHUNK rows at a time.

    jac_buf is a zeroed (_SOLVE_CHUNK, 8, 8) buffer that _jacobian_batch
    refills for each slice.  LAPACK factors every matrix of a batch on its
    own, so the steps do not depend on the slicing.  A slice holding an
    exactly singular Jacobian is solved one matrix at a time; a matrix
    LAPACK refuses gets a zero step.
    """
    step = np.empty_like(pts)
    for lo in range(0, pts.shape[0], _SOLVE_CHUNK):
        hi = min(lo + _SOLVE_CHUNK, pts.shape[0])
        jac = _jacobian_batch(pts[lo:hi], jac_buf[: hi - lo])
        rhs = -r[lo:hi, :, None]
        try:
            step[lo:hi] = np.linalg.solve(jac, rhs)[..., 0]
        except np.linalg.LinAlgError:
            step[lo:hi] = 0.0
            for k in range(hi - lo):
                try:
                    step[lo + k] = np.linalg.solve(jac[k : k + 1], rhs[k : k + 1])[0, :, 0]
                except np.linalg.LinAlgError:
                    pass
    return step




def _usable_cpus() -> int:
    """How many CPUs the hunt may spread its blocks over.

    1 wherever a forked worker is unsafe: without os.fork, off Linux (fork
    without exec is unsafe under the macOS system frameworks), or while
    another Python thread is alive, whose locks a child would inherit held.
    """
    if not hasattr(os, "fork") or sys.platform != "linux" or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _hunt_block(pts: np.ndarray, max_iters: int) -> tuple:
    """Damped Newton from every start of pts (m, 8), then a polish of the converged ones.

    Returns the polished converged points (in start order) and the
    iterations (m,) each start took to converge, -1 if discarded.
    Converged starts are written back into pts.
    """
    iters = np.full(pts.shape[0], -1, dtype=int)
    # one Jacobian buffer per block; its structural zeros are never written
    jac_buf = np.zeros((_SOLVE_CHUNK, 8, 8))
    r = residuals(pts)
    norm = np.linalg.norm(r, axis=1)
    done = norm < CONVERGE_TOL
    iters[done] = 0
    # the active starts' points, residuals and residual norms, carried
    # compactly across iterations; a start is written back to pts once it converges
    active = np.nonzero(~done)[0]
    cur, r, norm = pts[active], r[active], norm[active]
    for it in range(1, max_iters + 1):
        if active.size == 0:
            break
        step = _newton_steps(cur, r, jac_buf)
        # backtracking line search on the residual norm: the full step for
        # every start, then halved steps for the starts still pending
        new = cur + step
        new_r = residuals(new)
        new_norm = np.linalg.norm(new_r, axis=1)
        improved = new_norm < norm
        pending = np.nonzero(~improved)[0]
        for lam in 0.5 ** np.arange(1, 7):
            if pending.size == 0:
                break
            trial = cur[pending] + lam * step[pending]
            trial_r = residuals(trial)
            trial_norm = np.linalg.norm(trial_r, axis=1)
            ok = trial_norm < norm[pending]
            sel = pending[ok]
            new[sel], new_r[sel], new_norm[sel] = trial[ok], trial_r[ok], trial_norm[ok]
            improved[sel] = True
            pending = pending[~ok]
        conv = improved & (new_norm < CONVERGE_TOL)
        pts[active[conv]] = new[conv]
        iters[active[conv]] = it
        keep = improved & ~conv
        active = active[keep]
        cur, r, norm = new[keep], new_r[keep], new_norm[keep]
    hits = pts[iters >= 0]
    # polish with undamped Newton so clusters collapse to machine precision;
    # converged starts lie next to simple roots, where |det J| = 256 sqrt(2)/81
    for _ in range(3):
        hits += _newton_steps(hits, residuals(hits), jac_buf)
    return hits, iters


def _fork_block(pts: np.ndarray, max_iters: int) -> tuple:
    """Hunt pts in a forked worker; returns its pid and a file reading its pickled _hunt_block result.

    The worker leaves through os._exit on every path, with status 0 only
    once its whole result is written: it never returns into the caller's
    stack and never flushes the stdio buffers it inherited.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as out:
                pickle.dump(_hunt_block(pts, max_iters), out, protocol=pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _reap(pid: int) -> int:
    """Wait for worker pid to end; its exit code, or 0 if the caller ignores SIGCHLD and it was reaped already.

    A 0 only lets its result be unpickled: a short or garbled one still fails there.
    """
    try:
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    except ChildProcessError:
        return 0


def _hunt_blocks(pts: np.ndarray, max_iters: int) -> list:
    """_hunt_block results for contiguous blocks of pts, in start order.

    The blocks number min(usable CPUs, ceil(n / _SOLVE_CHUNK)) for n
    starts, at least one.  This process hunts the first block and forked
    workers the others.  A block whose fork fails, whose worker does not
    exit 0, or whose result does not unpickle is hunted here instead, so
    the result never depends on a worker.  Every worker is reaped before
    this returns or raises, and killed first if it raises.
    """
    n = pts.shape[0]
    k = max(1, min(_usable_cpus(), -(-n // _SOLVE_CHUNK)))
    bounds = [n * b // k for b in range(k + 1)]
    blocks = [pts[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    workers = {}  # block index -> (pid, result file), until reaped
    try:
        for b in range(1, k):
            try:
                workers[b] = _fork_block(blocks[b], max_iters)
            except OSError:
                pass  # no worker: this process hunts the block below
        results = [_hunt_block(blocks[0], max_iters)]
        for b in range(1, k):
            result = None
            if b in workers:
                pid, result_file = workers[b]
                with result_file:
                    data = result_file.read()
                status = _reap(pid)
                del workers[b]
                if status == 0:
                    try:
                        result = pickle.loads(data)
                    except (pickle.UnpicklingError, EOFError):  # a short result: hunt the block here
                        pass
            results.append(result if result is not None else _hunt_block(blocks[b], max_iters))
    finally:
        if workers:
            from signal import SIGKILL

            for pid, result_file in workers.values():
                result_file.close()
                try:
                    os.kill(pid, SIGKILL)
                except ProcessLookupError:  # reaped already
                    pass
                _reap(pid)
    return results


def oracle_root_hunt(
    n_starts: int = 20000,
    seed: int = 0,
    starts: np.ndarray | None = None,
    max_iters: int = 60,
) -> OracleReport:
    """Hunt for real roots of the system by damped Newton from random starts.

    Starts are uniform in [-START_BOX, START_BOX]^8 (all unknowns are sines
    or cosines, so the box with margin is a sound search region); an
    explicit starts array overrides the random draw.  Converged points are
    polished, clustered and returned sorted, so the outcome is independent
    of scheduling for a fixed seed.  Non-convergent starts (including those
    whose Jacobian LAPACK finds singular) are discarded and counted.

    The starts are hunted in min(usable CPUs, ceil(n / _SOLVE_CHUNK))
    contiguous blocks, so up to _SOLVE_CHUNK starts stay in one.  On Linux,
    when more than one CPU is usable and no other Python thread is alive,
    every block but the first runs in a forked worker; otherwise one block
    holds every start.  Within a block
    the Newton systems are solved _SOLVE_CHUNK starts at a time, so the
    Jacobians stay in cache.  The result is the same bit for bit whatever
    the blocks and the batch size: the residuals, the Jacobian, the norms
    and LAPACK's solve all act on each start alone, and the converged points
    are clustered once, in start order.  The polish shares the singular
    fallback, so a polish system LAPACK refuses would leave its point
    unmoved rather than raise; at a converged start that cannot happen,
    since |det J| = 256 sqrt(2)/81 at every root.
    """
    if starts is None:
        if n_starts < 1:
            return OracleReport(np.empty((0, 8)), 0, 0, 0, np.empty(0, dtype=int))
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-START_BOX, START_BOX, size=(n_starts, 8))
    else:
        pts = np.array(starts, dtype=float).reshape(-1, 8)
        n_starts = pts.shape[0]
    results = _hunt_blocks(pts, max_iters)
    hits = np.concatenate([block_hits for block_hits, _ in results])
    iters = np.concatenate([block_iters for _, block_iters in results])
    n_converged = hits.shape[0]
    return OracleReport(_cluster(hits, CLUSTER_RADIUS), n_starts, n_converged, n_starts - n_converged, iters)
