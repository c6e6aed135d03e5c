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

The 2^5 = 32 sign patterns give the 32 solutions.  The cascade runs as
one array pass over a stack of sign patterns, with the same operations in
the same order for every row, so a row does not depend on the others and
one pattern gives the same bits alone or in the stack.  The artifact
commands do not run it: enumerate_solutions reads the 32 rows of
SOLUTION_CATALOG, and verify's catalog-bijection check re-runs the
cascade from every row's sign pattern and proves each branch within
RESIDUAL_TOL (1e-12) of its row.  Each unknown k of
(c, s, x, y, z, u, v, w) is +-sqrt(m_k)/3 at every solution, with
m = (1, 8, 1, 2, 6, 1, 2, 6).  At these magnitudes the diagonal equations
and the unit norms hold for any signs s_k (times 9 they read 12 = 12 and
9 = 9), and the off-diagonal ones reduce to three equations in the signs:

    2 s_c s_s + s_x s_y + s_u s_v = 0,   s_y s_z + s_v s_w = 0,   s_x s_z + s_u s_w = 0.

Exactly 32 of the 2^8 sign vectors solve them, the rows of CATALOG_SIGNS,
and catalog rows are looked up by their signs exactly.  No unknown
vanishes at any solution; division guards in the cascade turn that
argument into runtime assertions.

An independent multi-start damped-Newton root hunt over the residual map
cross-checks the enumeration: converged starts must cluster at the 32
closed-form solutions and nowhere else.  The hunt is vectorized and
deterministic for a fixed seed.  It solves its Newton systems in fixed,
cache-sized batches of starts, and it hunts the starts in contiguous
blocks: on Linux, when more than one CPU is usable and the caller has one
thread, every block but the first runs in a forked worker.  Every step of
the hunt acts on each start alone, so neither the batch size nor the
blocks change a single bit of the result.  Its residual norms come from
_row_norms, which sums the eight squares in the order numpy's pairwise
sum takes, so they equal np.linalg.norm's bit for bit without its conj
copy and per-row reduce.  The converged points are clustered over one
covered mask, each pass taking norms only over the points on its
representative's side of every coordinate plane the representative lies
farther than the cluster radius from.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .spheregeom import ONE_THIRD as _T, SQRT2_THIRD as _R2, SQRT6_THIRD as _R6, TWO_SQRT2_THIRD as _S, PointSet

RESIDUAL_TOL = 1e-12
NONVANISHING_FLOOR = _T

#: Product of the equation degrees: upper bound on the root count.
BEZOUT_COUNT = 2**8
#: Sharper mixed-volume bound, quoted for reference; not recomputed here.
BKK_BOUND_CITED = 192

#: The magnitude sqrt(m_k)/3, m = (1, 8, 1, 2, 6, 1, 2, 6), of each unknown
#: (c, s, x, y, z, u, v, w) at every solution, and its exact-radical spelling.
CATALOG_MAGNITUDES = (_T, _S, _T, _R2, _R6, _T, _R2, _R6)
CATALOG_RADICALS = ("1/3", "2*sqrt(2)/3", "1/3", "sqrt(2)/3", "sqrt(6)/3", "1/3", "sqrt(2)/3", "sqrt(6)/3")

#: The signs of the unknowns (c, s, x, y, z, u, v, w) of the 32 solutions,
#: one +-1 row each in catalog order 1..32: the one literal statement of the catalog.
CATALOG_SIGNS = np.array([[1 if sign == "+" else -1 for sign in row] for row in (
    "+---++++", "+---+---", "+----++-", "+------+",  # rows 1-4
    "+-+++++-", "+-+++--+", "+-++-+++", "+-++----",  # rows 5-8
    "++-+++-+", "++-++-+-", "++-+-+--", "++-+--++",  # rows 9-12
    "+++-++--", "+++-+-++", "+++--+-+", "+++---+-",  # rows 13-16
    "---+++-+", "---++-+-", "---+--++", "---+-+--",  # rows 17-20
    "--+-++--", "--+-+-++", "--+---+-", "--+--+-+",  # rows 21-24
    "-+---++-", "-+-----+", "-+--+---", "-+--++++",  # rows 25-28
    "-+++----", "-+++-+++", "-++++--+", "-++++++-",  # rows 29-32
)])
CATALOG_SIGNS.setflags(write=False)

#: The 32 solutions (c, s, x, y, z, u, v, w), exact radicals in double
#: precision, in catalog order 1..32: each row of signs times the magnitudes.
SOLUTION_CATALOG = tuple(
    tuple(sign * mag for sign, mag in zip(row, CATALOG_MAGNITUDES)) for row in CATALOG_SIGNS.tolist()
)

#: Index of the trivially isotropic set (the regular tetrahedron) in the catalog.
TRIVIAL_SET_INDEX = 18

#: The 1-based catalog row of each row of signs.
_ROW_OF_SIGNS = {tuple(row): k for k, row in enumerate(CATALOG_SIGNS.tolist(), start=1)}


def _sign(t) -> int:
    """-1, 0 or 1 as the number t is negative, zero or positive (0 for NaN)."""
    return 1 if t > 0 else -1 if t < 0 else 0


class SolutionRecord(NamedTuple):
    """One root (c, s, x, y, z, u, v, w) of the isotropy system.

    index is the 1-based row in SOLUTION_CATALOG that enumerate_solutions
    read the record from.
    sign_pattern is read off the signs of the components: the five
    square-root branch choices (s_u, s_z, s_v, s_s, s_w) whose cascade
    gives a point with these signs.  A zero or NaN component gives a 0
    entry, which has no cascade branch and fails catalog-bijection.
    """

    c: float
    s: float
    x: float
    y: float
    z: float
    u: float
    v: float
    w: float
    index: int

    @property
    def components(self) -> tuple:
        return (self.c, self.s, self.x, self.y, self.z, self.u, self.v, self.w)

    @property
    def sign_pattern(self) -> tuple:
        # z = s_z sqrt(6) u and v = s_v sqrt(2) u carry the sign of u; s and w carry their own
        s_u = _sign(self.u)
        return (s_u, _sign(self.z) * s_u, _sign(self.v) * s_u, _sign(self.s), _sign(self.w))

    @property
    def axes(self) -> PointSet:
        """The induced four axes e_1..e_4 on the unit sphere."""
        return PointSet(_axes_of(self.components)[0])


#: Where the unknowns (c, s, x, y, z, u, v, w) sit among the 12 coordinates of
#: the axes e_1..e_4; e_1 = [1, 0, 0] and e_2 lies in the x-y plane.
_AXIS_SLOTS = [3, 4, 6, 7, 8, 9, 10, 11]


def _axes_of(points) -> np.ndarray:
    """Axes e_1..e_4 induced by unknowns (c, s, x, y, z, u, v, w), stacked (m, 8): shape (m, 4, 3).

    One tuple of unknowns gives m = 1.  The axes are not validated, so a
    stack costs no PointSet per row; SolutionRecord.axes validates one.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 8)
    axes = np.zeros((pts.shape[0], 12))
    axes[:, 0] = 1.0
    axes[:, _AXIS_SLOTS] = pts
    return axes.reshape(-1, 4, 3)


#: The catalog as one (32, 8) array, and the axes e_1..e_4 of every row, shape (32, 4, 3).
_CATALOG = np.array(SOLUTION_CATALOG)
_CATALOG_AXES = _axes_of(_CATALOG)
_CATALOG.setflags(write=False)
_CATALOG_AXES.setflags(write=False)


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


def _jacobian_batch(pts: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Analytic Jacobian of the residual map, stacked (m, 8, 8), written into out.

    out is an (m, 8, 8) buffer whose structural zeros are already zero;
    only the nonzero entries are written, so slices of one zeroed buffer
    serve batches of every size.
    """
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


def solve_closed_form_stack(patterns) -> np.ndarray:
    """Evaluate the elimination cascade for square-root sign patterns (m, 5): unknowns (m, 8).

    Each row of patterns is (s_u, s_z, s_v, s_s, s_w) with entries +-1, and
    row k of the result is (c, s, x, y, z, u, v, w) for row k of patterns.
    Every one of the 32 patterns is regular: the divisions by z and s are
    guarded by runtime assertions (|z| = sqrt(6)/3, |s| = 2 sqrt(2)/3
    always), and one residual evaluation checks every row.
    """
    signs = np.asarray(patterns)
    if signs.ndim != 2 or signs.shape[1] != 5:
        raise ValueError(f"expected sign patterns of 5 entries (s_u, s_z, s_v, s_s, s_w), got shape {signs.shape}")
    bad = ~((signs == 1) | (signs == -1)).all(axis=1)
    if bad.any():
        raise ValueError(f"sign pattern entries must be +-1, got {signs[bad][0].tolist()!r}")
    s_u, s_z, s_v, s_s, s_w = signs.T.astype(float)
    u = s_u * (1.0 / 3.0)
    z = s_z * math.sqrt(6.0) * u
    v = s_v * math.sqrt(2.0) * u
    s = s_s * (2.0 * math.sqrt(2.0) / 3.0)
    w = s_w * (1.0 / 3.0) * np.sqrt(6.0 * (2.0 - 9.0 * u * u))
    vanishing = (np.abs(z) < 0.1) | (np.abs(s) < 0.1)
    if vanishing.any():
        k = int(np.argmax(vanishing))
        raise ArithmeticError(f"vanishing divisor in back-substitution: z={float(z[k])!r}, s={float(s[k])!r}")
    x = -w * u / z
    y = -v * w / z
    c = u * (w * y - v * z) / (s * z)
    points = np.stack([c, s, x, y, z, u, v, w], axis=-1)
    worst = np.max(np.abs(residuals(points)), axis=-1)
    if not (worst <= RESIDUAL_TOL).all():
        raise ArithmeticError(f"closed-form solution violates the system: residual {float(np.max(worst))!r}")
    return points


def _column_max(a: np.ndarray) -> np.ndarray:
    """Maxima of a (..., k) over its last axis, equal to np.max(a, axis=-1) bit for bit, nan kept.

    A running np.maximum over the k columns skips the reduction machinery,
    which dominates on a short axis.  Max is exact, so the order changes no
    value; only a zero or nan maximum may differ in sign where a row holds
    both signs of it, so the callers pass absolute values.
    """
    out = a[..., 0].copy()
    for k in range(1, a.shape[-1]):
        np.maximum(out, a[..., k], out=out)
    return out


def catalog_distances(axes) -> np.ndarray:
    """Max-norm distances from axis sets (..., 4, 3) to the 32 catalog axis sets.

    Entry [..., k] is the distance to catalog row k + 1: the largest
    |difference| over the 12 coordinates, a nan one kept.  No sum enters:
    the maxima run over x, y, z and then over the four axes, and max is
    exact, so the result equals np.max over both axes bit for bit.
    Raises ValueError for any other shape.
    """
    a = np.asarray(axes, dtype=float)
    if a.shape[-2:] != (4, 3):
        raise ValueError(f"expected axis sets of shape (..., 4, 3), got shape {a.shape}")
    return _column_max(_column_max(np.abs(a[..., None, :, :] - _CATALOG_AXES)))


def catalog_rows(signs) -> list:
    """1-based catalog rows of sign vectors (m, 8), each equal to a row of CATALOG_SIGNS.

    The lookup is exact: a vector matches only the row whose entries it
    equals, so one holding a 0 or a NaN matches none.  Raises
    ArithmeticError for the first vector that matches no row.
    """
    vectors = np.asarray(signs).reshape(-1, 8).tolist()
    rows = [_ROW_OF_SIGNS.get(tuple(v)) for v in vectors]
    if None in rows:
        raise ArithmeticError(f"signs {vectors[rows.index(None)]} match no catalog row")
    return rows


def enumerate_solutions() -> list:
    """All 32 solutions in catalog order, read from SOLUTION_CATALOG.

    Record k carries row k's exact-radical doubles and index k, so its
    sign_pattern is read off row k of CATALOG_SIGNS.  Nothing is solved
    here: verify's catalog-bijection check re-runs the elimination cascade
    from the 32 sign patterns and proves each branch within RESIDUAL_TOL
    (1e-12) of its row.  The records are built afresh on every call.
    """
    return [SolutionRecord(*row, index) for index, row in enumerate(SOLUTION_CATALOG, start=1)]


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


def _row_norms(r: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of a C-contiguous (m, 8) array, bit-equal to np.linalg.norm(r, axis=1).

    The squares are summed in the order numpy's pairwise sum takes for 8
    contiguous elements, ((q0 + q1) + (q2 + q3)) + ((q4 + q5) + (q6 + q7)),
    so every bit matches, without the conj copy and the per-row reduce.
    The sums are taken in place in the array of squares, so the squares and
    the norms are the only arrays made: column temporaries would raise the
    hunt's peak memory.
    """
    q = r * r
    q[:, 0::2] += q[:, 1::2]  # q0 + q1, q2 + q3, q4 + q5, q6 + q7 in columns 0, 2, 4, 6
    q[:, 0::4] += q[:, 2::4]  # (q0 + q1) + (q2 + q3) in column 0, (q4 + q5) + (q6 + q7) in column 4
    norms = q[:, 0] + q[:, 4]
    return np.sqrt(norms, out=norms)


#: Bit j of a sign code stands for coordinate j of a point.
_SIGN_BITS = 1 << np.arange(8)


def _cluster(points: np.ndarray, radius: float) -> np.ndarray:
    """Greedy clustering in lexicographic order, one pass per cluster.

    Visiting the points in lexicographic order, a point becomes a
    representative unless an earlier representative lies within radius.
    Equivalently, the first point not yet covered is the next
    representative, and every point within radius of it is covered at
    once.  Representatives come out lexicographically sorted.  The points
    are sorted once and marked in one covered mask, never copied on a pass.

    A pass takes norms only over its candidates: the uncovered points on
    the representative's side of every coordinate plane it lies more
    than radius from (a decided coordinate), read off the sign codes
    sum_j 2^j [p_j > 0].  The filter drops no point the greedy rule
    covers.  Across a decided coordinate j, |fl(p_j - rep_j)| >= |rep_j| >
    radius, since rounded subtraction is monotone and -rep_j is a double;
    and the computed norm is at least every computed |p_j - rep_j|, since a
    rounded sum of non-negative squares is monotone and fl(sqrt(fl(d d)))
    = |d| while d d neither underflows nor overflows (an overflow gives
    inf).  Coordinates within 2^-511 of a plane stay undecided, so no such
    square is subnormal whatever the radius.  A NaN gives sign bit 0 and
    leaves its coordinate undecided, so a NaN representative still covers
    only itself.
    """
    rest = points[np.lexsort(points.T[::-1])]
    n = rest.shape[0]
    if n == 0:
        return np.empty((0, 8))
    codes = (rest > 0) @ _SIGN_BITS
    floor = max(radius, 2.0**-511)
    covered = np.zeros(n, dtype=bool)
    reps = []
    i = 0
    while True:
        rep = rest[i]
        decided = (np.abs(rep) > floor) @ _SIGN_BITS
        # every point before i is covered, so only the tail is searched
        cand = i + np.flatnonzero((((codes[i:] ^ codes[i]) & decided) == 0) & ~covered[i:])
        covered[cand[_row_norms(rest[cand] - rep) <= radius]] = True
        covered[i] = True  # a representative never survives its own pass, even if not finite
        reps.append(rep)
        i += int(np.argmin(covered[i:]))  # the first point not yet covered, or i again once all are
        if covered[i]:
            return np.array(reps)


START_BOX = 1.5  # half-width of the cube the oracle's starts are drawn from
MAX_ITERS = 60  # damped Newton iterations before an unconverged start is discarded
CONVERGE_TOL = 1e-10  # residual norm below which a start has converged
CLUSTER_RADIUS = 1e-6  # converged points this close are one root
_SOLVE_CHUNK = 1024  # starts per Jacobian solve: a (1024, 8, 8) buffer is 512 KB and stays in cache


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


def _hunt_block(pts: np.ndarray) -> tuple:
    """Damped Newton from every start of pts (m, 8), then a polish of the converged ones.

    Returns the polished converged points (in start order) and the
    iterations (m,) each start took to converge, -1 if discarded.
    Converged starts are written back into pts.
    """
    iters = np.full(pts.shape[0], -1, dtype=int)
    # one Jacobian buffer per block; its structural zeros are never written
    jac_buf = np.zeros((_SOLVE_CHUNK, 8, 8))
    r = residuals(pts)
    norm = _row_norms(r)
    done = norm < CONVERGE_TOL
    iters[done] = 0
    # the active starts' points, residuals and residual norms, carried
    # compactly across iterations; a start is written back to pts once it converges
    active = np.nonzero(~done)[0]
    cur, r, norm = pts[active], r[active], norm[active]
    # each (m, 8) array is deleted once it is read for the last time, so it
    # never sits beside the next allocation
    for it in range(1, MAX_ITERS + 1):
        if active.size == 0:
            break
        step = _newton_steps(cur, r, jac_buf)
        del r
        # backtracking line search on the residual norm: the full step for
        # every start, then halved steps for the starts still pending
        new = cur + step
        new_r = residuals(new)
        new_norm = _row_norms(new_r)
        improved = new_norm < norm
        pending = np.nonzero(~improved)[0]
        for lam in 0.5 ** np.arange(1, 7):
            if pending.size == 0:
                break
            trial = cur[pending] + lam * step[pending]
            trial_r = residuals(trial)
            trial_norm = _row_norms(trial_r)
            ok = trial_norm < norm[pending]
            sel = pending[ok]
            new[sel], new_r[sel], new_norm[sel] = trial[ok], trial_r[ok], trial_norm[ok]
            del trial, trial_r, trial_norm
            improved[sel] = True
            pending = pending[~ok]
        del cur, step
        conv = improved & (new_norm < CONVERGE_TOL)
        pts[active[conv]] = new[conv]
        iters[active[conv]] = it
        keep = improved & ~conv
        active = active[keep]
        cur, r, norm = new[keep], new_r[keep], new_norm[keep]
        del new, new_r, new_norm
    hits = pts[iters >= 0]
    # polish with undamped Newton so clusters collapse to machine precision;
    # converged starts lie next to simple roots, where |det J| = 256 sqrt(2)/81
    for _ in range(3):
        hits += _newton_steps(hits, residuals(hits), jac_buf)
    return hits, iters


def _fork_block(pts: np.ndarray) -> tuple:
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
                pickle.dump(_hunt_block(pts), out, protocol=pickle.HIGHEST_PROTOCOL)
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


def _hunt_blocks(pts: np.ndarray) -> list:
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
                workers[b] = _fork_block(blocks[b])
            except OSError:
                pass  # no worker: this process hunts the block below
        results = [_hunt_block(blocks[0])]
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
            results.append(result if result is not None else _hunt_block(blocks[b]))
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


def oracle_root_hunt(n_starts: int = 20000, seed: int = 0, starts: np.ndarray | None = None) -> OracleReport:
    """Hunt for real roots of the system by damped Newton from random starts.

    Starts are uniform in [-START_BOX, START_BOX]^8 (all unknowns are sines
    or cosines, so the box with margin is a sound search region); explicit
    starts of shape (m, 8) override the random draw, and any other shape
    raises ValueError.  Zero starts give an empty report; a negative
    n_starts raises ValueError.  Converged points are
    polished, clustered and returned sorted, so the outcome is independent
    of scheduling for a fixed seed.  A start is discarded, and counted, once
    no damped step lowers its residual norm (a Jacobian LAPACK finds
    singular gives no step) or when MAX_ITERS iterations leave it unconverged.

    The starts are hunted in min(usable CPUs, ceil(n / _SOLVE_CHUNK))
    contiguous blocks, so up to _SOLVE_CHUNK starts stay in one.  On Linux,
    when more than one CPU is usable and no other Python thread is alive,
    every block but the first runs in a forked worker; otherwise one block
    holds every start.  Within a block the Newton systems are solved
    _SOLVE_CHUNK starts at a time, so the Jacobians stay in cache.  The
    result is the same bit for bit whatever the blocks and the batch size:
    the residuals, the Jacobian, the norms and LAPACK's solve all act on
    each start alone, and the converged points are clustered once, in start
    order.  The polish shares the singular
    fallback, so a polish system LAPACK refuses would leave its point
    unmoved rather than raise; at a converged start that cannot happen,
    since |det J| = 256 sqrt(2)/81 at every root.
    """
    if starts is None:
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-START_BOX, START_BOX, size=(n_starts, 8))
    else:
        pts = np.array(starts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 8:
            raise ValueError(f"starts must have shape (m, 8), got {pts.shape}")
        n_starts = pts.shape[0]
    results = _hunt_blocks(pts)
    hits = np.concatenate([block_hits for block_hits, _ in results])
    iters = np.concatenate([block_iters for _, block_iters in results])
    n_converged = hits.shape[0]
    return OracleReport(_cluster(hits, CLUSTER_RADIUS), n_starts, n_converged, n_starts - n_converged, iters)
