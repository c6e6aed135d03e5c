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
deterministic for a fixed seed.
"""

from __future__ import annotations

import itertools
import math
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
        return PointSet(
            [
                [1.0, 0.0, 0.0],
                [self.c, self.s, 0.0],
                [self.x, self.y, self.z],
                [self.u, self.v, self.w],
            ]
        )


#: The axes e_1..e_4 of every catalog row, shape (32, 4, 3).
_CATALOG_AXES = np.array([SolutionRecord(*row).axes.array for row in SOLUTION_CATALOG])


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


def match_catalog_index(axes) -> int | None:
    """1-based catalog row whose axes e_1..e_4 all match within RESIDUAL_TOL, if any.

    Catalog rows lie at least 2/3 apart in max-norm, so at most one row matches.
    """
    (hits,) = np.nonzero(catalog_distances(axes) <= RESIDUAL_TOL)
    return int(hits[0]) + 1 if hits.size else None


def enumerate_solutions() -> list:
    """All 32 solutions, matched bijectively to the catalog and sorted.

    Raises if any branch fails to match a catalog row within
    RESIDUAL_TOL or if the branch-to-row assignment is not a bijection.
    The returned records carry the catalog's exact-radical doubles; the
    floating-point output of the cascade only serves to establish the
    match.
    """
    by_index: dict[int, SolutionRecord] = {}
    for pattern in sign_patterns():
        rec = solve_closed_form(pattern)
        idx = match_catalog_index(rec.axes.array)
        if idx is None:
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
    """
    if starts is None:
        if n_starts < 1:
            return OracleReport(np.empty((0, 8)), 0, 0, 0, np.empty(0, dtype=int))
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-START_BOX, START_BOX, size=(n_starts, 8))
    else:
        pts = np.array(starts, dtype=float).reshape(-1, 8)
        n_starts = pts.shape[0]
    iters = np.full(n_starts, -1, dtype=int)
    # one Jacobian buffer for every batch; its structural zeros are never written
    jac_buf = np.zeros((n_starts, 8, 8))
    active = np.arange(n_starts)
    res = residuals(pts)
    done = np.linalg.norm(res, axis=1) < CONVERGE_TOL
    iters[active[done]] = 0
    active = active[~done]
    r = res[~done]  # residuals at pts[active], carried across iterations
    for it in range(1, max_iters + 1):
        if active.size == 0:
            break
        cur = pts[active]
        jac = _jacobian_batch(cur, jac_buf[: active.size])
        try:
            step = np.linalg.solve(jac, -r[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # an exactly singular Jacobian: solve one at a time; a refused one keeps a zero step and stalls
            step = np.zeros_like(cur)
            for k in range(active.size):
                try:
                    step[k] = np.linalg.solve(jac[k : k + 1], -r[k : k + 1, :, None])[0, :, 0]
                except np.linalg.LinAlgError:
                    pass
        # backtracking line search on the residual norm; the residuals of
        # each accepted trial are kept for the convergence test and the
        # next iteration
        norm0 = np.linalg.norm(r, axis=1)
        new = np.array(cur)
        new_r = np.array(r)
        improved = np.zeros(active.size, dtype=bool)
        for lam in 0.5 ** np.arange(7):
            pending = ~improved
            if not np.any(pending):
                break
            trial = cur[pending] + lam * step[pending]
            trial_r = residuals(trial)
            ok = np.linalg.norm(trial_r, axis=1) < norm0[pending]
            sel = np.nonzero(pending)[0][ok]
            new[sel] = trial[ok]
            new_r[sel] = trial_r[ok]
            improved[sel] = True
        pts[active] = new
        conv = improved & (np.linalg.norm(new_r, axis=1) < CONVERGE_TOL)
        iters[active[conv]] = it
        keep = improved & ~conv
        active = active[keep]
        r = new_r[keep]
    converged = iters >= 0
    n_converged = int(np.count_nonzero(converged))
    hits = pts[converged]
    if hits.size:
        # polish with undamped Newton so clusters collapse to machine precision;
        # converged starts lie next to simple roots, where |det J| = 256 sqrt(2)/81
        for _ in range(3):
            jac = _jacobian_batch(hits, jac_buf[: hits.shape[0]])
            hits += np.linalg.solve(jac, -residuals(hits)[..., None])[..., 0]
        roots = _cluster(hits, CLUSTER_RADIUS)
    else:
        roots = np.empty((0, 8))
    return OracleReport(roots, n_starts, n_converged, n_starts - n_converged, iters)
