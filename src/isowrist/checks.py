"""Named invariant checks covering every module of the library.

Each check measures a worst-case numeric margin against a stated
tolerance and reports pass or fail; `run_checks` executes the whole
suite.  These are the same verifications exercised by the test suite,
packaged so the command-line `verify` command can run them on demand.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import NamedTuple

import numpy as np

from .classify import (
    ANTIPODAL_SUBSETS, CLASS_PATTERNS, _catalog_chains, _signatures, antipodal_map_table, chain_orderings,
    distinct_wrists, reflection_map_table, symmetry_images,
)
from .kinematics import TWIST_TOL, _forward_chain, dh_from_axes_stack, isotropy_report_stack, jacobian_from_axes_stack
from .solver import (
    NONVANISHING_FLOOR, RESIDUAL_TOL, _CATALOG, _CATALOG_AXES, _axes_of, _column_max, _row_norms, catalog_distances,
    enumerate_solutions, oracle_root_hunt, residuals, solve_closed_form_stack,
)
from .spheregeom import ONE_THIRD as _T, SQRT2_THIRD as _R2, SQRT6_THIRD as _R6, TWO_SQRT2_THIRD as _S2
from .spheregeom import (
    PlatonicSolid,
    PointSet,
    TETRAHEDRON,
    _line_reflection,
    _unit_rows,
    isotropy_of,
    isotropy_of_stack,
    platonic_vertices,
    reflect_about_plane,
    rotation_about_axis,
    second_moment,
    second_moment_stack,
)

#: Antipodal-exchange images of the trivial set, by exchanged subset.
EXPECTED_ANTIPODAL_TARGETS = {
    (): 18,
    (2,): 10,
    (3,): 23,
    (4,): 17,
    (2, 3): 16,
    (2, 4): 9,
    (3, 4): 24,
    (2, 3, 4): 15,
}

#: Reflection images of the eight seed solutions, by operation.
EXPECTED_REFLECTION_TARGETS = {
    "reflect_xy": (19, 12, 22, 20, 14, 21, 11, 13),
    "reflect_xz": (27, 2, 29, 28, 8, 30, 1, 7),
    "reflect_xz_then_xy": (26, 4, 31, 25, 6, 32, 3, 5),
}

#: The three reflections of the trivial set about the coordinate planes
#: (normals x, y, z), written out as exact constants.
EXPECTED_REFLECTED_TETRAHEDRA = {
    "yz": np.array([[-1, 0, 0], [_T, -_S2, 0], [_T, _R2, _R6], [_T, _R2, -_R6]]),
    "xz": np.array([[1, 0, 0], [-_T, _S2, 0], [-_T, -_R2, _R6], [-_T, -_R2, -_R6]]),
    "xy": np.array([[1, 0, 0], [-_T, -_S2, 0], [-_T, _R2, -_R6], [-_T, _R2, _R6]]),
}

SIGMA_FOUR_AXES = math.sqrt(4.0 / 3.0)

#: Sample sizes of the randomized checks and the posture check's grid side.
LINE_REFLECTION_COUNT = 100
DH_ROUND_TRIP_COUNT = 50
MOMENT_AGREEMENT_COUNT = 1000
TRACE_IDENTITY_COUNT = 200
POSTURE_GRID = 12

#: The least max-norm gap between two solutions, and the greatest distance
#: from an oracle root to its nearest catalog row.
DISTINCTNESS_FLOOR = 0.1
ORACLE_ROOT_TOL = 1e-8


class CheckResult(NamedTuple):
    """One check's verdict: status is "PASS", "FAIL" or "SKIP", worst its worst margin against tolerance."""

    name: str
    status: str
    worst: float
    tolerance: float
    detail: str


def _result(name, worst, tol, extra_ok=True, *, detail) -> CheckResult:
    """The verdict on a worst margin: it passes when extra_ok holds and worst <= tol, so a nan or inf worst fails."""
    return CheckResult(name, "PASS" if extra_ok and worst <= tol else "FAIL", float(worst), float(tol), detail)


def _worst(margins) -> float:
    """The largest margin, nan if any is nan (np.max keeps it), and inf if there is none: no margin is no evidence."""
    margins = np.fromiter(margins, dtype=float)
    return float(np.max(margins)) if margins.size else math.inf


def _components(solutions) -> np.ndarray:
    """The unknowns (c, s, x, y, z, u, v, w) of every record, shape (len(solutions), 8), also with no records."""
    return np.array([r.components for r in solutions], dtype=float).reshape(-1, 8)


def _closure_gap(solutions, symmetries: slice) -> float:
    """Largest distance from the axes of any of the records' symmetry images to their nearest catalog row."""
    images = symmetry_images(_components(solutions))[symmetries]
    # one catalog table per image: one table over all images is a larger temporary, about twice as slow on 2 vCPUs
    return _worst(np.concatenate([np.min(catalog_distances(_axes_of(image)), axis=-1) for image in images]))


def check_solution_residuals(solutions) -> CheckResult:
    worst = _worst(np.max(np.abs(residuals(_components(solutions))), axis=1))
    detail = f"max |residual| over {len(solutions)} solutions"
    return _result("solution-residuals", worst, RESIDUAL_TOL, detail=detail)


def check_catalog_bijection(solutions) -> CheckResult:
    # enumerate_solutions reads the catalog, so this is where the cascade runs: from each record's sign
    # pattern it must land within the bound of the row the record names, rows 1..32 once each.  A record
    # with a 0 sign (a zero or nan component) has no branch, one with another index no row: its margin is inf
    indices = [r.index for r in solutions]
    patterns = [r.sign_pattern for r in solutions]
    signs, rows = np.reshape(patterns, (-1, 5)), np.asarray(indices, dtype=int)
    valid = (signs != 0).all(axis=1) & (rows >= 1) & (rows <= len(_CATALOG))
    margins = np.full(len(rows), math.inf)
    margins[valid] = np.max(np.abs(solve_closed_form_stack(signs[valid]) - _CATALOG[rows[valid] - 1]), axis=1)
    ok = sorted(indices) == list(range(1, len(_CATALOG) + 1)) and len(set(patterns)) == len(_CATALOG)
    detail = "closed forms match catalog rows 1..32"
    return _result("catalog-bijection", _worst(margins), RESIDUAL_TOL, ok, detail=detail)


def check_nonvanishing(solutions) -> CheckResult:
    worst = _worst(NONVANISHING_FLOOR - np.min(np.abs(_components(solutions)), axis=1))
    return _result("solution-nonvanishing", worst, 1e-9, detail="min |component| >= 1/3 for all solutions")


def check_distinctness(solutions) -> CheckResult:
    comps = _components(solutions)
    gaps = _column_max(np.abs(comps[:, None, :] - comps[None, :, :]))
    dmin = -_worst(-gaps[np.triu_indices(len(comps), k=1)])
    status = "PASS" if dmin >= DISTINCTNESS_FLOOR else "FAIL"
    detail = "min pairwise max-norm separation (must exceed tolerance)"
    return CheckResult("solution-distinctness", status, dmin, DISTINCTNESS_FLOOR, detail)


def check_axis_dot_products(solutions) -> CheckResult:
    a = _axes_of(_components(solutions))
    # each Gram entry is bit-equal to the 1-D dot a[k, i] @ a[k, j] of the same two axes
    gram = a @ a.swapaxes(1, 2)
    i, j = np.triu_indices(4, k=1)
    worst = _worst(np.max(np.abs(np.abs(gram[:, i, j]) - _T), axis=1))
    return _result("axis-dot-products", worst, RESIDUAL_TOL, detail="all pairwise axis angles are arccos(+-1/3)")


def check_antipodal_closure(solutions) -> CheckResult:
    worst = _closure_gap(solutions, slice(len(ANTIPODAL_SUBSETS)))
    detail = f"{len(solutions)} solutions closed under antipodal exchanges"
    return _result("antipodal-closure", worst, RESIDUAL_TOL, detail=detail)


def check_reflection_closure(solutions) -> CheckResult:
    worst = _closure_gap(solutions, slice(len(ANTIPODAL_SUBSETS), None))
    detail = f"{len(solutions)} solutions closed under coordinate reflections"
    return _result("reflection-closure", worst, RESIDUAL_TOL, detail=detail)


def check_antipodal_map_targets() -> CheckResult:
    maps = {m.subset: m.target_index for m in antipodal_map_table()}
    ok = maps == EXPECTED_ANTIPODAL_TARGETS
    detail = ", ".join(f"{set(s) or '{}'}->{t}" for s, t in sorted(maps.items(), key=lambda kv: (len(kv[0]), kv[0])))
    return _result("antipodal-map-targets", float(not ok), 0.5, detail=detail)


def check_reflection_map_targets() -> CheckResult:
    maps = reflection_map_table()
    computed = {
        op: tuple(m.target_index for m in maps if m.operation == op) for op in EXPECTED_REFLECTION_TARGETS
    }
    ok = computed == EXPECTED_REFLECTION_TARGETS
    return _result("reflection-map-targets", float(not ok), 0.5, detail="all 24 reflection images verified")


def check_platonic_moments() -> CheckResult:
    isos = {kind: isotropy_of(second_moment(platonic_vertices(kind))) for kind in PlatonicSolid}
    worst = _worst(abs(iso.sigma_sq - kind.n / 3.0) for kind, iso in isos.items())
    ok = all(iso.isotropic for iso in isos.values())
    return _result("platonic-moments", worst, RESIDUAL_TOL, ok, detail="five vertex sets isotropic with sigma^2 = n/3")


def check_reflected_tetrahedra() -> CheckResult:
    tetra = PointSet(TETRAHEDRON)
    normals = {"yz": (1.0, 0.0, 0.0), "xz": (0.0, 1.0, 0.0), "xy": (0.0, 0.0, 1.0)}
    images = {plane: reflect_about_plane(tetra, normal) for plane, normal in normals.items()}
    worst = _worst(np.max(np.abs(img.array - EXPECTED_REFLECTED_TETRAHEDRA[plane])) for plane, img in images.items())
    ok = all(isotropy_of(second_moment(img)).isotropic for img in images.values())
    detail = "coordinate-plane reflections of the trivial set"
    return _result("reflected-tetrahedra", worst, RESIDUAL_TOL, ok, detail=detail)


def _uniform(gen, count, low, high):
    """count uniforms on [low, high) from one randbytes call: the top 53 bits of each little-endian 64-bit word."""
    words = np.frombuffer(gen.randbytes(8 * count), dtype="<u8")
    return low + (high - low) * ((words >> np.uint64(11)) * 2.0**-53)


def _sizes(gen, count, low, high):
    """count integers on low..high-1 from one randbytes call; high - low divides 256, so byte % k is exactly uniform."""
    k = high - low
    if 256 % k:
        raise ValueError(f"byte % {k} is not uniform: {k} does not divide 256")
    return (np.frombuffer(gen.randbytes(count), dtype=np.uint8) % k).astype(np.intp) + low


def _normals(gen, count):
    """count standard normals by Box-Muller, each consecutive pair from one pair (u, v) of a single uniform draw.

    r = sqrt(-2 log1p(-u)) is finite because u < 1; the pair is (r cos 2 pi v, r sin 2 pi v).
    """
    u, v = _uniform(gen, 2 * ((count + 1) // 2), 0.0, 1.0).reshape(-1, 2).T
    r = np.sqrt(-2.0 * np.log1p(-u))
    turn = 2.0 * math.pi * v
    return np.column_stack([r * np.cos(turn), r * np.sin(turn)]).ravel()[:count]


def _unit_vectors(gen, count):
    """count random unit vectors (count, 3): normals from one draw, each row divided by its own norm."""
    return _unit_rows(_normals(gen, 3 * count).reshape(count, 3))


def check_line_reflection(seed) -> CheckResult:
    axes = _unit_vectors(random.Random(seed), LINE_REFLECTION_COUNT)
    ell = _line_reflection(axes)
    worst = _worst([
        np.max(np.abs(ell @ ell.swapaxes(1, 2) - np.eye(3))),
        np.max(np.abs(np.linalg.det(ell) - 1.0)),
        np.max(np.abs((ell @ axes[..., None])[..., 0] - axes)),
        np.max(np.abs(ell - rotation_about_axis(axes, math.pi))),
    ])
    detail = f"2ee^T - I proper orthogonal over {LINE_REFLECTION_COUNT} random axes"
    return _result("line-reflection", worst, RESIDUAL_TOL, detail=detail)


#: The four interior-joint sign pairs a class's couplings are drawn from.
_SIGN_PAIRS = tuple(itertools.product((1, -1), repeat=2))


def _isotropic_couplings(wrists) -> list:
    """Per wrist class: the interior-joint sign pairs that keep it isotropic, sorted.

    Each class's interior joint magnitudes are kept and their signs set
    to every pair in turn; one stacked forward chain and SVD serve all
    classes and pairs.
    """
    twists = [w.twists for w in wrists for _ in _SIGN_PAIRS]
    magnitudes = [np.abs(w.interior_joints).tolist() for w in wrists]
    theta = [(0.0, s2 * t2, s3 * t3, 0.0) for t2, t3 in magnitudes for s2, s3 in _SIGN_PAIRS]
    axes, _ = _forward_chain(twists, theta)
    *_, iso = isotropy_report_stack(jacobian_from_axes_stack(axes))
    return [
        tuple(sorted(pair for pair, ok in zip(_SIGN_PAIRS, row) if ok))
        for row in iso.reshape(len(wrists), len(_SIGN_PAIRS))
    ]


def _unchainable(wrists) -> str:
    """The text "; class <label> not chainable" for the first class with a non-finite twist or interior joint, or a
    twist that makes consecutive axes parallel; "" when every class is chainable.

    The text ends the detail of a wrist check that such a class fails.  A forward chain raises on an infinite
    angle, and dh_from_axes_stack on |cos twist| >= 1 - TWIST_TOL; a twist passes only with |cos| < 1 - 2 TWIST_TOL,
    so the forward chain's rounding (about 1e-16) cannot carry it there.
    """
    for w in wrists:
        finite = all(map(math.isfinite, (*w.twists, *w.interior_joints)))
        if not finite or any(abs(math.cos(a)) >= 1 - 2 * TWIST_TOL for a in w.twists):
            return f"; class {w.label} not chainable"
    return ""


def check_wrist_classes(wrists) -> CheckResult:
    # the classes come from an exact pass over the sign table; its independent float cross-check recovers all
    # 192 chains of the float catalog in one dh_from_axes_stack call, in the sorted _catalog_chains order.  The
    # sorted members must be exactly these chains, each with its class's signature and its own interior joint signs
    twists, joints = dh_from_axes_stack(_CATALOG_AXES[:, chain_orderings()].reshape(-1, 4, 3))
    signs = map(tuple, np.sign(joints[:, 1:3]).astype(int).tolist())
    chains = list(zip(_catalog_chains(len(_CATALOG_AXES)), _signatures(twists, joints[:, 1:3]), signs))
    members = sorted(
        ((m.solution_index, m.ordering), CLASS_PATTERNS[w.label], m.joint_signs) for w in wrists for m in w.members
    )
    unchainable = _unchainable(wrists)
    ok = len(wrists) == len(CLASS_PATTERNS) and members == chains and not unchainable
    ok = ok and all(w.couplings == isotropic for w, isotropic in zip(wrists, _isotropic_couplings(wrists)))
    pairs = [(a, c) for w in wrists for a, c in zip(w.twists, CLASS_PATTERNS[w.label].cos_twists)]
    worst = _worst(abs(math.degrees(a) - math.degrees(math.acos(c))) for a, c in pairs)
    detail = "8 classes, twist triples in degrees, couplings verified" + unchainable
    return _result("wrist-classes", worst, 0.05, ok, detail=detail)


def check_posture_isotropy(wrists) -> CheckResult:
    margins = []
    unchainable = _unchainable(wrists)
    if wrists and not unchainable:
        angles = np.linspace(0.0, 2.0 * math.pi, POSTURE_GRID, endpoint=False)
        # one row per (wrist, theta_1 grid value): the wrist's own twists and interior joints, theta_4 = nan.
        # theta_4 turns only the end-effector normal; an axis that read it would come out nan, so finite axes
        # are the ones every theta_4 of the grid (and every theta_4 at all) gives, bit for bit
        twists = np.repeat([w.twists for w in wrists], POSTURE_GRID, axis=0)
        interior = np.repeat([w.interior_joints for w in wrists], POSTURE_GRID, axis=0)
        theta = np.column_stack([np.tile(angles, len(wrists)), interior, np.full(len(interior), math.nan)])
        axes, _ = _forward_chain(twists, theta)
        # non-finite axes (ones that read theta_4) leave no margin: the worst is infinite
        if np.isfinite(axes).all():
            _, sigma, cond, _ = isotropy_report_stack(jacobian_from_axes_stack(axes))
            margins = [np.max(np.abs(cond - 1.0)), np.max(np.abs(sigma - SIGMA_FOUR_AXES))]
    detail = f"condition number and sigma over a {POSTURE_GRID}x{POSTURE_GRID} free-angle grid" + unchainable
    return _result("posture-isotropy", _worst(margins), 1e-9, detail=detail)


def _random_chains(gen, count):
    """count random (twists, interior joints) pairs of 3..6-joint chains: the sizes, twists and joints one draw each.

    Twists are uniform on [0.2, pi - 0.2) and interior joints on [-3, 3); the free end joints are left out.
    """
    sizes = _sizes(gen, count, 3, 7)
    twists = np.split(_uniform(gen, int(np.sum(sizes - 1)), 0.2, math.pi - 0.2), np.cumsum(sizes - 1)[:-1])
    joints = np.split(_uniform(gen, int(np.sum(sizes - 2)), -3.0, 3.0), np.cumsum(sizes - 2)[:-1])
    return list(zip(twists, joints))


def check_dh_round_trip(wrists, seed) -> CheckResult:
    margins = []
    unchainable = _unchainable(wrists)
    if not unchainable:
        chains = [(w.twists, w.interior_joints) for w in wrists]
        chains += _random_chains(random.Random(seed), DH_ROUND_TRIP_COUNT)
        # one forward chain and one recovery serve every chain length: each chain is padded with twists of pi/2 and
        # zero joints.  Axis k+1 reads only the twists and joints before it, and a recovered value only its own
        # axes, so the chain's own values keep their bits; the margins read those alone
        sizes = np.array([len(chain_twists) for chain_twists, _ in chains])
        valid = np.arange(np.max(sizes)) < sizes[:, None]
        twists = np.full(valid.shape, math.pi / 2)
        twists[valid] = np.concatenate([chain_twists for chain_twists, _ in chains])
        interior = np.zeros((len(chains), valid.shape[1] - 1))
        interior[valid[:, 1:]] = np.concatenate([joints for _, joints in chains])
        theta = np.column_stack([np.full(len(chains), 0.4), interior, np.full(len(chains), 1.1)])
        axes, _ = _forward_chain(twists, theta)
        back_twists, back_joints = dh_from_axes_stack(axes)
        margins = [
            np.max(np.abs(twists - back_twists)[valid]),
            np.max(np.abs(interior - back_joints[:, 1:-1])[valid[:, 1:]]),
        ]
    detail = "forward kinematics then parameter recovery" + unchainable
    return _result("dh-round-trip", _worst(margins), 1e-9, detail=detail)


def _random_unit_sets(gen, count):
    """count random unit-vector sets of 1..8 points each: all sizes in one draw, then all points in one.

    Returns [(n, stack (k, n, 3))] in ascending n, draw order kept in each stack.
    """
    sizes = _sizes(gen, count, 1, 9)
    points = _unit_vectors(gen, int(np.sum(sizes)))
    starts = np.cumsum(sizes) - sizes
    return [(n, points[starts[sizes == n, None] + np.arange(n)]) for n in sorted(set(sizes.tolist()))]


def check_jacobian_moment_agreement(solutions, seed) -> CheckResult:
    margins = []
    agree = True
    stacks = [_axes_of(_components(solutions))] + [platonic_vertices(k).array[None] for k in PlatonicSolid]
    stacks += [stack for _, stack in _random_unit_sets(random.Random(seed), MOMENT_AGREEMENT_COUNT)]
    # one stack per set size, in ascending size, input order kept within it
    for n in sorted({stack.shape[1] for stack in stacks}):
        stack = np.concatenate([group for group in stacks if group.shape[1] == n])
        j = jacobian_from_axes_stack(stack)
        h = second_moment_stack(stack)
        margins.append(np.max(np.abs(j @ j.swapaxes(1, 2) - h)))
        *_, iso_j = isotropy_report_stack(j)
        iso_h, _ = isotropy_of_stack(h)
        agree = agree and bool(np.array_equal(iso_j, iso_h))
    detail = "J J^T = H and matching isotropy verdicts"
    return _result("jacobian-moment-agreement", _worst(margins), 1e-12, agree, detail=detail)


def check_trace_identity(seed) -> CheckResult:
    margins = []
    for n, stack in _random_unit_sets(random.Random(seed), TRACE_IDENTITY_COUNT):
        sv = np.linalg.svd(jacobian_from_axes_stack(stack), compute_uv=False)
        margins.append(np.max(np.abs(np.sum(sv**2, axis=-1) - n)))
    return _result("singular-value-trace", _worst(margins), 1e-12, detail="squared singular values sum to n")


def check_oracle(oracle_starts, seed) -> CheckResult:
    if oracle_starts < 1:
        return CheckResult("oracle-root-hunt", "SKIP", 0.0, ORACLE_ROOT_TOL, "skipped (0 starts)")
    report = oracle_root_hunt(n_starts=oracle_starts, seed=seed)
    # Euclidean distance to the nearest catalog row; the max-norm of catalog_distances would loosen the check
    gaps = _row_norms((report.roots[:, None, :] - _CATALOG).reshape(-1, 8)).reshape(-1, len(_CATALOG))
    worst = _worst(np.min(gaps, axis=1))
    ok = report.n_roots == len(_CATALOG)
    detail = (
        f"{report.n_roots} clusters from {report.n_converged}/{report.n_starts} converged starts "
        f"({report.n_discarded} discarded)"
    )
    return _result("oracle-root-hunt", worst, ORACLE_ROOT_TOL, ok, detail=detail)


def run_checks(oracle_starts: int, seed: int) -> list:
    """Run every invariant check; oracle_starts=0 skips only the root hunt.

    The root hunt runs first and is listed last.  It sets verify's peak
    memory, and run first it grows the process from its smallest: the other
    checks then reuse the heap it freed instead of it growing on top of
    theirs, and its forked worker is cloned from a smaller process.
    """
    oracle = check_oracle(oracle_starts, seed)
    solutions = enumerate_solutions()
    wrists = distinct_wrists()
    return [
        check_solution_residuals(solutions),
        check_catalog_bijection(solutions),
        check_nonvanishing(solutions),
        check_distinctness(solutions),
        check_axis_dot_products(solutions),
        check_antipodal_closure(solutions),
        check_reflection_closure(solutions),
        check_antipodal_map_targets(),
        check_reflection_map_targets(),
        check_platonic_moments(),
        check_reflected_tetrahedra(),
        check_line_reflection(seed=seed),
        check_wrist_classes(wrists),
        check_posture_isotropy(wrists),
        check_dh_round_trip(wrists, seed=seed),
        check_jacobian_moment_agreement(solutions, seed=seed),
        check_trace_identity(seed=seed),
        oracle,
    ]
