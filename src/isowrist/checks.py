"""Named invariant checks covering every module of the library.

Each check measures a worst-case numeric margin against a stated
tolerance and reports pass or fail; `run_checks` executes the whole
suite.  These are the same verifications exercised by the test suite,
packaged so the command-line `verify` command can run them on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classify import (
    ANTIPODAL_SUBSETS, CLASS_PATTERNS, REFLECTIONS, antipodal_map_table, apply_reflection, distinct_wrists,
    reflection_map_table,
)
from .kinematics import DHChain, dh_from_axes, forward_axes, isotropy_report, jacobian_from_axes
from .solver import (
    NONVANISHING_FLOOR, SOLUTION_CATALOG, catalog_distances, enumerate_solutions, oracle_root_hunt, residuals
)
from .spheregeom import ONE_THIRD as _T, SQRT2_THIRD as _R2, SQRT6_THIRD as _R6, TWO_SQRT2_THIRD as _S2
from .spheregeom import (
    PlatonicSolid,
    PointSet,
    TETRAHEDRON,
    antipodal_exchange,
    isotropy_of,
    platonic_vertices,
    reflect_about_line,
    reflect_about_plane,
    rotation_about_axis,
    second_moment,
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


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    tolerance: float
    detail: str = ""
    skipped: bool = False

    @property
    def status(self) -> str:
        if self.skipped:
            return "SKIP"
        return "PASS" if self.passed else "FAIL"


def _result(name, worst, tol, extra_ok=True, detail="") -> CheckResult:
    return CheckResult(name, bool(extra_ok) and worst <= tol, float(worst), float(tol), detail)


def check_solution_residuals(solutions, tolerance) -> CheckResult:
    worst = max(float(np.max(np.abs(residuals(r.components)))) for r in solutions)
    return _result("solution-residuals", worst, tolerance, detail="max |residual| over 32 solutions")


def check_catalog_bijection(solutions, tolerance) -> CheckResult:
    indices = sorted(r.index for r in solutions)
    worst = max(
        float(np.max(np.abs(np.array(r.components) - np.array(SOLUTION_CATALOG[r.index - 1])))) for r in solutions
    )
    ok = indices == list(range(1, 33))
    return _result("catalog-bijection", worst, tolerance, ok, "closed forms match catalog rows 1..32")


def check_nonvanishing(solutions) -> CheckResult:
    worst = max(NONVANISHING_FLOOR - float(np.min(np.abs(r.components))) for r in solutions)
    return _result("solution-nonvanishing", worst, 1e-9, detail="min |component| >= 1/3 for all solutions")


def check_distinctness(solutions) -> CheckResult:
    comps = np.array([r.components for r in solutions])
    gaps = np.max(np.abs(comps[:, None, :] - comps[None, :, :]), axis=-1)
    dmin = float(np.min(gaps[np.triu_indices(len(comps), k=1)]))
    return CheckResult(
        "solution-distinctness", dmin >= 0.1, dmin, 0.1, "min pairwise max-norm separation (must exceed tolerance)"
    )


def check_axis_dot_products(solutions, tolerance) -> CheckResult:
    worst = 0.0
    for r in solutions:
        a = r.axes.array
        for i in range(4):
            for j in range(i + 1, 4):
                worst = max(worst, abs(abs(float(a[i] @ a[j])) - _T))
    return _result("axis-dot-products", worst, tolerance, detail="all pairwise axis angles are arccos(+-1/3)")


def check_antipodal_closure(solutions, tolerance) -> CheckResult:
    images = (antipodal_exchange(r.axes, subset) for r in solutions for subset in ANTIPODAL_SUBSETS)
    worst = max(float(np.min(catalog_distances(img.array))) for img in images)
    return _result("antipodal-closure", worst, tolerance, detail="32 solutions closed under antipodal exchanges")


def check_reflection_closure(solutions, tolerance) -> CheckResult:
    images = (apply_reflection(r.axes, op) for op in REFLECTIONS for r in solutions)
    worst = max(float(np.min(catalog_distances(img.array))) for img in images)
    return _result("reflection-closure", worst, tolerance, detail="32 solutions closed under coordinate reflections")


def check_antipodal_map_targets(solutions) -> CheckResult:
    maps = {m.subset: m.target_index for m in antipodal_map_table(solutions)}
    ok = maps == EXPECTED_ANTIPODAL_TARGETS
    detail = ", ".join(f"{set(s) or '{}'}->{t}" for s, t in sorted(maps.items(), key=lambda kv: (len(kv[0]), kv[0])))
    return CheckResult("antipodal-map-targets", ok, 0.0 if ok else 1.0, 0.5, detail)


def check_reflection_map_targets(solutions) -> CheckResult:
    maps = reflection_map_table(solutions)
    computed = {
        op: tuple(m.target_index for m in maps if m.operation == op) for op in EXPECTED_REFLECTION_TARGETS
    }
    ok = computed == EXPECTED_REFLECTION_TARGETS
    return CheckResult("reflection-map-targets", ok, 0.0 if ok else 1.0, 0.5, "all 24 reflection images verified")


def check_platonic_moments(tolerance) -> CheckResult:
    worst = 0.0
    ok = True
    for kind in PlatonicSolid:
        iso = isotropy_of(second_moment(platonic_vertices(kind)))
        ok = ok and iso.isotropic
        worst = max(worst, abs(iso.sigma_sq - kind.n / 3.0))
    return _result("platonic-moments", worst, tolerance, ok, "five vertex sets isotropic with sigma^2 = n/3")


def check_reflected_tetrahedra(tolerance) -> CheckResult:
    tetra = PointSet(TETRAHEDRON)
    normals = {"yz": (1.0, 0.0, 0.0), "xz": (0.0, 1.0, 0.0), "xy": (0.0, 0.0, 1.0)}
    worst = 0.0
    ok = True
    for plane, normal in normals.items():
        img = reflect_about_plane(tetra, normal)
        worst = max(worst, float(np.max(np.abs(img.array - EXPECTED_REFLECTED_TETRAHEDRA[plane]))))
        ok = ok and isotropy_of(second_moment(img)).isotropic
    return _result("reflected-tetrahedra", worst, tolerance, ok, "coordinate-plane reflections of the trivial set")


def check_line_reflection(tolerance, seed=0) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    eye = np.eye(3)
    for _ in range(LINE_REFLECTION_COUNT):
        e = rng.normal(size=3)
        e /= np.linalg.norm(e)
        ell = reflect_about_line(e)
        worst = max(
            worst,
            float(np.max(np.abs(ell @ ell.T - eye))),
            abs(float(np.linalg.det(ell)) - 1.0),
            float(np.max(np.abs(ell @ e - e))),
            float(np.max(np.abs(ell - rotation_about_axis(e, math.pi)))),
        )
    detail = f"2ee^T - I proper orthogonal over {LINE_REFLECTION_COUNT} random axes"
    return _result("line-reflection", worst, tolerance, detail=detail)


def check_wrist_classes(wrists) -> CheckResult:
    tol_deg = 0.05
    expected = {label: pat.cos_twists for label, pat in CLASS_PATTERNS.items()}
    worst = 0.0
    ok = len(wrists) == 8 and sum(len(w.members) for w in wrists) == 192
    for w in wrists:
        ok = ok and w.couplings == w.isotropic_couplings
        for a, c in zip(w.twists, expected[w.label]):
            worst = max(worst, abs(math.degrees(a) - math.degrees(math.acos(c))))
    return _result("wrist-classes", worst, tol_deg, ok, "8 classes, twist triples in degrees, couplings verified")


def check_posture_isotropy(wrists) -> CheckResult:
    worst = 0.0
    angles = np.linspace(0.0, 2.0 * math.pi, POSTURE_GRID, endpoint=False)
    for w in wrists:
        dh = w.representative_dh
        for t1 in angles:
            for t4 in angles:
                rep = isotropy_report(
                    jacobian_from_axes(forward_axes(dh, (t1, dh.joints[1], dh.joints[2], t4)))
                )
                worst = max(worst, abs(rep.condition_number - 1.0), abs(rep.sigma - SIGMA_FOUR_AXES))
    detail = f"condition number and sigma over a {POSTURE_GRID}x{POSTURE_GRID} free-angle grid"
    return _result("posture-isotropy", worst, 1e-9, detail=detail)


def check_dh_round_trip(wrists, seed=0) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    chains = [w.representative_dh for w in wrists]
    for _ in range(DH_ROUND_TRIP_COUNT):
        n = int(rng.integers(3, 7))
        twists = rng.uniform(0.2, math.pi - 0.2, size=n - 1)
        joints = np.concatenate([[0.0], rng.uniform(-3.0, 3.0, size=n - 2), [0.0]])
        chains.append(DHChain(twists, joints))
    for dh in chains:
        theta = (0.4,) + dh.joints[1:-1] + (1.1,)
        back = dh_from_axes(forward_axes(dh, theta))
        worst = max(worst, max(abs(a - b) for a, b in zip(dh.twists, back.twists)))
        if dh.n > 2:
            worst = max(worst, max(abs(a - b) for a, b in zip(dh.joints[1:-1], back.joints[1:-1])))
    return _result("dh-round-trip", worst, 1e-9, detail="forward kinematics then parameter recovery")


def check_jacobian_moment_agreement(solutions, seed=0) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    agree = True
    sets = [r.axes for r in solutions] + [platonic_vertices(k) for k in PlatonicSolid]
    for _ in range(MOMENT_AGREEMENT_COUNT):
        n = int(rng.integers(1, 9))
        pts = rng.normal(size=(n, 3))
        sets.append(PointSet(pts / np.linalg.norm(pts, axis=1, keepdims=True)))
    for ps in sets:
        j = jacobian_from_axes(ps)
        worst = max(worst, float(np.max(np.abs(j @ j.T - second_moment(ps)))))
        agree = agree and (isotropy_report(j).is_isotropic == isotropy_of(second_moment(ps)).isotropic)
    return _result("jacobian-moment-agreement", worst, 1e-12, agree, "J J^T = H and matching isotropy verdicts")


def check_trace_identity(seed=0) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(TRACE_IDENTITY_COUNT):
        n = int(rng.integers(1, 9))
        pts = rng.normal(size=(n, 3))
        ps = PointSet(pts / np.linalg.norm(pts, axis=1, keepdims=True))
        sv = np.linalg.svd(jacobian_from_axes(ps), compute_uv=False)
        worst = max(worst, abs(float(np.sum(sv**2)) - n))
    return _result("singular-value-trace", worst, 1e-12, detail="squared singular values sum to n")


def check_oracle(oracle_starts, seed) -> CheckResult:
    if oracle_starts < 1:
        return CheckResult("oracle-root-hunt", True, 0.0, 1e-8, "skipped (0 starts)", skipped=True)
    report = oracle_root_hunt(n_starts=oracle_starts, seed=seed)
    # Euclidean distance to the nearest catalog row; the max-norm of catalog_distances would loosen the check
    gaps = np.linalg.norm(report.roots[:, None, :] - np.array(SOLUTION_CATALOG), axis=-1)
    worst = float(np.max(np.min(gaps, axis=1))) if report.n_roots else 0.0
    ok = report.n_roots == 32
    detail = (
        f"{report.n_roots} clusters from {report.n_converged}/{report.n_starts} converged starts "
        f"({report.n_discarded} discarded)"
    )
    return _result("oracle-root-hunt", worst, 1e-8, ok, detail)


def run_checks(tolerance: float = 1e-12, oracle_starts: int = 20000, seed: int = 0) -> list:
    """Run every invariant check; oracle_starts=0 skips only the root hunt."""
    solutions = enumerate_solutions()
    wrists = distinct_wrists(solutions)
    return [
        check_solution_residuals(solutions, tolerance),
        check_catalog_bijection(solutions, tolerance),
        check_nonvanishing(solutions),
        check_distinctness(solutions),
        check_axis_dot_products(solutions, tolerance),
        check_antipodal_closure(solutions, tolerance),
        check_reflection_closure(solutions, tolerance),
        check_antipodal_map_targets(solutions),
        check_reflection_map_targets(solutions),
        check_platonic_moments(tolerance),
        check_reflected_tetrahedra(tolerance),
        check_line_reflection(tolerance, seed=seed),
        check_wrist_classes(wrists),
        check_posture_isotropy(wrists),
        check_dh_round_trip(wrists, seed=seed),
        check_jacobian_moment_agreement(solutions, seed=seed),
        check_trace_identity(seed=seed),
        check_oracle(oracle_starts, seed),
    ]
