"""Acceptance suite: one test per acceptance criterion.

Each test exercises its criterion at the stated tolerance and prints a
single pass line (run pytest with -s to see them; a failing criterion
fails its test).
"""

import itertools
import math

import numpy as np
import pytest

from isowrist.classify import antipodal_map_table, distinct_wrists, reflection_map_table
from isowrist.kinematics import forward_axes, isotropy_report, jacobian_from_axes
from isowrist.solver import (
    BEZOUT_COUNT,
    BKK_BOUND_CITED,
    SOLUTION_CATALOG,
    enumerate_solutions,
    oracle_root_hunt,
    residuals,
    solve_closed_form_stack,
)
from isowrist.spheregeom import (
    PlatonicSolid,
    PointSet,
    TETRAHEDRON,
    isotropy_of,
    platonic_vertices,
    reflect_about_line,
    reflect_about_plane,
    rotation_about_axis,
    second_moment,
)

T = 1.0 / 3.0
R2 = math.sqrt(2.0) / 3.0
R6 = math.sqrt(6.0) / 3.0
S2 = 2.0 * math.sqrt(2.0) / 3.0
SIGMA4 = math.sqrt(4.0 / 3.0)

EXPECTED_TWIST_TRIPLES = {
    "a": (109.5, 109.5, 109.5),
    "b": (70.5, 109.5, 109.5),
    "c": (109.5, 70.5, 109.5),
    "d": (109.5, 109.5, 70.5),
    "e": (70.5, 70.5, 70.5),
    "f": (70.5, 70.5, 109.5),
    "g": (109.5, 70.5, 70.5),
    "h": (70.5, 109.5, 70.5),
}


@pytest.fixture(scope="module")
def solutions():
    return enumerate_solutions()


@pytest.fixture(scope="module")
def wrists():
    return distinct_wrists()


def _ok(number, text):
    print(f"[acceptance {number}] PASS - {text}")


def test_criterion_1_solution_count_and_values(solutions):
    assert len(solutions) == 32
    assert sorted(r.index for r in solutions) == list(range(1, 33))
    worst = 0.0
    for rec, raw in zip(solutions, solve_closed_form_stack([r.sign_pattern for r in solutions])):
        worst = max(worst, float(np.max(np.abs(raw - np.array(SOLUTION_CATALOG[rec.index - 1])))))
    assert worst <= 1e-12
    assert len({r.sign_pattern for r in solutions}) == 32
    _ok(1, f"32 solutions match the catalog bijectively (worst deviation {worst:.2e})")


def test_criterion_2_system_residuals(solutions):
    worst = 0.0
    for rec, raw in zip(solutions, solve_closed_form_stack([r.sign_pattern for r in solutions])):
        worst = max(worst, float(np.max(np.abs(residuals(rec.components)))))
        worst = max(worst, float(np.max(np.abs(residuals(raw)))))
    assert worst < 1e-12
    _ok(2, f"all eight residuals below 1e-12 for every solution (worst {worst:.2e})")


def test_criterion_3_distinct_wrist_count(wrists):
    assert len(wrists) == 8
    assert [w.label for w in wrists] == list("abcdefgh")
    worst = 0.0
    for w in wrists:
        for a, expected in zip(w.twists, EXPECTED_TWIST_TRIPLES[w.label]):
            worst = max(worst, abs(math.degrees(a) - expected))
    assert worst < 0.05
    _ok(3, f"exactly 8 wrist classes with the expected twist triples (worst {worst:.3f} deg)")


def test_criterion_4_isotropy_at_posture(wrists):
    angles = np.linspace(0.0, 2.0 * math.pi, 5, endpoint=False)
    worst_cond = 0.0
    worst_sigma = 0.0
    for w in wrists:
        dh = w.representative_dh
        for t1 in angles:
            for t4 in angles:
                rep = isotropy_report(jacobian_from_axes(forward_axes(dh, (t1, dh.joints[1], dh.joints[2], t4))))
                worst_cond = max(worst_cond, abs(rep.condition_number - 1.0))
                worst_sigma = max(worst_sigma, abs(rep.sigma - SIGMA4))
    assert worst_cond <= 1e-9
    assert worst_sigma <= 1e-9
    _ok(4, f"condition number 1 and sigma sqrt(4/3) on a 5x5 free-angle grid (worst {worst_cond:.2e}, {worst_sigma:.2e})")


def test_criterion_5_platonic_table():
    expected = {
        PlatonicSolid.tetrahedron: 4.0 / 3.0,
        PlatonicSolid.cube: 8.0 / 3.0,
        PlatonicSolid.octahedron: 2.0,
        PlatonicSolid.icosahedron: 4.0,
        PlatonicSolid.dodecahedron: 20.0 / 3.0,
    }
    worst = 0.0
    for kind, value in expected.items():
        iso = isotropy_of(second_moment(platonic_vertices(kind)))
        assert iso.isotropic
        worst = max(worst, abs(iso.sigma_sq - value))
        assert abs(value - kind.n / 3.0) < 1e-15
    assert worst <= 1e-12
    _ok(5, f"five Platonic sigma^2 values reproduce n/3 (worst {worst:.2e})")


def test_criterion_6_symmetry_maps():
    antipodal = {m.subset: m.target_index for m in antipodal_map_table()}
    assert antipodal[(2,)] == 10
    assert antipodal[(3,)] == 23
    assert antipodal[(4,)] == 17
    assert antipodal[(2, 3)] == 16
    assert antipodal[(2, 3, 4)] == 15
    # the two pair exchanges land on solutions 9 and 24; record the
    # computed assignment explicitly
    assert {antipodal[(2, 4)], antipodal[(3, 4)]} == {9, 24}
    assert antipodal[(2, 4)] == 9 and antipodal[(3, 4)] == 24

    expected_rows = {
        "reflect_xy": (19, 12, 22, 20, 14, 21, 11, 13),
        "reflect_xz": (27, 2, 29, 28, 8, 30, 1, 7),
        "reflect_xz_then_xy": (26, 4, 31, 25, 6, 32, 3, 5),
    }
    maps = reflection_map_table()
    for op, expected in expected_rows.items():
        assert tuple(m.target_index for m in maps if m.operation == op) == expected
    _ok(6, "antipodal images (10,23,17,16,15 + {2,4}->9, {3,4}->24) and all 24 reflection images verified")


def test_criterion_7_line_reflection_property():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        e = rng.normal(size=3)
        e /= np.linalg.norm(e)
        ell = reflect_about_line(e)
        worst = max(
            worst,
            float(np.max(np.abs(ell @ ell.T - np.eye(3)))),
            abs(float(np.linalg.det(ell)) - 1.0),
            float(np.max(np.abs(ell @ e - e))),
            float(np.max(np.abs(ell - rotation_about_axis(e, math.pi)))),
        )
    assert worst <= 1e-12
    _ok(7, f"2ee^T - I is the half-turn about e for 100 random axes (worst {worst:.2e})")


def test_criterion_8_oracle_equivalence(solutions):
    report = oracle_root_hunt(n_starts=20000, seed=20240)
    assert report.n_roots == 32
    catalog = np.array(SOLUTION_CATALOG)
    worst = 0.0
    for root in report.roots:
        worst = max(worst, min(float(np.linalg.norm(root - row)) for row in catalog))
    assert worst <= 1e-8
    # structural degree count: eight quadratics
    assert BEZOUT_COUNT == 2**8
    assert len(residuals(np.zeros(8))) == 8
    # the 32 records' branch choices are exactly the 2^5 square-root sign choices
    patterns = [r.sign_pattern for r in solutions]
    assert len(patterns) == 32 and set(patterns) == set(itertools.product((1, -1), repeat=5))
    # the mixed-volume bound is documented, not recomputed
    assert BKK_BOUND_CITED == 192
    _ok(8, f"20000-start hunt converged only to the 32 solutions (worst {worst:.2e}; {report.n_converged} converged)")


def test_criterion_9_reflected_tetrahedron_sets():
    tetra = PointSet(TETRAHEDRON)
    expected = {
        (1.0, 0.0, 0.0): np.array([[-1, 0, 0], [T, -S2, 0], [T, R2, R6], [T, R2, -R6]]),
        (0.0, 1.0, 0.0): np.array([[1, 0, 0], [-T, S2, 0], [-T, -R2, R6], [-T, -R2, -R6]]),
        (0.0, 0.0, 1.0): np.array([[1, 0, 0], [-T, -S2, 0], [-T, R2, -R6], [-T, R2, R6]]),
    }
    worst = 0.0
    for normal, target in expected.items():
        image = reflect_about_plane(tetra, normal)
        worst = max(worst, float(np.max(np.abs(image.array - target))))
        iso = isotropy_of(second_moment(image))
        assert iso.isotropic
        assert abs(iso.sigma_sq - 4.0 / 3.0) < 1e-12
    assert worst <= 1e-12
    _ok(9, f"three coordinate-plane reflections reproduce the expected isotropic sets (worst {worst:.2e})")
