import itertools
import math

import numpy as np
import pytest

from isowrist.classify import (
    CLASS_PATTERNS,
    antipodal_map_table,
    apply_reflection,
    canonical_signature,
    chain_orderings,
    distinct_wrists,
    isotropic_posture_geometry,
    reflection_map_table,
)
from isowrist.kinematics import DHChain
from isowrist.solver import enumerate_solutions
from isowrist.spheregeom import reflect_about_line, rotation_about_axis

OBTUSE = math.acos(-1.0 / 3.0)
ACUTE = math.acos(1.0 / 3.0)

EXPECTED_ANTIPODAL = {
    (): 18,
    (2,): 10,
    (3,): 23,
    (4,): 17,
    (2, 3): 16,
    (2, 4): 9,
    (3, 4): 24,
    (2, 3, 4): 15,
}

EXPECTED_REFLECTIONS = {
    "reflect_xy": (19, 12, 22, 20, 14, 21, 11, 13),
    "reflect_xz": (27, 2, 29, 28, 8, 30, 1, 7),
    "reflect_xz_then_xy": (26, 4, 31, 25, 6, 32, 3, 5),
}

# twist triples (degrees) and interior joint magnitudes (degrees) of the
# eight distinct wrists
EXPECTED_CLASSES = {
    "a": ((109.5, 109.5, 109.5), (60.0, 60.0)),
    "b": ((70.5, 109.5, 109.5), (120.0, 60.0)),
    "c": ((109.5, 70.5, 109.5), (120.0, 120.0)),
    "d": ((109.5, 109.5, 70.5), (60.0, 120.0)),
    "e": ((70.5, 70.5, 70.5), (60.0, 60.0)),
    "f": ((70.5, 70.5, 109.5), (60.0, 120.0)),
    "g": ((109.5, 70.5, 70.5), (120.0, 60.0)),
    "h": ((70.5, 109.5, 70.5), (120.0, 120.0)),
}


@pytest.fixture(scope="module")
def solutions():
    return enumerate_solutions()


@pytest.fixture(scope="module")
def wrists(solutions):
    return distinct_wrists(solutions)


class TestChainOrderings:
    def test_default_six(self, solutions):
        orderings = chain_orderings()
        assert len(orderings) == 6
        assert orderings[0] == (0, 1, 2, 3)
        assert all(o[0] == 0 for o in orderings)

    def test_full_twenty_four(self, solutions):
        orderings = chain_orderings(full=True)
        assert len(orderings) == 24
        assert len(set(orderings)) == 24


class TestSymmetryMaps:
    def test_antipodal_targets(self, solutions):
        maps = {m.subset: m.target_index for m in antipodal_map_table(solutions)}
        assert maps == EXPECTED_ANTIPODAL

    def test_reflection_targets(self, solutions):
        maps = reflection_map_table(solutions)
        for op, expected in EXPECTED_REFLECTIONS.items():
            assert tuple(m.target_index for m in maps if m.operation == op) == expected

    def test_all_maps_verified_as_ordered_lists(self, solutions):
        by_index = {r.index: r for r in solutions}
        for m in reflection_map_table(solutions):
            img = apply_reflection(by_index[m.source_index].axes, m.operation)
            assert img.allclose(by_index[m.target_index].axes, 1e-12)

    def test_double_reflection_is_half_turn_about_x(self, solutions):
        by_index = {r.index: r for r in solutions}
        half_turn = reflect_about_line([1.0, 0.0, 0.0])
        src = by_index[18].axes.array
        img = apply_reflection(by_index[18].axes, "reflect_xz_then_xy")
        assert np.max(np.abs(img.array - src @ half_turn.T)) < 1e-12
        assert img.allclose(by_index[26].axes, 1e-12)

    def test_closure_under_antipodal_group(self, solutions):
        from isowrist.spheregeom import antipodal_exchange

        for rec in solutions:
            for size in range(0, 4):
                for subset in itertools.combinations((2, 3, 4), size):
                    img = antipodal_exchange(rec.axes, subset)
                    assert any(img.allclose(s.axes, 1e-12) for s in solutions)

    def test_closure_under_reflections(self, solutions):
        for rec in solutions:
            for op in ("reflect_xy", "reflect_xz", "reflect_xz_then_xy"):
                img = apply_reflection(rec.axes, op)
                assert any(img.allclose(s.axes, 1e-12) for s in solutions)


class TestCanonicalSignature:
    def test_regular_chain_equals_its_reversal(self):
        chain = DHChain((OBTUSE,) * 3, (0.0, math.radians(60), math.radians(-60), 0.0))
        # swapping base and end-effector reverses the twists and swaps and
        # negates the interior joints; for this chain that is a fixed point
        reversed_chain = DHChain(
            chain.twists[::-1], (0.0, -chain.joints[2], -chain.joints[1], 0.0)
        )
        assert canonical_signature(chain) == canonical_signature(reversed_chain)

    def test_mirror_invariance(self):
        chain = DHChain((ACUTE,) * 3, (0.0, math.radians(60), math.radians(60), 0.0))
        mirror = DHChain((ACUTE,) * 3, (0.0, math.radians(-60), math.radians(-60), 0.0))
        assert canonical_signature(chain) == canonical_signature(mirror)

    def test_single_sign_flip_changes_signature(self):
        chain = DHChain((ACUTE,) * 3, (0.0, math.radians(60), math.radians(60), 0.0))
        other = DHChain((ACUTE,) * 3, (0.0, math.radians(60), math.radians(-60), 0.0))
        assert canonical_signature(chain) != canonical_signature(other)

    def test_distinct_twist_orders_stay_distinct(self):
        # ascending vs descending twist triples are different wrists
        b_like = DHChain((ACUTE, OBTUSE, OBTUSE), (0.0, math.radians(120), math.radians(60), 0.0))
        d_like = DHChain((OBTUSE, OBTUSE, ACUTE), (0.0, math.radians(60), math.radians(120), 0.0))
        assert canonical_signature(b_like) != canonical_signature(d_like)
        assert canonical_signature(b_like) == CLASS_PATTERNS["b"]
        assert canonical_signature(d_like) == CLASS_PATTERNS["d"]

    def test_idempotent_under_mirror_move(self, wrists):
        for w in wrists:
            dh = w.representative_dh
            mirror = DHChain(dh.twists, (0.0, -dh.joints[1], -dh.joints[2], 0.0))
            assert canonical_signature(mirror) == w.signature

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError, match="4-axis"):
            canonical_signature(DHChain((OBTUSE,), (0.0, 0.0)))


class TestDistinctWrists:
    def test_exactly_eight_labeled_classes(self, wrists):
        assert [w.label for w in wrists] == list("abcdefgh")

    def test_twist_triples_and_joint_magnitudes(self, wrists):
        for w in wrists:
            twists_deg, joints_deg = EXPECTED_CLASSES[w.label]
            for a, expected in zip(w.twists, twists_deg):
                assert abs(math.degrees(a) - expected) < 0.05
            for t, expected in zip(w.interior_joints, joints_deg):
                assert abs(abs(math.degrees(t)) - expected) < 1e-9

    def test_every_chain_lands_in_a_class(self, wrists):
        assert sum(len(w.members) for w in wrists) == 32 * 6
        for w in wrists:
            assert len(w.members) == 24

    def test_couplings_match_isotropy_verified_ones(self, wrists):
        for w in wrists:
            assert w.couplings == w.isotropic_couplings
            assert len(w.couplings) == 2
            # the two realized branches are mirror images of each other
            (a2, a3), (b2, b3) = w.couplings
            assert (a2, a3) == (-b2, -b3)

    def test_trivial_set_natural_ordering_is_class_a(self, wrists):
        class_a = wrists[0]
        assert any(m.solution_index == 18 and m.ordering == (1, 2, 3, 4) for m in class_a.members)
        for a in class_a.twists:
            assert abs(math.degrees(a) - 109.47122) < 1e-4
        assert abs(class_a.interior_joints[0]) == pytest.approx(math.radians(60), abs=1e-12)

    def test_representative_first_interior_joint_positive(self, wrists):
        for w in wrists:
            assert w.interior_joints[0] > 0
            assert w.representative.joint_signs[0] == 1

    def test_acute_triple_class_e(self, wrists):
        class_e = next(w for w in wrists if w.label == "e")
        for a in class_e.twists:
            assert abs(math.degrees(a) - 70.52878) < 1e-4
        assert class_e.couplings == ((-1, -1), (1, 1))


class TestPostureGeometry:
    def test_class_a_consecutive_dots(self, wrists):
        geo = isotropic_posture_geometry(wrists[0], 0.0, 0.0)
        a = geo.axes.array
        for k in range(3):
            assert float(a[k] @ a[k + 1]) == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert geo.report.is_isotropic

    def test_class_e_consecutive_dots(self, wrists):
        class_e = next(w for w in wrists if w.label == "e")
        geo = isotropic_posture_geometry(class_e, 0.0, 0.0)
        a = geo.axes.array
        for k in range(3):
            assert float(a[k] @ a[k + 1]) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_isotropy_for_any_free_angles(self, wrists):
        rng = np.random.default_rng(37)
        for w in wrists:
            t1, t4 = rng.uniform(0.0, 2.0 * math.pi, size=2)
            geo = isotropic_posture_geometry(w, float(t1), float(t4))
            assert geo.report.is_isotropic
            assert abs(geo.report.condition_number - 1.0) < 1e-9

    def test_first_free_angle_rotates_geometry(self, wrists):
        base = isotropic_posture_geometry(wrists[0], 0.0, 0.0)
        turned = isotropic_posture_geometry(wrists[0], math.pi / 4, 0.0)
        rot = rotation_about_axis([1.0, 0.0, 0.0], math.pi / 4)
        assert np.max(np.abs(turned.axes.array - base.axes.array @ rot.T)) < 1e-12

    def test_frames_are_orthonormal_with_axis_z(self, wrists):
        geo = isotropic_posture_geometry(wrists[3], 0.3, 1.2)
        for k, frame in enumerate(geo.frames):
            assert np.max(np.abs(frame.T @ frame - np.eye(3))) < 1e-12
            assert np.max(np.abs(frame[:, 2] - geo.axes.array[k])) < 1e-12
