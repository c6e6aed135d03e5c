import math

import numpy as np
import pytest

from isowrist.checks import check_dh_round_trip
from isowrist.classify import distinct_wrists
from isowrist.kinematics import (
    DHChain,
    angular_velocity,
    dh_from_axes,
    forward_axes,
    isotropy_report,
    jacobian_from_axes,
)
from isowrist.solver import enumerate_solutions
from isowrist.spheregeom import PointSet, TETRAHEDRON

ALPHA_OBTUSE = math.acos(-1.0 / 3.0)  # 109.47122 deg
ALPHA_ACUTE = math.acos(1.0 / 3.0)  # 70.52878 deg
SIGMA4 = math.sqrt(4.0 / 3.0)

# the eight distinct wrist architectures: twist cosines and one interior
# joint branch (degrees); the mirrored branch flips both joint signs
WRIST_TABLE = {
    "a": ((-1, -1, -1), (60.0, -60.0)),
    "b": ((1, -1, -1), (120.0, 60.0)),
    "c": ((-1, 1, -1), (120.0, 120.0)),
    "d": ((-1, -1, 1), (60.0, 120.0)),
    "e": ((1, 1, 1), (60.0, 60.0)),
    "f": ((1, 1, -1), (60.0, -120.0)),
    "g": ((-1, 1, 1), (120.0, -60.0)),
    "h": ((1, -1, 1), (120.0, -120.0)),
}


def table_chain(label):
    signs, joints = WRIST_TABLE[label]
    twists = [math.acos(s / 3.0) for s in signs]
    return DHChain(twists, (0.0, math.radians(joints[0]), math.radians(joints[1]), 0.0))


class TestJacobian:
    def test_identity_triad(self):
        j = jacobian_from_axes(PointSet(np.eye(3)))
        assert np.array_equal(j, np.eye(3))

    def test_tetrahedron_columns(self):
        j = jacobian_from_axes(PointSet(TETRAHEDRON))
        assert j.shape == (3, 4)
        assert np.array_equal(j[:, 0], [1.0, 0.0, 0.0])
        assert np.array_equal(j.T, TETRAHEDRON)

    def test_single_axis(self):
        j = jacobian_from_axes(PointSet([[0.0, 1.0, 0.0]]))
        assert j.shape == (3, 1)
        assert np.array_equal(j[:, 0], [0.0, 1.0, 0.0])


class TestAngularVelocity:
    def test_identity_map(self):
        j = jacobian_from_axes(PointSet(np.eye(3)))
        assert np.array_equal(angular_velocity(j, [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_zero_rates(self):
        j = jacobian_from_axes(PointSet(TETRAHEDRON))
        assert np.array_equal(angular_velocity(j, np.zeros(4)), np.zeros(3))

    def test_tetrahedron_equal_rates_cancel(self):
        # the four axis vectors sum to zero: check by plain accumulation
        total = [0.0, 0.0, 0.0]
        for row in TETRAHEDRON:
            for i in range(3):
                total[i] += float(row[i])
        assert max(abs(t) for t in total) < 1e-15
        omega = angular_velocity(jacobian_from_axes(PointSet(TETRAHEDRON)), np.ones(4))
        assert np.max(np.abs(omega)) < 1e-15

    def test_rate_length_mismatch(self):
        j = jacobian_from_axes(PointSet(TETRAHEDRON))
        with pytest.raises(ValueError, match="joint rates"):
            angular_velocity(j, [1.0, 2.0, 3.0])


class TestIsotropyReport:
    def test_tetrahedron(self):
        rep = isotropy_report(jacobian_from_axes(PointSet(TETRAHEDRON)))
        assert rep.is_isotropic
        assert rep.sigma == pytest.approx(1.15470, abs=1e-5)
        assert rep.condition_number == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_triad(self):
        rep = isotropy_report(jacobian_from_axes(PointSet(np.eye(3))))
        assert rep.is_isotropic
        assert rep.sigma == pytest.approx(1.0, abs=1e-12)

    def test_coplanar_axes_singular(self):
        axes = PointSet(
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [math.sqrt(0.5), math.sqrt(0.5), 0.0]]
        )
        rep = isotropy_report(jacobian_from_axes(axes))
        assert not rep.is_isotropic
        assert rep.condition_number == math.inf
        assert rep.singular_values[-1] == pytest.approx(0.0, abs=1e-12)

    def test_single_axis_not_isotropic(self):
        rep = isotropy_report(jacobian_from_axes(PointSet([[1.0, 0.0, 0.0]])))
        assert not rep.is_isotropic
        assert len(rep.singular_values) == 3
        assert rep.condition_number == math.inf

    def test_singular_values_descend_and_sum_to_n(self):
        rng = np.random.default_rng(23)
        for n in range(1, 8):
            pts = rng.normal(size=(n, 3))
            ps = PointSet(pts / np.linalg.norm(pts, axis=1, keepdims=True))
            rep = isotropy_report(jacobian_from_axes(ps))
            assert sorted(rep.singular_values, reverse=True) == list(rep.singular_values)
            assert abs(sum(v * v for v in rep.singular_values) - n) < 1e-12


class TestForwardAxes:
    def test_two_axis_twist_sets_dot_product(self):
        dh = DHChain((ALPHA_OBTUSE,), (0.0, 0.0))
        for theta1 in (0.0, 0.5, 2.0, -1.2):
            ps = forward_axes(dh, (theta1, 0.0))
            assert float(ps[0] @ ps[1]) == pytest.approx(-1.0 / 3.0, abs=1e-12)
            assert np.array_equal(ps[0], [1.0, 0.0, 0.0])

    def test_orthogonal_wrist_construction(self):
        dh = DHChain((math.pi / 2, math.pi / 2), (0.0, math.pi / 2, 0.0))
        ps = forward_axes(dh, dh.joints)
        rep = isotropy_report(jacobian_from_axes(ps))
        assert rep.is_isotropic
        assert rep.sigma == pytest.approx(1.0, abs=1e-12)
        gram = np.abs(ps.array @ ps.array.T - np.eye(3))
        assert np.max(gram) < 1e-12

    def test_regular_tetrahedral_chain_is_isotropic(self):
        dh = table_chain("a")
        ps = forward_axes(dh, dh.joints)
        dots = [float(ps[k] @ ps[k + 1]) for k in range(3)]
        assert dots == pytest.approx([-1.0 / 3.0] * 3, abs=1e-12)
        assert isotropy_report(jacobian_from_axes(ps)).is_isotropic

    def test_theta_length_mismatch(self):
        dh = DHChain((ALPHA_OBTUSE,), (0.0, 0.0))
        with pytest.raises(ValueError, match="joint angles"):
            forward_axes(dh, (0.0, 0.0, 0.0))


class TestWristTablePostures:
    @pytest.mark.parametrize("label", sorted(WRIST_TABLE))
    def test_isotropy_independent_of_free_angles(self, label):
        dh = table_chain(label)
        grid = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
        for t1 in grid:
            for t4 in grid:
                rep = isotropy_report(
                    jacobian_from_axes(forward_axes(dh, (t1, dh.joints[1], dh.joints[2], t4)))
                )
                assert abs(rep.condition_number - 1.0) < 1e-9
                assert abs(rep.sigma - SIGMA4) < 1e-9

    @pytest.mark.parametrize("label", sorted(WRIST_TABLE))
    def test_mirrored_branch_also_isotropic(self, label):
        dh = table_chain(label)
        mirrored = DHChain(dh.twists, (0.0, -dh.joints[1], -dh.joints[2], 0.0))
        rep = isotropy_report(jacobian_from_axes(forward_axes(mirrored, mirrored.joints)))
        assert rep.is_isotropic

    @pytest.mark.parametrize("label", ["a", "e"])
    def test_anti_coupled_branch_is_not_isotropic(self, label):
        # flipping only one interior joint sign breaks isotropy
        dh = table_chain(label)
        broken = DHChain(dh.twists, (0.0, dh.joints[1], -dh.joints[2], 0.0))
        rep = isotropy_report(jacobian_from_axes(forward_axes(broken, broken.joints)))
        assert not rep.is_isotropic


class TestDHFromAxes:
    def test_tetrahedron_twists(self):
        dh = dh_from_axes(PointSet(TETRAHEDRON))
        for a in dh.twists:
            assert math.degrees(a) == pytest.approx(109.47122, abs=1e-5)
        assert math.degrees(dh.joints[1]) == pytest.approx(-60.0, abs=1e-9)
        assert math.degrees(dh.joints[2]) == pytest.approx(60.0, abs=1e-9)
        assert dh.free_joints == (True, False, False, True)

    def test_acute_twist_chain(self):
        flipped = np.vstack([TETRAHEDRON[0], -TETRAHEDRON[1], TETRAHEDRON[2:]])
        dh = dh_from_axes(PointSet(flipped))
        assert math.degrees(dh.twists[0]) == pytest.approx(70.52878, abs=1e-5)
        assert math.degrees(dh.twists[1]) == pytest.approx(70.52878, abs=1e-5)
        assert math.degrees(dh.twists[2]) == pytest.approx(109.47122, abs=1e-5)

    def test_orthogonal_triad(self):
        dh = dh_from_axes(PointSet(np.eye(3)))
        assert [math.degrees(a) for a in dh.twists] == pytest.approx([90.0, 90.0], abs=1e-9)
        assert abs(math.degrees(dh.joints[1])) == pytest.approx(90.0, abs=1e-9)

    def test_parallel_axes_rejected(self):
        with pytest.raises(ValueError, match="degenerate twist"):
            dh_from_axes(PointSet([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        with pytest.raises(ValueError, match="degenerate twist"):
            dh_from_axes(PointSet([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]))

    def test_too_few_axes(self):
        with pytest.raises(ValueError, match="two axes"):
            dh_from_axes(PointSet([[1.0, 0.0, 0.0]]))


class TestRoundTrip:
    def test_random_chains(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            twists = rng.uniform(0.2, math.pi - 0.2, size=n - 1)
            interior = rng.uniform(-3.0, 3.0, size=max(n - 2, 0))
            dh = DHChain(twists, np.concatenate([[0.0], interior, [0.0]]))
            theta = (float(rng.uniform(-3.0, 3.0)),) + dh.joints[1:-1] + (float(rng.uniform(-3.0, 3.0)),)
            back = dh_from_axes(forward_axes(dh, theta))
            assert max(abs(a - b) for a, b in zip(dh.twists, back.twists)) < 1e-9
            if n > 2:
                assert max(abs(a - b) for a, b in zip(dh.joints[1:-1], back.joints[1:-1])) < 1e-9


    @pytest.mark.parametrize("seed", [125, 315, 353, 909])
    def test_long_chains_stay_unit_norm(self, seed):
        # seeds whose random chains once drifted past the 1e-12 unit-norm check
        report = check_dh_round_trip(distinct_wrists(enumerate_solutions()), seed=seed)
        assert report.passed
        assert report.worst < 1e-9


class TestDHChainValidation:
    def test_joint_count(self):
        with pytest.raises(ValueError, match="joints"):
            DHChain((1.0,), (0.0, 0.0, 0.0))

    def test_twist_range(self):
        with pytest.raises(ValueError, match="twist"):
            DHChain((0.0,), (0.0, 0.0))
        with pytest.raises(ValueError, match="twist"):
            DHChain((math.pi,), (0.0, 0.0))

    def test_free_flags_default(self):
        dh = DHChain((1.0, 1.0, 1.0), (0.0, 1.0, 2.0, 0.0))
        assert dh.free_joints == (True, False, False, True)
        assert dh.n == 4
