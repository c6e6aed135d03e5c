import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from isowrist import kinematics, spheregeom
from isowrist.checks import check_dh_round_trip
from isowrist.classify import chain_orderings, distinct_wrists
from isowrist.kinematics import (
    DHChain,
    _forward_chain,
    dh_from_axes,
    dh_from_axes_stack,
    forward_axes,
    isotropy_report,
    isotropy_report_stack,
    jacobian_from_axes,
    jacobian_from_axes_stack,
)
from isowrist.solver import enumerate_solutions
from isowrist.spheregeom import PointSet, TETRAHEDRON, _cross, _sum3, _unit_rows

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

    @pytest.mark.parametrize("shape", [(4, 4), (2, 2), (2, 3), (3,), (), (5, 4, 3)])
    def test_jacobian_of_another_shape_raises(self, shape):
        # no padding, no fourth value: a 4x4 identity once reported four singular values and is_isotropic=True
        message = re.escape(f"expected Jacobians of shape (..., 3, n), got shape {shape}")
        with pytest.raises(ValueError, match=message):
            isotropy_report(np.ones(shape))
        with pytest.raises(ValueError, match=message):
            isotropy_report_stack(np.ones(shape))


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_angle_is_named(self, value):
        # an infinite angle once raised "math domain error", and a nan one gave nan axes
        dh = table_chain("a")
        with pytest.raises(ValueError, match=rf"theta_1 = {value!r} is not finite"):
            forward_axes(dh, (value, *dh.joints[1:]))
        with pytest.raises(ValueError, match=rf"theta_4 = {value!r} is not finite"):
            forward_axes(dh, (*dh.joints[:3], value))


class TestStackedForwardChain:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_rows_equal_single_row_calls(self, n):
        rng = np.random.default_rng(100 + n)
        twists = rng.uniform(0.2, math.pi - 0.2, size=(40, n - 1))
        theta = rng.uniform(-7.0, 7.0, size=(40, n))
        axes, normals = _forward_chain(twists, theta)
        assert axes.shape == normals.shape == (40, n, 3)
        for i in range(40):
            one_axes, one_normals = _forward_chain(twists[i : i + 1], theta[i : i + 1])
            assert np.array_equal(axes[i], one_axes[0])
            assert np.array_equal(normals[i], one_normals[0])

    def test_forward_axes_is_the_single_row_call(self):
        dh = table_chain("c")
        theta = (0.7, dh.joints[1], dh.joints[2], -2.5)
        axes, _ = _forward_chain([dh.twists], [theta])
        assert np.array_equal(forward_axes(dh, theta).array, axes[0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="do not fit"):
            _forward_chain(np.ones((3, 2)), np.zeros((3, 4)))

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_unvalidated_turns_equal_the_validated_rotation(self, monkeypatch, n):
        rng = np.random.default_rng(200 + n)
        twists = rng.uniform(0.2, math.pi - 0.2, size=(50, n - 1))
        theta = rng.uniform(-7.0, 7.0, size=(50, n))
        fast = _forward_chain(twists, theta)
        # the old path: every turn through the public rotation, which validates its axes
        monkeypatch.setattr(kinematics, "_rotation", spheregeom.rotation_about_axis)
        for got, old in zip(fast, _forward_chain(twists, theta)):
            assert np.array_equal(got, old)

    def test_turns_do_not_revalidate_their_axes(self, monkeypatch):
        def refuse(v):
            raise AssertionError("axes validated")

        monkeypatch.setattr(spheregeom, "_as_unit", refuse)
        _forward_chain(np.full((3, 3), 1.2), np.zeros((3, 4)))
        with pytest.raises(AssertionError, match="axes validated"):
            spheregeom.rotation_about_axis([1.0, 0.0, 0.0], 1.0)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_last_joint_turns_no_axis(self, n):
        # check_posture_isotropy sweeps theta_1 alone and probes theta_n with nan: this is the fact it relies on
        rng = np.random.default_rng(300 + n)
        twists = rng.uniform(0.2, math.pi - 0.2, size=(40, n - 1))
        theta = rng.uniform(-7.0, 7.0, size=(40, n))
        runs = []
        for last in (0.0, rng.uniform(-7.0, 7.0, size=40), math.nan):
            theta[:, -1] = last
            with np.errstate(all="raise"), warnings.catch_warnings():
                warnings.simplefilter("error")
                runs.append(_forward_chain(twists, theta))
        (axes, normals), *others = runs
        for other_axes, other_normals in others:
            assert np.array_equal(axes, other_axes)
            assert np.array_equal(normals[:, :-1], other_normals[:, :-1])
        nan_normals = runs[-1][1]
        assert np.isfinite(nan_normals[:, :-1]).all() and np.isnan(nan_normals[:, -1]).all()

    def test_isotropy_stack_rows_equal_single_reports(self):
        rng = np.random.default_rng(8)
        for n in range(1, 9):
            pts = rng.normal(size=(30, n, 3))
            j = (pts / np.linalg.norm(pts, axis=2, keepdims=True)).swapaxes(1, 2)
            sv, sigma, cond, iso = isotropy_report_stack(j)
            for i in range(30):
                rep = isotropy_report(j[i])
                assert rep == isotropy_report(np.ascontiguousarray(j[i]))
                assert rep.singular_values == tuple(sv[i])
                assert (rep.sigma, rep.condition_number, rep.is_isotropic) == (sigma[i], cond[i], iso[i])

    def test_zero_jacobian_has_infinite_condition_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = isotropy_report(np.zeros((3, 2)))
            _, _, cond, _ = isotropy_report_stack(np.zeros((5, 3, 4)))
        assert rep.condition_number == math.inf and not rep.is_isotropic
        assert np.all(cond == math.inf)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_jacobian_stack_rows_equal_single_jacobians(self, n):
        pts = np.random.default_rng(40 + n).normal(size=(30, n, 3))
        stack = pts / np.linalg.norm(pts, axis=2, keepdims=True)
        j = jacobian_from_axes_stack(stack)
        assert j.shape == (30, 3, n) and j.flags.c_contiguous
        for pts_i, j_i in zip(stack, j):
            assert np.array_equal(j_i, jacobian_from_axes(PointSet(pts_i)))

    def test_jacobian_stack_rejects_empty_sets(self):
        with pytest.raises(ValueError, match="empty"):
            jacobian_from_axes_stack(np.zeros((2, 0, 3)))

    @pytest.mark.parametrize("shape", [(4, 2), (3, 4), (3,), (), (5, 4, 1)])
    def test_jacobian_stack_of_another_shape_raises(self, shape):
        # no transpose of what is not an axis array: a (4, 2) array once gave a 2x4 Jacobian
        message = re.escape(f"expected point arrays of shape (..., n, 3), got shape {shape}")
        with pytest.raises(ValueError, match=message):
            jacobian_from_axes_stack(np.ones(shape))


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


def _random_axis_stack(rng, m, n):
    a = rng.normal(size=(m, n, 3))
    return a / np.linalg.norm(a, axis=-1, keepdims=True)


def _one_chain_dh(a):
    """DH twists and joints of one (n, 3) axis array, one chain and one np.dot at a time."""
    twists = tuple(math.acos(float(d)) for d in np.sum(a[:-1] * a[1:], axis=1))
    crosses = np.cross(a[:-1], a[1:])
    normals = crosses / np.linalg.norm(crosses, axis=1, keepdims=True)
    turns = np.cross(normals[:-1], normals[1:])
    interior = tuple(
        math.atan2(float(np.dot(turns[i - 1], a[i])), float(np.dot(normals[i - 1], normals[i])))
        for i in range(1, len(a) - 1)
    )
    return twists, (0.0,) + interior + (0.0,)


class TestStackedDH:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_rows_equal_single_chain_recovery(self, n):
        a = _random_axis_stack(np.random.default_rng(100 + n), 2000, n)
        twists, joints = dh_from_axes_stack(a)
        assert twists.shape == (2000, n - 1) and joints.shape == (2000, n)
        for k in range(2000):
            dh = dh_from_axes(PointSet(a[k]))
            assert tuple(twists[k].tolist()) == dh.twists
            assert tuple(joints[k].tolist()) == dh.joints
            assert (dh.twists, dh.joints) == _one_chain_dh(a[k])

    def test_catalog_chains(self):
        a = np.array([rec.axes.array[list(o)] for rec in enumerate_solutions() for o in chain_orderings()])
        assert a.shape == (192, 4, 3)
        twists, joints = dh_from_axes_stack(a)
        for k in range(192):
            dh = dh_from_axes(PointSet(a[k]))
            assert tuple(twists[k].tolist()) == dh.twists
            assert tuple(joints[k].tolist()) == dh.joints

    def test_one_parallel_row_rejects_the_stack(self):
        a = _random_axis_stack(np.random.default_rng(5), 10, 4)
        a[6, 2] = -a[6, 1]
        with pytest.raises(ValueError, match="degenerate twist"):
            dh_from_axes_stack(a)

    def test_too_few_axes(self):
        with pytest.raises(ValueError, match="two axes"):
            dh_from_axes_stack(np.ones((3, 1, 3)))


class TestCross:
    @pytest.mark.parametrize("shape", [(3,), (4, 3), (192, 2, 3), (8, 3, 3)])
    def test_equals_np_cross(self, shape):
        rng = np.random.default_rng(len(shape) * 10 + shape[0])
        # the float stack holds exact zeros of both signs
        floats = rng.normal(size=(2,) + shape) * rng.integers(0, 2, size=(2,) + shape)
        for a, b in [floats, rng.integers(-3, 4, size=(2,) + shape)]:
            got, expected = _cross(a, b), np.cross(a, b)
            assert got.dtype == expected.dtype
            # signbit tells -0.0 from 0.0, which array_equal does not
            assert np.array_equal(got, expected) and np.array_equal(np.signbit(got), np.signbit(expected))


#: Entries that stress a column sum: signed zeros, subnormals, infinities, NaN, squares that overflow
#: (1e200) or underflow, next to ordinary magnitudes whose sums round.
_sum_entries = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1e-160, np.inf, -np.inf, np.nan, 1e200, -1e200]),
    st.floats(-1e3, 1e3),
    st.floats(allow_nan=True, allow_infinity=True),
)

#: Stacks (..., 3): one vector, rows, and stacks of rows.
_sum_shapes = st.lists(st.integers(1, 40), max_size=2).map(lambda lead: (*lead, 3))


def _assert_bits_equal(got, expected):
    assert got.shape == expected.shape
    # signbit tells -0.0 from 0.0, and a negative nan from a positive one, which array_equal does not
    assert np.array_equal(got, expected, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


class TestSum3:
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(st.data())
    def test_equals_numpy_sums_and_norms(self, data):
        shape = data.draw(_sum_shapes)
        a = data.draw(hnp.arrays(np.float64, shape, elements=_sum_entries))
        b = data.draw(hnp.arrays(np.float64, shape, elements=_sum_entries))
        h = data.draw(hnp.arrays(np.float64, shape[:-1] + (3, 3), elements=_sum_entries))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            _assert_bits_equal(_sum3(a), np.sum(a, axis=-1))
            _assert_bits_equal(_sum3(a * b), np.sum(a * b, axis=-1))
            _assert_bits_equal(np.sqrt(_sum3(a * a)), np.linalg.norm(a, axis=-1))
            _assert_bits_equal(_unit_rows(a), a / np.linalg.norm(a, axis=-1)[..., None])
            _assert_bits_equal(_sum3(a) / 3, np.mean(a, axis=-1))
            _assert_bits_equal(_sum3(np.diagonal(h, axis1=-2, axis2=-1)), np.trace(h, axis1=-2, axis2=-1))

    def test_sum_of_negative_zeros_is_positive_zero(self):
        # numpy adds onto its identity 0.0, so a row of -0.0 sums to 0.0, as np.sum gives
        _assert_bits_equal(_sum3(np.full((2, 3), -0.0)), np.zeros(2))


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
        report = check_dh_round_trip(distinct_wrists(), seed=seed)
        assert report.status == "PASS"
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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_joint_is_named(self, value):
        # before this was checked, canonical_signature failed later with a message naming no joint
        with pytest.raises(ValueError, match=rf"theta_2 = {value!r} is not finite"):
            DHChain((1.2, 1.2, 1.2), (0.0, value, 1.0, 0.0))
        with pytest.raises(ValueError, match=rf"theta_4 = {value!r} is not finite"):
            DHChain((1.2, 1.2, 1.2), (0.0, 0.5, 1.0, value))

    def test_n_counts_joints(self):
        dh = DHChain((1.0, 1.0, 1.0), (0.0, 1.0, 2.0, 0.0))
        assert dh.n == 4
