import itertools
import math
import re

import numpy as np
import pytest

from isowrist.spheregeom import (
    PlatonicSolid,
    PointSet,
    TETRAHEDRON,
    _line_reflection,
    antipodal_exchange,
    isotropy_of,
    isotropy_of_stack,
    platonic_vertices,
    reflect_about_line,
    reflect_about_plane,
    rotation_about_axis,
    second_moment,
    second_moment_stack,
)

R2 = math.sqrt(2.0) / 3.0
R6 = math.sqrt(6.0) / 3.0
S2 = 2.0 * math.sqrt(2.0) / 3.0


def moment_by_hand(points):
    """Independent oracle: accumulate sum e e^T with explicit loops."""
    h = [[0.0] * 3 for _ in range(3)]
    for p in points:
        for i in range(3):
            for j in range(3):
                h[i][j] += float(p[i]) * float(p[j])
    return np.array(h)


def random_unit_rows(rng, n):
    pts = rng.normal(size=(n, 3))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


class TestSecondMoment:
    def test_tetrahedron_is_four_thirds_identity(self):
        h = second_moment(PointSet(TETRAHEDRON))
        assert np.max(np.abs(h - (4.0 / 3.0) * np.eye(3))) < 1e-15

    def test_single_point_rank_one(self):
        h = second_moment(PointSet([[1.0, 0.0, 0.0]]))
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        assert np.array_equal(h, expected)

    def test_octahedron_is_twice_identity(self):
        ps = platonic_vertices(PlatonicSolid.octahedron)
        oracle = moment_by_hand(ps.array)
        assert np.max(np.abs(oracle - 2.0 * np.eye(3))) == 0.0
        assert np.max(np.abs(second_moment(ps) - oracle)) < 1e-15

    def test_matches_hand_summation_on_random_sets(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 5, 9):
            ps = PointSet(random_unit_rows(rng, n))
            assert np.max(np.abs(second_moment(ps) - moment_by_hand(ps.array))) < 1e-14

    def test_trace_equals_point_count(self):
        rng = np.random.default_rng(11)
        for n in range(1, 9):
            ps = PointSet(random_unit_rows(rng, n))
            assert abs(np.trace(second_moment(ps)) - n) < 1e-12

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty point set"):
            second_moment(PointSet(np.empty((0, 3))))

    @pytest.mark.parametrize("shape", [(4, 2), (3, 4), (3,), (), (5, 4, 1)])
    def test_stack_of_another_shape_raises(self, shape):
        # no product of what is not a point array: a (4, 2) array once gave a 2x2 tensor
        message = re.escape(f"expected point arrays of shape (..., n, 3), got shape {shape}")
        with pytest.raises(ValueError, match=message):
            second_moment_stack(np.ones(shape))


class TestIsotropyOf:
    def test_tetrahedron(self):
        iso = isotropy_of(second_moment(PointSet(TETRAHEDRON)))
        assert iso.isotropic
        assert iso.sigma_sq == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_two_orthogonal_points_are_not_isotropic(self):
        iso = isotropy_of(second_moment(PointSet([[1, 0, 0], [0, 1, 0]])))
        assert not iso.isotropic

    def test_icosahedron(self):
        iso = isotropy_of(second_moment(platonic_vertices(PlatonicSolid.icosahedron)))
        assert iso.isotropic
        assert iso.sigma_sq == pytest.approx(4.0, abs=1e-12)

    def test_zero_tensor_not_isotropic(self):
        assert not isotropy_of(np.zeros((3, 3))).isotropic

    @pytest.mark.parametrize("shape", [(1, 3), (3, 1), (3,), (), (4, 4), (2, 3, 4)])
    def test_tensor_of_another_shape_raises(self, shape):
        # no broadcast: a (1, 3) row once got a verdict as if it were a 3x3 tensor
        message = re.escape(f"expected 3x3 tensors of shape (..., 3, 3), got shape {shape}")
        with pytest.raises(ValueError, match=message):
            isotropy_of(np.ones(shape))
        with pytest.raises(ValueError, match=message):
            isotropy_of_stack(np.ones(shape))


class TestPlatonic:
    @pytest.mark.parametrize("kind", list(PlatonicSolid))
    def test_vertex_count_and_isotropy(self, kind):
        ps = platonic_vertices(kind)
        assert ps.n == kind.n
        assert np.max(np.abs(np.linalg.norm(ps.array, axis=1) - 1.0)) < 1e-12
        iso = isotropy_of(second_moment(ps))
        assert iso.isotropic
        assert abs(iso.sigma_sq - kind.n / 3.0) < 1e-12

    def test_tetrahedron_reference_orientation(self):
        ps = platonic_vertices(PlatonicSolid.tetrahedron)
        assert np.array_equal(ps.array, TETRAHEDRON)

    def test_octahedron_is_coordinate_axes(self):
        ps = platonic_vertices(PlatonicSolid.octahedron)
        assert np.array_equal(ps.array, np.vstack([np.eye(3), -np.eye(3)]))


class TestAntipodalExchange:
    def test_exchange_second_point(self):
        # flipping the second vertex lands on another cataloged solution
        out = antipodal_exchange(PointSet(TETRAHEDRON), {2})
        expected = np.array(TETRAHEDRON)
        expected[1] = -expected[1]
        assert np.array_equal(out.array, expected)
        assert out.array[1] @ np.array([1.0, 0.0, 0.0]) == pytest.approx(1.0 / 3.0)

    def test_empty_subset_is_identity(self):
        out = antipodal_exchange(PointSet(TETRAHEDRON), set())
        assert np.array_equal(out.array, TETRAHEDRON)

    def test_exchange_all_but_first(self):
        out = antipodal_exchange(PointSet(TETRAHEDRON), {2, 3, 4})
        assert np.array_equal(out.array, np.vstack([TETRAHEDRON[0], -TETRAHEDRON[1:]]))

    def test_moment_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            ps = PointSet(random_unit_rows(rng, n))
            subset = [int(k) + 1 for k in rng.choice(n, size=rng.integers(0, n + 1), replace=False)]
            out = antipodal_exchange(ps, subset)
            assert np.max(np.abs(second_moment(out) - second_moment(ps))) < 1e-14

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            antipodal_exchange(PointSet(TETRAHEDRON), {5})
        with pytest.raises(IndexError):
            antipodal_exchange(PointSet(TETRAHEDRON), {0})
        with pytest.raises(IndexError, match="antipodal index 0 out of range 1..4"):
            antipodal_exchange(PointSet(TETRAHEDRON), {5, 2, 0})
        with pytest.raises(IndexError, match="antipodal index -1 out of range 1..4"):
            antipodal_exchange(PointSet(TETRAHEDRON), [np.int64(-1)])

    @pytest.mark.parametrize("index", [1.5, 2.0, "2", np.float64(3.0), None], ids=repr)
    def test_non_integer_index_raises(self, index):
        # int() once took 1.5 for point 1 and "2" for point 2
        with pytest.raises(TypeError):
            antipodal_exchange(PointSet(TETRAHEDRON), [index])

    def test_integer_indices_of_any_type(self):
        ps = PointSet(TETRAHEDRON)
        expected = antipodal_exchange(ps, [2, 4]).array
        for subset in ([np.int64(2), np.int32(4)], np.array([4, 2]), range(2, 5, 2)):
            assert np.array_equal(antipodal_exchange(ps, subset).array, expected)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_subset_equals_point_negation_bit_for_bit(self, n):
        rng = np.random.default_rng(30 + n)
        pts = random_unit_rows(rng, n)
        pts[0] = [0.0, -1.0, 0.0]  # exact zeros of both signs after the flip
        for size in range(n + 1):
            for subset in itertools.combinations(range(1, n + 1), size):
                expected = np.array(pts)
                for k in subset:
                    expected[k - 1] = -expected[k - 1]
                out = antipodal_exchange(PointSet(pts), subset).array
                assert out.tobytes() == expected.tobytes()


class TestReflectAboutPlane:
    def test_yz_plane_reflection_of_tetrahedron(self):
        out = reflect_about_plane(PointSet(TETRAHEDRON), [1.0, 0.0, 0.0])
        expected = np.array(
            [[-1, 0, 0], [1 / 3, -S2, 0], [1 / 3, R2, R6], [1 / 3, R2, -R6]]
        )
        assert np.max(np.abs(out.array - expected)) < 1e-15

    def test_xy_plane_reflection_of_tetrahedron(self):
        out = reflect_about_plane(PointSet(TETRAHEDRON), [0.0, 0.0, 1.0])
        expected = np.array(
            [[1, 0, 0], [-1 / 3, -S2, 0], [-1 / 3, R2, -R6], [-1 / 3, R2, R6]]
        )
        assert np.max(np.abs(out.array - expected)) < 1e-15

    def test_point_in_plane_is_fixed(self):
        ps = PointSet([[0.0, 1.0, 0.0]])
        out = reflect_about_plane(ps, [1.0, 0.0, 0.0])
        assert np.max(np.abs(out.array - ps.array)) < 1e-15

    def test_isotropy_preserved(self):
        rng = np.random.default_rng(5)
        for kind in PlatonicSolid:
            normal = rng.normal(size=3)
            normal /= np.linalg.norm(normal)
            out = reflect_about_plane(platonic_vertices(kind), normal)
            assert isotropy_of(second_moment(out)).isotropic

    def test_each_point_maps_to_p_minus_twice_its_normal_component(self):
        rng = np.random.default_rng(18)
        pts = random_unit_rows(rng, 40)
        for normal in list(random_unit_rows(rng, 5)) + [np.eye(3)[k] for k in range(3)]:
            out = reflect_about_plane(PointSet(pts), normal)
            for p, img in zip(pts, out.array):
                assert np.max(np.abs(img - (p - 2.0 * np.dot(normal, p) * normal))) < 1e-15
            assert np.max(np.abs(reflect_about_plane(out, normal).array - pts)) < 1e-15

    @pytest.mark.parametrize("k", range(3))
    def test_coordinate_plane_negates_one_coordinate_exactly(self, k):
        pts = random_unit_rows(np.random.default_rng(19), 40)
        expected = pts.copy()
        expected[:, k] = -expected[:, k]
        assert np.array_equal(reflect_about_plane(PointSet(pts), np.eye(3)[k]).array, expected)


class TestReflectAboutLine:
    def test_x_axis(self):
        assert np.max(np.abs(reflect_about_line([1.0, 0.0, 0.0]) - np.diag([1.0, -1.0, -1.0]))) == 0.0

    def test_axis_is_fixed(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            e = rng.normal(size=3)
            e /= np.linalg.norm(e)
            assert np.max(np.abs(reflect_about_line(e) @ e - e)) < 1e-15

    def test_proper_orthogonal_over_random_axes(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            e = rng.normal(size=3)
            e /= np.linalg.norm(e)
            ell = reflect_about_line(e)
            assert np.max(np.abs(ell @ ell.T - np.eye(3))) < 1e-12
            assert abs(np.linalg.det(ell) - 1.0) < 1e-12

    def test_involution(self):
        rng = np.random.default_rng(17)
        e = rng.normal(size=3)
        e /= np.linalg.norm(e)
        ell = reflect_about_line(e)
        assert np.max(np.abs(ell @ ell - np.eye(3))) < 1e-12

    def test_equals_half_turn_rotation(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            e = rng.normal(size=3)
            e /= np.linalg.norm(e)
            assert np.max(np.abs(reflect_about_line(e) - rotation_about_axis(e, math.pi))) < 1e-12

    def test_negates_orthogonal_vectors(self):
        ell = reflect_about_line([0.0, 0.0, 1.0])
        p = np.array([0.6, -0.8, 0.0])
        assert np.max(np.abs(ell @ p + p)) < 1e-15


class TestPointSet:
    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="norm"):
            PointSet([[1.0, 1.0, 0.0]])

    @pytest.mark.parametrize("bad", [[math.nan, 0.0, 0.0], [math.inf, 0.0, 0.0], [0.0, math.nan, 1.0]])
    @pytest.mark.parametrize(
        "call",
        [
            lambda v: PointSet([v, [1.0, 0.0, 0.0]]),
            lambda v: rotation_about_axis(v, 1.0),
            lambda v: reflect_about_line(v),
            lambda v: reflect_about_plane(PointSet(TETRAHEDRON), v),
        ],
        ids=["PointSet", "rotation_about_axis", "reflect_about_line", "reflect_about_plane"],
    )
    def test_rejects_non_finite_vectors(self, call, bad):
        with pytest.raises(ValueError, match="has norm nan|has norm inf"):
            call(bad)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            PointSet([1.0, 0.0, 0.0, 0.0])

    def test_is_immutable(self):
        ps = PointSet(TETRAHEDRON)
        with pytest.raises(ValueError):
            ps.array[0, 0] = 2.0


class TestStackedForms:
    def test_rotations_equal_per_row_calls(self):
        rng = np.random.default_rng(12)
        axes = random_unit_rows(rng, 200)
        angles = rng.uniform(-10.0, 10.0, size=200)
        stacked = rotation_about_axis(axes, angles)
        assert stacked.shape == (200, 3, 3)
        for e, a, r in zip(axes, angles, stacked):
            assert np.array_equal(r, rotation_about_axis(e, a))

    def test_rotations_broadcast_axes_against_angles(self):
        rng = np.random.default_rng(13)
        axes = random_unit_rows(rng, 6).reshape(2, 3, 3)
        angles = rng.uniform(-3.0, 3.0, size=(4, 1, 1))
        stacked = rotation_about_axis(axes, angles)
        assert stacked.shape == (4, 2, 3, 3, 3)
        assert np.array_equal(stacked[3, 1, 2], rotation_about_axis(axes[1, 2], angles[3, 0, 0]))
        assert np.array_equal(rotation_about_axis(axes[0, 0], angles[:, 0, 0])[2], stacked[2, 0, 0])

    @pytest.mark.parametrize("scale", [1.0 + 1e-9, 1.0 - 1e-9, 2.0])
    def test_rotation_rejects_a_non_unit_axis(self, scale):
        with pytest.raises(ValueError, match="norm"):
            rotation_about_axis(np.array([0.6, 0.0, 0.8]) * scale, 0.3)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_rotation_rejects_a_non_finite_angle(self, value):
        # an infinite angle once raised "math domain error", and a nan one gave a nan matrix
        with pytest.raises(ValueError, match=rf"rotation angle {value!r} is not finite"):
            rotation_about_axis([1.0, 0.0, 0.0], value)
        with pytest.raises(ValueError, match=rf"rotation angle {value!r} is not finite"):
            rotation_about_axis(random_unit_rows(np.random.default_rng(16), 3), [0.1, value, 0.2])

    def test_one_non_unit_axis_in_a_stack_is_rejected(self):
        axes = random_unit_rows(np.random.default_rng(14), 10)
        axes[7] *= 1.0 + 1e-9
        with pytest.raises(ValueError, match="norm"):
            rotation_about_axis(axes, np.zeros(10))
        rotation_about_axis(np.delete(axes, 7, axis=0), np.zeros(9))

    def test_isotropy_of_stack_rows_equal_single_checks(self):
        rng = np.random.default_rng(15)
        sets = [random_unit_rows(rng, 4) for _ in range(50)]
        sets += [platonic_vertices(kind).array[:4] for kind in PlatonicSolid]
        isotropic, sigma_sq = isotropy_of_stack(second_moment_stack(np.array(sets)))
        assert isotropic[50] and not isotropic[0]
        for i, pts in enumerate(sets):
            assert isotropy_of(second_moment(PointSet(pts))) == (isotropic[i], sigma_sq[i])

    @pytest.mark.parametrize("n", range(1, 9))
    def test_second_moment_stack_rows_equal_single_moments(self, n):
        rng = np.random.default_rng(20 + n)
        stack = np.array([random_unit_rows(rng, n) for _ in range(30)])
        h = second_moment_stack(stack)
        assert h.shape == (30, 3, 3)
        for pts, hi in zip(stack, h):
            assert np.array_equal(hi, second_moment(PointSet(pts)))

    def test_second_moment_stack_rejects_empty_sets(self):
        with pytest.raises(ValueError, match="empty"):
            second_moment_stack(np.zeros((4, 0, 3)))

    def test_line_reflection_stack_rows_equal_single_reflections(self):
        axes = random_unit_rows(np.random.default_rng(17), 300)
        stacked = _line_reflection(axes)
        assert stacked.shape == (300, 3, 3)
        for e, ell in zip(axes, stacked):
            assert np.array_equal(ell, reflect_about_line(e))
        assert np.array_equal(_line_reflection(axes.reshape(3, 100, 3))[2, 5], stacked[205])

    def test_single_vector_callers_reject_stacks_of_axes(self):
        axes = random_unit_rows(np.random.default_rng(16), 2)
        with pytest.raises(ValueError):
            reflect_about_plane(PointSet(TETRAHEDRON), axes)
        with pytest.raises(ValueError):
            reflect_about_line(axes)
        # one axis given as a (1, 3) row is still a single axis
        assert np.array_equal(reflect_about_line(axes[:1]), reflect_about_line(axes[0]))
