import hashlib
import io
import itertools
import math
import os
import pickle
import re
import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from isowrist import checks, solver
from isowrist.classify import _SYMMETRY_SIGNS, ANTIPODAL_SUBSETS, REFLECTIONS
from isowrist.checks import check_catalog_bijection, check_distinctness, check_nonvanishing, check_oracle
from isowrist.solver import (
    _axes_of,
    _CATALOG_AXES,
    _cluster,
    _column_max,
    _jacobian_batch,
    _newton_steps,
    _row_norms,
    _SOLVE_CHUNK,
    BEZOUT_COUNT,
    BKK_BOUND_CITED,
    CATALOG_MAGNITUDES,
    CATALOG_SIGNS,
    SOLUTION_CATALOG,
    START_BOX,
    TRIVIAL_SET_INDEX,
    SolutionRecord,
    catalog_distances,
    catalog_rows,
    enumerate_solutions,
    oracle_root_hunt,
    residuals,
    solve_closed_form_stack,
)
from isowrist.documents import solution_document
from isowrist.spheregeom import TETRAHEDRON

T = 1.0 / 3.0
R2 = math.sqrt(2.0) / 3.0
R6 = math.sqrt(6.0) / 3.0
S2 = 2.0 * math.sqrt(2.0) / 3.0

ROW_1 = (T, -S2, -T, -R2, R6, T, R2, R6)
ROW_18 = (-T, -S2, -T, R2, R6, -T, R2, -R6)

#: All 32 branch choices (s_u, s_z, s_v, s_s, s_w), s_u most significant.
PATTERNS = list(itertools.product((1, -1), repeat=5))


class TestResiduals:
    def test_trivial_set_solves_the_system(self):
        assert np.max(np.abs(residuals(ROW_18))) < 1e-15

    def test_zero_tuple_values(self):
        expected = np.array([-1.0 / 3.0, -4.0 / 3.0, -4.0 / 3.0, 0.0, 0.0, 0.0, -1.0, -1.0])
        assert np.max(np.abs(residuals(np.zeros(8)) - expected)) < 1e-15

    def test_all_plus_pattern_is_a_root(self):
        point = solve_closed_form_stack([(1, 1, 1, 1, 1)])[0]
        assert np.max(np.abs(residuals(point))) < 1e-15

    def test_system_has_eight_quadratics(self):
        assert residuals(np.zeros(8)).shape == (8,)
        assert BEZOUT_COUNT == 2**8 == 256
        # the sharper mixed-volume bound is quoted, not recomputed
        assert BKK_BOUND_CITED == 192

    def test_stack_rows_are_bit_equal_to_single_tuples(self):
        stack = np.random.default_rng(5).uniform(-1.5, 1.5, size=(50, 8))
        batch = residuals(stack)
        assert batch.shape == (50, 8)
        for k in range(50):
            assert np.array_equal(batch[k], residuals(stack[k]))

    def test_rejects_wrong_unknown_count(self):
        with pytest.raises(ValueError, match="8"):
            residuals(np.zeros(7))


class TestClosedForm:
    def test_pattern_for_row_1(self):
        point = solve_closed_form_stack([(1, 1, 1, -1, 1)])[0]
        assert np.max(np.abs(point - np.array(ROW_1))) < 1e-15

    def test_pattern_for_row_18(self):
        point = solve_closed_form_stack([(-1, -1, -1, -1, -1)])[0]
        assert np.max(np.abs(point - np.array(ROW_18))) < 1e-15

    def test_single_sign_flip_changes_solution(self):
        base, flipped = solve_closed_form_stack([(1, 1, 1, -1, 1), (-1, 1, 1, -1, 1)])
        assert catalog_rows(np.sign([base, flipped])) == [1, 4]

    def test_rejects_bad_pattern(self):
        with pytest.raises(ValueError, match="sign pattern"):
            solve_closed_form_stack([(1, 1, 0, 1, 1)])

    def test_component_magnitudes_are_catalog_radicals(self):
        magnitudes = (T, R2, R6, S2)
        for point in solve_closed_form_stack(PATTERNS):
            for value in point:
                assert min(abs(abs(value) - m) for m in magnitudes) < 1e-15


def scalar_cascade(pattern):
    """The elimination cascade one Python float at a time: the reference for the stacked pass."""
    s_u, s_z, s_v, s_s, s_w = pattern
    u = s_u * (1.0 / 3.0)
    z = s_z * math.sqrt(6.0) * u
    v = s_v * math.sqrt(2.0) * u
    s = s_s * (2.0 * math.sqrt(2.0) / 3.0)
    w = s_w * (1.0 / 3.0) * math.sqrt(6.0 * (2.0 - 9.0 * u * u))
    x = -w * u / z
    y = -v * w / z
    c = u * (w * y - v * z) / (s * z)
    return np.array([c, s, x, y, z, u, v, w])


class TestStackedCascade:
    def test_rows_are_bit_equal_to_the_scalar_cascade(self):
        stack = solve_closed_form_stack(PATTERNS)
        assert stack.shape == (32, 8)
        for pattern, row in zip(PATTERNS, stack):
            assert row.tobytes() == scalar_cascade(pattern).tobytes()

    def test_rows_do_not_depend_on_their_neighbours(self):
        patterns = np.array(PATTERNS)
        stack = solve_closed_form_stack(patterns)
        order = np.random.default_rng(3).permutation(32)
        assert solve_closed_form_stack(patterns[order]).tobytes() == stack[order].tobytes()
        for k in range(32):  # each row alone, m = 1
            assert solve_closed_form_stack(patterns[k : k + 1]).tobytes() == stack[k].tobytes()
        assert solve_closed_form_stack(patterns[:0]).shape == (0, 8)

    def test_single_record_keeps_its_pattern_as_ints(self):
        point = solve_closed_form_stack(np.array([[1.0, -1.0, 1.0, -1.0, 1.0]]))[0]
        rec = SolutionRecord(*point, catalog_rows(np.sign(point))[0])
        assert rec.sign_pattern == (1, -1, 1, -1, 1)
        assert all(type(b) is int for b in rec.sign_pattern)

    @pytest.mark.parametrize("pattern", [(1, 1, 1, 1), (1, 1, 1, 1, 1, 1)])
    def test_rejects_a_pattern_without_five_entries(self, pattern):
        with pytest.raises(ValueError, match=r"sign patterns of 5 entries \(s_u, s_z, s_v, s_s, s_w\)"):
            solve_closed_form_stack([pattern])

    @pytest.mark.parametrize("patterns", [np.ones(5), np.ones((3, 4)), np.ones((2, 5, 1))])
    def test_stack_rejects_a_shape_other_than_m_by_5(self, patterns):
        with pytest.raises(ValueError, match="got shape"):
            solve_closed_form_stack(patterns)

    @pytest.mark.parametrize("entry", [0, 0.5, 1.5, -2, float("nan")])
    def test_rejects_an_entry_other_than_plus_or_minus_one(self, entry):
        pattern = (1, -1, entry, 1, -1)
        with pytest.raises(ValueError, match=r"entries must be \+-1"):
            solve_closed_form_stack([pattern])
        with pytest.raises(ValueError, match=r"entries must be \+-1, got \[1.*, -1.*, "):
            solve_closed_form_stack([(1, 1, 1, 1, 1), pattern])

    def test_residual_gate_covers_every_row(self, monkeypatch):
        exact = solver.residuals

        def row_21_off(points):
            # row 21 alone misses every equation by 2e-12, beyond RESIDUAL_TOL
            r = exact(points)
            r[20] += 2e-12
            return r

        monkeypatch.setattr(solver, "residuals", row_21_off)
        with pytest.raises(ArithmeticError, match="violates the system: residual"):
            solve_closed_form_stack(PATTERNS)

    def test_vanishing_divisor_raises(self, monkeypatch):
        monkeypatch.setattr(solver, "math", type("NoRoots", (), {"sqrt": staticmethod(lambda value: 0.0)}))
        with pytest.raises(ArithmeticError, match="vanishing divisor in back-substitution: z=0.0"):
            solve_closed_form_stack(PATTERNS)


class TestEnumerate:
    def test_thirty_two_records_in_catalog_order(self):
        recs = enumerate_solutions()
        assert len(recs) == 32
        assert [r.index for r in recs] == list(range(1, 33))

    def test_closed_forms_match_catalog_within_tolerance(self):
        recs = enumerate_solutions()
        for rec, raw in zip(recs, solve_closed_form_stack([r.sign_pattern for r in recs])):
            ref = np.array(SOLUTION_CATALOG[rec.index - 1])
            assert np.max(np.abs(raw - ref)) <= 1e-12

    def test_sign_patterns_are_unique(self):
        recs = enumerate_solutions()
        assert len({r.sign_pattern for r in recs}) == 32

    def test_pairwise_distinctness(self):
        comps = np.array([r.components for r in enumerate_solutions()])
        for i, j in itertools.combinations(range(32), 2):
            assert np.max(np.abs(comps[i] - comps[j])) >= 0.1

    def test_trivial_set_is_row_18(self):
        rec = enumerate_solutions()[TRIVIAL_SET_INDEX - 1]
        assert rec.index == TRIVIAL_SET_INDEX
        assert np.max(np.abs(rec.axes.array - TETRAHEDRON)) < 1e-15

    def test_axis_angles_are_arccos_one_third(self):
        for rec in enumerate_solutions():
            a = rec.axes.array
            e3_dot_e4 = rec.x * rec.u + rec.y * rec.v + rec.z * rec.w
            assert abs(abs(e3_dot_e4) - 1.0 / 3.0) < 1e-12
            for i, j in itertools.combinations(range(4), 2):
                assert abs(abs(float(a[i] @ a[j])) - 1.0 / 3.0) < 1e-12

    def test_records_read_the_catalog_table(self):
        # TestExactSigns.test_sign_pattern_is_read_off_the_row checks each record's sign_pattern
        recs = enumerate_solutions()
        assert [r.index for r in recs] == list(range(1, 33))
        assert np.array([r.components for r in recs]).tobytes() == np.array(SOLUTION_CATALOG).tobytes()

    def test_no_cascade_and_fresh_records_on_every_call(self, monkeypatch):
        def refuse(patterns):
            raise AssertionError("enumerate_solutions ran the cascade")

        monkeypatch.setattr(solver, "solve_closed_form_stack", refuse)
        first = enumerate_solutions()
        first[0] = None
        second = enumerate_solutions()
        assert second[0].index == 1 and second is not first

    @pytest.mark.parametrize(("offset", "matches"), [(1e-13, True), (1e-11, False)])
    def test_branch_must_lie_within_tolerance_of_its_row(self, monkeypatch, offset, matches):
        # the cascade runs in verify's bijection check: row 1's branch keeps its signs but moves off its row,
        # and 1e-11 is beyond RESIDUAL_TOL
        cascade = checks.solve_closed_form_stack

        def shifted(patterns):
            points = cascade(patterns)
            points[[tuple(p) == (1, 1, 1, -1, 1) for p in patterns], 0] += offset
            return points

        monkeypatch.setattr(checks, "solve_closed_form_stack", shifted)
        result = check_catalog_bijection(enumerate_solutions())
        if matches:
            assert result.status == "PASS" and 0.0 < result.worst <= 1e-12
        else:
            assert result.status == "FAIL" and result.worst > 1e-12

    def test_xy_reflection_maps_18_to_19(self):
        recs = enumerate_solutions()
        r18, r19 = recs[17], recs[18]
        # flipping the signs of the two third components is the x-y reflection
        assert (r19.c, r19.s, r19.x, r19.y) == (r18.c, r18.s, r18.x, r18.y)
        assert (r19.z, r19.w) == (-r18.z, -r18.w)
        assert (r19.u, r19.v) == (r18.u, r18.v)


#: Entries that stress a row norm: signed zeros, subnormals, infinities, NaN, squares that overflow
#: (1e200) or underflow, next to ordinary magnitudes whose sums round.
_norm_entries = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1e-160, np.inf, -np.inf, np.nan, 1e200, -1e200]),
    st.floats(-1e3, 1e3),
    st.floats(allow_nan=True, allow_infinity=True),
)


class TestCatalogLookup:
    def test_each_row_matches_itself(self):
        for k, row in enumerate(SOLUTION_CATALOG, start=1):
            assert catalog_rows(np.sign(row)) == [k]
            assert catalog_rows(CATALOG_SIGNS[k - 1]) == [k]

    def test_far_axis_set_matches_nothing(self):
        far = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
        assert np.min(catalog_distances(far)) > 0.5
        # all plus fails the first sign equation; a 0 or a NaN equals no sign
        for signs in ((1,) * 8, (0,) + tuple(CATALOG_SIGNS[0, 1:]), np.full(8, np.nan)):
            with pytest.raises(ArithmeticError, match="match no catalog row"):
                catalog_rows(signs)

    def test_distances_broadcast_over_stacks(self):
        stack = np.array([r.axes.array for r in enumerate_solutions()])
        d = catalog_distances(stack)
        assert d.shape == (32, 32)
        assert np.array_equal(np.diag(d), np.zeros(32))

    @pytest.mark.parametrize("shape", [(1, 3), (4, 1), (3,), (4,), (), (2, 3, 4), (4, 3, 1)])
    def test_axes_of_another_shape_raise(self, shape):
        # no broadcast: one 3-vector or a (4, 1) column is not an axis set
        with pytest.raises(ValueError, match=re.escape(f"expected axis sets of shape (..., 4, 3), got shape {shape}")):
            catalog_distances(np.ones(shape))

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(
        hnp.arrays(
            np.float64,
            st.sampled_from([(4, 3), (0, 4, 3), (1, 4, 3), (5, 4, 3), (2, 3, 4, 3), (1, 32, 4, 3)]),
            elements=_norm_entries,
        )
    )
    def test_distances_equal_the_broadcast_max(self, axes):
        # the definition: the max-norm of the differences over each catalog row's 12 coordinates
        with np.errstate(invalid="ignore"):
            expected = np.max(np.abs(axes[..., None, :, :] - _CATALOG_AXES), axis=(-2, -1))
            d = catalog_distances(axes)
        assert d.shape == axes.shape[:-2] + (32,)
        assert np.array_equal(d, expected, equal_nan=True)
        assert np.array_equal(np.signbit(d), np.signbit(expected))


#: Each magnitude is sqrt(m_k)/3; the positions of the unknowns (c, s, x, y, z, u, v, w).
M = (1, 8, 1, 2, 6, 1, 2, 6)
C, S, X, Y, Z, U, V, W = range(8)

#: The unknowns each generator of the catalog's (Z/2)^5 symmetry group flips.
GENERATORS = {
    (2,): (C, S),  # antipodal e_2
    (3,): (X, Y, Z),  # antipodal e_3
    (4,): (U, V, W),  # antipodal e_4
    "reflect_xy": (Z, W),
    "reflect_xz": (S, Y, V),
}


def solves_sign_equations(s) -> bool:
    """Whether a +-1 vector (c, s, x, y, z, u, v, w) solves the three sign equations."""
    sums = (2 * s[C] * s[S] + s[X] * s[Y] + s[U] * s[V], s[Y] * s[Z] + s[V] * s[W], s[X] * s[Z] + s[U] * s[W])
    return sums == (0, 0, 0)


class TestExactSigns:
    """The catalog as integer sign vectors over the magnitudes sqrt(m_k)/3, checked without floats."""

    def test_magnitudes_are_the_table_columns(self):
        assert CATALOG_MAGNITUDES == pytest.approx([math.sqrt(m) / 3.0 for m in M], rel=1e-15, abs=0.0)
        assert np.array_equal(np.sign(SOLUTION_CATALOG), CATALOG_SIGNS)
        assert CATALOG_SIGNS.shape == (32, 8) and not CATALOG_SIGNS.flags.writeable

    @pytest.mark.parametrize("name", ["CATALOG_SIGNS", "_CATALOG", "_CATALOG_AXES"])
    def test_catalog_arrays_refuse_writes(self, name):
        # distinct_wrists keys its stored classes on these objects, so none of them may change in place
        array = getattr(solver, name)
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0
        with pytest.raises(ValueError, match="read-only"):
            array *= 1

    def test_exactly_the_table_rows_solve_the_sign_equations(self):
        roots = [s for s in itertools.product((1, -1), repeat=8) if solves_sign_equations(s)]
        assert len(roots) == 32
        assert sorted(roots) == sorted(map(tuple, CATALOG_SIGNS.tolist()))

    def test_scaled_equations_are_integer_identities(self):
        # 9 x (equations 1-3, 7, 8): any signs solve them, since 9 u^2 = m_u and so on
        assert 9 + M[C] + M[X] + M[U] == 12
        assert M[S] + M[Y] + M[V] == 12
        assert M[Z] + M[W] == 12
        assert M[C] + M[S] == 9
        assert M[X] + M[Y] + M[Z] == 9
        # 9 x (equations 4-6): 9 |a b| = sqrt(m_a m_b) = k sqrt(r), with one radicand r per equation
        for terms, radicand, coefficients in [
            (((C, S), (X, Y), (U, V)), 2, (2, 1, 1)),  # sqrt(2) (2 s_c s_s + s_x s_y + s_u s_v)
            (((Y, Z), (V, W)), 3, (2, 2)),  # 2 sqrt(3) (s_y s_z + s_v s_w)
            (((X, Z), (U, W)), 6, (1, 1)),  # sqrt(6) (s_x s_z + s_u s_w)
        ]:
            assert [M[i] * M[j] for i, j in terms] == [radicand * k * k for k in coefficients]

    def test_generators_permute_the_rows(self):
        rows = set(map(tuple, CATALOG_SIGNS.tolist()))
        table = dict(zip(list(ANTIPODAL_SUBSETS) + list(REFLECTIONS), _SYMMETRY_SIGNS.tolist()))
        flips = [[-1 if k in flipped else 1 for k in range(8)] for flipped in GENERATORS.values()]
        assert [table[name] for name in GENERATORS] == flips  # the library's table flips the same unknowns

        def apply(flip, row):
            return tuple(f * v for f, v in zip(flip, row))

        for flip in flips:
            assert {apply(flip, row) for row in rows} == rows
        orbit = {tuple(CATALOG_SIGNS[TRIVIAL_SET_INDEX - 1].tolist())}
        for _ in range(5):
            orbit |= {apply(flip, row) for flip in flips for row in orbit}
        assert orbit == rows  # the five flips generate a group acting simply transitively on the rows

    def test_sign_pattern_is_read_off_the_row(self):
        for rec in enumerate_solutions():
            s = CATALOG_SIGNS[rec.index - 1].tolist()
            assert rec.sign_pattern == (s[U], s[Z] * s[U], s[V] * s[U], s[S], s[W])


class TestStackedCatalogLookup:
    def test_axes_of_lays_out_e1_to_e4(self):
        for row, axes in zip(SOLUTION_CATALOG, _axes_of(SOLUTION_CATALOG)):
            c, s, x, y, z, u, v, w = row
            assert np.array_equal(axes, [[1.0, 0.0, 0.0], [c, s, 0.0], [x, y, z], [u, v, w]])
        assert _axes_of(ROW_18).shape == (1, 4, 3)
        assert _axes_of([]).shape == (0, 4, 3)
        assert np.array_equal(SolutionRecord(*ROW_18, 18).axes.array, _axes_of(ROW_18)[0])

    def test_rows_equal_single_lookups(self):
        order = np.random.default_rng(5).permutation(32)
        stack = np.concatenate([CATALOG_SIGNS, CATALOG_SIGNS[order]])
        rows = catalog_rows(stack)
        assert [catalog_rows(v)[0] for v in stack] == rows
        assert rows == list(range(1, 33)) + (order + 1).tolist()
        assert catalog_rows(stack.astype(float)) == rows  # float signs look up the same rows


class TestNonvanishing:
    def test_all_catalog_rows(self):
        for rec in enumerate_solutions():
            result = check_nonvanishing([rec])
            assert result.status == "PASS" and result.tolerance == 1e-9

    def test_vanishing_u_violates_normality(self):
        # u = v = 0 forces |e_4| != 1; the third residual exposes it
        bad = (ROW_1[0], ROW_1[1], ROW_1[2], ROW_1[3], ROW_1[4], 0.0, 0.0, 2.0 * math.sqrt(3.0) / 3.0)
        assert check_nonvanishing([SolutionRecord(*bad, 1)]).status == "FAIL"
        r = residuals(bad)
        assert abs(r[2]) > 0.1
        norm_e4_sq = bad[5] ** 2 + bad[6] ** 2 + bad[7] ** 2
        assert abs(norm_e4_sq - 1.0) > 0.1

    def test_vanishing_c_rejected(self):
        bad = (0.0, 1.0) + ROW_1[2:]
        assert check_nonvanishing([SolutionRecord(*bad, 1)]).status == "FAIL"
        assert abs(residuals(bad)[6]) < 1e-15  # unit e_2 alone is satisfiable...
        assert np.max(np.abs(residuals(bad))) > 0.1  # ...but not the full system


class TestCatalogChecks:
    def test_bijection_worst_is_cascade_rounding(self):
        # the cascade lands one unit in the last place of 1/3 from its own catalog row
        result = check_catalog_bijection(enumerate_solutions())
        assert result.status == "PASS"
        assert result.worst == 2.0**-54

    def test_bijection_fails_on_a_repeated_sign_pattern(self):
        solutions = enumerate_solutions()
        solutions[0] = solutions[1]._replace(index=solutions[0].index)  # row 2's signs under index 1
        result = check_catalog_bijection(solutions)
        assert result.status == "FAIL"
        assert result.worst == pytest.approx(2.0 * math.sqrt(6.0) / 3.0, rel=1e-12)

    def test_oracle_without_converged_starts_fails_with_infinite_worst(self):
        result = check_oracle(1, 3)  # the single start does not converge
        assert result.status == "FAIL"
        assert result.worst == math.inf

    def test_oracle_worst_matches_per_root_loop(self):
        report = oracle_root_hunt(n_starts=2000, seed=42)
        catalog = np.array(SOLUTION_CATALOG)
        loop = max(min(float(np.linalg.norm(root - row)) for row in catalog) for root in report.roots)
        assert check_oracle(2000, 42).worst == pytest.approx(loop, rel=1e-12, abs=0.0)

    def test_distinctness_matches_pairwise_loop(self):
        comps = np.array(SOLUTION_CATALOG)
        loop = min(float(np.max(np.abs(comps[i] - comps[j]))) for i in range(32) for j in range(i + 1, 32))
        result = check_distinctness(enumerate_solutions())
        assert result.status == "PASS"
        assert result.worst == loop

    def test_duplicate_solution_fails_distinctness(self):
        solutions = enumerate_solutions()
        result = check_distinctness(solutions[:31] + [solutions[0]])
        assert result.status == "FAIL"
        assert result.worst == 0.0


class TestRadicalStrings:
    def test_row_one_spellings(self):
        names = list(solution_document(enumerate_solutions())["solutions"][0]["radicals"].values())
        assert names == [
            "1/3",
            "-2*sqrt(2)/3",
            "-1/3",
            "-sqrt(2)/3",
            "sqrt(6)/3",
            "1/3",
            "sqrt(2)/3",
            "sqrt(6)/3",
        ]

    def test_spellings_name_the_magnitudes(self):
        for name, magnitude in zip(solver.CATALOG_RADICALS, CATALOG_MAGNITUDES):
            assert eval(name, {"__builtins__": {}, "sqrt": math.sqrt}) == magnitude


class TestOracle:
    def test_small_hunt_finds_only_catalog_roots(self):
        report = oracle_root_hunt(n_starts=2000, seed=42)
        assert 0 < report.n_roots <= 32
        catalog = np.array(SOLUTION_CATALOG)
        for root in report.roots:
            assert min(np.linalg.norm(root - row) for row in catalog) < 1e-8

    def test_deterministic_for_fixed_seed(self):
        a = oracle_root_hunt(n_starts=500, seed=7)
        b = oracle_root_hunt(n_starts=500, seed=7)
        assert np.array_equal(a.roots, b.roots)
        assert a.n_converged == b.n_converged

    def test_start_at_root_converges_immediately(self):
        start = np.array([SOLUTION_CATALOG[4]])
        report = oracle_root_hunt(starts=start)
        assert report.n_roots == 1
        assert report.iterations[0] in (0, 1)
        assert np.linalg.norm(report.roots[0] - start[0]) < 1e-8

    def test_zero_start_discarded_gracefully(self):
        report = oracle_root_hunt(starts=np.zeros((1, 8)))
        assert report.n_roots == 0
        assert report.n_discarded == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        ("fill", "n_starts", "at"),
        [
            (0.0, 300, 150),
            (np.nan, 300, 150),
            # three slices, the singular start in the second
            (0.0, 2 * _SOLVE_CHUNK + 300, _SOLVE_CHUNK + 5),
            (np.nan, 2 * _SOLVE_CHUNK + 300, _SOLVE_CHUNK + 5),
        ],
        ids=["0.0", "nan", "0.0-later-slice", "nan-later-slice"],
    )
    def test_singular_start_leaves_the_rest_of_its_batch_unchanged(self, fill, n_starts, at):
        starts = np.random.default_rng(8).uniform(-START_BOX, START_BOX, size=(n_starts, 8))
        base = oracle_root_hunt(starts=starts)
        report = oracle_root_hunt(starts=np.insert(starts, at, np.full(8, fill), axis=0))
        assert report.iterations[at] == -1
        assert np.array_equal(np.delete(report.iterations, at), base.iterations)
        assert np.array_equal(report.roots, base.roots)
        assert base.n_converged > 0

    def test_no_starts(self):
        report = oracle_root_hunt(n_starts=0)
        assert report.n_roots == 0
        assert report.n_starts == 0

    def test_no_explicit_starts(self):
        report = oracle_root_hunt(starts=np.empty((0, 8)))
        assert (report.n_starts, report.n_converged, report.n_discarded, report.n_roots) == (0, 0, 0, 0)
        assert report.roots.shape == (0, 8)
        assert report.iterations.shape == (0,)

    def test_zero_starts_give_the_empty_starts_report(self):
        # one path for no starts: n_starts=0 draws a (0, 8) array and hunts it like explicit empty starts
        drawn, given = oracle_root_hunt(n_starts=0), oracle_root_hunt(starts=np.empty((0, 8)))
        for field in ("roots", "n_starts", "n_converged", "n_discarded", "iterations"):
            value, expected = np.asarray(getattr(drawn, field)), np.asarray(getattr(given, field))
            assert (value.shape, value.dtype) == (expected.shape, expected.dtype)
            assert np.array_equal(value, expected)

    def test_negative_starts_raise(self):
        with pytest.raises(ValueError):
            oracle_root_hunt(n_starts=-1)

    @pytest.mark.parametrize("shape", [(16, 4), (8,), (3, 5)])
    def test_starts_of_another_shape_raise(self, shape):
        # no reshape: a (16, 4) array is not 8 starts, nor an (8,) vector one
        with pytest.raises(ValueError, match=re.escape(f"starts must have shape (m, 8), got {shape}")):
            oracle_root_hunt(starts=np.zeros(shape))

    def test_pinned_counts_for_fixed_seed(self):
        report = oracle_root_hunt(n_starts=2000, seed=42)  # fits one solve slice
        assert (report.n_converged, report.n_discarded) == (1217, 783)
        assert int(report.iterations.sum()) == 10960
        assert report.n_roots == 32

    @pytest.mark.parametrize(
        ("n_starts", "seed", "counts", "iterations"),
        [
            (5000, 3, (2991, 2009), 26991),  # three slices, the last one partial
            (20000, 0, (11991, 8009), 107691),  # the CLI default
        ],
        ids=["5000-starts", "20000-starts"],
    )
    def test_pinned_counts_across_solve_slices(self, n_starts, seed, counts, iterations):
        report = oracle_root_hunt(n_starts=n_starts, seed=seed)
        assert (report.n_converged, report.n_discarded) == counts
        assert int(report.iterations.sum()) == iterations
        assert report.n_roots == 32

    @pytest.mark.parametrize(
        ("n_starts", "seed", "digest"),
        [
            (2000, 42, "3bea6062b45c8ae39a11c577ad73fdedec96cc23350eaed2bd67231a9207a8ec"),
            (5000, 3, "23a80cc62b81e53c8b186a651a142dde22315a18be597c8a747de32a64f86fcd"),
        ],
        ids=["2000-starts", "5000-starts"],
    )
    def test_pinned_bits_for_fixed_seed(self, n_starts, seed, digest):
        # SHA-256 of the roots as <f8 bytes, then the iterations as <i8 bytes
        report = oracle_root_hunt(n_starts=n_starts, seed=seed)
        data = report.roots.astype("<f8").tobytes() + report.iterations.astype("<i8").tobytes()
        assert hashlib.sha256(data).hexdigest() == digest

    def test_hunt_never_takes_numpy_norm(self, monkeypatch):
        # np.linalg.norm makes a conj copy and reduces row by row; the hunt takes _row_norms
        usual = oracle_root_hunt(n_starts=500, seed=7)

        def refuse(*args, **kwargs):
            raise AssertionError("the hunt went through np.linalg.norm")

        monkeypatch.setattr(solver, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(np.linalg, "norm", refuse)
        _same_report(oracle_root_hunt(n_starts=500, seed=7), usual)


def _assert_no_children():
    # every worker has been reaped: no zombie is left, and no orphan runs on
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _same_report(a, b):
    assert np.array_equal(a.roots, b.roots)
    assert np.array_equal(a.iterations, b.iterations)
    assert (a.n_starts, a.n_converged, a.n_discarded) == (b.n_starts, b.n_converged, b.n_discarded)


def _block_bounds(n, cpus):
    k = min(cpus, -(-n // _SOLVE_CHUNK))
    return [n * b // k for b in range(k + 1)]


class TestOracleBlocks:
    """The hunt split into contiguous blocks, all but the first in forked workers."""

    @pytest.fixture()
    def hunt(self, monkeypatch):
        """oracle_root_hunt with the usable CPU count patched; counts the workers forked."""
        real_fork_block = solver._fork_block
        forks = []

        def counting_fork_block(pts):
            forks.append(pts.shape[0])
            return real_fork_block(pts)

        monkeypatch.setattr(solver, "_fork_block", counting_fork_block)

        def run(cpus, **kwargs):
            monkeypatch.setattr(solver, "_usable_cpus", lambda: cpus)
            forks.clear()
            report = oracle_root_hunt(**kwargs)
            _assert_no_children()
            return report, len(forks)

        return run

    @pytest.mark.parametrize("n_starts", [2049, 5000, 20000])
    def test_every_block_count_gives_the_one_block_report(self, hunt, n_starts):
        one, forks = hunt(1, n_starts=n_starts)
        assert forks == 0
        for cpus in (2, 3, 7):
            report, forks = hunt(cpus, n_starts=n_starts)
            assert forks == len(_block_bounds(n_starts, cpus)) - 2
            _same_report(report, one)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("cpus", [2, 3, 7])
    @pytest.mark.parametrize("fills", [(0.0, np.nan), (np.nan, 0.0)], ids=["zero-nan", "nan-zero"])
    def test_singular_starts_either_side_of_a_block_boundary(self, hunt, cpus, fills):
        starts = np.random.default_rng(9).uniform(-START_BOX, START_BOX, size=(5003, 8))
        edges = _block_bounds(starts.shape[0], cpus)[1:-1]
        for edge in edges:
            starts[edge - 1], starts[edge] = fills
        one, _ = hunt(1, starts=starts)
        report, forks = hunt(cpus, starts=starts)
        assert forks == len(edges)
        _same_report(report, one)
        assert all(report.iterations[edge - 1] == report.iterations[edge] == -1 for edge in edges)

    def test_failed_fork_hunts_the_block_here(self, hunt, monkeypatch):
        one, _ = hunt(1, n_starts=5000, seed=3)

        def failing_fork():
            raise OSError("fork refused")

        monkeypatch.setattr(os, "fork", failing_fork)
        report, forks = hunt(3, n_starts=5000, seed=3)
        assert forks == 2
        _same_report(report, one)

    @pytest.mark.parametrize("failure", ["exit-3", "sigkill", "garbled", "short"])
    def test_failed_worker_hunts_the_block_here(self, hunt, monkeypatch, failure):
        one, _ = hunt(1, n_starts=5000, seed=3)
        caller, real_hunt_block = os.getpid(), solver._hunt_block

        def failing_hunt_block(pts):
            if os.getpid() != caller:
                if failure == "exit-3":
                    os._exit(3)
                if failure == "sigkill":
                    os.kill(os.getpid(), signal.SIGKILL)
            return real_hunt_block(pts)

        def failing_dump(obj, out, protocol):
            data = pickle.dumps(obj, protocol)
            out.write(b"not a pickle" if failure == "garbled" else data[: len(data) // 2])

        monkeypatch.setattr(solver, "_hunt_block", failing_hunt_block)
        if failure in ("garbled", "short"):
            monkeypatch.setattr(pickle, "dump", failing_dump)
        report, forks = hunt(3, n_starts=5000, seed=3)
        assert forks == 2
        _same_report(report, one)

    def test_caller_ignoring_sigchld_gets_the_same_report(self, hunt):
        one, _ = hunt(1, n_starts=5000, seed=3)
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)  # the kernel reaps every worker itself
        try:
            report, forks = hunt(3, n_starts=5000, seed=3)
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert forks == 2
        _same_report(report, one)

    def test_error_in_a_worker_block_is_raised_here_with_its_type(self, hunt, monkeypatch):
        real_hunt_block = solver._hunt_block

        def hunt_block_refusing_inf(pts):
            if np.isinf(pts).any():
                raise FloatingPointError("an infinite start")
            return real_hunt_block(pts)

        monkeypatch.setattr(solver, "_hunt_block", hunt_block_refusing_inf)
        starts = np.random.default_rng(9).uniform(-START_BOX, START_BOX, size=(5000, 8))
        starts[-1] = np.inf  # in the last block: its worker fails, then this process hunts it and raises
        with pytest.raises(FloatingPointError, match="an infinite start"):
            hunt(3, starts=starts)
        _assert_no_children()

    def test_error_here_kills_and_reaps_the_workers(self, hunt, monkeypatch):
        caller, real_hunt_block = os.getpid(), solver._hunt_block

        def hunt_block(pts):
            if os.getpid() != caller:
                threading.Event().wait(60)  # a worker that would outlive the caller unless killed
            else:
                raise KeyboardInterrupt
            return real_hunt_block(pts)

        monkeypatch.setattr(solver, "_hunt_block", hunt_block)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            hunt(7, n_starts=20000)
        assert time.monotonic() - start < 30  # the workers were killed, not waited out
        _assert_no_children()

    def test_worker_stdout_is_not_doubled(self, hunt, monkeypatch, capfd):
        caller, real_hunt_block = os.getpid(), solver._hunt_block

        def chatty_hunt_block(pts):
            if os.getpid() != caller:
                print("buffered in a worker")  # left in the inherited buffer, which the worker never flushes
                os.write(1, b"written by a worker\n")
            return real_hunt_block(pts)

        # a block-buffered stdout, as when output goes to a pipe, with a line still pending at the fork
        stdout = io.TextIOWrapper(io.BufferedWriter(io.FileIO(os.dup(1), "w")))
        monkeypatch.setattr(sys, "stdout", stdout)
        monkeypatch.setattr(solver, "_hunt_block", chatty_hunt_block)
        print("pending in the caller")
        report, forks = hunt(2, n_starts=5000, seed=3)
        stdout.close()
        out = capfd.readouterr().out
        assert forks == 1
        assert out.count("pending in the caller") == 1
        assert out.count("written by a worker") == 1
        assert "buffered in a worker" not in out
        assert (report.n_converged, report.n_discarded) == (2991, 2009)

    def test_usable_cpus_is_the_affinity_set(self):
        assert solver._usable_cpus() == len(os.sched_getaffinity(0))

    def test_one_block_without_fork_or_off_linux(self, monkeypatch):
        monkeypatch.setattr(sys, "platform", "darwin")
        assert solver._usable_cpus() == 1
        monkeypatch.undo()
        monkeypatch.delattr(os, "fork")
        assert solver._usable_cpus() == 1

    def test_one_block_while_another_thread_is_alive(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked while another thread was alive")

        monkeypatch.setattr(os, "fork", no_fork)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert solver._usable_cpus() == 1
            report = oracle_root_hunt(n_starts=5000, seed=3)
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert (report.n_converged, report.n_discarded) == (2991, 2009)
        assert int(report.iterations.sum()) == 26991


def test_hunt_block_peak_memory_is_a_few_copies_of_the_starts():
    # each (m, 8) array must die at its last read, and the Jacobian buffer holds _SOLVE_CHUNK matrices; arrays kept
    # until their names are rebound, beside a (2048, 8, 8) buffer, read about 10.3x
    pts = np.random.default_rng(0).uniform(-START_BOX, START_BOX, size=(10000, 8))
    nbytes = pts.nbytes
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        hits, iters = solver._hunt_block(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hits.shape == (int(np.sum(iters >= 0)), 8)
    assert peak - before < 9 * nbytes


def _greedy_cluster(points, radius):
    """Reference clustering: one point at a time against every representative."""
    reps = []
    for p in points[np.lexsort(points.T[::-1])]:
        if not any(np.linalg.norm(p - r) <= radius for r in reps):
            reps.append(p)
    return np.array(reps) if reps else np.empty((0, 8))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 300), st.just(8)), elements=_norm_entries))
def test_row_norms_are_bit_equal_to_numpy(r):
    assert r.flags.c_contiguous
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.linalg.norm(r, axis=1)
        norms = _row_norms(r)
    assert np.array_equal(norms, expected, equal_nan=True)
    assert np.array_equal(np.signbit(norms), np.signbit(expected))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(0, 3), st.integers(1, 40), st.integers(1, 12)).map(lambda s: s[: s[0]] + s[1:]),
        elements=_norm_entries,
    )
)
def test_column_maxima_are_bit_equal_to_numpy(a):
    # np.max and np.maximum may pick either zero, or either nan, of a row that holds both signs of it; the callers
    # pass absolute values
    a[a == 0.0] = 0.0
    a[np.isnan(a)] = np.nan
    maxima = _column_max(a)
    expected = np.max(a, axis=-1)
    assert maxima.shape == expected.shape
    assert np.array_equal(maxima, expected, equal_nan=True)
    assert np.array_equal(np.signbit(maxima), np.signbit(expected))


def _assert_same_cover(cloud, radius):
    reps, expected = _cluster(cloud, radius), _greedy_cluster(cloud, radius)
    assert np.array_equal(reps, expected, equal_nan=True)
    assert np.array_equal(np.signbit(reps), np.signbit(expected))
    return reps


class TestCluster:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_greedy_reference(self, seed):
        rng = np.random.default_rng(seed)
        radius = 1e-3
        centres = rng.uniform(-1.0, 1.0, size=(12, 8))
        directions = rng.normal(size=(60, 8))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        picks = centres[rng.integers(0, 12, size=60)]
        scale = rng.choice([0.0, 0.4, 0.9, 1.1, 1.9], size=(60, 1))
        cloud = np.concatenate([centres, picks + scale * radius * directions, centres[:4]])
        cloud = cloud[rng.permutation(cloud.shape[0])]
        assert np.array_equal(_cluster(cloud, radius), _greedy_cluster(cloud, radius))

    @pytest.mark.parametrize("seed", range(6))
    def test_clouds_straddling_coordinate_planes_match_greedy_reference(self, seed):
        # each centre has coordinates within radius of 0 (undecided) and within 2 radius (decided, but
        # with neighbours across the plane); the cloud around it spreads up to 1.9 radius
        rng = np.random.default_rng(100 + seed)
        radius = 1e-3
        centres = rng.uniform(-1.0, 1.0, size=(12, 8))
        near_plane = rng.random(size=centres.shape) < 0.5
        centres[near_plane] = rng.uniform(-2.0, 2.0, size=int(near_plane.sum())) * radius
        directions = rng.normal(size=(200, 8))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        picks = centres[rng.integers(0, 12, size=200)]
        scale = rng.uniform(0.0, 1.9, size=(200, 1))
        cloud = np.concatenate([centres, picks + scale * radius * directions])
        _assert_same_cover(cloud[rng.permutation(cloud.shape[0])], radius)

    def test_signed_zero_coordinates_match_greedy_reference(self):
        # +0.0 and -0.0 share sign bit 0 and sort as equals, so input order picks the representative
        rng = np.random.default_rng(12)
        radius = 1e-3
        centres = rng.uniform(-1.0, 1.0, size=(8, 8))
        centres[:, [1, 4]] = 0.0
        cloud = np.repeat(centres, 6, axis=0)
        cloud[::2, [1, 4]] = -0.0
        cloud[1::3, 4] = rng.choice([-0.7, 0.7, -1.2, 1.2], size=cloud[1::3].shape[0]) * radius
        cloud = cloud[rng.permutation(cloud.shape[0])]
        reps = _assert_same_cover(cloud, radius)
        assert np.signbit(reps[:, [1, 4]]).any() and not np.signbit(reps[:, [1, 4]]).all()

    def test_undecided_coordinate_covers_across_its_plane(self):
        # the representative sits 0.5 radius below the plane of coordinate 3: a point 0.3 radius above it
        # has another sign code but is within radius, while one 0.6 radius above it is not
        radius = 1.0
        cloud = np.tile([-5.0, 2.0, 0.0, 0.0, 3.0, -4.0, 1.0, -2.0], (3, 1))
        cloud[:, 3] = [0.6, 0.3, -0.5]
        reps = _assert_same_cover(cloud, radius)
        assert np.array_equal(reps[:, 3], [-0.5, 0.6])

    def test_squares_below_the_normal_range_match_greedy_reference(self):
        # with radius 1e-200, points 2e-190 apart have a difference whose square underflows to 0, so the
        # greedy rule covers one with the other although each lies farther than radius from the plane between
        radius = 1e-200
        cloud = np.zeros((3, 8))
        cloud[:, 0] = [-1e-190, 1e-190, 1e-100]
        reps = _assert_same_cover(cloud, radius)
        assert np.array_equal(reps[:, 0], [-1e-190, 1e-100])

    def test_chain_of_near_neighbours_is_split_greedily(self):
        # 0.9 r steps: each point is near its neighbours but not the one after next
        radius = 1.0
        cloud = np.zeros((5, 8))
        cloud[:, 0] = 0.9 * np.arange(5)
        reps = _cluster(cloud[::-1].copy(), radius)
        assert np.array_equal(reps, _greedy_cluster(cloud, radius))
        assert np.array_equal(reps[:, 0], [0.0, 1.8, 3.6])

    def test_empty(self):
        assert _cluster(np.empty((0, 8)), 1e-6).shape == (0, 8)

    def test_non_finite_rows_match_greedy_reference(self):
        rng = np.random.default_rng(7)
        radius = 1e-3
        centres = rng.uniform(-1.0, 1.0, size=(6, 8))
        cloud = np.concatenate([centres, centres + 0.3 * radius, centres[:3]])
        cloud[[0, 6, 12], 2] = np.nan
        cloud[[1, 7], 5] = np.inf
        cloud[[2, 13], 0] = -np.inf
        cloud = cloud[rng.permutation(cloud.shape[0])]
        with np.errstate(invalid="ignore"):  # inf - inf
            assert np.array_equal(_cluster(cloud, radius), _greedy_cluster(cloud, radius), equal_nan=True)

    def test_nan_representative_covers_only_itself(self):
        cloud = np.zeros((4, 8))
        cloud[1] = np.nan
        cloud[2] = np.nan
        cloud[3, 0] = 1e-9
        reps = _cluster(cloud, 1e-6)
        assert np.array_equal(reps, [np.zeros(8), np.full(8, np.nan), np.full(8, np.nan)], equal_nan=True)

    def test_peak_memory_is_a_few_copies_of_the_input(self):
        # each pass's array must be freed when the next replaces it; keeping all 32 passes alive costs about 16x
        rng = np.random.default_rng(11)
        radius = 1e-6
        centres = rng.uniform(-1.5, 1.5, size=(32, 8))
        cloud = np.repeat(centres, 128, axis=0) + rng.uniform(-0.1, 0.1, size=(4096, 8)) * radius
        cloud = cloud[rng.permutation(cloud.shape[0])]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            reps = _cluster(cloud, radius)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert reps.shape == (32, 8)
        assert peak - before < 6 * cloud.nbytes


class TestJacobianBatch:
    def test_matches_central_differences(self):
        pts = np.random.default_rng(3).uniform(-1.5, 1.5, size=(20, 8))
        jac = _jacobian_batch(pts, np.zeros((20, 8, 8)))
        h = 1e-6
        for k in range(8):
            dp = np.zeros(8)
            dp[k] = h
            fd = (residuals(pts + dp) - residuals(pts - dp)) / (2 * h)
            assert np.max(np.abs(jac[:, :, k] - fd)) < 1e-8

    def test_catalog_determinant_is_256_sqrt2_over_81(self):
        # every root is simple, so the oracle's polish solves regular systems
        det = np.abs(np.linalg.det(_jacobian_batch(np.array(SOLUTION_CATALOG), np.zeros((32, 8, 8)))))
        assert det == pytest.approx(np.full(32, 256 * math.sqrt(2) / 81), rel=1e-12, abs=0.0)

    def test_newton_steps_match_one_whole_batch_solve(self):
        # three slices, the last one partial; LAPACK solves each matrix alone
        pts = np.random.default_rng(5).uniform(-1.5, 1.5, size=(2 * _SOLVE_CHUNK + 7, 8))
        r = residuals(pts)
        whole = np.linalg.solve(_jacobian_batch(pts, np.zeros((len(pts), 8, 8))), -r[..., None])[..., 0]
        assert np.array_equal(_newton_steps(pts, r, np.zeros((_SOLVE_CHUNK, 8, 8))), whole)

    def test_refused_newton_step_is_zero(self):
        pts = np.random.default_rng(6).uniform(-1.5, 1.5, size=(_SOLVE_CHUNK + 9, 8))
        pts[_SOLVE_CHUNK + 4] = 0.0  # J = 0 there
        r = residuals(pts)
        step = _newton_steps(pts, r, np.zeros((_SOLVE_CHUNK, 8, 8)))
        assert np.array_equal(step[_SOLVE_CHUNK + 4], np.zeros(8))
        rest = np.delete(np.arange(pts.shape[0]), _SOLVE_CHUNK + 4)
        assert np.array_equal(step[rest], _newton_steps(pts[rest], r[rest], np.zeros((_SOLVE_CHUNK, 8, 8))))

    def test_reused_buffer_matches_fresh(self):
        rng = np.random.default_rng(4)
        buf = np.zeros((30, 8, 8))
        for m in (30, 17, 30):
            pts = rng.uniform(-1.5, 1.5, size=(m, 8))
            assert np.array_equal(_jacobian_batch(pts, buf[:m]), _jacobian_batch(pts, np.zeros((m, 8, 8))))
