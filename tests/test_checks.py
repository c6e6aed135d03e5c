"""The stacked symmetry, residual, dot-product and bijection checks against per-image loop references."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from isowrist.checks import (
    LINE_REFLECTION_COUNT,
    _result,
    check_antipodal_closure,
    check_axis_dot_products,
    check_catalog_bijection,
    check_line_reflection,
    check_reflection_closure,
    check_solution_residuals,
)
from isowrist.classify import ANTIPODAL_SUBSETS, REFLECTIONS
from isowrist.solver import catalog_distances, enumerate_solutions, residuals, solve_closed_form
from isowrist.spheregeom import _norms, antipodal_exchange, reflect_about_line, reflect_about_plane, rotation_about_axis

T = 1.0 / 3.0


@pytest.fixture(scope="module")
def solutions():
    return enumerate_solutions()


# The checks as they were written before stacking, one record, pair or image at a time.


def per_record_residuals(solutions, tolerance):
    worst = max(float(np.max(np.abs(residuals(r.components)))) for r in solutions)
    return _result("solution-residuals", worst, tolerance, detail="max |residual| over 32 solutions")


def per_record_catalog_bijection(solutions, tolerance):
    indices = sorted(r.index for r in solutions)
    worst = max(
        float(catalog_distances(solve_closed_form(r.sign_pattern).axes.array)[r.index - 1]) for r in solutions
    )
    ok = indices == list(range(1, 33)) and len({r.sign_pattern for r in solutions}) == 32
    return _result("catalog-bijection", worst, tolerance, ok, "closed forms match catalog rows 1..32")


def per_pair_axis_dot_products(solutions, tolerance):
    worst = 0.0
    for r in solutions:
        a = r.axes.array
        for i in range(4):
            for j in range(i + 1, 4):
                worst = max(worst, abs(abs(float(a[i] @ a[j])) - T))
    return _result("axis-dot-products", worst, tolerance, detail="all pairwise axis angles are arccos(+-1/3)")


def per_image_antipodal_closure(solutions, tolerance):
    images = (antipodal_exchange(r.axes, subset) for r in solutions for subset in ANTIPODAL_SUBSETS)
    worst = max(float(np.min(catalog_distances(img.array))) for img in images)
    return _result("antipodal-closure", worst, tolerance, detail="32 solutions closed under antipodal exchanges")


def per_plane_reflection(axes, operation):
    for normal in REFLECTIONS[operation]:
        axes = reflect_about_plane(axes, normal)
    return axes


def per_image_reflection_closure(solutions, tolerance):
    images = (per_plane_reflection(r.axes, op) for op in REFLECTIONS for r in solutions)
    worst = max(float(np.min(catalog_distances(img.array))) for img in images)
    return _result("reflection-closure", worst, tolerance, detail="32 solutions closed under coordinate reflections")


def per_axis_line_reflection(tolerance, seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    eye = np.eye(3)
    axes = []
    for _ in range(LINE_REFLECTION_COUNT):
        e = rng.normal(size=3)
        e /= np.linalg.norm(e)
        axes.append(e)
    for e, half_turn in zip(axes, rotation_about_axis(np.array(axes), math.pi)):
        ell = reflect_about_line(e)
        worst = max(
            worst,
            float(np.max(np.abs(ell @ ell.T - eye))),
            abs(float(np.linalg.det(ell)) - 1.0),
            float(np.max(np.abs(ell @ e - e))),
            float(np.max(np.abs(ell - half_turn))),
        )
    detail = f"2ee^T - I proper orthogonal over {LINE_REFLECTION_COUNT} random axes"
    return _result("line-reflection", worst, tolerance, detail=detail)


SOLUTION_CHECKS = [
    (check_solution_residuals, per_record_residuals),
    (check_catalog_bijection, per_record_catalog_bijection),
    (check_axis_dot_products, per_pair_axis_dot_products),
    (check_antipodal_closure, per_image_antipodal_closure),
    (check_reflection_closure, per_image_reflection_closure),
]


class TestStackedChecksEqualLoops:
    @pytest.mark.parametrize("check, reference", SOLUTION_CHECKS, ids=lambda f: f.__name__)
    def test_catalog(self, solutions, check, reference):
        assert check(solutions, 1e-12) == reference(solutions, 1e-12)

    @pytest.mark.parametrize("check, reference", SOLUTION_CHECKS, ids=lambda f: f.__name__)
    def test_subsets_and_orders(self, solutions, check, reference):
        for subset in (solutions[::-1], solutions[5:20], solutions[:1]):
            assert check(subset, 1e-12) == reference(subset, 1e-12)

    @pytest.mark.parametrize("check, reference", SOLUTION_CHECKS, ids=lambda f: f.__name__)
    def test_rotated_axis_fails_alike(self, solutions, check, reference):
        # e_3 of one record turned 1e-6 rad about z stays a unit vector but leaves the system and the catalog
        broken = list(solutions)
        r = broken[7]
        c, s = math.cos(1e-6), math.sin(1e-6)
        broken[7] = dataclasses.replace(r, x=c * r.x - s * r.y, y=s * r.x + c * r.y)
        result = check(broken, 1e-12)
        assert result == reference(broken, 1e-12)
        if check is not check_catalog_bijection:  # the bijection re-runs the cascade from the sign pattern
            assert result.status == "FAIL"

    def test_golden_margins(self, solutions):
        assert check_solution_residuals(solutions, 1e-12).worst == 2.0**-51  # 4.441e-16
        assert check_axis_dot_products(solutions, 1e-12).worst == 2.0**-52  # 2.220e-16
        assert check_catalog_bijection(solutions, 1e-12).worst == 2.0**-54  # 5.551e-17

    @pytest.mark.parametrize("seed", range(100))
    def test_line_reflection(self, seed):
        assert check_line_reflection(1e-12, seed=seed) == per_axis_line_reflection(1e-12, seed)


class TestStackedInputsAreBitEqual:
    def test_gram_entries_equal_one_dimensional_dots(self, solutions):
        a = np.array([r.axes.array for r in solutions])
        rng = np.random.default_rng(40)
        noise = rng.normal(size=(500, 4, 3))
        for stack in (a, noise / np.linalg.norm(noise, axis=-1, keepdims=True)):
            gram = stack @ stack.swapaxes(1, 2)
            for k, i, j in itertools.product(range(len(stack)), range(4), range(4)):
                if i < j:
                    assert gram[k, i, j] == float(stack[k, i] @ stack[k, j])

    def test_stacked_residuals_equal_per_record_rows(self, solutions):
        stacked = residuals([r.components for r in solutions])
        for r, row in zip(solutions, stacked):
            assert np.array_equal(row, residuals(r.components))

    @pytest.mark.parametrize("seed", range(100))
    def test_one_stacked_draw_is_the_per_axis_stream(self, seed):
        rng = np.random.default_rng(seed)
        per_axis = []
        for _ in range(LINE_REFLECTION_COUNT):
            e = rng.normal(size=3)
            per_axis.append(e / np.linalg.norm(e))
        stacked = np.random.default_rng(seed).normal(size=(LINE_REFLECTION_COUNT, 3))
        assert np.array_equal(stacked / _norms(stacked), np.array(per_axis))
