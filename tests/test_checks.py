"""The stacked checks against the per-image, per-wrist and per-set loop references they replaced."""

import dataclasses
import hashlib
import importlib.util
import itertools
import math
import random
import types
from pathlib import Path

import numpy as np
import pytest

from isowrist import checks, kinematics
from isowrist.checks import (
    DH_ROUND_TRIP_COUNT,
    LINE_REFLECTION_COUNT,
    MOMENT_AGREEMENT_COUNT,
    POSTURE_GRID,
    SIGMA_FOUR_AXES,
    TRACE_IDENTITY_COUNT,
    _normals,
    _random_chains,
    _random_unit_sets,
    _result,
    _sizes,
    _uniform,
    _unit_vectors,
    check_antipodal_closure,
    check_axis_dot_products,
    check_catalog_bijection,
    check_dh_round_trip,
    check_jacobian_moment_agreement,
    check_line_reflection,
    check_posture_isotropy,
    check_reflection_closure,
    check_solution_residuals,
    check_trace_identity,
    check_wrist_classes,
    run_checks,
)
from isowrist.classify import ANTIPODAL_SUBSETS, REFLECTIONS, distinct_wrists
from isowrist.kinematics import (
    DHChain,
    _forward_chain,
    dh_from_axes_stack,
    isotropy_report_stack,
    jacobian_from_axes_stack,
)
from isowrist.solver import (
    RESIDUAL_TOL,
    SolutionRecord,
    catalog_distances,
    enumerate_solutions,
    residuals,
    solve_closed_form_stack,
)
from isowrist.spheregeom import (
    PlatonicSolid,
    antipodal_exchange,
    isotropy_of_stack,
    platonic_vertices,
    reflect_about_line,
    reflect_about_plane,
    rotation_about_axis,
    second_moment_stack,
)

T = 1.0 / 3.0


@pytest.fixture(scope="module")
def solutions():
    return enumerate_solutions()


@pytest.fixture(scope="module")
def wrists():
    return distinct_wrists()


# The checks as they were written before stacking, one record, pair or image at a time.


def per_record_residuals(solutions, tolerance):
    worst = max(float(np.max(np.abs(residuals(r.components)))) for r in solutions)
    detail = f"max |residual| over {len(solutions)} solutions"
    return _result("solution-residuals", worst, tolerance, detail=detail)


def per_record_catalog_bijection(solutions, tolerance):
    indices = sorted(r.index for r in solutions)
    raw = [SolutionRecord(*solve_closed_form_stack([r.sign_pattern])[0], r.index) for r in solutions]
    worst = max(float(catalog_distances(q.axes.array)[q.index - 1]) for q in raw)
    ok = indices == list(range(1, 33)) and len({r.sign_pattern for r in solutions}) == 32
    return _result("catalog-bijection", worst, tolerance, ok, detail="closed forms match catalog rows 1..32")


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
    detail = f"{len(solutions)} solutions closed under antipodal exchanges"
    return _result("antipodal-closure", worst, tolerance, detail=detail)


def per_plane_reflection(axes, operation):
    for normal in REFLECTIONS[operation]:
        axes = reflect_about_plane(axes, normal)
    return axes


def per_image_reflection_closure(solutions, tolerance):
    images = (per_plane_reflection(r.axes, op) for op in REFLECTIONS for r in solutions)
    worst = max(float(np.min(catalog_distances(img.array))) for img in images)
    detail = f"{len(solutions)} solutions closed under coordinate reflections"
    return _result("reflection-closure", worst, tolerance, detail=detail)


def per_axis_normals(gen, count):
    """count normals as 3-vectors, one axis at a time out of one stream of normals."""
    normals = _normals(gen, 3 * count)
    return [normals[3 * k : 3 * k + 3] for k in range(count)]


def per_axis_line_reflection(tolerance, seed):
    worst = 0.0
    eye = np.eye(3)
    normals = per_axis_normals(random.Random(seed), LINE_REFLECTION_COUNT)
    axes = [e / np.linalg.norm(e, axis=-1, keepdims=True) for e in normals]
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
        assert check(solutions) == reference(solutions, RESIDUAL_TOL)

    @pytest.mark.parametrize("check, reference", SOLUTION_CHECKS, ids=lambda f: f.__name__)
    def test_subsets_and_orders(self, solutions, check, reference):
        for subset in (solutions[::-1], solutions[5:20], solutions[:1]):
            assert check(subset) == reference(subset, RESIDUAL_TOL)

    @pytest.mark.parametrize("check, reference", SOLUTION_CHECKS, ids=lambda f: f.__name__)
    def test_rotated_axis_fails_alike(self, solutions, check, reference):
        # e_3 of one record turned 1e-6 rad about z stays a unit vector but leaves the system and the catalog
        broken = list(solutions)
        r = broken[7]
        c, s = math.cos(1e-6), math.sin(1e-6)
        broken[7] = r._replace(x=c * r.x - s * r.y, y=s * r.x + c * r.y)
        result = check(broken)
        assert result == reference(broken, RESIDUAL_TOL)
        if check is not check_catalog_bijection:  # the bijection re-runs the cascade from the sign pattern
            assert result.status == "FAIL"

    def test_golden_margins(self, solutions):
        assert check_solution_residuals(solutions).worst == 2.0**-51  # 4.441e-16
        assert check_axis_dot_products(solutions).worst == 2.0**-52  # 2.220e-16
        assert check_catalog_bijection(solutions).worst == 2.0**-54  # 5.551e-17

    @pytest.mark.parametrize("seed", range(100))
    def test_line_reflection(self, seed):
        assert check_line_reflection(seed=seed) == per_axis_line_reflection(RESIDUAL_TOL, seed)


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
        normals = per_axis_normals(random.Random(seed), LINE_REFLECTION_COUNT)
        per_axis = [e / np.linalg.norm(e, axis=-1, keepdims=True) for e in normals]
        assert np.array_equal(_unit_vectors(random.Random(seed), LINE_REFLECTION_COUNT), np.array(per_axis))
        # one bulk draw of normals is the stream that pair-by-pair draws of the same generator give
        gen = random.Random(seed)
        per_pair = [_normals(gen, 2) for _ in range(3 * LINE_REFLECTION_COUNT // 2)]
        assert np.array_equal(_normals(random.Random(seed), 3 * LINE_REFLECTION_COUNT), np.concatenate(per_pair))


# The seeded sample checks as they were written before stacking: one wrist grid, one set, one scan per size,
# each reading the same bulk samples from the generator as the check.


def quadratic_by_size(items, size=len):
    for n in sorted({size(item) for item in items}):
        yield n, [item for item in items if size(item) == n]


def per_set_random_unit_sets(gen, count):
    sizes = [byte % 8 + 1 for byte in gen.randbytes(count)]
    normals = _normals(gen, 3 * sum(sizes))
    sets = []
    start = 0
    for n in sizes:
        pts = normals[start : start + 3 * n].reshape(n, 3)
        sets.append(pts / np.linalg.norm(pts, axis=1, keepdims=True))
        start += 3 * n
    return sets


def per_wrist_posture_isotropy(wrists):
    worst = 0.0
    angles = np.linspace(0.0, 2.0 * math.pi, POSTURE_GRID, endpoint=False)
    t1, t4 = (g.ravel() for g in np.meshgrid(angles, angles, indexing="ij"))
    for w in wrists:
        dh = w.representative_dh
        theta = np.column_stack([t1, np.full(t1.size, dh.joints[1]), np.full(t1.size, dh.joints[2]), t4])
        axes, _ = _forward_chain(np.tile(dh.twists, (t1.size, 1)), theta)
        _, sigma, cond, _ = isotropy_report_stack(jacobian_from_axes_stack(axes))
        worst = max(worst, float(np.max(np.abs(cond - 1.0))), float(np.max(np.abs(sigma - SIGMA_FOUR_AXES))))
    detail = f"condition number and sigma over a {POSTURE_GRID}x{POSTURE_GRID} free-angle grid"
    return _result("posture-isotropy", worst, 1e-9, detail=detail)


def per_chain_random_chains(gen, count):
    sizes = [byte % 4 + 3 for byte in gen.randbytes(count)]
    twists = iter(_uniform(gen, sum(n - 1 for n in sizes), 0.2, math.pi - 0.2).tolist())
    joints = iter(_uniform(gen, sum(n - 2 for n in sizes), -3.0, 3.0).tolist())
    return [
        DHChain([next(twists) for _ in range(n - 1)], [0.0] + [next(joints) for _ in range(n - 2)] + [0.0])
        for n in sizes
    ]


def per_size_scan_dh_round_trip(wrists, seed):
    worst = 0.0
    chains = [w.representative_dh for w in wrists] + per_chain_random_chains(random.Random(seed), DH_ROUND_TRIP_COUNT)
    for _, group in quadratic_by_size(chains, lambda dh: dh.n):
        theta = [(0.4,) + dh.joints[1:-1] + (1.1,) for dh in group]
        twists = np.array([dh.twists for dh in group])
        axes, _ = _forward_chain(twists, theta)
        back_twists, back_joints = dh_from_axes_stack(axes)
        interior = np.array([dh.joints[1:-1] for dh in group])
        worst = max(
            worst,
            float(np.max(np.abs(twists - back_twists))),
            float(np.max(np.abs(interior - back_joints[:, 1:-1]))),
        )
    return _result("dh-round-trip", worst, 1e-9, detail="forward kinematics then parameter recovery")


def per_set_jacobian_moment_agreement(solutions, seed):
    worst = 0.0
    agree = True
    sets = [r.axes.array for r in solutions] + [platonic_vertices(k).array for k in PlatonicSolid]
    sets += per_set_random_unit_sets(random.Random(seed), MOMENT_AGREEMENT_COUNT)
    for _, group in quadratic_by_size(sets):
        stack = np.array(group)
        j = jacobian_from_axes_stack(stack)
        h = second_moment_stack(stack)
        worst = max(worst, float(np.max(np.abs(j @ j.swapaxes(1, 2) - h))))
        *_, iso_j = isotropy_report_stack(j)
        iso_h, _ = isotropy_of_stack(h)
        agree = agree and bool(np.array_equal(iso_j, iso_h))
    return _result("jacobian-moment-agreement", worst, 1e-12, agree, detail="J J^T = H and matching isotropy verdicts")


def per_set_trace_identity(seed):
    worst = 0.0
    for n, group in quadratic_by_size(per_set_random_unit_sets(random.Random(seed), TRACE_IDENTITY_COUNT)):
        sv = np.linalg.svd(jacobian_from_axes_stack(np.array(group)), compute_uv=False)
        worst = max(worst, float(np.max(np.abs(np.sum(sv**2, axis=-1) - n))))
    return _result("singular-value-trace", worst, 1e-12, detail="squared singular values sum to n")


class TestStackedSampleChecksEqualLoops:
    @pytest.mark.parametrize("seed", range(100))
    def test_seeded_checks(self, solutions, wrists, seed):
        assert check_jacobian_moment_agreement(solutions, seed=seed) == per_set_jacobian_moment_agreement(
            solutions, seed
        )
        assert check_trace_identity(seed=seed) == per_set_trace_identity(seed)
        assert check_dh_round_trip(wrists, seed=seed) == per_size_scan_dh_round_trip(wrists, seed)

    @pytest.mark.parametrize("pick", ["all", "reversed", "one"])
    def test_posture_isotropy(self, wrists, pick):
        subset = {"all": wrists, "reversed": wrists[::-1], "one": wrists[3:4]}[pick]
        result = check_posture_isotropy(subset)
        assert result == per_wrist_posture_isotropy(subset)
        assert result.status == "PASS"

    def test_changed_twist_fails_alike(self, wrists):
        broken = list(wrists)
        w = broken[5]
        broken[5] = dataclasses.replace(w, twists=(w.twists[0] + 1e-3,) + w.twists[1:])
        result = check_posture_isotropy(broken)
        assert result == per_wrist_posture_isotropy(broken)
        assert result.status == "FAIL"

    def test_no_wrist_is_no_pass(self):
        # the loop reference reports a perfect 0 here: with nothing checked, the check must fail
        result = check_posture_isotropy([])
        assert result.worst == math.inf
        assert result.status == "FAIL"

    def test_one_forward_chain_for_every_grid(self, wrists, monkeypatch):
        calls, svds = [], []

        def counted(twists, theta):
            calls.append(np.array(theta))
            return _forward_chain(twists, theta)

        def counted_svd(j):
            svds.append(np.shape(j))
            return isotropy_report_stack(j)

        monkeypatch.setattr(checks, "_forward_chain", counted)
        monkeypatch.setattr(checks, "isotropy_report_stack", counted_svd)
        check_posture_isotropy(wrists)
        # one theta_1 sweep per wrist: a nan theta_4 stands for every theta_4 of the grid
        assert [theta.shape for theta in calls] == [(len(wrists) * POSTURE_GRID, 4)]
        assert np.isnan(calls[0][:, -1]).all() and np.isfinite(calls[0][:, :-1]).all()
        assert svds == [(len(wrists) * POSTURE_GRID, 3, 4)]

    def test_one_forward_chain_and_recovery_for_every_chain_length(self, wrists, monkeypatch):
        chains, recoveries = [], []

        def counted(twists, theta):
            chains.append(np.array(theta))
            return _forward_chain(twists, theta)

        def counted_dh(a):
            recoveries.append(np.shape(a))
            return dh_from_axes_stack(a)

        monkeypatch.setattr(checks, "_forward_chain", counted)
        monkeypatch.setattr(checks, "dh_from_axes_stack", counted_dh)
        assert check_dh_round_trip(wrists, seed=0).status == "PASS"
        # the wrists and the random chains of 3..6 joints, padded to the longest
        rows = len(wrists) + DH_ROUND_TRIP_COUNT
        assert [theta.shape for theta in chains] == [(rows, 6)]
        assert recoveries == [(rows, 6, 3)]

    def test_axes_that_read_theta_4_fail_without_raising(self, wrists, monkeypatch):
        def reads_theta_4(twists, theta):
            axes, normals = _forward_chain(twists, theta)
            return axes + 0.0 * np.asarray(theta)[:, -1:, None], normals

        monkeypatch.setattr(checks, "_forward_chain", reads_theta_4)
        result = check_posture_isotropy(wrists)
        assert result.worst == math.inf
        assert result.status == "FAIL"
        assert result.detail == per_wrist_posture_isotropy(wrists).detail

    @pytest.mark.parametrize("seed", range(100))
    def test_per_size_normalisation_is_per_set_division(self, seed):
        stacks = _random_unit_sets(random.Random(seed), MOMENT_AGREEMENT_COUNT)
        per_set = per_set_random_unit_sets(random.Random(seed), MOMENT_AGREEMENT_COUNT)
        reference = dict(quadratic_by_size(per_set))
        assert [n for n, _ in stacks] == sorted(reference)
        for n, stack in stacks:
            assert np.array_equal(stack, np.array(reference[n]))

    def test_by_size_groups_in_ascending_size_and_input_order(self):
        rng = np.random.default_rng(7)
        items = [tuple(range(int(k))) + (i,) for i, k in enumerate(rng.integers(0, 9, size=300))]
        assert list(checks._by_size(items, len)) == list(quadratic_by_size(items))
        assert list(checks._by_size([], len)) == []


def sha256_of(arrays):
    """SHA-256 over each array's shape and its little-endian 8-byte values, in order."""
    digest = hashlib.sha256()
    for a in map(np.asarray, arrays):
        digest.update(repr(a.shape).encode())
        digest.update(a.astype("<f8" if a.dtype.kind == "f" else "<i8").tobytes())
    return digest.hexdigest()


class EveryByte:
    """A generator stand-in whose randbytes yields every byte value in turn."""

    def randbytes(self, count):
        return bytes(k % 256 for k in range(count))


#: Each sampler's seed-0 output, drawn as verify's checks draw it; a change to verify's samples shows here.
SEED_0_SAMPLES = {
    "uniform": (
        lambda gen: [_uniform(gen, 1000, 0.0, 1.0)],
        "cec13a08ccf1f2d479ec0389a4c43d446a9d86a333808db8b21460abcc7633c7",
    ),
    "sizes": (lambda gen: [_sizes(gen, 1000, 1, 9)], "225bf1776e8ddb61e0618cbb0bc53aaaec4d1dbde0e0375ccb2bea5b8eb52667"),
    "normals": (lambda gen: [_normals(gen, 1001)], "d2ab094a30cc2e4d5bfe4a47226cf254b389f70bb76db51be4cb5f24dea35615"),
    "unit-vectors": (
        lambda gen: [_unit_vectors(gen, LINE_REFLECTION_COUNT)],
        "f98aef9fd40d7f180c90ecad932aa7c07b61c5973c5f68334a182de00861f767",
    ),
    "unit-sets": (
        lambda gen: [stack for _, stack in _random_unit_sets(gen, MOMENT_AGREEMENT_COUNT)],
        "e50ea22e522fd8c42b91789e0d37a94fef2aa1c3b08712259e81f7ddbe0cd6ec",
    ),
    "chains": (
        # each pair flattened as twists + (0, interior joints, 0): a DH chain's twists + joints with free ends at 0
        lambda gen: [
            tuple(twists) + (0.0, *interior, 0.0) for twists, interior in _random_chains(gen, DH_ROUND_TRIP_COUNT)
        ],
        "827f11913ab64f45c9d468e848d2c25b6ff30333727ee92bd4c9efeb7cf27ca7",
    ),
}


class TestSampler:
    @pytest.mark.parametrize("name", sorted(SEED_0_SAMPLES))
    def test_seed_0_stream_is_pinned(self, name):
        draw, digest = SEED_0_SAMPLES[name]
        assert sha256_of(draw(random.Random(0))) == digest

    def test_uniforms_are_the_top_53_bits_of_each_little_endian_word(self):
        raw = random.Random(3).randbytes(8 * 500)
        words = (int.from_bytes(raw[k : k + 8], "little") for k in range(0, len(raw), 8))
        assert _uniform(random.Random(3), 500, 0.0, 1.0).tolist() == [(w >> 11) / 2**53 for w in words]

    def test_normals_are_box_muller_pairs(self):
        u = _uniform(random.Random(4), 1000, 0.0, 1.0).tolist()
        expected = []
        for a, b in zip(u[::2], u[1::2]):
            r = math.sqrt(-2.0 * math.log1p(-a))
            expected += [r * math.cos(2.0 * math.pi * b), r * math.sin(2.0 * math.pi * b)]
        np.testing.assert_allclose(_normals(random.Random(4), 999), expected[:999], rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("low, high", [(1, 9), (3, 7)])
    def test_byte_sizes_are_exactly_flat(self, low, high):
        sizes = _sizes(EveryByte(), 256, low, high)
        assert np.array_equal(np.bincount(sizes - low), np.full(high - low, 256 // (high - low)))

    def test_byte_sizes_refuse_a_modulus_that_does_not_divide_256(self):
        with pytest.raises(ValueError, match="3 does not divide 256"):
            _sizes(random.Random(0), 10, 1, 4)

    def test_samples_at_a_fixed_seed_keep_their_ranges(self):
        sets = _random_unit_sets(random.Random(11), MOMENT_AGREEMENT_COUNT)
        assert [n for n, _ in sets] == list(range(1, 9))
        assert sum(len(stack) for _, stack in sets) == MOMENT_AGREEMENT_COUNT
        for _, stack in sets:
            np.testing.assert_allclose(np.linalg.norm(stack, axis=-1), 1.0, rtol=0, atol=1e-15)
        chains = _random_chains(random.Random(11), DH_ROUND_TRIP_COUNT)
        assert sorted({len(twists) + 1 for twists, _ in chains}) == [3, 4, 5, 6]
        assert all(len(interior) == len(twists) - 1 for twists, interior in chains)
        assert all(0.2 <= a < math.pi - 0.2 for twists, _ in chains for a in twists)
        assert all(-3.0 <= t < 3.0 for _, interior in chains for t in interior)

    def test_normals_at_a_fixed_seed_have_unit_moments(self):
        z = _normals(random.Random(11), 100_000)
        assert np.isfinite(z).all()
        assert abs(float(np.mean(z))) < 0.05
        assert abs(float(np.var(z)) - 1.0) < 0.05


class TestWristClassesCheck:
    def test_real_classes_pass(self, wrists):
        result = check_wrist_classes(wrists)
        assert result.status == "PASS"
        assert result.worst == 1.4210854715202004e-14  # the golden 1.421e-14

    def test_unrealised_coupling_fails(self, wrists):
        # class a is isotropic with signs ((-1, 1), (1, -1)); claiming the other mirror pair must fail
        assert wrists[0].label == "a"
        broken = [dataclasses.replace(wrists[0], couplings=((-1, -1), (1, 1)))] + wrists[1:]
        result = check_wrist_classes(broken)
        assert result.status == "FAIL"
        assert result.worst == check_wrist_classes(wrists).worst

    def test_seven_classes_fail(self, wrists):
        assert check_wrist_classes(wrists[:7]).status == "FAIL"

    def test_member_moved_to_another_class_fails(self, wrists):
        # the float pass gives the moved chain its own signature, not the pattern of its new class
        moved = wrists[0].members[0]
        broken = [
            dataclasses.replace(wrists[0], members=wrists[0].members[1:]),
            dataclasses.replace(wrists[1], members=wrists[1].members + (moved,)),
        ] + wrists[2:]
        result = check_wrist_classes(broken)
        assert result.status == "FAIL"
        assert result.worst == check_wrist_classes(wrists).worst

    def test_flipped_member_joint_signs_fail(self, wrists):
        w = wrists[2]
        flipped = w.members[5]._replace(joint_signs=tuple(-s for s in w.members[5].joint_signs))
        broken = wrists[:2] + [dataclasses.replace(w, members=w.members[:5] + (flipped,) + w.members[6:])] + wrists[3:]
        result = check_wrist_classes(broken)
        assert result.status == "FAIL"
        assert result.worst == check_wrist_classes(wrists).worst

    @pytest.mark.parametrize("index", [1, 0, 33])
    def test_member_of_no_catalog_chain_fails(self, wrists, index):
        # 192 members, but one chain twice and another never, or a chain of no catalog row
        w = wrists[0]
        stray = w.members[0]._replace(solution_index=index)
        broken = [dataclasses.replace(w, members=w.members[:-1] + (stray,))] + wrists[1:]
        assert check_wrist_classes(broken).status == "FAIL"

    def test_one_float_pass_over_every_member(self, wrists, monkeypatch):
        calls = []

        def counted(a):
            calls.append(np.shape(a))
            return dh_from_axes_stack(a)

        monkeypatch.setattr(checks, "dh_from_axes_stack", counted)
        assert check_wrist_classes(wrists).status == "PASS"
        assert calls == [(192, 4, 3)]

    def test_no_class_is_no_pass(self):
        result = check_wrist_classes([])
        assert result.worst == math.inf
        assert result.status == "FAIL"

    def test_one_forward_chain_for_every_sign_pair(self, wrists, monkeypatch):
        calls = []

        def counted(twists, theta):
            calls.append(np.shape(theta))
            return _forward_chain(twists, theta)

        monkeypatch.setattr(checks, "_forward_chain", counted)
        check_wrist_classes(wrists)
        assert calls == [(len(wrists) * 4, 4)]


RESIDUAL_BOUND_CHECKS = [
    "solution-residuals",
    "catalog-bijection",
    "axis-dot-products",
    "antipodal-closure",
    "reflection-closure",
    "platonic-moments",
    "reflected-tetrahedra",
    "line-reflection",
]


class TestFixedBounds:
    @pytest.fixture(scope="class")
    def report(self):
        return {r.name: r for r in run_checks(0, 0)}

    @pytest.mark.parametrize("name", RESIDUAL_BOUND_CHECKS)
    def test_check_passes_at_residual_tol(self, report, name):
        # no caller can move these bounds: each one is the catalog's 1e-12
        result = report[name]
        assert result.tolerance == RESIDUAL_TOL == 1e-12
        assert result.status == "PASS"
        assert result.worst <= result.tolerance


def nan_on_call(function, call, poison):
    """function, except that its result on the given call (1-based) goes through poison first."""
    calls = itertools.count(1)

    def wrapped(*args, **kwargs):
        result = function(*args, **kwargs)
        return poison(result) if next(calls) == call else result

    return wrapped


def with_nan_at(index):
    """A poison that returns a copy of an array with a nan at index."""

    def poison(array):
        array = np.array(array, dtype=float)
        array[index] = math.nan
        return array

    return poison


@pytest.mark.parametrize(
    "margins",
    [[], [2.0], [0.5, 3.0, -1.0], [math.inf, 1.0], [math.nan, 1.0, 2.0], [1.0, math.nan, 2.0], [1.0, 2.0, math.nan]],
)
def test_worst_is_inf_without_margins_nan_with_a_nan_else_max(margins):
    worst = checks._worst(iter(margins))
    if not margins:
        assert worst == math.inf
    elif any(map(math.isnan, margins)):
        assert math.isnan(worst)
    else:
        assert worst == max(margins)


class TestNanMarginFails:
    """A check whose margins hold one nan, never the first, fails with a nan worst.

    Python's max keeps a nan only when it comes first, so a fold by max
    passed such a check on the margins around the nan.
    """

    @staticmethod
    def assert_fails_on_nan(result):
        assert result.status == "FAIL"
        assert math.isnan(result.worst)

    def test_nonvanishing(self, solutions):
        # the check reads its records only: the fifth one carries the nan
        bad = solutions[4]._replace(c=math.nan)
        self.assert_fails_on_nan(checks.check_nonvanishing([*solutions[:4], bad, *solutions[5:]]))

    @pytest.mark.parametrize(
        "check, image",
        [(check_antipodal_closure, 2), (check_reflection_closure, len(ANTIPODAL_SUBSETS) + 1)],
    )
    def test_closure(self, solutions, monkeypatch, check, image):
        poisoned = nan_on_call(checks.symmetry_images, 1, with_nan_at((image, 0, 0)))
        monkeypatch.setattr(checks, "symmetry_images", poisoned)
        self.assert_fails_on_nan(check(solutions))

    def test_platonic_moments(self, monkeypatch):
        # isotropic, so only the second solid's sigma^2 margin can fail the check
        poison = lambda iso: iso._replace(isotropic=True, sigma_sq=math.nan)  # noqa: E731
        monkeypatch.setattr(checks, "isotropy_of", nan_on_call(checks.isotropy_of, 2, poison))
        self.assert_fails_on_nan(checks.check_platonic_moments())

    def test_reflected_tetrahedra(self, monkeypatch):
        # a PointSet holds no nan, so the second image is a stand-in; every image's moment is isotropic
        poison = lambda img: types.SimpleNamespace(array=with_nan_at((1, 0))(img.array))  # noqa: E731
        monkeypatch.setattr(checks, "reflect_about_plane", nan_on_call(checks.reflect_about_plane, 2, poison))
        monkeypatch.setattr(checks, "second_moment", lambda img: np.eye(3) * len(img.array) / 3.0)
        self.assert_fails_on_nan(checks.check_reflected_tetrahedra())

    def test_line_reflection(self, monkeypatch):
        # the half-turn margin is the last of the four
        monkeypatch.setattr(checks, "rotation_about_axis", lambda axes, angle: np.full((len(axes), 3, 3), math.nan))
        self.assert_fails_on_nan(check_line_reflection(seed=0))

    def test_wrist_classes(self, wrists, monkeypatch):
        # the second class's middle twist is nan; each class keeps its own couplings
        bad = dataclasses.replace(wrists[1], twists=(wrists[1].twists[0], math.nan, wrists[1].twists[2]))
        monkeypatch.setattr(checks, "_isotropic_couplings", lambda ws: [w.couplings for w in ws])
        self.assert_fails_on_nan(check_wrist_classes([wrists[0], bad, *wrists[2:]]))

    def test_posture_isotropy(self, wrists, monkeypatch):
        # sigma, the second margin, is nan for one posture
        poison = lambda report: (report[0], with_nan_at(5)(report[1]), *report[2:])  # noqa: E731
        monkeypatch.setattr(checks, "isotropy_report_stack", nan_on_call(checks.isotropy_report_stack, 1, poison))
        self.assert_fails_on_nan(check_posture_isotropy(wrists))

    def test_dh_round_trip(self, wrists, monkeypatch):
        # one recovery serves every chain: the second wrist's last recovered twist is a chain's own value
        poison = lambda back: (with_nan_at((1, 2))(back[0]), back[1])  # noqa: E731
        monkeypatch.setattr(checks, "dh_from_axes_stack", nan_on_call(checks.dh_from_axes_stack, 1, poison))
        self.assert_fails_on_nan(check_dh_round_trip(wrists, seed=0))

    def test_dh_round_trip_reads_no_padding(self, wrists, monkeypatch):
        # a nan in every padded twist and joint, the recovered values past each chain's own end, changes nothing
        def nan_past_each_end(a):
            twists, joints = dh_from_axes_stack(a)
            padded = np.arange(twists.shape[1]) >= sizes[:, None]
            twists[padded], joints[:, :-1][padded] = math.nan, math.nan
            return twists, joints

        random_chains = checks._random_chains(random.Random(0), DH_ROUND_TRIP_COUNT)
        sizes = np.array([len(w.twists) for w in wrists] + [len(twists) for twists, _ in random_chains])
        assert (sizes < np.max(sizes)).any()
        monkeypatch.setattr(checks, "dh_from_axes_stack", nan_past_each_end)
        result = check_dh_round_trip(wrists, seed=0)
        monkeypatch.undo()
        assert result == check_dh_round_trip(wrists, seed=0)
        assert result.status == "PASS"

    def test_jacobian_moment_agreement(self, solutions, monkeypatch):
        # the second moments of the second point-count group
        poison = with_nan_at((0, 0, 0))
        monkeypatch.setattr(checks, "second_moment_stack", nan_on_call(checks.second_moment_stack, 2, poison))
        self.assert_fails_on_nan(check_jacobian_moment_agreement(solutions, seed=0))

    def test_singular_value_trace(self, monkeypatch):
        # the second point-count group expects a nan sum
        def sets(gen, count):
            groups = _random_unit_sets(gen, count)
            return [groups[0], (math.nan, groups[1][1]), *groups[2:]]

        monkeypatch.setattr(checks, "_random_unit_sets", sets)
        self.assert_fails_on_nan(check_trace_identity(seed=0))


#: The checks that read records alone, each with the worst it must report without records: no margin is no
#: evidence, so each fails with an infinite worst; distinctness, whose margin must exceed its bound, with -inf.
RECORD_ONLY_CHECKS = [
    (check_solution_residuals, math.inf),
    (check_catalog_bijection, math.inf),
    (checks.check_nonvanishing, math.inf),
    (checks.check_distinctness, -math.inf),
    (check_axis_dot_products, math.inf),
    (check_antipodal_closure, math.inf),
    (check_reflection_closure, math.inf),
]


@pytest.mark.parametrize(
    "check, worst",
    RECORD_ONLY_CHECKS + [(check_jacobian_moment_agreement, None)],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_no_records(check, worst):
    if worst is None:  # the Platonic and random sets still give margins, so the moment check passes
        result = check([], seed=0)
        assert result.status == "PASS" and result.worst <= result.tolerance
    else:
        result = check([])
        assert (result.status, result.worst) == ("FAIL", worst)


@pytest.mark.parametrize(
    "check, detail",
    [
        (check_solution_residuals, "max |residual| over {} solutions"),
        (check_antipodal_closure, "{} solutions closed under antipodal exchanges"),
        (check_reflection_closure, "{} solutions closed under coordinate reflections"),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_details_count_the_records_given(solutions, check, detail):
    # no records say "0 solutions"; the 32 catalog records keep verify's text
    for records in ([], solutions[:5], solutions):
        assert check(records).detail == detail.format(len(records))


def test_run_checks_digest_pins_every_bit_of_verify():
    # the recipe lives in tools/output_digests.py: every CheckResult field of seeds 0..99 and the default hunt
    path = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"
    spec = importlib.util.spec_from_file_location("output_digests", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.run_checks_digest() == "fd2ce7d47499b23bf022a03896b196b6190fdcae9f2007c767d8818799072c7c"


#: Every check that reads records, and every check that reads wrist classes, by name.
RECORD_CHECKS = {
    "solution-residuals": check_solution_residuals,
    "catalog-bijection": check_catalog_bijection,
    "solution-nonvanishing": checks.check_nonvanishing,
    "solution-distinctness": checks.check_distinctness,
    "axis-dot-products": check_axis_dot_products,
    "antipodal-closure": check_antipodal_closure,
    "reflection-closure": check_reflection_closure,
    "jacobian-moment-agreement": lambda records: check_jacobian_moment_agreement(records, seed=0),
}
WRIST_CHECKS = {
    "wrist-classes": check_wrist_classes,
    "posture-isotropy": check_posture_isotropy,
    "dh-round-trip": lambda wrists: check_dh_round_trip(wrists, seed=0),
}


class TestBadInputFailsWithoutRaising:
    """A record or class with a nan value fails the checks that read it; none of them raises."""

    @pytest.mark.parametrize("name", sorted(RECORD_CHECKS))
    def test_record_with_a_nan_component(self, solutions, name):
        assert solutions[4].index == 5
        broken = [*solutions[:4], solutions[4]._replace(u=math.nan), *solutions[5:]]
        result = RECORD_CHECKS[name](broken)
        assert (result.name, result.status) == (name, "FAIL")
        assert not result.worst <= result.tolerance

    @pytest.mark.parametrize("name", sorted(WRIST_CHECKS))
    @pytest.mark.parametrize("field", ["middle-twist", "theta_2"])
    def test_class_with_a_nan_field(self, wrists, name, field):
        b = wrists[1]
        assert b.label == "b"
        if field == "middle-twist":
            bad = dataclasses.replace(b, twists=(b.twists[0], math.nan, b.twists[2]))
        else:
            bad = dataclasses.replace(b, interior_joints=(math.nan, b.interior_joints[1]))
        result = WRIST_CHECKS[name]([wrists[0], bad, *wrists[2:]])
        assert (result.name, result.status) == (name, "FAIL")
        assert result.detail == WRIST_CHECKS[name](wrists).detail + "; class b not chainable"
        if (name, field) == ("wrist-classes", "theta_2"):
            # its margin reads the twists alone: the coupling cross-check fails the class, the margin is kept
            assert result.worst == check_wrist_classes(wrists).worst
        else:
            assert not result.worst <= result.tolerance

    @pytest.mark.parametrize("name", sorted(WRIST_CHECKS))
    @pytest.mark.parametrize(
        "field, value",
        [
            ("middle-twist", math.inf),
            ("middle-twist", 0.0),
            ("middle-twist", math.pi),
            ("middle-twist", 1e-6),
            ("theta_2", math.inf),
        ],
        ids=["middle-twist=inf", "middle-twist=0", "middle-twist=pi", "middle-twist=1e-6", "theta_2=inf"],
    )
    def test_class_with_an_infinite_or_degenerate_field(self, wrists, name, field, value):
        # an infinite angle makes a forward chain raise, and a twist of 0, pi or 1e-6 (a cosine within TWIST_TOL
        # of +-1) makes dh_from_axes_stack raise: the checks run neither
        b = wrists[1]
        assert b.label == "b"
        if field == "middle-twist":
            bad = dataclasses.replace(b, twists=(b.twists[0], value, b.twists[2]))
        else:
            bad = dataclasses.replace(b, interior_joints=(value, b.interior_joints[1]))
        result = WRIST_CHECKS[name]([wrists[0], bad, *wrists[2:]])
        assert (result.name, result.status) == (name, "FAIL")
        assert result.detail == WRIST_CHECKS[name](wrists).detail + "; class b not chainable"
        if (name, field) == ("wrist-classes", "theta_2"):
            # as with a nan theta_2, the margin reads the twists alone and is kept; the class fails the check
            assert result.worst == check_wrist_classes(wrists).worst
        else:
            assert not result.worst <= result.tolerance

    @pytest.mark.parametrize("name", sorted(WRIST_CHECKS))
    def test_fail_detail_names_the_first_class_not_chainable(self, wrists, name):
        # a nan twist in class d and a twist of 0 in class f: the detail names d alone
        assert [w.label for w in wrists[3:6:2]] == ["d", "f"]
        broken = list(wrists)
        broken[3] = dataclasses.replace(wrists[3], twists=(math.nan, *wrists[3].twists[1:]))
        broken[5] = dataclasses.replace(wrists[5], twists=(0.0, *wrists[5].twists[1:]))
        result, passed = WRIST_CHECKS[name](broken), WRIST_CHECKS[name](wrists)
        assert (result.status, passed.status) == ("FAIL", "PASS")
        assert result.detail == passed.detail + "; class d not chainable"

    @pytest.mark.parametrize(
        "change",
        [{"u": math.nan}, {"z": 0.0}, {"s": -0.0}, {"index": 33}, {"index": 0}, {"index": -1}],
        ids=["u=nan", "z=0.0", "s=-0.0", "index=33", "index=0", "index=-1"],
    )
    def test_record_with_no_branch_or_no_row(self, solutions, monkeypatch, change):
        # a 0 sign has no cascade branch and an index outside 1..32 no row; the other margins keep their bits
        seen = []
        worst = checks._worst

        def recorded(margins):
            seen.append(np.array(margins, dtype=float))
            return worst(margins)

        monkeypatch.setattr(checks, "_worst", recorded)
        broken = list(solutions)
        broken[5] = broken[5]._replace(**change)
        result = check_catalog_bijection(broken)
        assert (result.status, result.worst) == ("FAIL", math.inf)
        check_catalog_bijection(solutions)
        bad, good = seen
        assert bad[5] == math.inf
        assert np.array_equal(np.delete(bad, 5), np.delete(good, 5))


#: The order of verify's lines, the hunt last.
VERIFY_ORDER = (
    "solution-residuals",
    "catalog-bijection",
    "solution-nonvanishing",
    "solution-distinctness",
    "axis-dot-products",
    "antipodal-closure",
    "reflection-closure",
    "antipodal-map-targets",
    "reflection-map-targets",
    "platonic-moments",
    "reflected-tetrahedra",
    "line-reflection",
    "wrist-classes",
    "posture-isotropy",
    "dh-round-trip",
    "jacobian-moment-agreement",
    "singular-value-trace",
    "oracle-root-hunt",
)


@pytest.mark.parametrize("oracle_starts", [0, 64])
def test_run_checks_hunts_first_and_lists_the_hunt_last(monkeypatch, oracle_starts):
    # the hunt sets verify's peak memory: run first, it leaves the other checks the heap it freed
    entered = []
    names = [name for name in vars(checks) if name.startswith("check_")]
    for name in names:

        def recorded(*args, _name=name, _check=getattr(checks, name), **kwargs):
            entered.append(_name)
            return _check(*args, **kwargs)

        monkeypatch.setattr(checks, name, recorded)
    results = run_checks(oracle_starts, 0)
    assert entered[0] == "check_oracle"
    assert sorted(entered) == sorted(names)
    assert tuple(r.name for r in results) == VERIFY_ORDER
    assert (results[-1].status == "SKIP") == (oracle_starts == 0)


def test_verify_builds_no_dh_chain(monkeypatch):
    # the wrist checks read each class's twists and interior joints as plain numbers
    expected = run_checks(0, 0)

    def refuse(self, *args):
        raise AssertionError("a check built a DHChain")

    monkeypatch.setattr(kinematics.DHChain, "__init__", refuse)
    assert run_checks(0, 0) == expected
