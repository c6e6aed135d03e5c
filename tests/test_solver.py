import dataclasses
import io
import itertools
import math
import os
import pickle
import signal
import sys
import threading
import time

import numpy as np
import pytest

from isowrist import solver
from isowrist.checks import check_catalog_bijection, check_distinctness, check_nonvanishing, check_oracle
from isowrist.solver import (
    _axes_of,
    _catalog_rows,
    _cluster,
    _jacobian_batch,
    _newton_steps,
    _SOLVE_CHUNK,
    BEZOUT_COUNT,
    BKK_BOUND_CITED,
    SOLUTION_CATALOG,
    START_BOX,
    TRIVIAL_SET_INDEX,
    SolutionRecord,
    catalog_distances,
    enumerate_solutions,
    match_catalog_index,
    oracle_root_hunt,
    radical_string,
    residuals,
    sign_patterns,
    solve_closed_form,
)
from isowrist.spheregeom import TETRAHEDRON

T = 1.0 / 3.0
R2 = math.sqrt(2.0) / 3.0
R6 = math.sqrt(6.0) / 3.0
S2 = 2.0 * math.sqrt(2.0) / 3.0

ROW_1 = (T, -S2, -T, -R2, R6, T, R2, R6)
ROW_18 = (-T, -S2, -T, R2, R6, -T, R2, -R6)


class TestResiduals:
    def test_trivial_set_solves_the_system(self):
        assert np.max(np.abs(residuals(ROW_18))) < 1e-15

    def test_zero_tuple_values(self):
        expected = np.array([-1.0 / 3.0, -4.0 / 3.0, -4.0 / 3.0, 0.0, 0.0, 0.0, -1.0, -1.0])
        assert np.max(np.abs(residuals(np.zeros(8)) - expected)) < 1e-15

    def test_all_plus_pattern_is_a_root(self):
        rec = solve_closed_form((1, 1, 1, 1, 1))
        assert np.max(np.abs(residuals(rec.components))) < 1e-15

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
        rec = solve_closed_form((1, 1, 1, -1, 1))
        assert np.max(np.abs(np.array(rec.components) - np.array(ROW_1))) < 1e-15

    def test_pattern_for_row_18(self):
        rec = solve_closed_form((-1, -1, -1, -1, -1))
        assert np.max(np.abs(np.array(rec.components) - np.array(ROW_18))) < 1e-15

    def test_single_sign_flip_changes_solution(self):
        base = solve_closed_form((1, 1, 1, -1, 1))
        flipped = solve_closed_form((-1, 1, 1, -1, 1))
        assert match_catalog_index(base.axes.array) == 1
        assert match_catalog_index(flipped.axes.array) == 4

    def test_rejects_bad_pattern(self):
        with pytest.raises(ValueError, match="sign pattern"):
            solve_closed_form((1, 1, 0, 1, 1))

    def test_component_magnitudes_are_catalog_radicals(self):
        magnitudes = (T, R2, R6, S2)
        for pattern in sign_patterns():
            for value in solve_closed_form(pattern).components:
                assert min(abs(abs(value) - m) for m in magnitudes) < 1e-15


class TestEnumerate:
    def test_thirty_two_records_in_catalog_order(self):
        recs = enumerate_solutions()
        assert len(recs) == 32
        assert [r.index for r in recs] == list(range(1, 33))

    def test_closed_forms_match_catalog_within_tolerance(self):
        recs = enumerate_solutions()
        for rec in recs:
            raw = solve_closed_form(rec.sign_pattern)
            ref = np.array(SOLUTION_CATALOG[rec.index - 1])
            assert np.max(np.abs(np.array(raw.components) - ref)) <= 1e-12

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

    def test_xy_reflection_maps_18_to_19(self):
        recs = enumerate_solutions()
        r18, r19 = recs[17], recs[18]
        # flipping the signs of the two third components is the x-y reflection
        assert (r19.c, r19.s, r19.x, r19.y) == (r18.c, r18.s, r18.x, r18.y)
        assert (r19.z, r19.w) == (-r18.z, -r18.w)
        assert (r19.u, r19.v) == (r18.u, r18.v)


class TestCatalogLookup:
    def test_each_row_matches_itself(self):
        for k, row in enumerate(SOLUTION_CATALOG, start=1):
            assert match_catalog_index(SolutionRecord(*row).axes.array) == k

    def test_far_axis_set_matches_nothing(self):
        far = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
        assert np.min(catalog_distances(far)) > 0.5
        assert match_catalog_index(far) is None

    def test_distances_broadcast_over_stacks(self):
        stack = np.array([r.axes.array for r in enumerate_solutions()])
        d = catalog_distances(stack)
        assert d.shape == (32, 32)
        assert np.array_equal(np.diag(d), np.zeros(32))


class TestStackedCatalogLookup:
    def test_axes_of_lays_out_e1_to_e4(self):
        for row, axes in zip(SOLUTION_CATALOG, _axes_of(SOLUTION_CATALOG)):
            c, s, x, y, z, u, v, w = row
            assert np.array_equal(axes, [[1.0, 0.0, 0.0], [c, s, 0.0], [x, y, z], [u, v, w]])
        assert _axes_of(ROW_18).shape == (1, 4, 3)
        assert _axes_of([]).shape == (0, 4, 3)
        assert np.array_equal(SolutionRecord(*ROW_18).axes.array, _axes_of(ROW_18)[0])

    def test_rows_equal_single_lookups(self):
        rng = np.random.default_rng(5)
        axes = _axes_of(SOLUTION_CATALOG)
        noisy = axes + rng.choice([0.0, 1e-13, 1e-11], size=(32, 1, 1))
        stack = np.concatenate([axes, noisy, axes[:, ::-1]])
        rows = _catalog_rows(stack)
        assert rows.shape == (96,)
        assert [match_catalog_index(a) or 0 for a in stack] == rows.tolist()
        assert rows[:32].tolist() == list(range(1, 33))
        assert not rows[64:].any()


class TestNonvanishing:
    def test_all_catalog_rows(self):
        for rec in enumerate_solutions():
            result = check_nonvanishing([rec])
            assert result.passed and result.tolerance == 1e-9

    def test_vanishing_u_violates_normality(self):
        # u = v = 0 forces |e_4| != 1; the third residual exposes it
        bad = (ROW_1[0], ROW_1[1], ROW_1[2], ROW_1[3], ROW_1[4], 0.0, 0.0, 2.0 * math.sqrt(3.0) / 3.0)
        assert not check_nonvanishing([SolutionRecord(*bad)]).passed
        r = residuals(bad)
        assert abs(r[2]) > 0.1
        norm_e4_sq = bad[5] ** 2 + bad[6] ** 2 + bad[7] ** 2
        assert abs(norm_e4_sq - 1.0) > 0.1

    def test_vanishing_c_rejected(self):
        bad = (0.0, 1.0) + ROW_1[2:]
        assert not check_nonvanishing([SolutionRecord(*bad)]).passed
        assert abs(residuals(bad)[6]) < 1e-15  # unit e_2 alone is satisfiable...
        assert np.max(np.abs(residuals(bad))) > 0.1  # ...but not the full system


class TestCatalogChecks:
    def test_bijection_worst_is_cascade_rounding(self):
        # the cascade lands one unit in the last place of 1/3 from its own catalog row
        result = check_catalog_bijection(enumerate_solutions(), 1e-12)
        assert result.passed
        assert result.worst == 2.0**-54

    def test_bijection_fails_on_a_repeated_sign_pattern(self):
        solutions = enumerate_solutions()
        solutions[0] = dataclasses.replace(solutions[0], sign_pattern=solutions[1].sign_pattern)
        result = check_catalog_bijection(solutions, 1e-12)
        assert result.status == "FAIL"
        assert result.worst == pytest.approx(2.0 * math.sqrt(6.0) / 3.0, rel=1e-12)

    def test_oracle_without_converged_starts_fails_with_zero_worst(self):
        result = check_oracle(1, 3)  # the single start does not converge
        assert result.status == "FAIL"
        assert result.worst == 0.0

    def test_oracle_worst_matches_per_root_loop(self):
        report = oracle_root_hunt(n_starts=2000, seed=42)
        catalog = np.array(SOLUTION_CATALOG)
        loop = max(min(float(np.linalg.norm(root - row)) for row in catalog) for root in report.roots)
        assert check_oracle(2000, 42).worst == pytest.approx(loop, rel=1e-12, abs=0.0)

    def test_distinctness_matches_pairwise_loop(self):
        comps = np.array(SOLUTION_CATALOG)
        loop = min(float(np.max(np.abs(comps[i] - comps[j]))) for i in range(32) for j in range(i + 1, 32))
        result = check_distinctness(enumerate_solutions())
        assert result.passed
        assert result.worst == loop

    def test_duplicate_solution_fails_distinctness(self):
        solutions = enumerate_solutions()
        result = check_distinctness(solutions[:31] + [solutions[0]])
        assert result.status == "FAIL"
        assert result.worst == 0.0


class TestRadicalStrings:
    def test_row_one_spellings(self):
        names = [radical_string(v) for v in ROW_1]
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

    def test_rejects_non_catalog_value(self):
        with pytest.raises(ValueError):
            radical_string(0.5)


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
        report = oracle_root_hunt(starts=np.zeros((1, 8)), max_iters=10)
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

        def counting_fork_block(pts, max_iters):
            forks.append(pts.shape[0])
            return real_fork_block(pts, max_iters)

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

        def failing_hunt_block(pts, max_iters):
            if os.getpid() != caller:
                if failure == "exit-3":
                    os._exit(3)
                if failure == "sigkill":
                    os.kill(os.getpid(), signal.SIGKILL)
            return real_hunt_block(pts, max_iters)

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

        def hunt_block_refusing_inf(pts, max_iters):
            if np.isinf(pts).any():
                raise FloatingPointError("an infinite start")
            return real_hunt_block(pts, max_iters)

        monkeypatch.setattr(solver, "_hunt_block", hunt_block_refusing_inf)
        starts = np.random.default_rng(9).uniform(-START_BOX, START_BOX, size=(5000, 8))
        starts[-1] = np.inf  # in the last block: its worker fails, then this process hunts it and raises
        with pytest.raises(FloatingPointError, match="an infinite start"):
            hunt(3, starts=starts)
        _assert_no_children()

    def test_error_here_kills_and_reaps_the_workers(self, hunt, monkeypatch):
        caller, real_hunt_block = os.getpid(), solver._hunt_block

        def hunt_block(pts, max_iters):
            if os.getpid() != caller:
                threading.Event().wait(60)  # a worker that would outlive the caller unless killed
            else:
                raise KeyboardInterrupt
            return real_hunt_block(pts, max_iters)

        monkeypatch.setattr(solver, "_hunt_block", hunt_block)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            hunt(7, n_starts=20000)
        assert time.monotonic() - start < 30  # the workers were killed, not waited out
        _assert_no_children()

    def test_worker_stdout_is_not_doubled(self, hunt, monkeypatch, capfd):
        caller, real_hunt_block = os.getpid(), solver._hunt_block

        def chatty_hunt_block(pts, max_iters):
            if os.getpid() != caller:
                print("buffered in a worker")  # left in the inherited buffer, which the worker never flushes
                os.write(1, b"written by a worker\n")
            return real_hunt_block(pts, max_iters)

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


def _greedy_cluster(points, radius):
    """Reference clustering: one point at a time against every representative."""
    reps = []
    for p in points[np.lexsort(points.T[::-1])]:
        if not any(np.linalg.norm(p - r) <= radius for r in reps):
            reps.append(p)
    return np.array(reps) if reps else np.empty((0, 8))


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


class TestJacobianBatch:
    def test_matches_central_differences(self):
        pts = np.random.default_rng(3).uniform(-1.5, 1.5, size=(20, 8))
        jac = _jacobian_batch(pts)
        h = 1e-6
        for k in range(8):
            dp = np.zeros(8)
            dp[k] = h
            fd = (residuals(pts + dp) - residuals(pts - dp)) / (2 * h)
            assert np.max(np.abs(jac[:, :, k] - fd)) < 1e-8

    def test_catalog_determinant_is_256_sqrt2_over_81(self):
        # every root is simple, so the oracle's polish solves regular systems
        det = np.abs(np.linalg.det(_jacobian_batch(np.array(SOLUTION_CATALOG))))
        assert det == pytest.approx(np.full(32, 256 * math.sqrt(2) / 81), rel=1e-12, abs=0.0)

    def test_newton_steps_match_one_whole_batch_solve(self):
        # three slices, the last one partial; LAPACK solves each matrix alone
        pts = np.random.default_rng(5).uniform(-1.5, 1.5, size=(2 * _SOLVE_CHUNK + 7, 8))
        r = residuals(pts)
        whole = np.linalg.solve(_jacobian_batch(pts), -r[..., None])[..., 0]
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
            assert np.array_equal(_jacobian_batch(pts, buf[:m]), _jacobian_batch(pts))
