import itertools
import math
import sys
import threading

import numpy as np
import pytest

from isowrist import classify
from isowrist.checks import _isotropic_couplings
from isowrist.classify import (
    _LABELS,
    _catalog_chains,
    _exact_chain_invariants,
    _signatures,
    ANTIPODAL_SUBSETS,
    CLASS_PATTERNS,
    REFLECTION_SEEDS,
    REFLECTIONS,
    SolutionMap,
    CanonicalSignature,
    ClassMember,
    WristClass,
    antipodal_map_table,
    canonical_signature,
    chain_orderings,
    distinct_wrists,
    isotropic_posture_geometry,
    reflection_map_table,
    symmetry_images,
)
from isowrist.kinematics import DHChain, dh_from_axes, dh_from_axes_stack
from isowrist.solver import (
    _AXIS_SLOTS, _CATALOG_AXES, CATALOG_SIGNS, RESIDUAL_TOL, SOLUTION_CATALOG, TRIVIAL_SET_INDEX, _axes_of,
    catalog_distances, catalog_rows, enumerate_solutions,
)
from isowrist.spheregeom import (
    PointSet, antipodal_exchange, reflect_about_line, reflect_about_plane, rotation_about_axis,
)

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
def wrists():
    return distinct_wrists()


class TestChainOrderings:
    def test_default_six(self, solutions):
        orderings = chain_orderings()
        assert len(orderings) == 6
        assert orderings[0] == (0, 1, 2, 3)
        assert all(o[0] == 0 for o in orderings)


class TestSymmetryMaps:
    def test_antipodal_targets(self):
        maps = {m.subset: m.target_index for m in antipodal_map_table()}
        assert maps == EXPECTED_ANTIPODAL

    def test_reflection_targets(self):
        maps = reflection_map_table()
        for op, expected in EXPECTED_REFLECTIONS.items():
            assert tuple(m.target_index for m in maps if m.operation == op) == expected

    def test_all_maps_verified_as_ordered_lists(self, solutions):
        by_index = {r.index: r for r in solutions}
        for m in reflection_map_table():
            img = per_plane_reflection(by_index[m.source_index].axes, m.operation)
            np.testing.assert_allclose(img.array, by_index[m.target_index].axes.array, rtol=0, atol=1e-12)

    def test_double_reflection_is_half_turn_about_x(self, solutions):
        by_index = {r.index: r for r in solutions}
        half_turn = reflect_about_line([1.0, 0.0, 0.0])
        src = by_index[18].axes.array
        img = per_plane_reflection(by_index[18].axes, "reflect_xz_then_xy")
        assert np.max(np.abs(img.array - src @ half_turn.T)) < 1e-12
        np.testing.assert_allclose(img.array, by_index[26].axes.array, rtol=0, atol=1e-12)

    def test_closure_under_antipodal_group(self, solutions):
        from isowrist.spheregeom import antipodal_exchange

        for rec in solutions:
            for size in range(0, 4):
                for subset in itertools.combinations((2, 3, 4), size):
                    img = antipodal_exchange(rec.axes, subset)
                    np.testing.assert_allclose(img.array, nearest_axes(img, solutions), rtol=0, atol=1e-12)

    def test_closure_under_reflections(self, solutions):
        for rec in solutions:
            for op in ("reflect_xy", "reflect_xz", "reflect_xz_then_xy"):
                img = per_plane_reflection(rec.axes, op)
                np.testing.assert_allclose(img.array, nearest_axes(img, solutions), rtol=0, atol=1e-12)


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
            assert canonical_signature(mirror) == CLASS_PATTERNS[w.label]

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
        for w, isotropic in zip(wrists, _isotropic_couplings(wrists)):
            assert w.couplings == isotropic
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


#: The values a signature cosine snaps to, in the order the reference tries them.
REFERENCE_SNAPS = (0.0, 1.0 / 3.0, -1.0 / 3.0, 0.5, -0.5, 1.0, -1.0)


def per_value_snap(v):
    for cand in REFERENCE_SNAPS:
        if abs(v - cand) <= 1e-9:
            return cand
    return round(v, 9)


def per_chain_signature(twists, t2, t3):
    """The signature of one chain, one math.cos and one snap per angle: the reference for the stacked pass."""
    return CanonicalSignature(
        tuple(per_value_snap(math.cos(a)) for a in twists),
        (per_value_snap(math.cos(t2)), per_value_snap(math.cos(t3))),
        int(np.sign(t2) * np.sign(t3)),
    )


def random_chains(rng, count):
    """Twists (count, 3) and interior joints (count, 2) whose cosines crowd every snap value.

    A third of the angles are uniform; a third have a cosine within 2e-9 of a
    snap value, on both sides of the 1e-9 snap radius; a third of the
    interior joints are exactly 0, half of those -0.0.
    """
    angles = np.concatenate([rng.uniform(0.0, math.pi, (count, 3)), rng.uniform(-math.pi, math.pi, (count, 2))], 1)
    targets = np.clip(rng.choice(REFERENCE_SNAPS, angles.shape) + rng.uniform(-2e-9, 2e-9, angles.shape), -1.0, 1.0)
    near = np.arccos(targets)
    near[:, 3:] *= rng.choice((-1.0, 1.0), (count, 2))
    angles = np.where(rng.random(angles.shape) < 1.0 / 3.0, near, angles)
    zero = rng.random((count, 2)) < 1.0 / 3.0
    angles[:, 3:][zero] = rng.choice((0.0, -0.0), int(zero.sum()))
    return angles[:, :3], angles[:, 3:]


class TestStackedSignatures:
    def test_catalog_chains_equal_the_per_chain_reference(self, solutions):
        axes = _axes_of([r.components for r in solutions])[:, chain_orderings()].reshape(-1, 4, 3)
        twists, joints = dh_from_axes_stack(axes)
        stacked = _signatures(twists, joints[:, 1:3])
        reference = [per_chain_signature(a, t2, t3) for a, (t2, t3) in zip(twists.tolist(), joints[:, 1:3].tolist())]
        assert len(stacked) == 192
        assert stacked == reference
        assert repr(stacked) == repr(reference)

    def test_random_chains_equal_the_per_chain_reference(self):
        twists, interior = random_chains(np.random.default_rng(2024), 2000)
        cosines = np.cos(np.concatenate([twists, interior], axis=1))[..., None]
        gaps = np.abs(cosines - np.array(REFERENCE_SNAPS))
        for k in range(len(REFERENCE_SNAPS)):  # every snap value is hit from within, and missed from just outside
            assert np.any(gaps[..., k] <= 1e-9) and np.any((gaps[..., k] > 1e-9) & (gaps[..., k] < 2e-9))
        assert np.any(interior == 0.0) and np.any(np.signbit(interior) & (interior == 0.0))
        stacked = _signatures(twists, interior)
        reference = [per_chain_signature(a, t2, t3) for a, (t2, t3) in zip(twists.tolist(), interior.tolist())]
        assert stacked == reference
        assert repr(stacked) == repr(reference)

    def test_canonical_signature_is_the_one_row_stack(self):
        twists, interior = random_chains(np.random.default_rng(7), 50)
        for a, (t2, t3) in zip(twists.tolist(), interior.tolist()):
            if min(a) > 1e-6 and max(a) < math.pi - 1e-6:  # DHChain refuses (anti)parallel consecutive axes
                assert canonical_signature(DHChain(a, (0.3, t2, t3, -0.2))) == per_chain_signature(a, t2, t3)


def per_chain_distinct_wrists(solutions):
    """distinct_wrists built one Python chain at a time: the reference for the stacked pass."""
    groups = {}
    for rec in solutions:
        for ordering in chain_orderings():
            dh = dh_from_axes(PointSet(rec.axes.array[list(ordering)]))
            member = ClassMember(
                rec.index,
                tuple(i + 1 for i in ordering),
                (int(np.sign(dh.joints[1])), int(np.sign(dh.joints[2]))),
            )
            groups.setdefault(per_chain_signature(dh.twists, dh.joints[1], dh.joints[2]), []).append((member, dh))
    classes = []
    for sig, items in groups.items():
        items.sort(key=lambda md: (md[0].solution_index, md[0].ordering))
        rep_member, rep_dh = next((m, d) for m, d in items if d.joints[1] > 0.0)
        classes.append(
            WristClass(
                label=_LABELS[sig],
                twists=rep_dh.twists,
                interior_joints=(rep_dh.joints[1], rep_dh.joints[2]),
                representative=rep_member,
                members=tuple(m for m, _ in items),
                couplings=tuple(sorted({m.joint_signs for m, _ in items})),
            )
        )
    return sorted(classes, key=lambda w: w.label)


class TestStackedDistinctWrists:
    def test_equals_the_per_chain_reference(self, solutions, wrists):
        assert len(wrists) == 8
        assert wrists == per_chain_distinct_wrists(solutions)

    def test_built_from_the_catalog_alone(self, wrists, monkeypatch):
        # classes hold catalog facts only: proving the couplings isotropic is the wrist-classes check's work
        def refuse(twists, theta):
            raise AssertionError("distinct_wrists ran a forward chain")

        calls = []

        def counted(a):
            calls.append(np.shape(a))
            return dh_from_axes_stack(a)

        # a catalog object no call has read yet, so this call builds the classes instead of returning stored ones
        monkeypatch.setattr(classify, "CATALOG_SIGNS", read_only_copy(CATALOG_SIGNS))
        monkeypatch.setattr(classify, "_forward_chain", refuse)
        monkeypatch.setattr(classify, "dh_from_axes_stack", counted)
        assert distinct_wrists() == wrists
        # the signatures are exact; float DH parameters are recovered for the 8 representatives only
        assert calls == [(8, 4, 3)]

    @pytest.mark.parametrize("count", [0, 5])
    def test_too_few_solutions_keep_the_class_count_error(self, monkeypatch, count):
        monkeypatch.setattr(classify, "CATALOG_SIGNS", CATALOG_SIGNS[:count])
        with pytest.raises(ArithmeticError, match="expected 8 signature classes"):
            distinct_wrists()

    def test_a_second_call_builds_nothing(self, wrists, monkeypatch):
        def refuse(*args):
            raise AssertionError("distinct_wrists rebuilt the classes of a catalog it has built")

        distinct_wrists()
        monkeypatch.setattr(classify, "_exact_chain_invariants", refuse)
        monkeypatch.setattr(classify, "dh_from_axes_stack", refuse)
        first = distinct_wrists()
        assert first == wrists and first is not distinct_wrists()
        # each call returns its own list: a caller that changes it changes no later result
        first.clear()
        assert distinct_wrists() == wrists

    def test_a_new_catalog_object_rebuilds(self, wrists, monkeypatch):
        calls = []

        def counted(a):
            calls.append(np.shape(a))
            return dh_from_axes_stack(a)

        distinct_wrists()
        monkeypatch.setattr(classify, "dh_from_axes_stack", counted)
        monkeypatch.setattr(classify, "CATALOG_SIGNS", read_only_copy(CATALOG_SIGNS))
        assert distinct_wrists() == distinct_wrists() == wrists
        assert calls == [(8, 4, 3)]
        monkeypatch.undo()
        assert distinct_wrists() == wrists

    def test_a_failed_build_stores_nothing(self, wrists, monkeypatch):
        distinct_wrists()
        monkeypatch.setattr(classify, "CATALOG_SIGNS", CATALOG_SIGNS[:5])
        for _ in range(2):
            with pytest.raises(ArithmeticError, match="expected 8 signature classes"):
                distinct_wrists()
        monkeypatch.undo()
        assert distinct_wrists() == wrists

    def test_racing_first_calls_all_get_the_classes(self, wrists, monkeypatch):
        # threads that find no stored classes may each build, but the entry is stored whole, so none sees a torn one
        monkeypatch.setattr(classify, "CATALOG_SIGNS", read_only_copy(CATALOG_SIGNS))
        results, start = [], threading.Barrier(4)

        def call():
            start.wait(timeout=60)
            for _ in range(5):
                results.append(distinct_wrists())

        threads = [threading.Thread(target=call) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 20 and all(result == wrists for result in results)
        signs, _ = classify._built_wrists
        assert signs is classify.CATALOG_SIGNS

    def test_classify_binds_no_float_catalog(self):
        # the classes read the sign table alone; only the wrist-classes check reads the float catalog
        assert not hasattr(classify, "_CATALOG") and not hasattr(classify, "_CATALOG_AXES")

    def test_catalog_chains_are_the_records_chains(self, solutions):
        # the chains and float axes that check_wrist_classes pairs
        chains, axes = _catalog_chains(len(_CATALOG_AXES)), catalog_chains(_CATALOG_AXES)
        assert len(chains) == len(axes) == 192
        assert chains == [(r.index, tuple(i + 1 for i in o)) for r in solutions for o in chain_orderings()]
        for (index, ordering), chain in zip(chains, axes):
            assert np.array_equal(chain, solutions[index - 1].axes.array[np.subtract(ordering, 1)])

    @pytest.mark.parametrize("rows", [range(1, 32), range(31, -1, -1)], ids=["without-row-1", "reversed"])
    def test_any_catalog_equals_the_per_chain_reference_of_its_rows(self, solutions, wrists, monkeypatch, rows):
        # the classes read the catalog whole and number its rows from 1, as the reference numbers its records
        records = use_catalog_rows(monkeypatch, solutions, rows)
        assert distinct_wrists() == per_chain_distinct_wrists(records) != wrists
        # the classes of the swapped catalog are not served once the real catalog is back
        monkeypatch.undo()
        assert distinct_wrists() == wrists

    @pytest.mark.parametrize("label", list("abcdefgh"))
    def test_a_catalog_without_a_positive_representative_has_fewer_classes(self, solutions, wrists, monkeypatch, label):
        # why a representative always exists: dropping every row that gives this class a positive theta_2
        # also drops some other class entirely
        (w,) = [w for w in wrists if w.label == label]
        positive = {m.solution_index for m in w.members if m.joint_signs[0] > 0}
        use_catalog_rows(monkeypatch, solutions, [k for k in range(32) if k + 1 not in positive])
        with pytest.raises(ArithmeticError, match="expected 8 signature classes"):
            distinct_wrists()


def use_catalog_rows(monkeypatch, solutions, rows):
    """Make classify read only the catalog rows (0-based, in order); returns their records numbered from 1."""
    rows = list(rows)
    monkeypatch.setattr(classify, "CATALOG_SIGNS", CATALOG_SIGNS[rows])
    return [solutions[k]._replace(index=n) for n, k in enumerate(rows, 1)]


def read_only_copy(array):
    """A new read-only array equal to array, as the catalog arrays are."""
    copy = array.copy()
    copy.setflags(write=False)
    return copy


def catalog_chains(axes):
    """The 192 chains of axis sets (32, 4, 3), (solution, ordering) order: shape (192, 4, 3)."""
    return np.asarray(axes)[:, chain_orderings()].reshape(-1, 4, 3)


def integer_axes(signs):
    """3 e_1..3 e_4 of sign rows (m, 8) as the integers (a, b, c) of 3 e_k = (a, b sqrt(2), c sqrt(6)): (m, 4, 3).

    3 e_1 = (3, 0, 0), and each unknown is its sign times the integer 1, or 2 for s = 2 sqrt(2) / 3.
    """
    a = np.zeros((len(signs), 12), dtype=int)
    a[:, 0] = 3
    a[:, _AXIS_SLOTS] = np.asarray(signs) * np.array((1, 2, 1, 1, 1, 1, 1, 1))
    return a.reshape(-1, 4, 3)


class TestExactInvariants:
    @pytest.fixture(scope="class")
    def exact(self):
        return _exact_chain_invariants(catalog_chains(integer_axes(CATALOG_SIGNS)))

    @pytest.fixture(scope="class")
    def floats(self):
        return dh_from_axes_stack(catalog_chains(_axes_of(SOLUTION_CATALOG)))

    def test_integer_axes_are_three_times_the_catalog_axes(self):
        scaled = integer_axes(CATALOG_SIGNS) * np.sqrt([1.0, 2.0, 6.0]) / 3.0
        assert np.max(np.abs(scaled - _axes_of(SOLUTION_CATALOG))) <= 1e-15

    def test_gram_entries_are_nine_times_the_float_dots(self, exact):
        gram, _, _ = exact
        a = catalog_chains(_axes_of(SOLUTION_CATALOG))
        dots = np.sum(a[:, [0, 1, 2, 0, 1]] * a[:, [1, 2, 3, 2, 3]], axis=-1)
        assert gram.dtype.kind == "i"
        assert np.max(np.abs(gram - 9.0 * dots)) <= 1e-14

    def test_every_axis_pair_meets_at_a_third(self, exact):
        gram, _, _ = exact
        assert gram.shape == (192, 5)
        assert np.all(np.abs(gram) == 3)

    def test_interior_numerators_are_thirty_six(self, exact):
        _, interior, _ = exact
        assert interior.shape == (192, 2)
        assert np.all(np.abs(interior) == 36)

    def test_determinant_signs_are_the_interior_joint_signs(self, exact, floats):
        _, _, dets = exact
        _, joints = floats
        assert np.all(dets != 0)
        assert np.array_equal(np.sign(dets), np.sign(joints[:, 1:3]))

    def test_exact_signatures_equal_the_float_ones(self, exact, floats):
        gram, interior, dets = exact
        twists, joints = floats
        products = (np.sign(dets[:, 0]) * np.sign(dets[:, 1])).tolist()
        exact_signatures = [
            CanonicalSignature(tuple(t), tuple(j), p)
            for t, j, p in zip((gram[:, :3] / 9).tolist(), (interior / 72).tolist(), products)
        ]
        assert exact_signatures == _signatures(twists, joints[:, 1:3])
        assert repr(exact_signatures) == repr(_signatures(twists, joints[:, 1:3]))


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_free_angle_is_named(self, wrists, value):
        # an infinite angle once raised "math domain error", and a nan one a message about a vector's norm
        with pytest.raises(ValueError, match=rf"theta_1 = {value!r} is not finite"):
            isotropic_posture_geometry(wrists[0], value, 0.0)
        with pytest.raises(ValueError, match=rf"theta_4 = {value!r} is not finite"):
            isotropic_posture_geometry(wrists[0], 0.0, value)

    def test_frames_are_orthonormal_with_axis_z(self, wrists):
        geo = isotropic_posture_geometry(wrists[3], 0.3, 1.2)
        for k, frame in enumerate(geo.frames):
            assert np.max(np.abs(frame.T @ frame - np.eye(3))) < 1e-12
            assert np.max(np.abs(frame[:, 2] - geo.axes.array[k])) < 1e-12


def nearest_axes(img: PointSet, solutions) -> np.ndarray:
    """The axes of the solution nearest to img in max-norm, so that img matches some solution iff it matches these."""
    return min((s.axes.array for s in solutions), key=lambda a: np.max(np.abs(img.array - a)))


def per_image_find(axes: PointSet) -> int:
    """The 1-based catalog row within RESIDUAL_TOL of axes in max-norm, found by float distance, not by sign."""
    (hits,) = np.nonzero(catalog_distances(axes.array) <= RESIDUAL_TOL)
    if hits.size != 1:
        raise ArithmeticError(f"axes {axes.array.tolist()} match {hits.size} catalog rows")
    return int(hits[0]) + 1


def per_plane_reflection(axes: PointSet, operation: str) -> PointSet:
    """Image of an axis set under one of the named REFLECTIONS, one reflect_about_plane call per plane."""
    for normal in REFLECTIONS[operation]:
        axes = reflect_about_plane(axes, normal)
    return axes


def per_image_antipodal_map_table(solutions):
    """antipodal_map_table built one PointSet image and one catalog lookup at a time."""
    source = next(r for r in solutions if r.index == TRIVIAL_SET_INDEX)
    return [
        SolutionMap(source.index, "antipodal", per_image_find(antipodal_exchange(source.axes, subset)), subset)
        for subset in ANTIPODAL_SUBSETS
    ]


def per_image_reflection_map_table(solutions):
    """reflection_map_table built one PointSet image and one catalog lookup at a time."""
    by_index = {r.index: r for r in solutions}
    return [
        SolutionMap(seed, operation, per_image_find(per_plane_reflection(by_index[seed].axes, operation)))
        for operation in REFLECTIONS
        for seed in REFLECTION_SEEDS
    ]


class TestStackedSymmetryImages:
    def test_antipodal_images_equal_single_exchanges(self, solutions):
        images = symmetry_images([r.components for r in solutions])
        assert images.shape == (11, 32, 8)
        images = _axes_of(images).reshape(11, 32, 4, 3)
        for i, subset in enumerate(ANTIPODAL_SUBSETS):
            for k, rec in enumerate(solutions):
                assert np.array_equal(images[i, k], antipodal_exchange(rec.axes, subset).array)

    @pytest.mark.parametrize("operation", list(REFLECTIONS))
    def test_reflection_images_equal_single_reflections(self, solutions, operation):
        images = symmetry_images([r.components for r in solutions])[8 + list(REFLECTIONS).index(operation)]
        images = _axes_of(images)
        assert images.shape == (32, 4, 3)
        for k, rec in enumerate(solutions):
            # equal as numbers; a reflected exact zero may differ from the matmul's in its sign alone
            assert np.array_equal(images[k], per_plane_reflection(rec.axes, operation).array)

    def test_antipodal_map_table_equals_the_per_image_reference(self, solutions):
        assert antipodal_map_table() == per_image_antipodal_map_table(solutions)

    def test_reflection_map_table_equals_the_per_image_reference(self, solutions):
        assert reflection_map_table() == per_image_reflection_map_table(solutions)

    def test_unmatched_image_raises_with_its_axes(self, solutions):
        stack = np.sign([r.components for r in solutions[:3]])
        stack[1, 0] = -stack[1, 0]  # flipping c alone breaks the first sign equation
        with pytest.raises(ArithmeticError, match="match no catalog row") as info:
            catalog_rows(stack)
        assert str(stack[1].tolist()) in str(info.value)
        assert catalog_rows(stack[::2]) == [1, 3]

    def test_tables_read_only_their_seed_rows(self, solutions, monkeypatch):
        # the antipodal table reads the trivial set alone, the reflection table the eight seeds
        signs = np.zeros_like(CATALOG_SIGNS)
        signs[np.subtract(REFLECTION_SEEDS, 1)] = CATALOG_SIGNS[np.subtract(REFLECTION_SEEDS, 1)]
        monkeypatch.setattr(classify, "CATALOG_SIGNS", signs)
        assert antipodal_map_table() == per_image_antipodal_map_table(solutions)
        assert reflection_map_table() == per_image_reflection_map_table(solutions)

    @pytest.mark.parametrize(("row", "antipodal_fails", "reflection_fails"), [
        (18, True, True),  # the trivial set, which both tables read
        (10, False, True),  # a reflection seed, which the antipodal table does not read
        (5, False, False),  # a row neither table reads
    ])
    def test_a_broken_row_fails_only_the_tables_that_read_it(
        self, solutions, monkeypatch, row, antipodal_fails, reflection_fails
    ):
        signs = CATALOG_SIGNS.copy()
        signs[row - 1, 0] = -signs[row - 1, 0]  # flipping c alone leaves no catalog row, nor any symmetry image of one
        monkeypatch.setattr(classify, "CATALOG_SIGNS", signs)
        for table, reference, fails in [
            (antipodal_map_table, per_image_antipodal_map_table, antipodal_fails),
            (reflection_map_table, per_image_reflection_map_table, reflection_fails),
        ]:
            if fails:
                with pytest.raises(ArithmeticError, match="match no catalog row"):
                    table()
            else:
                assert table() == reference(solutions)
