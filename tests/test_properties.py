"""Property tests for the unit-sphere invariants, the mirror-invariant signature and the JSON writer.

Examples are derandomized and bounded, so every run checks the same
cases in well under a second.
"""

import enum
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isowrist.classify import canonical_signature
from isowrist.documents import json_text
from isowrist.kinematics import DHChain, dh_from_axes, forward_axes
from isowrist.spheregeom import (
    PointSet,
    antipodal_exchange,
    isotropy_of,
    reflect_about_plane,
    rotation_about_axis,
    second_moment,
)

bounded = settings(derandomize=True, max_examples=30, deadline=None, database=None)

_coordinate = st.floats(-1.0, 1.0, allow_nan=False)
_direction = st.tuples(_coordinate, _coordinate, _coordinate).filter(lambda v: math.hypot(*v) > 0.1)


def _normalized(vectors) -> np.ndarray:
    a = np.array(vectors, dtype=float)
    return a / np.linalg.norm(a, axis=-1, keepdims=True)


unit_vectors = _direction.map(_normalized)
unit_sets = st.lists(_direction, min_size=1, max_size=12).map(lambda vs: PointSet(_normalized(vs)))
twists = st.floats(0.1, math.pi - 0.1)
angles = st.floats(-math.pi, math.pi)


@bounded
@given(unit_sets)
def test_sigma_squared_is_n_over_three(ps):
    assert abs(isotropy_of(second_moment(ps)).sigma_sq - ps.n / 3.0) <= 1e-12


@bounded
@given(unit_sets, st.data())
def test_antipodal_exchange_preserves_second_moment(ps, data):
    subset = data.draw(st.sets(st.integers(1, ps.n)))
    assert np.max(np.abs(second_moment(antipodal_exchange(ps, subset)) - second_moment(ps))) <= 1e-12


@bounded
@given(unit_sets, unit_vectors)
def test_plane_reflection_conjugates_second_moment(ps, normal):
    # H maps to R H R^T with R = I - 2 n n^T, so an isotropic H is preserved
    refl = np.eye(3) - 2.0 * np.outer(normal, normal)
    moved = second_moment(reflect_about_plane(ps, normal))
    assert np.max(np.abs(moved - refl @ second_moment(ps) @ refl.T)) <= 1e-12


@bounded
@given(unit_vectors, angles, unit_vectors)
def test_plane_reflection_preserves_isotropic_second_moment(axis, angle, normal):
    frame = PointSet(rotation_about_axis(axis, angle).T)  # three orthonormal axes: H = I
    assert np.max(np.abs(second_moment(reflect_about_plane(frame, normal)) - second_moment(frame))) <= 1e-12


@bounded
@given(st.tuples(twists, twists, twists), angles, angles, angles, angles)
def test_signature_is_mirror_invariant(alphas, theta_1, theta_2, theta_3, theta_4):
    chain = DHChain(alphas, (theta_1, theta_2, theta_3, theta_4))
    mirror = DHChain(alphas, (theta_1, -theta_2, -theta_3, theta_4))
    assert canonical_signature(mirror) == canonical_signature(chain)


@bounded
@given(st.data())
def test_dh_round_trip_recovers_random_chains(data):
    n = data.draw(st.integers(2, 7))
    chain_twists = data.draw(st.lists(st.floats(0.2, math.pi - 0.2), min_size=n - 1, max_size=n - 1))
    interior = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n - 2, max_size=n - 2))
    theta_1, theta_n = data.draw(angles), data.draw(angles)
    dh = DHChain(chain_twists, [0.0, *interior, 0.0])
    back = dh_from_axes(forward_axes(dh, (theta_1, *interior, theta_n)))
    assert np.max(np.abs(np.subtract(back.twists, dh.twists))) <= 1e-9
    assert np.max(np.abs(np.subtract(back.joints[1:-1], interior)), initial=0.0) <= 1e-9


class _Level(enum.IntEnum):
    low = 1
    high = 2


class _Name(str, enum.Enum):
    first = "a\u00e9"


#: Strings json must escape: quotes, backslashes, control, non-ASCII and astral characters.
_HARD_STRINGS = ['"', "\\", 'a"b\\c', "\x00\x1f\x7f\n\t", "\u00e9\u2028\u2029", "\U0001f600", "\ud800", ""]
#: Floats and ints at json's edges: non-finite, signed zero, extremes, and ints past 64 bits.
_HARD_NUMBERS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e308, -1e308, 5e-324, 1e16, 2**64, -(2**70), 10**40]
_strings = st.one_of(st.text(), st.sampled_from(_HARD_STRINGS))
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from(_HARD_NUMBERS),
    _strings,
    st.floats().map(np.float64),
    st.sampled_from(list(_Level)),
)
_json_docs = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_strings, children, max_size=4),
        # lists of one scalar type, like the documents' coordinate vectors
        st.one_of(st.lists(st.floats()), st.lists(st.integers()), st.lists(st.booleans()), st.lists(_strings)),
    ),
    max_leaves=24,
)


@bounded
@given(st.dictionaries(_strings, _json_docs, max_size=5))
def test_json_text_is_json_dumps_indented(doc):
    assert json_text(doc) == json.dumps(doc, indent=2) + "\n"


EDGE_DOCUMENTS = [
    {"empty": [], "nothing": {}, "nested": [[], {}, [[{}]], (), {"a": {"b": []}}], "tuple": ()},
    {s: s for s in _HARD_STRINGS},
    {"numbers": _HARD_NUMBERS, "mixed": [*_HARD_NUMBERS, "x", None, True]},
    {"numpy": [np.float64(1.5), np.float64(math.nan), np.float64(-math.inf), np.float64(-0.0)], "one": np.float64(2.0)},
    {"enum": [_Level.low, _Level.high], "mixed": [_Level.low, 3], "value": _Level.high},
    {_Name.first: [_Name.first, "b"], "name": _Name.first},
    # bool is an int subclass: json writes true and false, never 1 and 0
    {"bools": [True, False], "bool_ints": [True, 1, False, 0], "nones": [None, None], "deep": [[[[True]]]]},
]


@pytest.mark.parametrize("doc", EDGE_DOCUMENTS)
def test_json_text_is_json_dumps_indented_on_edges(doc):
    assert json_text(doc) == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("value", [set(), b"x", np.bool_(True), np.int64(1), np.float32(1.0), object()])
@pytest.mark.parametrize("wrap", [lambda v: {"a": v}, lambda v: {"a": [1, v]}, lambda v: {"a": {"b": (v,)}}])
def test_json_text_rejects_what_json_rejects(value, wrap):
    doc = wrap(value)
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2)
    with pytest.raises(TypeError):
        json_text(doc)


@pytest.mark.parametrize("key", [1, 1.5, True, None, 2**70])
def test_json_text_rejects_keys_that_json_would_convert(key):
    # documents use str keys only: a key json would write as a string raises TypeError instead
    json.dumps({key: 1}, indent=2)
    with pytest.raises(TypeError):
        json_text({"outer": {key: 1}})
