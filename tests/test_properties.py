"""Property tests for the unit-sphere invariants and the mirror-invariant signature.

Examples are derandomized and bounded, so every run checks the same
cases in well under a second.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from isowrist.classify import canonical_signature
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
