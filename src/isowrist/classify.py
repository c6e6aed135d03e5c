"""Classification of the 32 algebraic solutions into distinct wrists.

The 32 solutions are closed under two families of symmetry maps that
never change the wrist geometry: antipodal exchanges of the last three
points, and reflections about the x-y and x-z coordinate planes (their
composition is a half-turn about the x axis).  This module computes
those index maps, and groups all (solution, chain ordering) pairs by a
canonical signature of their Denavit-Hartenberg parameters, yielding
exactly eight distinct isotropic wrist architectures.  The isotropy
condition puts every pair of axes at e_i . e_j = +-1/3, so the
signatures follow exactly from the catalog's integer sign table; only
the eight class representatives get float DH parameters.  The classes
read the sign table alone, and are built once per process for each sign
table, on the first distinct_wrists call that reads it.

Two chains are considered the same wrist when they differ only by the
free end joints or by a global mirror, which flips the signs of both
interior joint angles.  The signature (cosines of the three twists,
cosines of the two interior joints, and the relative sign of the two
interior joints) is invariant under exactly those moves.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kinematics import (
    DHChain, _forward_chain, _require_finite_joints, dh_from_axes_stack, isotropy_report, jacobian_from_axes,
)
from .solver import CATALOG_MAGNITUDES, CATALOG_SIGNS, TRIVIAL_SET_INDEX, _AXIS_SLOTS, _axes_of, catalog_rows
from .spheregeom import ONE_THIRD, PointSet, _antipodal_signs, _cross

SIGNATURE_TOL = 1e-9

#: Solution indices used as reflection seeds: the trivial set and its
#: seven antipodal-exchange images.
REFLECTION_SEEDS = (18, 10, 23, 17, 16, 24, 9, 15)

#: Every subset of the points 2..4 (1-based) that an antipodal exchange flips.
ANTIPODAL_SUBSETS = tuple(subset for size in range(4) for subset in itertools.combinations((2, 3, 4), size))

#: The coordinate-plane reflections by name, as the unit plane normals
#: applied in order; the last is a half-turn about the x axis.
REFLECTIONS = {
    "reflect_xy": ((0.0, 0.0, 1.0),),
    "reflect_xz": ((0.0, 1.0, 0.0),),
    "reflect_xz_then_xy": ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
}

#: The factor -1 or 1 of each unknown (c, s, x, y, z, u, v, w), shape (11, 8): one row per ANTIPODAL_SUBSETS
#: exchange (whole points flip), then one per REFLECTIONS entry (coordinates flip), read off the axes' factors at
#: the unknowns' slots.  A coordinate normal n makes I - 2 n n^T the diagonal matrix with entries 1 - 2 n^2, each
#: exactly -1 or 1.  Every symmetry fixes e_1 = [1, 0, 0].
_SYMMETRY_SIGNS = np.array(
    [_antipodal_signs(4, subset) * np.ones(3) for subset in ANTIPODAL_SUBSETS]
    + [np.ones((4, 1)) * np.prod(1.0 - 2.0 * np.square(normals), axis=0) for normals in REFLECTIONS.values()]
).reshape(-1, 12)[:, _AXIS_SLOTS].astype(int)
_SYMMETRY_SIGNS.setflags(write=False)


class SolutionMap(NamedTuple):
    """One symmetry map between catalog solutions: source -> target."""

    source_index: int
    operation: str  # "antipodal", "reflect_xy", "reflect_xz", "reflect_xz_then_xy"
    target_index: int
    subset: tuple = ()  # 1-based point indices, antipodal operation only


class CanonicalSignature(NamedTuple):
    """Mirror-invariant fingerprint of a 4R chain's DH parameters."""

    cos_twists: tuple
    cos_joints: tuple
    joint_sign_product: int


class ClassMember(NamedTuple):
    """Provenance of one chain inside a wrist class."""

    solution_index: int
    ordering: tuple  # 1-based positions of the solution's axes, chain order
    joint_signs: tuple  # signs of the two interior joint angles


@dataclass(frozen=True)
class WristClass:
    """One of the eight distinct isotropic wrist architectures.

    Holds only what the catalog determines: the class's signature is
    CLASS_PATTERNS[label], and its isotropy is a verification result
    that lives in checks, not here.  twists and interior_joints are the
    representative DH parameters in radians (interior joints with the
    first one positive); the mirrored branch, with both interior joint
    signs flipped, is the same wrist.  There is no twist alpha_4: it is
    undefined for a four-revolute wrist.
    """

    label: str
    twists: tuple
    interior_joints: tuple
    representative: ClassMember
    members: tuple
    couplings: tuple  # interior joint sign pairs realized by members

    @property
    def representative_dh(self) -> DHChain:
        return DHChain(self.twists, (0.0,) + self.interior_joints + (0.0,))


@dataclass(frozen=True, eq=False)
class PostureGeometry:
    """Axis directions, per-link frames and the isotropy report at a posture.

    frames[k] is the rotation matrix of link frame k+1 (columns: common
    normal, its complement, joint axis).  All frame origins coincide at
    the wrist center.
    """

    axes: PointSet
    frames: np.ndarray
    report: object


def chain_orderings() -> list:
    """Axis orderings that start a kinematic chain at the first point.

    Returns the 6 orderings, as 0-based index tuples, that keep e_1 first
    and permute the other three axes.
    """
    return [(0,) + p for p in itertools.permutations((1, 2, 3))]


def _catalog_chains(count: int) -> list:
    """The chains of count catalog rows as (solution_index, 1-based ordering) pairs, in chain_orderings order."""
    positions = [tuple(i + 1 for i in ordering) for ordering in chain_orderings()]
    return [(index, position) for index in range(1, count + 1) for position in positions]


def symmetry_images(points) -> np.ndarray:
    """Images of unknowns (m, 8) under every catalog symmetry: shape (11, m, 8).

    Images [:8] are the ANTIPODAL_SUBSETS exchanges in order, images [8:]
    the REFLECTIONS in order.  The axes of an image equal antipodal_exchange,
    or the reflect_about_plane chain, of the set's axes up to the sign of
    exact zeros.  The images of sign vectors are the images' sign vectors.
    """
    return _SYMMETRY_SIGNS[:, None] * np.asarray(points)


def antipodal_map_table() -> list:
    """Images of the trivial set under all antipodal exchanges of points 2..4.

    Every image of its catalog sign row is itself a catalog solution, found
    exactly by its signs; the empty subset maps the source to itself.
    """
    targets = catalog_rows(symmetry_images(CATALOG_SIGNS[[TRIVIAL_SET_INDEX - 1]])[: len(ANTIPODAL_SUBSETS)])
    return [
        SolutionMap(TRIVIAL_SET_INDEX, "antipodal", target, subset)
        for subset, target in zip(ANTIPODAL_SUBSETS, targets)
    ]


def reflection_map_table() -> list:
    """Images of the REFLECTION_SEEDS solutions under the REFLECTIONS.

    Covers reflection about the x-y plane, about the x-z plane, and both
    in sequence; the double reflection is a half-turn about the x axis
    and therefore never produces a new wrist.  The seeds are their
    catalog sign rows, and the images are found exactly by their signs.
    """
    targets = catalog_rows(symmetry_images(CATALOG_SIGNS[np.subtract(REFLECTION_SEEDS, 1)])[len(ANTIPODAL_SUBSETS) :])
    pairs = itertools.product(REFLECTIONS, REFLECTION_SEEDS)
    return [SolutionMap(seed, operation, target) for (operation, seed), target in zip(pairs, targets)]


#: The values a signature cosine snaps to, in the order they are tried.
_SNAP_CANDIDATES = np.array((0.0, ONE_THIRD, -ONE_THIRD, 0.5, -0.5, 1.0, -1.0))


def _snapped_cosines(angles: np.ndarray) -> list:
    """Cosines of angles (m, k), snapped, as m lists of k floats.

    A cosine within SIGNATURE_TOL of a _SNAP_CANDIDATES value becomes the
    first such value; any other is rounded to 9 decimals.  The cosines are
    math.cos and the rounding is round, mapped over the values, since
    np.cos and np.round may differ from them in the last bit.
    """
    cos = np.array([math.cos(a) for a in angles.ravel().tolist()]).reshape(angles.shape)
    snapped = np.zeros(cos.shape, dtype=bool)
    values = cos.copy()
    # one candidate at a time, last first, so the first candidate near a cosine is the one written last
    for candidate in _SNAP_CANDIDATES[::-1].tolist():
        near = np.abs(cos - candidate) <= SIGNATURE_TOL
        values[near] = candidate
        snapped |= near
    values = values.tolist()
    for i, j in zip(*np.nonzero(~snapped)):
        values[i][j] = round(values[i][j], 9)
    return values


def canonical_signature(dh: DHChain) -> CanonicalSignature:
    """Signature of a 4-axis chain, identical for mirror-image wrists.

    Free end joints are ignored.  Cosines absorb the individual signs of
    the interior joint angles; their relative sign is kept, so flipping
    both signs (a global mirror) leaves the signature unchanged while
    flipping only one generally does not.
    """
    if dh.n != 4:
        raise ValueError(f"expected a 4-axis chain, got n={dh.n}")
    return _signatures([dh.twists], [dh.joints[1:3]])[0]


def _signatures(twists, interior) -> list:
    """canonical_signature of each 4-axis chain with twists (m, 3) and interior joints (m, 2), in one pass."""
    twists, interior = np.asarray(twists, dtype=float), np.asarray(interior, dtype=float)
    cosines = _snapped_cosines(np.concatenate([twists, interior], axis=1))
    products = (np.sign(interior[:, 0]) * np.sign(interior[:, 1])).tolist()
    return [CanonicalSignature(tuple(cos[:3]), tuple(cos[3:]), int(p)) for cos, p in zip(cosines, products)]


_COS_ACUTE = ONE_THIRD  # cos 70.5 deg
_COS_OBTUSE = -ONE_THIRD  # cos 109.5 deg

#: Expected signature per class label: twist cosines, interior-joint
#: cosines, and the relative sign of the interior joints.
CLASS_PATTERNS = {
    "a": CanonicalSignature((_COS_OBTUSE, _COS_OBTUSE, _COS_OBTUSE), (0.5, 0.5), -1),
    "b": CanonicalSignature((_COS_ACUTE, _COS_OBTUSE, _COS_OBTUSE), (-0.5, 0.5), 1),
    "c": CanonicalSignature((_COS_OBTUSE, _COS_ACUTE, _COS_OBTUSE), (-0.5, -0.5), 1),
    "d": CanonicalSignature((_COS_OBTUSE, _COS_OBTUSE, _COS_ACUTE), (0.5, -0.5), 1),
    "e": CanonicalSignature((_COS_ACUTE, _COS_ACUTE, _COS_ACUTE), (0.5, 0.5), 1),
    "f": CanonicalSignature((_COS_ACUTE, _COS_ACUTE, _COS_OBTUSE), (0.5, -0.5), -1),
    "g": CanonicalSignature((_COS_OBTUSE, _COS_ACUTE, _COS_ACUTE), (-0.5, 0.5), -1),
    "h": CanonicalSignature((_COS_ACUTE, _COS_OBTUSE, _COS_ACUTE), (-0.5, -0.5), -1),
}


#: Class label by signature.  _snapped_cosines puts every cosine within SIGNATURE_TOL
#: of a pattern value exactly onto it, so a lookup is an exact match.
_LABELS = {pat: label for label, pat in CLASS_PATTERNS.items()}


#: 3 e_k = (a, b sqrt(2), c sqrt(6)) with integers (a, b, c) at every catalog solution, so that
#: 9 e_i . e_j = a a' + 2 b b' + 6 c c': the weights of the three coordinates.
_GRAM_WEIGHTS = np.array((1, 2, 6))


def _exact_chain_invariants(a: np.ndarray):
    """Integer invariants of m chains of integer axes a (m, 4, 3): each 3 e_k = (a, b sqrt(2), c sqrt(6)) as (a, b, c).

    Returns (gram (m, 5), interior (m, 2), dets (m, 2)):
    - gram holds d = 9 e_i . e_j for (i, j) = (1, 2), (2, 3), (3, 4),
      (1, 3), (2, 4); the twist cosines are gram[:, :3] / 9;
    - interior holds d_12 d_23 - 9 d_13 and d_23 d_34 - 9 d_24, that is
      81 (e_1 x e_2) . (e_2 x e_3) and its successor by Binet-Cauchy;
      with |e_i x e_j|^2 = 8/9 the interior-joint cosines are interior / 72;
    - dets holds det(e_1, e_2, e_3) and det(e_2, e_3, e_4) over their
      positive factor sqrt(12) / 27: the signs of theta_2 and theta_3.
    """
    gram = (a[:, [0, 1, 2, 0, 1]] * a[:, [1, 2, 3, 2, 3]]) @ _GRAM_WEIGHTS
    interior = gram[:, :2] * gram[:, 1:3] - 9 * gram[:, 3:]
    dets = np.sum(_cross(a[:, :2], a[:, 1:3]) * a[:, 2:], axis=-1)
    return gram, interior, dets


#: The sign table the last distinct_wrists build read, and the classes it built.
_built_wrists = (None, ())


def distinct_wrists() -> list:
    """Group all 192 catalog chains (_catalog_chains) into the distinct wrist classes.

    The isotropy condition puts every pair of axes at e_i . e_j = +-1/3,
    so each chain's canonical signature follows exactly from the
    catalog's sign table in one integer pass (_exact_chain_invariants):
    twist cosines +-1/3, interior-joint cosines +-1/2, interior-joint
    signs those of two determinants.  The classes are labeled a..h by
    CLASS_PATTERNS; members keep (solution_index, ordering) order, and
    the representative is the first member whose theta_2 is positive.
    Only the representatives get float DH parameters, from their axes in
    one dh_from_axes_stack call; checks.check_wrist_classes recovers
    every chain of the float catalog.
    Raises with a diagnostic dump if the grouping does not produce
    exactly one class per CLASS_PATTERNS entry.

    The classes read CATALOG_SIGNS alone and are built once per process
    for each sign table: a call whose CATALOG_SIGNS binding is the object
    the last build read returns a new list of that build's classes, which
    are immutable; any other call rebuilds.  A build that raises stores
    nothing.
    """
    global _built_wrists
    signs, classes = _built_wrists
    if signs is not CATALOG_SIGNS:
        signs = CATALOG_SIGNS
        classes = _build_wrists(signs)
        _built_wrists = (signs, classes)  # one assignment, so racing builds store equal entries
    return list(classes)


def _build_wrists(signs: np.ndarray) -> tuple:
    """The classes distinct_wrists returns, built from the sign table signs (m, 8) and nothing else, sorted by label."""
    axes = _axes_of(signs * np.array(CATALOG_MAGNITUDES))[:, chain_orderings()].reshape(-1, 4, 3)
    gram, interior, dets = _exact_chain_invariants(np.rint(3.0 * axes / np.sqrt(_GRAM_WEIGHTS)).astype(int))
    theta_signs = np.sign(dets)
    products = theta_signs[:, 0] * theta_signs[:, 1]
    # chains group by the six signs of their signature: three twist cosines, two joint cosines, the joint product
    bits = np.concatenate([gram[:, :3], interior, products[:, None]], axis=-1) > 0
    groups: dict[int, list] = {}
    for k, code in enumerate((bits @ (1, 2, 4, 8, 16, 32)).tolist()):
        groups.setdefault(code, []).append(k)
    firsts = [items[0] for items in groups.values()]
    signatures = [
        CanonicalSignature(tuple(cos_twists), tuple(cos_joints), product)
        for cos_twists, cos_joints, product in zip(
            (gram[firsts, :3] / 9).tolist(), (interior[firsts] / 72).tolist(), products[firsts].tolist()
        )
    ]
    if len(groups) != len(CLASS_PATTERNS):
        dump = "\n".join(str(sig) for sig in sorted(signatures))
        raise ArithmeticError(f"expected {len(CLASS_PATTERNS)} signature classes, got {len(groups)}:\n{dump}")
    joint_signs = list(map(tuple, theta_signs.tolist()))
    members = [ClassMember(*chain, pair) for chain, pair in zip(_catalog_chains(len(signs)), joint_signs)]
    # every catalog chain has a class pattern's signature, and every class has a member with a positive theta_2
    labels = [_LABELS[sig] for sig in signatures]
    reps = [next(k for k in items if joint_signs[k][0] > 0) for items in groups.values()]
    twists, joints = dh_from_axes_stack(axes[reps])
    classes = [
        WristClass(
            label=label,
            twists=tuple(rep_twists),
            interior_joints=tuple(rep_joints),
            representative=members[rep],
            members=tuple(map(members.__getitem__, items)),
            couplings=tuple(sorted({joint_signs[k] for k in items})),
        )
        for label, rep, items, rep_twists, rep_joints in zip(
            labels, reps, groups.values(), twists.tolist(), joints[:, 1:3].tolist()
        )
    ]
    return tuple(sorted(classes, key=lambda w: w.label))


def isotropic_posture_geometry(w: WristClass, theta_1: float, theta_4: float) -> PostureGeometry:
    """Axis directions and link frames of a wrist class at its isotropic posture.

    theta_1 and theta_4 are the free joint angles in radians; varying
    them rotates the geometry about the first axis and the task frame
    about the last axis, so isotropy is independent of both.  Both must
    be finite.
    """
    theta = (float(theta_1),) + w.interior_joints + (float(theta_4),)
    _require_finite_joints(theta)
    axes_arr, normals = _forward_chain([w.twists], [theta])
    z, x = axes_arr[0], normals[0]
    frames = np.stack([x, _cross(z, x), z], axis=-1)
    axes = PointSet(z)
    return PostureGeometry(axes, frames, isotropy_report(jacobian_from_axes(axes)))
