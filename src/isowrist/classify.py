"""Classification of the 32 algebraic solutions into distinct wrists.

The 32 solutions are closed under two families of symmetry maps that
never change the wrist geometry: antipodal exchanges of the last three
points, and reflections about the x-y and x-z coordinate planes (their
composition is a half-turn about the x axis).  This module computes
those index maps, and groups all (solution, chain ordering) pairs by a
canonical signature of their Denavit-Hartenberg parameters, yielding
exactly eight distinct isotropic wrist architectures.

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
from typing import NamedTuple, Sequence

import numpy as np

from .kinematics import DHChain, dh_from_axes, forward_axes, isotropy_report, jacobian_from_axes, _forward_chain
from .solver import SolutionRecord, TRIVIAL_SET_INDEX, match_catalog_index
from .spheregeom import ONE_THIRD, PointSet, antipodal_exchange, reflect_about_plane

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


@dataclass(frozen=True)
class SolutionMap:
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


@dataclass(frozen=True)
class ClassMember:
    """Provenance of one chain inside a wrist class."""

    solution_index: int
    ordering: tuple  # 1-based positions of the solution's axes, chain order
    joint_signs: tuple  # signs of the two interior joint angles


@dataclass(frozen=True)
class WristClass:
    """One of the eight distinct isotropic wrist architectures.

    twists and interior_joints are the representative DH parameters in
    radians (interior joints with the first one positive); the mirrored
    branch, with both interior joint signs flipped, is the same wrist.
    There is no twist alpha_4: it is undefined for a four-revolute wrist.
    """

    label: str
    signature: CanonicalSignature
    twists: tuple
    interior_joints: tuple
    representative: ClassMember
    members: tuple
    couplings: tuple  # interior joint sign pairs realized by members
    isotropic_couplings: tuple  # sign pairs whose forward chain is isotropic

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


def chain_orderings(full: bool = False) -> list:
    """Axis orderings that start a kinematic chain at the first point.

    Returns 0-based index tuples: the 6 orderings fixing e_1 first and
    permuting the other three, or all 24 orderings when full is set.
    """
    if full:
        return [p for p in itertools.permutations(range(4))]
    return [(0,) + p for p in itertools.permutations((1, 2, 3))]


def _find_by_axes(axes: PointSet) -> int:
    index = match_catalog_index(axes.array)
    if index is None:
        raise ArithmeticError(f"axes {axes.array.tolist()} match no catalog row")
    return index


def antipodal_map_table(solutions: Sequence[SolutionRecord]) -> list:
    """Images of the trivial set under all antipodal exchanges of points 2..4.

    Every image is itself a catalog solution; the empty subset maps the
    source to itself.
    """
    source = next(r for r in solutions if r.index == TRIVIAL_SET_INDEX)
    return [
        SolutionMap(source.index, "antipodal", _find_by_axes(antipodal_exchange(source.axes, subset)), subset)
        for subset in ANTIPODAL_SUBSETS
    ]


def apply_reflection(axes: PointSet, operation: str) -> PointSet:
    """Image of an axis set under one of the named REFLECTIONS."""
    for normal in REFLECTIONS[operation]:
        axes = reflect_about_plane(axes, normal)
    return axes


def reflection_map_table(solutions: Sequence[SolutionRecord]) -> list:
    """Images of the REFLECTION_SEEDS solutions under the REFLECTIONS.

    Covers reflection about the x-y plane, about the x-z plane, and both
    in sequence; the double reflection is a half-turn about the x axis
    and therefore never produces a new wrist.
    """
    by_index = {r.index: r for r in solutions}
    return [
        SolutionMap(seed, operation, _find_by_axes(apply_reflection(by_index[seed].axes, operation)))
        for operation in REFLECTIONS
        for seed in REFLECTION_SEEDS
    ]


_SNAP_CANDIDATES = (0.0, ONE_THIRD, -ONE_THIRD, 0.5, -0.5, 1.0, -1.0)


def _snap(v: float) -> float:
    for cand in _SNAP_CANDIDATES:
        if abs(v - cand) <= SIGNATURE_TOL:
            return cand
    return round(v, 9)


def canonical_signature(dh: DHChain) -> CanonicalSignature:
    """Signature of a 4-axis chain, identical for mirror-image wrists.

    Free end joints are ignored.  Cosines absorb the individual signs of
    the interior joint angles; their relative sign is kept, so flipping
    both signs (a global mirror) leaves the signature unchanged while
    flipping only one generally does not.
    """
    if dh.n != 4:
        raise ValueError(f"expected a 4-axis chain, got n={dh.n}")
    t2, t3 = dh.joints[1], dh.joints[2]
    sign_product = int(np.sign(t2) * np.sign(t3))
    return CanonicalSignature(
        tuple(_snap(math.cos(a)) for a in dh.twists),
        (_snap(math.cos(t2)), _snap(math.cos(t3))),
        sign_product,
    )


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


#: Class label by signature.  _snap puts every cosine within SIGNATURE_TOL
#: of a pattern value exactly onto it, so a lookup is an exact match.
_LABELS = {pat: label for label, pat in CLASS_PATTERNS.items()}


def _isotropic_couplings(twists, joint_magnitudes) -> tuple:
    """Of the four interior-joint sign pairs, those giving an isotropic chain."""
    kept = []
    for s2, s3 in itertools.product((1, -1), repeat=2):
        dh = DHChain(twists, (0.0, s2 * joint_magnitudes[0], s3 * joint_magnitudes[1], 0.0))
        if isotropy_report(jacobian_from_axes(forward_axes(dh, dh.joints))).is_isotropic:
            kept.append((s2, s3))
    return tuple(sorted(kept))


def distinct_wrists(solutions: Sequence[SolutionRecord]) -> list:
    """Group all (solution, ordering) chains into the distinct wrist classes.

    Builds DH parameters for all 32 x 6 chains, groups them by canonical
    signature and labels the classes a..h.  Raises with a diagnostic dump
    if the grouping does not produce exactly eight classes.
    """
    groups: dict[CanonicalSignature, list] = {}
    for rec in solutions:
        for ordering in chain_orderings():
            axes = PointSet(rec.axes.array[list(ordering)])
            dh = dh_from_axes(axes)
            sig = canonical_signature(dh)
            member = ClassMember(
                rec.index,
                tuple(i + 1 for i in ordering),
                (int(np.sign(dh.joints[1])), int(np.sign(dh.joints[2]))),
            )
            groups.setdefault(sig, []).append((member, dh))
    if len(groups) != 8:
        dump = "\n".join(str(sig) for sig in sorted(groups))
        raise ArithmeticError(f"expected 8 signature classes, got {len(groups)}:\n{dump}")
    classes = []
    for sig, items in groups.items():
        label = _LABELS.get(sig)
        if label is None:
            raise ArithmeticError(f"signature {sig} matches no known wrist class")
        items.sort(key=lambda md: (md[0].solution_index, md[0].ordering))
        rep_member, rep_dh = next((m, d) for m, d in items if d.joints[1] > 0.0)
        couplings = tuple(sorted({m.joint_signs for m, _ in items}))
        magnitudes = (abs(rep_dh.joints[1]), abs(rep_dh.joints[2]))
        classes.append(
            WristClass(
                label=label,
                signature=sig,
                twists=rep_dh.twists,
                interior_joints=(rep_dh.joints[1], rep_dh.joints[2]),
                representative=rep_member,
                members=tuple(m for m, _ in items),
                couplings=couplings,
                isotropic_couplings=_isotropic_couplings(rep_dh.twists, magnitudes),
            )
        )
    classes.sort(key=lambda w: w.label)
    return classes


def isotropic_posture_geometry(w: WristClass, theta_1: float, theta_4: float) -> PostureGeometry:
    """Axis directions and link frames of a wrist class at its isotropic posture.

    theta_1 and theta_4 are the free joint angles in radians; varying
    them rotates the geometry about the first axis and the task frame
    about the last axis, so isotropy is independent of both.
    """
    dh = w.representative_dh
    theta = (theta_1,) + w.interior_joints + (theta_4,)
    axes_arr, normals = _forward_chain(dh, theta)
    frames = np.empty((dh.n, 3, 3))
    for k in range(dh.n):
        z = axes_arr[k]
        x = normals[k]
        frames[k] = np.column_stack([x, np.cross(z, x), z])
    axes = PointSet(axes_arr)
    return PostureGeometry(axes, frames, isotropy_report(jacobian_from_axes(axes)))
