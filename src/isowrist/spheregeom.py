"""Geometry of point sets on the unit sphere.

Second-moment tensors, isotropy tests, Platonic vertex generators,
antipodal exchanges, and reflections about planes and lines.  A set of
unit vectors {e_k} is isotropic when its second-moment tensor

    H = sum_k e_k e_k^T

is a multiple of the identity, H = sigma^2 * I; taking the trace shows
the multiplier is always sigma^2 = n/3 for n unit vectors.

All types are immutable values and all operations are pure functions,
so everything here is safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, NamedTuple

import numpy as np

UNIT_TOL = 1e-12
#: Isotropy tolerance of isotropy_of here and of kinematics.isotropy_report.
ISO_TOL = 1e-9

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _as_unit(v) -> np.ndarray:
    """Validate a 3-vector of unit Euclidean norm and return it as float64."""
    a = np.asarray(v, dtype=float).reshape(3)
    nrm = np.linalg.norm(a)
    if abs(nrm - 1.0) > UNIT_TOL:
        raise ValueError(f"vector {a.tolist()} has norm {nrm!r}, expected 1 within {UNIT_TOL}")
    return a


@dataclass(frozen=True, eq=False)
class PointSet:
    """An ordered list of n unit vectors on the unit sphere.

    Ordering matters: the same points in a different order describe a
    different kinematic chain.  Compare with :meth:`allclose` or, for
    set-like equality, :func:`same_points_up_to_permutation`.
    """

    array: np.ndarray = field(repr=False)

    def __init__(self, points) -> None:
        a = np.array(points, dtype=float)
        if a.ndim != 2 or a.shape[1] != 3:
            raise ValueError(f"expected an (n, 3) array of points, got shape {a.shape}")
        norms = np.linalg.norm(a, axis=1)
        bad = np.nonzero(np.abs(norms - 1.0) > UNIT_TOL)[0]
        if bad.size:
            raise ValueError(f"point {bad[0]} has norm {norms[bad[0]]!r}, expected 1 within {UNIT_TOL}")
        a.setflags(write=False)
        object.__setattr__(self, "array", a)

    @property
    def n(self) -> int:
        return self.array.shape[0]

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, k: int) -> np.ndarray:
        return self.array[k]

    def __iter__(self):
        return iter(self.array)

    def allclose(self, other: "PointSet", tol: float = UNIT_TOL) -> bool:
        """Ordered comparison: max entrywise deviation at most tol."""
        if self.n != other.n:
            return False
        return bool(np.max(np.abs(self.array - other.array)) <= tol)


class IsotropyCheck(NamedTuple):
    isotropic: bool
    sigma_sq: float


class PlatonicSolid(Enum):
    """The five Platonic solids, keyed by vertex count."""

    tetrahedron = 4
    cube = 8
    octahedron = 6
    icosahedron = 12
    dodecahedron = 20

    @property
    def n(self) -> int:
        return self.value


#: The four coordinate magnitudes of the regular tetrahedron below.  They
#: are also the magnitudes of every component of the 32 wrist solutions.
ONE_THIRD = 1.0 / 3.0
SQRT2_THIRD = math.sqrt(2.0) / 3.0
SQRT6_THIRD = math.sqrt(6.0) / 3.0
TWO_SQRT2_THIRD = 2.0 * math.sqrt(2.0) / 3.0

# The regular tetrahedron inscribed in the unit sphere, oriented with the
# first vertex on +x and the second in the x-y plane.  This orientation is
# the reference configuration for the wrist solution catalog.
TETRAHEDRON = np.array(
    [
        [1.0, 0.0, 0.0],
        [-ONE_THIRD, -TWO_SQRT2_THIRD, 0.0],
        [-ONE_THIRD, SQRT2_THIRD, SQRT6_THIRD],
        [-ONE_THIRD, SQRT2_THIRD, -SQRT6_THIRD],
    ]
)
TETRAHEDRON.setflags(write=False)


def second_moment(s: PointSet) -> np.ndarray:
    """Second-moment tensor H = sum_k e_k e_k^T of a point set.

    The result is a symmetric positive semi-definite 3x3 matrix with
    trace equal to n (each unit vector contributes 1).
    """
    if s.n == 0:
        raise ValueError("empty point set")
    return s.array.T @ s.array


def isotropy_of(h: np.ndarray) -> IsotropyCheck:
    """Test whether a second-moment tensor is a positive multiple of I.

    Returns (isotropic, sigma_sq) where sigma_sq = trace(h)/3 is the
    triple eigenvalue when isotropic.  Non-isotropic tensors return
    isotropic=False with the same trace/3 value for reference.  The
    tolerance is ISO_TOL.
    """
    h = np.asarray(h, dtype=float)
    sigma_sq = float(np.trace(h)) / 3.0
    dev = float(np.max(np.abs(h - sigma_sq * np.eye(3))))
    return IsotropyCheck(dev <= ISO_TOL and sigma_sq > ISO_TOL, sigma_sq)


def _icosahedron_vertices() -> np.ndarray:
    p = _GOLDEN
    raw = []
    for a in (-1.0, 1.0):
        for b in (-p, p):
            raw.append([0.0, a, b])
            raw.append([a, b, 0.0])
            raw.append([b, 0.0, a])
    v = np.array(raw)
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _dodecahedron_vertices() -> np.ndarray:
    p = _GOLDEN
    q = 1.0 / p
    raw = [[sx, sy, sz] for sx in (-1.0, 1.0) for sy in (-1.0, 1.0) for sz in (-1.0, 1.0)]
    for a in (-q, q):
        for b in (-p, p):
            raw.append([0.0, a, b])
            raw.append([a, b, 0.0])
            raw.append([b, 0.0, a])
    v = np.array(raw)
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def platonic_vertices(kind: PlatonicSolid) -> PointSet:
    """Vertices of a Platonic solid inscribed in the unit sphere.

    Every such vertex set is isotropic with sigma_sq = n/3.  Any rigid
    rotation of these sets is equally valid; the orientations here are
    the conventional inscribed constructions.
    """
    if kind is PlatonicSolid.tetrahedron:
        return PointSet(TETRAHEDRON)
    if kind is PlatonicSolid.octahedron:
        return PointSet(np.vstack([np.eye(3), -np.eye(3)]))
    if kind is PlatonicSolid.cube:
        corners = [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
        return PointSet(np.array(corners, dtype=float) / math.sqrt(3.0))
    if kind is PlatonicSolid.icosahedron:
        return PointSet(_icosahedron_vertices())
    if kind is PlatonicSolid.dodecahedron:
        return PointSet(_dodecahedron_vertices())
    raise ValueError(f"unknown Platonic solid: {kind!r}")


def antipodal_exchange(s: PointSet, subset: Iterable[int]) -> PointSet:
    """Replace e_k by its antipodal -e_k for each 1-based index k in subset.

    Because (-e)(-e)^T = e e^T, the second-moment tensor is preserved
    exactly, so antipodal exchanges map isotropic sets to isotropic sets.
    """
    idx = sorted(set(int(k) for k in subset))
    a = np.array(s.array)
    for k in idx:
        if not 1 <= k <= s.n:
            raise IndexError(f"antipodal index {k} out of range 1..{s.n}")
        a[k - 1] = -a[k - 1]
    return PointSet(a)


def reflect_about_plane(s: PointSet, unit_normal) -> PointSet:
    """Reflect every point through the plane with the given unit normal.

    Each point maps as p -> (I - 2 n n^T) p.  Reflections are isometries,
    so isotropy of the second moment is preserved.
    """
    n = _as_unit(unit_normal)
    refl = np.eye(3) - 2.0 * np.outer(n, n)
    return PointSet(s.array @ refl.T)


def reflect_about_line(axis) -> np.ndarray:
    """Reflection about the line through the origin along a unit axis.

    Returns L = 2 e e^T - I, a proper orthogonal matrix: the reflection
    about a line equals the rotation through pi about that line.  L fixes
    the axis and negates every vector orthogonal to it.
    """
    e = _as_unit(axis)
    return 2.0 * np.outer(e, e) - np.eye(3)


def project_onto_line(p, axis) -> np.ndarray:
    """Orthogonal projection e e^T p of a point onto the line along e."""
    e = _as_unit(axis)
    return e * float(np.dot(e, np.asarray(p, dtype=float).reshape(3)))


def rotation_about_axis(axis, angle: float) -> np.ndarray:
    """Rotation matrix through angle (radians) about a unit axis (Rodrigues)."""
    e = _as_unit(axis)
    k = np.array([[0.0, -e[2], e[1]], [e[2], 0.0, -e[0]], [-e[1], e[0], 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def same_points_up_to_permutation(a: PointSet, b: PointSet) -> bool:
    """Set-like equality: the points match pairwise, within 1e-9, under some permutation."""
    if a.n != b.n:
        return False
    remaining = list(range(b.n))
    for p in a.array:
        hit = None
        for j in remaining:
            if np.max(np.abs(p - b.array[j])) <= 1e-9:
                hit = j
                break
        if hit is None:
            return False
        remaining.remove(hit)
    return True
