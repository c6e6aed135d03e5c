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
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, NamedTuple

import numpy as np

UNIT_TOL = 1e-12
#: Isotropy tolerance of isotropy_of here and of kinematics.isotropy_report.
ISO_TOL = 1e-9

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of a (..., 3) array, shape (..., 1).

    The batched matmul takes each row's dot product exactly as the 1-D
    ``v @ v`` does, so stacked and single-vector norms agree bit for bit.
    """
    return np.sqrt(a[..., None, :] @ a[..., :, None])[..., 0]


def _as_unit(v) -> np.ndarray:
    """Validate unit 3-vectors, one per row of a (..., 3) array, and return them as float64."""
    a = np.asarray(v, dtype=float)
    if a.ndim < 2:
        a = a.reshape(3)
    if a.shape[-1] != 3:
        raise ValueError(f"expected 3-vectors of shape (..., 3), got shape {a.shape}")
    nrm = _norms(a).ravel()
    # written as "not within" so that a NaN norm is rejected too
    off = ~(np.abs(nrm - 1.0) <= UNIT_TOL)
    if off.any():
        k = int(np.argmax(off))
        bad = a.reshape(-1, 3)[k].tolist()
        raise ValueError(f"vector {bad} has norm {float(nrm[k])!r}, expected 1 within {UNIT_TOL}")
    return a


@dataclass(frozen=True, eq=False)
class PointSet:
    """An ordered list of n unit vectors on the unit sphere.

    Ordering matters: the same points in a different order describe a
    different kinematic chain, so two sets compare through their arrays.
    """

    array: np.ndarray = field(repr=False)

    def __init__(self, points) -> None:
        a = np.array(points, dtype=float)
        if a.ndim != 2 or a.shape[1] != 3:
            raise ValueError(f"expected an (n, 3) array of points, got shape {a.shape}")
        _as_unit(a)
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
    return second_moment_stack(s.array)


def second_moment_stack(a: np.ndarray) -> np.ndarray:
    """second_moment of a stack (..., n, 3) of point arrays: H of shape (..., 3, 3).

    Each entry equals second_moment of that point set alone.  The points
    are not validated; pass unit vectors.
    """
    a = np.asarray(a, dtype=float)
    if a.shape[-2] == 0:
        raise ValueError("empty point set")
    return a.swapaxes(-1, -2) @ a


def isotropy_of(h: np.ndarray) -> IsotropyCheck:
    """Test whether a second-moment tensor is a positive multiple of I.

    Returns (isotropic, sigma_sq) where sigma_sq = trace(h)/3 is the
    triple eigenvalue when isotropic.  Non-isotropic tensors return
    isotropic=False with the same trace/3 value for reference.  The
    tolerance is ISO_TOL.
    """
    isotropic, sigma_sq = isotropy_of_stack(h)
    return IsotropyCheck(bool(isotropic), float(sigma_sq))


def isotropy_of_stack(h: np.ndarray):
    """isotropy_of for a stack (..., 3, 3) of tensors: (isotropic, sigma_sq) arrays of shape (...).

    Raises ValueError for any other shape.
    """
    h = np.asarray(h, dtype=float)
    if h.shape[-2:] != (3, 3):
        raise ValueError(f"expected 3x3 tensors of shape (..., 3, 3), got shape {h.shape}")
    sigma_sq = np.trace(h, axis1=-2, axis2=-1) / 3.0
    dev = np.max(np.abs(h - sigma_sq[..., None, None] * np.eye(3)), axis=(-2, -1))
    return (dev <= ISO_TOL) & (sigma_sq > ISO_TOL), sigma_sq


def _cyclic_points(a: float, b: float) -> list:
    """The points (0, +-a, +-b) and their cyclic shifts (+-a, +-b, 0) and (+-b, 0, +-a), the sign of a outermost."""
    return [pt for sa in (-a, a) for sb in (-b, b) for pt in ([0.0, sa, sb], [sa, sb, 0.0], [sb, 0.0, sa])]


def _unit_rows(points: list) -> np.ndarray:
    """The points, each scaled to unit norm, as an (n, 3) array."""
    v = np.array(points, dtype=float)
    return v / np.linalg.norm(v, axis=1, keepdims=True)


_CUBE_CORNERS = [[sx, sy, sz] for sx in (-1.0, 1.0) for sy in (-1.0, 1.0) for sz in (-1.0, 1.0)]


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
        return PointSet(np.array(_CUBE_CORNERS) / math.sqrt(3.0))
    if kind is PlatonicSolid.icosahedron:
        return PointSet(_unit_rows(_cyclic_points(1.0, _GOLDEN)))
    if kind is PlatonicSolid.dodecahedron:
        return PointSet(_unit_rows(_CUBE_CORNERS + _cyclic_points(1.0 / _GOLDEN, _GOLDEN)))
    raise ValueError(f"unknown Platonic solid: {kind!r}")


def antipodal_exchange(s: PointSet, subset: Iterable[int]) -> PointSet:
    """Replace e_k by its antipodal -e_k for each 1-based index k in subset.

    Because (-e)(-e)^T = e e^T, the second-moment tensor is preserved
    exactly, so antipodal exchanges map isotropic sets to isotropic sets.
    """
    return PointSet(_antipodal_signs(s.n, subset) * s.array)


def _antipodal_signs(n: int, subset: Iterable[int]) -> np.ndarray:
    """Factor -1 for each 1-based index k in subset and 1 for the other points of an n-point set, shape (n, 1).

    Multiplying by -1 gives the same bits as negating.  Raises TypeError
    for an index that is not an integer, and IndexError for the smallest
    index outside 1..n.
    """
    signs = np.ones((n, 1))
    for k in sorted(set(map(operator.index, subset))):
        if not 1 <= k <= n:
            raise IndexError(f"antipodal index {k} out of range 1..{n}")
        signs[k - 1] = -1.0
    return signs


def reflect_about_plane(s: PointSet, unit_normal) -> PointSet:
    """Reflect every point through the plane with the given unit normal.

    Each point maps as p -> (I - 2 n n^T) p.  Reflections are isometries,
    so isotropy of the second moment is preserved.
    """
    n = _as_unit(unit_normal).reshape(3)
    return PointSet(s.array @ (np.eye(3) - 2.0 * np.outer(n, n)).T)


def reflect_about_line(axis) -> np.ndarray:
    """Reflection about the line through the origin along a unit axis.

    Returns L = 2 e e^T - I, a proper orthogonal matrix: the reflection
    about a line equals the rotation through pi about that line.  L fixes
    the axis and negates every vector orthogonal to it.
    """
    return _line_reflection(_as_unit(axis).reshape(3))


def _line_reflection(axes: np.ndarray) -> np.ndarray:
    """reflect_about_line of unit axes (..., 3): matrices 2 e e^T - I of shape (..., 3, 3).

    Each matrix equals reflect_about_line of its axis alone.  The axes are
    not validated; pass unit vectors.
    """
    return 2.0 * (axes[..., :, None] * axes[..., None, :]) - np.eye(3)


def rotation_about_axis(axis, angle) -> np.ndarray:
    """Rotation matrices through angles (radians) about unit axes (Rodrigues).

    axis is one unit 3-vector or a stack (..., 3); angle is a scalar or an
    array (...); the two broadcast and the result has shape (..., 3, 3).
    Every axis must have unit norm within UNIT_TOL and every angle must be
    finite.
    """
    e = _as_unit(axis)
    angle = np.asarray(angle, dtype=float)
    finite = np.isfinite(angle)
    if not finite.all():
        raise ValueError(f"rotation angle {angle[~finite].ravel()[0].item()!r} is not finite")
    return _rotation(e, angle)


def _rotation(e: np.ndarray, angle) -> np.ndarray:
    """rotation_about_axis of float unit axes e (..., 3), which are not validated; pass unit vectors."""
    angle = np.asarray(angle, dtype=float)
    # k and the sines are built on their own shapes; the sum broadcasts them
    x, y, z = e[..., 0], e[..., 1], e[..., 2]
    k = np.zeros(e.shape[:-1] + (3, 3))
    k[..., 0, 1], k[..., 0, 2], k[..., 1, 2] = -z, y, -x
    k[..., 1, 0], k[..., 2, 0], k[..., 2, 1] = z, -y, x
    # math.sin/math.cos per angle keep every matrix equal to the scalar formula's
    flat = angle.ravel().tolist()
    sin = np.fromiter(map(math.sin, flat), float, len(flat)).reshape(angle.shape + (1, 1))
    cos = np.fromiter(map(math.cos, flat), float, len(flat)).reshape(angle.shape + (1, 1))
    return np.eye(3) + sin * k + (1.0 - cos) * (k @ k)

