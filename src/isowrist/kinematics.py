"""Kinematics of n-revolute spherical wrists.

All joint axes intersect at one point, so the wrist is fully described
by the unit direction vectors e_1..e_n of its axes.  The Jacobian of the
velocity map is the 3xn matrix J = [e_1 ... e_n], and the wrist is
isotropic at a posture when the three singular values of J coincide,
which forces the common value sigma = sqrt(n/3).

Forward and inverse relations between axis sets and Denavit-Hartenberg
parameters use a proximal convention: e_1 = [1, 0, 0], the common normal
of axes (1, 2) points along +z at theta_1 = 0, and joint angles follow
the right-hand rule about the joint axis.  Everything is pure and
thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .spheregeom import ISO_TOL, PointSet, _cross, _norms, _point_stack, _rotation, _sum3, _unit_rows

TWIST_TOL = 1e-9


@dataclass(frozen=True)
class DHChain:
    """Denavit-Hartenberg description of an n-revolute spherical chain.

    twists holds alpha_1..alpha_{n-1} in radians (the angle between
    consecutive axes; there is no alpha_n for an n-revolute wrist).
    joints holds theta_1..theta_n in radians; theta_1 and theta_n are free:
    they do not affect isotropy, and dh_from_axes stores them as 0.
    """

    twists: tuple
    joints: tuple

    def __init__(self, twists: Sequence[float], joints: Sequence[float]):
        twists = tuple(float(a) for a in twists)
        joints = tuple(float(t) for t in joints)
        if len(joints) != len(twists) + 1:
            raise ValueError(f"{len(twists)} twists require {len(twists) + 1} joints, got {len(joints)}")
        for a in twists:
            if not TWIST_TOL < a < math.pi - TWIST_TOL:
                raise ValueError(f"twist {a!r} outside (0, pi): consecutive axes parallel or antiparallel")
        _require_finite_joints(joints)
        object.__setattr__(self, "twists", twists)
        object.__setattr__(self, "joints", joints)

    @property
    def n(self) -> int:
        return len(self.joints)


def _require_finite_joints(theta: Sequence[float]) -> None:
    """Raise ValueError naming the first of the joint angles theta_1, theta_2, ... that is not finite."""
    for k, t in enumerate(theta, start=1):
        if not math.isfinite(t):
            raise ValueError(f"joint angle theta_{k} = {t!r} is not finite")


@dataclass(frozen=True)
class IsotropyReport:
    """Singular-value summary of a wrist Jacobian.

    condition_number is sigma_max/sigma_min, +inf at rank deficiency.
    When is_isotropic holds, sigma is the common singular value sqrt(n/3).
    """

    singular_values: tuple
    sigma: float
    condition_number: float
    is_isotropic: bool


def jacobian_from_axes(axes: PointSet) -> np.ndarray:
    """The 3xn wrist Jacobian whose k-th column is the axis direction e_k."""
    return jacobian_from_axes_stack(axes.array)


def jacobian_from_axes_stack(a: np.ndarray) -> np.ndarray:
    """jacobian_from_axes of a stack (..., n, 3) of axis arrays: J of shape (..., 3, n).

    Each entry equals jacobian_from_axes of that axis set alone.  The axes
    are not validated; pass unit vectors.  Raises ValueError for any other
    shape, and for an empty axis set.
    """
    return np.ascontiguousarray(_point_stack(a).swapaxes(-1, -2))


def isotropy_report(j: np.ndarray) -> IsotropyReport:
    """Singular values, condition number and isotropy flag of a Jacobian.

    The Jacobian is isotropic when its three singular values agree within
    ISO_TOL and are nonzero; the common value is then sqrt(n/3) for n unit
    columns.  Rank-deficient Jacobians report condition number +inf.
    """
    sv, sigma, cond, iso = isotropy_report_stack(j)
    return IsotropyReport(tuple(float(v) for v in sv), float(sigma), float(cond), bool(iso))


def isotropy_report_stack(j: np.ndarray):
    """isotropy_report of a stack of Jacobians (..., 3, n), as arrays.

    Returns (singular_values (..., 3), sigma, condition_number,
    is_isotropic), each of shape (...).  One stacked SVD serves the whole
    stack, and each entry equals the one isotropy_report gives for that
    Jacobian alone.  A Jacobian with a non-finite entry gets nan singular
    values, so it is not isotropic, and the others keep their bits.
    Raises ValueError for any shape but (..., 3, n).
    """
    j = np.asarray(j, dtype=float)
    if j.ndim < 2 or j.shape[-2] != 3:
        raise ValueError(f"expected Jacobians of shape (..., 3, n), got shape {j.shape}")
    # LAPACK prints to the terminal, and may not converge, on a nan or inf entry: such Jacobians enter the SVD as zeros
    finite = np.isfinite(j).all(axis=(-2, -1))
    sv = np.linalg.svd(np.where(finite[..., None, None], j, 0.0), compute_uv=False)
    sv[~finite] = math.nan
    # fewer than three columns leave implicit zero singular values
    if j.shape[-1] < 3:
        sv = np.concatenate([sv, np.zeros(sv.shape[:-1] + (3 - j.shape[-1],))], axis=-1)
    smax, smin = sv[..., 0], sv[..., -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(smin > 0.0, smax / smin, math.inf)
    iso = (smax - smin <= ISO_TOL) & (smin > ISO_TOL)
    # np.mean's bits: the sum from _sum3, divided by the count
    return sv, _sum3(sv) / 3, cond, iso


def _unit(v: np.ndarray) -> np.ndarray:
    return v / _norms(v)


def _turn(axis: np.ndarray, angle: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row i of v (m, 3) turned by angle[i] about the unit axis[i], then renormalised.

    The axes are not validated: _forward_chain passes e_1 = [1, 0, 0] or
    a vector that _turn has just renormalised.
    """
    return _unit((_rotation(axis, angle) @ v[:, :, None])[:, :, 0])


def _forward_chain(twists, theta):
    """Axis directions and common-normal directions of m chains of n joints.

    twists has shape (m, n-1) and theta shape (m, n).  Returns (axes,
    normals), each (m, n, 3): axes[i, k] is e_{k+1} of chain i;
    normals[i, k] is the unit common normal between axes k+1 and k+2 (the
    x-axis of link frame k+1), with normals[i, n-1] the end-effector
    x-axis turned by theta_n.  Each row equals the chain computed alone.
    theta_n turns only normals[:, n-1]: no axis reads it, so a nan there
    leaves the axes finite and bit-identical to any other value.
    """
    twists = np.asarray(twists, dtype=float)
    theta = np.asarray(theta, dtype=float)
    m, n = theta.shape
    if twists.shape != (m, n - 1):
        raise ValueError(f"twists of shape {twists.shape} do not fit joint angles of shape {theta.shape}")
    axes = np.empty((m, n, 3))
    normals = np.empty((m, n, 3))
    axes[:, 0] = e = np.tile([1.0, 0.0, 0.0], (m, 1))
    normals[:, 0] = x = _turn(e, theta[:, 0], np.tile([0.0, 0.0, 1.0], (m, 1)))
    for k in range(n - 1):
        # renormalise after every rotation so rounding cannot accumulate
        # past the unit-norm tolerance along long chains
        axes[:, k + 1] = e = _turn(x, twists[:, k], e)
        normals[:, k + 1] = x = _turn(e, theta[:, k + 1], x)
    return axes, normals


def forward_axes(dh: DHChain, theta: Sequence[float]) -> PointSet:
    """Axis directions e_1..e_n in the base frame for given joint angles.

    theta must supply all n angles explicitly, including the free first
    and last ones.  Round trip: dh_from_axes(forward_axes(dh, theta))
    reproduces the twists and the interior angles theta_2..theta_{n-1}.
    Every angle must be finite.
    """
    theta = [float(t) for t in theta]
    if len(theta) != dh.n:
        raise ValueError(f"expected {dh.n} joint angles, got {len(theta)}")
    _require_finite_joints(theta)
    axes, _ = _forward_chain([dh.twists], [theta])
    return PointSet(axes[0])


def dh_from_axes(axes: PointSet) -> DHChain:
    """Recover Denavit-Hartenberg parameters from ordered axis directions.

    Twists are alpha_i = arccos(e_i . e_{i+1}).  Interior joint angles
    theta_i (2 <= i <= n-1) are the dihedral angles between the planes
    (e_{i-1}, e_i) and (e_i, e_{i+1}), signed by the right-hand rule
    about e_i.  theta_1 and theta_n are free and stored as 0.
    """
    twists, joints = dh_from_axes_stack(axes.array[None])
    return DHChain(twists[0], joints[0])


def dh_from_axes_stack(a: np.ndarray):
    """dh_from_axes of a stack (m, n, 3) of axis arrays, as arrays.

    Returns (twists (m, n-1), joints (m, n)); each row equals the
    parameters dh_from_axes recovers from that axis set alone, bit for
    bit: twist alpha_k reads axes k and k+1 alone, and joint theta_k axes
    k-1..k+1.  The twist dots and the squared norms of the common normals
    are summed over x, y, z in that order (_sum3, _unit_rows); the
    joints' sine and cosine dots are batched matmuls.  Raises ValueError
    if any row has a degenerate twist, which also keeps every twist inside
    the range DHChain accepts.  The axes are not validated; pass unit
    vectors.
    """
    a = np.asarray(a, dtype=float)
    m, n, _ = a.shape
    if n < 2:
        raise ValueError("need at least two axes")
    dots = _sum3(a[:, :-1] * a[:, 1:])
    if np.any(np.abs(dots) >= 1.0 - TWIST_TOL):
        raise ValueError("degenerate twist: consecutive axes parallel or antiparallel")
    twists = np.array([math.acos(d) for d in dots.ravel().tolist()]).reshape(m, n - 1)
    # unit common normals x_i between axes i and i+1
    normals = _unit_rows(_cross(a[:, :-1], a[:, 1:]))
    x_prev, x_next = normals[:, :-1], normals[:, 1:]
    turns = _cross(x_prev, x_next)
    # the batched matmul takes each dot product exactly as np.dot of two 3-vectors does
    sin_part = (turns[..., None, :] @ a[:, 1:-1, :, None]).ravel().tolist()
    cos_part = (x_prev[..., None, :] @ x_next[..., :, None]).ravel().tolist()
    joints = np.zeros((m, n))
    joints[:, 1:-1] = np.array([math.atan2(y, x) for y, x in zip(sin_part, cos_part)]).reshape(m, n - 2)
    return twists, joints
