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

from .spheregeom import ISO_TOL, PointSet, rotation_about_axis

TWIST_TOL = 1e-9


@dataclass(frozen=True)
class DHChain:
    """Denavit-Hartenberg description of an n-revolute spherical chain.

    twists holds alpha_1..alpha_{n-1} in radians (the angle between
    consecutive axes; there is no alpha_n for an n-revolute wrist).
    joints holds theta_1..theta_n in radians; entries flagged in
    free_joints (the first and last) do not affect isotropy and default
    to 0 until a caller supplies them.
    """

    twists: tuple
    joints: tuple
    free_joints: tuple

    def __init__(self, twists: Sequence[float], joints: Sequence[float], free_joints: Sequence[bool] | None = None):
        twists = tuple(float(a) for a in twists)
        joints = tuple(float(t) for t in joints)
        if len(joints) != len(twists) + 1:
            raise ValueError(f"{len(twists)} twists require {len(twists) + 1} joints, got {len(joints)}")
        for a in twists:
            if not TWIST_TOL < a < math.pi - TWIST_TOL:
                raise ValueError(f"twist {a!r} outside (0, pi): consecutive axes parallel or antiparallel")
        if free_joints is None:
            free_joints = (True,) + (False,) * (len(joints) - 2) + (True,)
        free_joints = tuple(bool(f) for f in free_joints)
        if len(free_joints) != len(joints):
            raise ValueError("free_joints length must match joints")
        object.__setattr__(self, "twists", twists)
        object.__setattr__(self, "joints", joints)
        object.__setattr__(self, "free_joints", free_joints)

    @property
    def n(self) -> int:
        return len(self.joints)


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
    if axes.n == 0:
        raise ValueError("empty point set")
    return axes.array.T.copy()


def angular_velocity(j: np.ndarray, joint_rates) -> np.ndarray:
    """End-effector angular velocity omega = J * theta_dot (rad/s)."""
    j = np.asarray(j, dtype=float)
    rates = np.asarray(joint_rates, dtype=float).reshape(-1)
    if rates.shape[0] != j.shape[1]:
        raise ValueError(f"expected {j.shape[1]} joint rates, got {rates.shape[0]}")
    return j @ rates


def isotropy_report(j: np.ndarray) -> IsotropyReport:
    """Singular values, condition number and isotropy flag of a Jacobian.

    The Jacobian is isotropic when its three singular values agree within
    ISO_TOL and are nonzero; the common value is then sqrt(n/3) for n unit
    columns.  Rank-deficient Jacobians report condition number +inf.
    """
    j = np.asarray(j, dtype=float)
    sv = np.linalg.svd(j, compute_uv=False)
    # fewer than three columns leave implicit zero singular values
    sv = tuple(float(v) for v in sv) + (0.0,) * (3 - min(j.shape))
    smax, smin = sv[0], sv[-1]
    cond = smax / smin if smin > 0.0 else math.inf
    iso = (smax - smin) <= ISO_TOL and smin > ISO_TOL
    return IsotropyReport(sv, float(np.mean(sv)), cond, iso)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / math.sqrt(v @ v)


def _forward_chain(dh: DHChain, theta: Sequence[float]):
    """Axis directions and common-normal directions of the chain.

    Returns (axes, normals): axes[k] is e_{k+1}; normals[k] is the unit
    common normal between axes k+1 and k+2 (the x-axis of link frame k+1),
    with normals[n-1] the end-effector x-axis turned by theta_n.
    """
    theta = [float(t) for t in theta]
    if len(theta) != dh.n:
        raise ValueError(f"expected {dh.n} joint angles, got {len(theta)}")
    e = np.array([1.0, 0.0, 0.0])
    x = _unit(rotation_about_axis(e, theta[0]) @ np.array([0.0, 0.0, 1.0]))
    axes = [e]
    normals = [x]
    for k, alpha in enumerate(dh.twists):
        # renormalise after every rotation so rounding cannot accumulate
        # past the unit-norm tolerance along long chains
        e = _unit(rotation_about_axis(normals[-1], alpha) @ axes[-1])
        x = _unit(rotation_about_axis(e, theta[k + 1]) @ normals[-1])
        axes.append(e)
        normals.append(x)
    return np.array(axes), np.array(normals)


def forward_axes(dh: DHChain, theta: Sequence[float]) -> PointSet:
    """Axis directions e_1..e_n in the base frame for given joint angles.

    theta must supply all n angles explicitly, including the free first
    and last ones.  Round trip: dh_from_axes(forward_axes(dh, theta))
    reproduces the twists and the interior angles theta_2..theta_{n-1}.
    """
    axes, _ = _forward_chain(dh, theta)
    return PointSet(axes)


def dh_from_axes(axes: PointSet) -> DHChain:
    """Recover Denavit-Hartenberg parameters from ordered axis directions.

    Twists are alpha_i = arccos(e_i . e_{i+1}).  Interior joint angles
    theta_i (2 <= i <= n-1) are the dihedral angles between the planes
    (e_{i-1}, e_i) and (e_i, e_{i+1}), signed by the right-hand rule
    about e_i.  theta_1 and theta_n are free and stored as 0.
    """
    if axes.n < 2:
        raise ValueError("need at least two axes")
    a = axes.array
    dots = np.sum(a[:-1] * a[1:], axis=1)
    if np.any(np.abs(dots) >= 1.0 - TWIST_TOL):
        raise ValueError("degenerate twist: consecutive axes parallel or antiparallel")
    twists = tuple(math.acos(float(d)) for d in dots)
    # unit common normals x_i between axes i and i+1
    crosses = np.cross(a[:-1], a[1:])
    normals = crosses / np.linalg.norm(crosses, axis=1, keepdims=True)
    turns = np.cross(normals[:-1], normals[1:])
    joints = [0.0]
    for i in range(1, axes.n - 1):
        x_prev, x_next, e = normals[i - 1], normals[i], a[i]
        joints.append(math.atan2(float(np.dot(turns[i - 1], e)), float(np.dot(x_prev, x_next))))
    joints.append(0.0)
    return DHChain(twists, joints)
