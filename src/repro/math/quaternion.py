"""Quaternion algebra on NumPy arrays, following TOAST's ``qarray`` module.

Conventions
-----------
* Quaternions are stored as ``(x, y, z, w)`` -- the scalar part last, as in
  TOAST (and scipy).
* All functions accept either a single quaternion of shape ``(4,)`` or an
  array of quaternions of shape ``(..., 4)`` and broadcast accordingly.
* Rotations are active: ``rotate(q, v)`` applies the rotation described by
  ``q`` to the vector ``v``.

The functions are fully vectorized; none of them loop in Python over the
sample axis (see the HPC guide: vectorize, avoid copies).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "amplitude",
    "normalize",
    "inv",
    "mult",
    "mult_components",
    "rotate",
    "rotate_zaxis",
    "rotate_xaxis",
    "from_axisangle",
    "to_axisangle",
    "from_angles",
    "to_angles",
    "to_position",
    "position_angle",
    "from_vectors",
    "slerp",
    "null_quat",
]

#: The identity quaternion in (x, y, z, w) order.
null_quat = np.array([0.0, 0.0, 0.0, 1.0])


def _check_quat(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    if q.shape[-1] != 4:
        raise ValueError(f"quaternion arrays must have a trailing axis of 4, got {q.shape}")
    return q


def _components(q: np.ndarray) -> tuple[np.ndarray, ...]:
    """The ``x, y, z, w`` components of ``q``."""
    return q[..., 0], q[..., 1], q[..., 2], q[..., 3]


def amplitude(q: np.ndarray) -> np.ndarray:
    """Euclidean norm of each quaternion.

    The squares add left to right, as ``np.sum(q * q, axis=-1)`` adds them,
    without a reduction over a length-4 axis.
    """
    x, y, z, w = _components(_check_quat(q))
    return np.sqrt(x * x + y * y + z * z + w * w)


def _nonzero_norm(q: np.ndarray) -> np.ndarray:
    norm = amplitude(q)
    if np.any(norm == 0):
        raise ValueError("cannot normalize a zero quaternion")
    return norm


def normalize(q: np.ndarray) -> np.ndarray:
    """Return unit quaternions; raises on zero-norm input."""
    q = _check_quat(q)
    return q / _nonzero_norm(q)[..., np.newaxis]


def _unit_components(q: np.ndarray) -> tuple[np.ndarray, ...]:
    """The components of ``normalize(q)``, computed one by one.

    ``x / norm`` is ``(q / norm[..., None])[..., 0]`` bit for bit.
    """
    q = _check_quat(q)
    norm = _nonzero_norm(q)
    return tuple(c / norm for c in _components(q))


def inv(q: np.ndarray) -> np.ndarray:
    """Inverse of unit quaternions (the conjugate)."""
    q = _check_quat(q)
    out = q.copy()
    out[..., :3] *= -1.0
    return out


def mult(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product ``p * q`` with broadcasting over leading axes."""
    return mult_components(_components(_check_quat(p)), _components(_check_quat(q)))


def mult_components(p, q) -> np.ndarray:
    """:func:`mult` of quaternions given as their ``x, y, z, w`` component
    arrays (any sequence of four, e.g. a ``(4, ...)`` array whose rows are
    contiguous), broadcast against each other; returns ``(..., 4)``."""
    px, py, pz, pw = p
    qx, qy, qz, qw = q
    out = np.empty(np.broadcast_shapes(np.shape(px), np.shape(qx)) + (4,), dtype=np.float64)
    out[..., 0] = pw * qx + px * qw + py * qz - pz * qy
    out[..., 1] = pw * qy - px * qz + py * qw + pz * qx
    out[..., 2] = pw * qz + px * qy - py * qx + pz * qw
    out[..., 3] = pw * qw - px * qx - py * qy - pz * qz
    return out


def rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate 3-vectors ``v`` by unit quaternions ``q``.

    Uses the expanded ``v' = v + 2 r x (r x v + w v)`` form, which needs no
    temporary quaternion products.
    """
    q = _check_quat(q)
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] != 3:
        raise ValueError(f"vectors must have a trailing axis of 3, got {v.shape}")
    r = q[..., :3]
    w = q[..., 3:4]
    t = 2.0 * np.cross(r, v)
    return v + w * t + np.cross(r, t)


def _zaxis(x, y, z, w) -> tuple[np.ndarray, ...]:
    """Components of the z axis rotated by the quaternion ``(x, y, z, w)``."""
    return 2.0 * (x * z + w * y), 2.0 * (y * z - w * x), 1.0 - 2.0 * (x * x + y * y)


def _xaxis(x, y, z, w) -> tuple[np.ndarray, ...]:
    """Components of the x axis rotated by the quaternion ``(x, y, z, w)``."""
    return 1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y + w * z), 2.0 * (x * z - w * y)


def rotate_zaxis(q: np.ndarray) -> np.ndarray:
    """Rotate the unit z axis: cheaper closed form used by pointing kernels."""
    return np.stack(_zaxis(*_components(_check_quat(q))), axis=-1)


def rotate_xaxis(q: np.ndarray) -> np.ndarray:
    """Rotate the unit x axis: used to recover detector orientation."""
    return np.stack(_xaxis(*_components(_check_quat(q))), axis=-1)


def from_axisangle(axis: np.ndarray, angle: np.ndarray) -> np.ndarray:
    """Quaternion for a rotation of ``angle`` radians about unit ``axis``."""
    axis = np.asarray(axis, dtype=np.float64)
    angle = np.asarray(angle, dtype=np.float64)
    if axis.shape[-1] != 3:
        raise ValueError(f"axes must have a trailing axis of 3, got {axis.shape}")
    half = 0.5 * angle
    s = np.sin(half)
    shape = np.broadcast(axis[..., 0], angle).shape + (4,)
    out = np.empty(shape, dtype=np.float64)
    out[..., :3] = axis * s[..., np.newaxis] if s.ndim else axis * s
    out[..., 3] = np.cos(half)
    return out


def to_axisangle(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`from_axisangle`; returns ``(axis, angle)``.

    For the identity rotation the axis is the z axis by convention.
    """
    q = normalize(q)
    w = np.clip(q[..., 3], -1.0, 1.0)
    angle = 2.0 * np.arccos(w)
    s = np.sqrt(np.maximum(1.0 - w * w, 0.0))
    tiny = s < 1.0e-12
    safe = np.where(tiny, 1.0, s)
    axis = q[..., :3] / safe[..., np.newaxis]
    default = np.zeros(axis.shape, dtype=np.float64)
    default[..., 2] = 1.0
    axis = np.where(tiny[..., np.newaxis], default, axis)
    return axis, angle


def from_angles(theta: np.ndarray, phi: np.ndarray, pa: np.ndarray) -> np.ndarray:
    """Build pointing quaternions from spherical angles.

    ``theta`` is the colatitude, ``phi`` the longitude, and ``pa`` the
    position (orientation) angle about the line of sight.  The rotation is
    ``Rz(phi) * Ry(theta) * Rz(pa)``, which maps the z axis onto the
    direction ``(theta, phi)``.
    """
    theta = np.asarray(theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    pa = np.asarray(pa, dtype=np.float64)
    zaxis = np.array([0.0, 0.0, 1.0])
    yaxis = np.array([0.0, 1.0, 0.0])
    qphi = from_axisangle(zaxis, phi)
    qtheta = from_axisangle(yaxis, theta)
    qpa = from_axisangle(zaxis, pa)
    return mult(qphi, mult(qtheta, qpa))


def _direction_angles(dx, dy, dz) -> tuple[np.ndarray, np.ndarray]:
    """``(theta, phi)`` of a unit direction vector."""
    return np.arccos(np.clip(dz, -1.0, 1.0)), np.arctan2(dy, dx)


def _position_angle(direction, orient) -> np.ndarray:
    """Position angle of the rotated x axis ``orient`` about ``direction``."""
    dx, dy, dz = direction
    ox, oy, oz = orient
    # Project the orientation vector onto the local (e_theta, e_phi) basis:
    # pa = atan2(o . e_phi, o . e_theta).  In the compact forms below,
    # pa_y = sin(theta) * (o . e_phi) and pa_x = -sin(theta) * (o . e_theta).
    sin2 = dx * dx + dy * dy
    pa_y = oy * dx - ox * dy
    pa_x = oz * sin2 - dz * (ox * dx + oy * dy)
    # At the poles dx=dy=0 and the meridian is degenerate; fall back to the
    # x-y components of the orientation vector there.
    polar = sin2 < 1.0e-24
    if polar.ndim == 0:
        return np.arctan2(oy, ox) if polar else np.arctan2(pa_y, -pa_x)
    pa = np.arctan2(pa_y, -pa_x)
    if polar.any():
        pa[polar] = np.arctan2(oy[polar], ox[polar])
    return pa


def to_angles(q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of :func:`from_angles`; returns ``(theta, phi, pa)``.

    The position angle is measured from the local meridian direction to the
    rotated x axis, following the IAU convention used by TOAST's
    ``stokes_weights`` kernels.
    """
    x, y, z, w = _unit_components(q)
    direction = _zaxis(x, y, z, w)
    theta, phi = _direction_angles(*direction)
    return theta, phi, _position_angle(direction, _xaxis(x, y, z, w))


def to_position(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return only ``(theta, phi)`` -- cheaper than :func:`to_angles`."""
    return _direction_angles(*_zaxis(*_unit_components(q)))


def position_angle(q: np.ndarray) -> np.ndarray:
    """Return only the ``pa`` of :func:`to_angles`, without theta and phi.

    ``arctan2`` runs once per lane: the polar fallback only on polar lanes.
    """
    x, y, z, w = _unit_components(q)
    return _position_angle(_zaxis(x, y, z, w), _xaxis(x, y, z, w))


def from_vectors(v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Shortest-arc rotation taking unit vector ``v1`` to unit vector ``v2``."""
    v1 = np.asarray(v1, dtype=np.float64)
    v2 = np.asarray(v2, dtype=np.float64)
    dot = np.sum(v1 * v2, axis=-1)
    if np.any(dot < -1.0 + 1.0e-12):
        raise ValueError("from_vectors is undefined for antiparallel vectors")
    cross = np.cross(v1, v2)
    shape = np.broadcast(v1[..., 0], v2[..., 0]).shape + (4,)
    out = np.empty(shape, dtype=np.float64)
    out[..., :3] = cross
    out[..., 3] = 1.0 + dot
    return normalize(out)


def slerp(targets: np.ndarray, times: np.ndarray, quats: np.ndarray) -> np.ndarray:
    """Spherical linear interpolation of a quaternion time series.

    Parameters
    ----------
    targets:
        Times at which to interpolate, shape ``(m,)``; must lie within
        ``[times[0], times[-1]]``.
    times:
        Strictly increasing sample times, shape ``(n,)``.
    quats:
        Unit quaternions at ``times``, shape ``(n, 4)``.
    """
    targets = np.atleast_1d(np.asarray(targets, dtype=np.float64))
    times = np.asarray(times, dtype=np.float64)
    quats = _check_quat(quats)
    if times.ndim != 1 or quats.shape != (times.shape[0], 4):
        raise ValueError("slerp needs times (n,) and quats (n, 4)")
    if np.any(np.diff(times) <= 0):
        raise ValueError("slerp times must be strictly increasing")
    if np.any(targets < times[0]) or np.any(targets > times[-1]):
        raise ValueError("slerp targets outside the sampled time range")

    hi = np.searchsorted(times, targets, side="right")
    hi = np.clip(hi, 1, len(times) - 1)
    lo = hi - 1
    t0 = times[lo]
    t1 = times[hi]
    frac = (targets - t0) / (t1 - t0)

    q0 = quats[lo]
    q1 = quats[hi]
    # Take the short path on the 4-sphere.
    dot = np.sum(q0 * q1, axis=-1)
    q1 = np.where(dot[..., np.newaxis] < 0.0, -q1, q1)
    dot = np.abs(np.clip(dot, -1.0, 1.0))

    omega = np.arccos(dot)
    sin_omega = np.sin(omega)
    small = sin_omega < 1.0e-10
    safe_sin = np.where(small, 1.0, sin_omega)
    w0 = np.where(small, 1.0 - frac, np.sin((1.0 - frac) * omega) / safe_sin)
    w1 = np.where(small, frac, np.sin(frac * omega) / safe_sin)
    out = w0[..., np.newaxis] * q0 + w1[..., np.newaxis] * q1
    return normalize(out)
