"""stokes_weights_IQU, OpenMP Target Offload implementation."""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
from ..common import launcher_for, resolve_view


def _position_angle(q):
    """Position angle from pointing quaternions, lane-vectorized."""
    x, y, z, w = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    dx = 2.0 * (x * z + w * y)
    dy = 2.0 * (y * z - w * x)
    dz = 1.0 - 2.0 * (x * x + y * y)
    ox = 1.0 - 2.0 * (y * y + z * z)
    oy = 2.0 * (x * y + w * z)
    oz = 2.0 * (x * z - w * y)
    pa_y = oy * dx - ox * dy
    pa_x = oz * (dx * dx + dy * dy) - dz * (ox * dx + oy * dy)
    polar = (dx * dx + dy * dy) < 1.0e-24
    return np.where(polar, np.arctan2(oy, ox), np.arctan2(pa_y, -pa_x))


@kernel("stokes_weights_IQU", ImplementationType.OMP_TARGET)
def stokes_weights_IQU(
    quats,
    weights_out,
    hwp_angle,
    epsilon,
    cal,
    starts,
    stops,
    accel=None,
    use_accel=False,
):
    n_det = quats.shape[0]
    n_ivl = len(starts)
    max_len = int(np.max(stops - starts)) if n_ivl else 0
    if max_len == 0:
        return

    d_quats = resolve_view(accel, quats, use_accel)
    d_out = resolve_view(accel, weights_out, use_accel)
    d_hwp = resolve_view(accel, hwp_angle, use_accel) if hwp_angle is not None else None
    d_eps = resolve_view(accel, epsilon, use_accel)

    def body(idet, iivl, lanes):
        keep = lanes < stops[iivl] - starts[iivl]
        idet = idet[keep]
        s = starts[iivl[keep]] + lanes[keep]
        eta = (1.0 - d_eps[idet]) / (1.0 + d_eps[idet])
        angle = _position_angle(d_quats[idet, s])
        if d_hwp is not None:
            angle = angle + 2.0 * d_hwp[s]
        d_out[idet, s, 0] = cal
        d_out[idet, s, 1] = cal * eta * np.cos(2.0 * angle)
        d_out[idet, s, 2] = cal * eta * np.sin(2.0 * angle)

    launcher_for(accel, use_accel)(
        "stokes_weights_IQU",
        (n_det, n_ivl, max_len),
        body,
        flops_per_iteration=60.0,
        bytes_per_iteration=64.0,
    )
