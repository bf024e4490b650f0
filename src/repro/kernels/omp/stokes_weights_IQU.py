"""stokes_weights_IQU, OpenMP Target Offload implementation."""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
from ...ompshim import LoopNest
from ..common import launcher_for, resolve_view


def _position_angle(q):
    """Position angle from pointing quaternions, lane-vectorized; the polar
    fallback runs on the polar lanes only."""
    x, y, z, w = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    dx = 2.0 * (x * z + w * y)
    dy = 2.0 * (y * z - w * x)
    dz = 1.0 - 2.0 * (x * x + y * y)
    ox = 1.0 - 2.0 * (y * y + z * z)
    oy = 2.0 * (x * y + w * z)
    oz = 2.0 * (x * z - w * y)
    sin2 = dx * dx + dy * dy
    pa_y = oy * dx - ox * dy
    pa_x = oz * sin2 - dz * (ox * dx + oy * dy)
    pa = np.arctan2(pa_y, -pa_x)
    polar = sin2 < 1.0e-24
    if polar.any():
        pa[polar] = np.arctan2(oy[polar], ox[polar])
    return pa


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
    grid = LoopNest((quats.shape[0], starts, stops))
    seg = grid.segments

    d_quats = resolve_view(accel, quats, use_accel)
    d_out = resolve_view(accel, weights_out, use_accel)
    d_hwp = resolve_view(accel, hwp_angle, use_accel) if hwp_angle is not None else None
    d_eps = resolve_view(accel, epsilon, use_accel)

    def body(idet, _iivl, _lanes):
        eta = (1.0 - d_eps[idet]) / (1.0 + d_eps[idet])
        angle = _position_angle(seg.take(d_quats))
        if d_hwp is not None:
            angle = angle + 2.0 * seg.take(d_hwp, axis=0)
        scale = cal * eta
        iqu = np.empty(angle.shape + (3,))
        iqu[..., 0] = cal
        np.multiply(scale, np.cos(2.0 * angle), out=iqu[..., 1])
        np.multiply(scale, np.sin(2.0 * angle), out=iqu[..., 2])
        seg.put(d_out, iqu)

    launcher_for(accel, use_accel)(
        "stokes_weights_IQU",
        grid,
        body,
        flops_per_iteration=60.0,
        bytes_per_iteration=64.0,
    )
