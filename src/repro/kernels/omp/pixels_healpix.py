"""pixels_healpix, OpenMP Target Offload implementation.

The compiled kernel keeps its branches (the equatorial/polar split); GPUs
handle them better here than in the JAX port because each team's lanes
usually fall on the same side of the branch (§4.2: 41x vs 11x).
"""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
from ...healpix import ang2pix
from ...math.rows import put_lanes
from ...ompshim import LoopNest
from ..common import launcher_for, resolve_view


@kernel("pixels_healpix", ImplementationType.OMP_TARGET)
def pixels_healpix(
    quats,
    pixels_out,
    nside,
    nest,
    starts,
    stops,
    shared_flags=None,
    mask=0,
    accel=None,
    use_accel=False,
):
    grid = LoopNest((quats.shape[0], starts, stops))
    seg = grid.segments

    d_quats = resolve_view(accel, quats, use_accel)
    d_out = resolve_view(accel, pixels_out, use_accel)
    d_flags = resolve_view(accel, shared_flags, use_accel) if shared_flags is not None else None

    def body(_idet, _iivl, _lanes):
        q = seg.take(d_quats)
        x, y, z, w = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
        dir_x = 2.0 * (x * z + w * y)
        dir_y = 2.0 * (y * z - w * x)
        dir_z = 1.0 - 2.0 * (x * x + y * y)
        theta = np.arccos(np.clip(dir_z, -1.0, 1.0))
        phi = np.arctan2(dir_y, dir_x)
        pix = ang2pix(nside, theta, phi, nest=nest)
        if d_flags is not None and mask:
            put_lanes(pix, np.flatnonzero(seg.take(d_flags, axis=0) & mask), -1)
        seg.put(d_out, pix)

    launcher_for(accel, use_accel)(
        "pixels_healpix",
        grid,
        body,
        flops_per_iteration=80.0,
        bytes_per_iteration=48.0,
    )
