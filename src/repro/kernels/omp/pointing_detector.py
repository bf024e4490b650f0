"""pointing_detector, OpenMP Target Offload implementation."""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
from ...math.rows import put_lanes
from ...ompshim import LoopNest
from ..common import launcher_for, resolve_view


def _qa_mult_one(p, q):
    """Scalar-style quaternion product of the ``(x, y, z, w)`` components
    ``p`` and ``q``, broadcast over the loop indices."""
    px, py, pz, pw = p
    qx, qy, qz, qw = q
    out = np.empty(np.broadcast_shapes(px.shape, qx.shape) + (4,), dtype=np.float64)
    out[..., 0] = pw * qx + px * qw + py * qz - pz * qy
    out[..., 1] = pw * qy - px * qz + py * qw + pz * qx
    out[..., 2] = pw * qz + px * qy - py * qx + pz * qw
    out[..., 3] = pw * qw - px * qx - py * qy - pz * qz
    return out


@kernel("pointing_detector", ImplementationType.OMP_TARGET)
def pointing_detector(
    fp_quats,
    boresight,
    quats_out,
    starts,
    stops,
    shared_flags=None,
    mask=0,
    accel=None,
    use_accel=False,
):
    grid = LoopNest((fp_quats.shape[0], starts, stops))
    seg = grid.segments

    d_fp = resolve_view(accel, fp_quats, use_accel)
    d_bore = resolve_view(accel, boresight, use_accel)
    d_out = resolve_view(accel, quats_out, use_accel)
    d_flags = resolve_view(accel, shared_flags, use_accel) if shared_flags is not None else None

    def body(idet, _iivl, _lanes):
        fp = d_fp[idet]
        # The boresight gathered component-major: four contiguous rows.
        rotated = _qa_mult_one(seg.take(d_bore.T), np.moveaxis(fp, -1, 0))
        if d_flags is not None and mask:
            put_lanes(rotated, np.flatnonzero(seg.take(d_flags, axis=0) & mask), fp)
        seg.put(d_out, rotated)

    launcher_for(accel, use_accel)(
        "pointing_detector",
        grid,
        body,
        flops_per_iteration=28.0,
        bytes_per_iteration=72.0,
    )
