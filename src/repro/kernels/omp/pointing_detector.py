"""pointing_detector, OpenMP Target Offload implementation."""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
from ..common import launcher_for, resolve_view


def _qa_mult_one(p, q):
    """Scalar-style quaternion product, vectorized over the sample lanes."""
    px, py, pz, pw = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    qx, qy, qz, qw = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    out = np.empty(p.shape[:-1] + (4,), dtype=np.float64)
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
    n_det = fp_quats.shape[0]
    n_ivl = len(starts)
    max_len = int(np.max(stops - starts)) if n_ivl else 0
    if max_len == 0:
        return

    d_fp = resolve_view(accel, fp_quats, use_accel)
    d_bore = resolve_view(accel, boresight, use_accel)
    d_out = resolve_view(accel, quats_out, use_accel)
    d_flags = resolve_view(accel, shared_flags, use_accel) if shared_flags is not None else None

    def body(idet, iivl, lanes):
        keep = lanes < stops[iivl] - starts[iivl]  # the interval guard
        idet = idet[keep]
        s = starts[iivl[keep]] + lanes[keep]
        rotated = _qa_mult_one(d_bore[s], d_fp[idet])
        if d_flags is not None and mask:
            flagged = (d_flags[s] & mask) != 0
            rotated = np.where(flagged[:, None], d_fp[idet], rotated)
        d_out[idet, s] = rotated

    launcher_for(accel, use_accel)(
        "pointing_detector",
        (n_det, n_ivl, max_len),
        body,
        flops_per_iteration=28.0,
        bytes_per_iteration=72.0,
    )
