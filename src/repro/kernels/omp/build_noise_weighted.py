"""build_noise_weighted, OpenMP Target Offload implementation.

Each (detector, interval) launcher iteration computes its contributions
into a private slice of a scratch buffer -- write-disjoint, so iteration
order is free, as it is on the device.  The map commit is a single
unbuffered scatter (``np.add.at``) over the scratch in sample-major
(detector inner) order, standing in for the device kernel's atomic adds
with the repo-wide canonical accumulation order -- the order that makes
windowed streaming over the sample axis bitwise identical to a
full-observation run.  The commit runs through ``after_launch``, so a
stacked launch commits each observation after the whole group's loop.
"""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
from ..common import after_launch, launcher_for, resolve_view


@kernel("build_noise_weighted", ImplementationType.OMP_TARGET)
def build_noise_weighted(
    zmap,
    pixels,
    weights,
    tod,
    det_scale,
    starts,
    stops,
    shared_flags=None,
    mask=0,
    det_flags=None,
    det_mask=0,
    accel=None,
    use_accel=False,
):
    n_det = pixels.shape[0]
    n_ivl = len(starts)
    max_len = int(np.max(stops - starts)) if n_ivl else 0
    if max_len == 0:
        return

    d_zmap = resolve_view(accel, zmap, use_accel)
    d_pix = resolve_view(accel, pixels, use_accel)
    d_wts = resolve_view(accel, weights, use_accel)
    d_tod = resolve_view(accel, tod, use_accel)
    d_scale = resolve_view(accel, det_scale, use_accel)
    d_flags = resolve_view(accel, shared_flags, use_accel) if shared_flags is not None else None
    d_det_flags = resolve_view(accel, det_flags, use_accel) if det_flags is not None else None

    nnz = d_zmap.shape[1]
    # Padded lanes stay (pixel 0, contribution 0.0): a no-op add.
    pix_buf = np.zeros((n_det, n_ivl, max_len), dtype=np.int64)
    contrib_buf = np.zeros((n_det, n_ivl, max_len, nnz), dtype=d_zmap.dtype)

    def body(idet, iivl, lanes):
        keep = lanes < stops[iivl] - starts[iivl]
        idet, iivl, lanes = idet[keep], iivl[keep], lanes[keep]
        s = starts[iivl] + lanes
        pix = d_pix[idet, s]
        good = pix >= 0
        if d_flags is not None and mask:
            good = good & ((d_flags[s] & mask) == 0)
        if d_det_flags is not None and det_mask:
            good = good & ((d_det_flags[idet, s] & det_mask) == 0)
        z = d_scale[idet] * d_tod[idet, s]
        pix_buf[idet, iivl, lanes] = np.where(good, pix, 0)
        contrib_buf[idet, iivl, lanes] = np.where(
            good[:, None], z[:, None] * d_wts[idet, s], 0.0
        )

    def commit():
        # Ordered commit: intervals are sorted and lanes ascend within each,
        # so this enumerates samples in ascending order with detectors inner.
        pix_all = pix_buf.transpose(1, 2, 0).reshape(-1)
        contrib_all = contrib_buf.transpose(1, 2, 0, 3).reshape(-1, nnz)
        np.add.at(d_zmap, pix_all, contrib_all)

    launcher_for(accel, use_accel)(
        "build_noise_weighted",
        (n_det, n_ivl, max_len),
        body,
        flops_per_iteration=10.0,
        bytes_per_iteration=96.0,
    )
    after_launch(commit)
