"""build_noise_weighted, OpenMP Target Offload implementation.

Each (detector, interval, lane) launcher iteration computes its
contribution into its own slot of a scratch buffer -- write-disjoint, so
iteration order is free, as it is on the device.  The scratch is laid out
sample-major (the interval's offset among the in-interval samples plus the
lane, detector inner), so the map commit is a single ordered scatter
(:func:`~repro.math.rows.add_rows`) over it in that order, standing in for
the device kernel's atomic adds with the repo-wide canonical accumulation
order -- the order that makes windowed streaming over the sample axis
bitwise identical to a full-observation run.  The commit runs through
``after_launch``, so a stacked launch commits each observation after the
whole group's loop.
"""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
from ...math.rows import add_rows, put_rows, take_rows
from ...math.segments import segments
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
    n_det, n_samp = pixels.shape
    seg = segments(starts, stops)

    d_zmap = resolve_view(accel, zmap, use_accel)
    d_pix = resolve_view(accel, pixels, use_accel)
    d_wts = resolve_view(accel, weights, use_accel)
    d_tod = resolve_view(accel, tod, use_accel)
    d_scale = resolve_view(accel, det_scale, use_accel)
    d_flags = resolve_view(accel, shared_flags, use_accel) if shared_flags is not None else None
    d_det_flags = resolve_view(accel, det_flags, use_accel) if det_flags is not None else None

    nnz = d_zmap.shape[1]
    pix_buf = np.zeros((seg.n_samples, n_det), dtype=np.int64)
    contrib_buf = np.zeros((seg.n_samples, n_det, nnz), dtype=d_zmap.dtype)

    def body(idet, iivl, lanes):
        s = starts[iivl] + lanes
        row = idet * n_samp + s
        pix = take_rows(d_pix, row, lead=2)
        good = pix >= 0
        if d_flags is not None and mask:
            good = good & ((d_flags[s] & mask) == 0)
        if d_det_flags is not None and det_mask:
            good = good & ((take_rows(d_det_flags, row, lead=2) & det_mask) == 0)
        z = d_scale[idet] * take_rows(d_tod, row, lead=2)
        contrib = z[..., None] * take_rows(d_wts, row, lead=2)
        slot = (seg.offsets[iivl] + lanes) * n_det + idet
        # Flagged lanes add (pixel 0, contribution 0.0): a no-op add.
        put_rows(pix_buf, slot, np.where(good, pix, 0), lead=2)
        put_rows(contrib_buf, slot, np.where(good[..., None], contrib, 0.0), lead=2)

    def commit():
        # Ordered commit: intervals are sorted and lanes ascend within each,
        # so the scratch holds samples in ascending order with detectors inner.
        add_rows(d_zmap, pix_buf.reshape(-1), contrib_buf.reshape(-1, nnz))

    launcher_for(accel, use_accel)(
        "build_noise_weighted",
        (n_det, starts, stops),
        body,
        flops_per_iteration=10.0,
        bytes_per_iteration=96.0,
    )
    after_launch(commit)
