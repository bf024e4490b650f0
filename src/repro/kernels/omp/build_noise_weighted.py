"""build_noise_weighted, OpenMP Target Offload implementation.

Each (detector, interval, lane) launcher iteration computes its
contribution into its own slot of a scratch buffer -- write-disjoint, so
iteration order is free, as it is on the device.  The scratch is laid out
sample-major (the sample's position among the in-interval samples, detector
inner), and the body multiplies straight into it through a detector-major
view, so the map commit is a single ordered scatter
(:func:`~repro.math.rows.add_rows`) over it in that order, standing in for
the device kernel's atomic adds with the repo-wide canonical accumulation
order -- the order that makes windowed streaming over the sample axis
bitwise identical to a full-observation run.  The commit runs through
``after_launch``, so a stacked launch commits each observation after the
whole group's loop.
"""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
from ...math.rows import add_rows
from ...ompshim import LoopNest
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
    grid = LoopNest((n_det, starts, stops))
    seg = grid.segments

    d_zmap = resolve_view(accel, zmap, use_accel)
    d_pix = resolve_view(accel, pixels, use_accel)
    d_wts = resolve_view(accel, weights, use_accel)
    d_tod = resolve_view(accel, tod, use_accel)
    d_scale = resolve_view(accel, det_scale, use_accel)
    d_flags = resolve_view(accel, shared_flags, use_accel) if shared_flags is not None else None
    d_det_flags = resolve_view(accel, det_flags, use_accel) if det_flags is not None else None

    nnz = d_zmap.shape[1]
    pix_buf = np.empty((seg.n_samples, n_det), dtype=np.int64)
    contrib_buf = np.empty((seg.n_samples, n_det, nnz), dtype=d_zmap.dtype)

    def body(idet, _iivl, _lanes):
        # Detector-major views of the sample-major scratch.
        pix, contrib = pix_buf.T, contrib_buf.transpose(1, 0, 2)
        pix[...] = seg.take(d_pix)
        good = pix >= 0
        if d_flags is not None and mask:
            good &= (seg.take(d_flags, axis=0) & mask) == 0
        if d_det_flags is not None and det_mask:
            good &= (seg.take(d_det_flags) & det_mask) == 0
        z = d_scale[idet] * seg.take(d_tod)
        np.multiply(z[..., None], seg.take(d_wts), out=contrib)
        # Flagged lanes add (pixel 0, contribution 0.0): a no-op add.
        flagged = ~good
        pix[flagged] = 0
        contrib[flagged] = 0.0

    def commit():
        # Ordered commit: intervals are sorted and lanes ascend within each,
        # so the scratch holds samples in ascending order with detectors inner.
        add_rows(d_zmap, pix_buf.reshape(-1), contrib_buf.reshape(-1, nnz))

    launcher_for(accel, use_accel)(
        "build_noise_weighted",
        grid,
        body,
        flops_per_iteration=10.0,
        bytes_per_iteration=96.0,
    )
    after_launch(commit)
