"""cov_accum_diag_hits / cov_accum_diag_invnpp, OpenMP Target Offload."""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
from ...math.rows import add_rows, take_rows
from ...ompshim import LoopNest
from ..common import launcher_for, resolve_view


@kernel("cov_accum_diag_hits", ImplementationType.OMP_TARGET)
def cov_accum_diag_hits(
    hits,
    pixels,
    starts,
    stops,
    accel=None,
    use_accel=False,
):
    grid = LoopNest((pixels.shape[0], starts, stops))
    seg = grid.segments

    d_hits = resolve_view(accel, hits, use_accel)
    d_pix = resolve_view(accel, pixels, use_accel)

    def body(_idet, _iivl, _lanes):
        pix = seg.take(d_pix)
        np.add.at(d_hits, pix[pix >= 0], 1)

    launcher_for(accel, use_accel)(
        "cov_accum_diag_hits",
        grid,
        body,
        flops_per_iteration=2.0,
        bytes_per_iteration=24.0,
    )


@kernel("cov_accum_diag_invnpp", ImplementationType.OMP_TARGET)
def cov_accum_diag_invnpp(
    invnpp,
    pixels,
    weights,
    det_scale,
    starts,
    stops,
    accel=None,
    use_accel=False,
):
    grid = LoopNest((pixels.shape[0], starts, stops))
    seg = grid.segments
    nnz = weights.shape[2]
    tri = [(i, j) for i in range(nnz) for j in range(i, nnz)]

    d_inv = resolve_view(accel, invnpp, use_accel)
    d_pix = resolve_view(accel, pixels, use_accel)
    d_wts = resolve_view(accel, weights, use_accel)
    d_scale = resolve_view(accel, det_scale, use_accel)

    def body(idet, _iivl, _lanes):
        pix = seg.take(d_pix)
        good = pix >= 0
        w = take_rows(seg.take(d_wts), np.flatnonzero(good), lead=2)
        g = np.broadcast_to(d_scale[idet], good.shape)[good]
        outer = np.stack([g * w[..., i] * w[..., j] for i, j in tri], axis=-1)
        add_rows(d_inv, pix[good], outer)

    launcher_for(accel, use_accel)(
        "cov_accum_diag_invnpp",
        grid,
        body,
        flops_per_iteration=18.0,
        bytes_per_iteration=104.0,
    )
