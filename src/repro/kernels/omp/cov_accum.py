"""cov_accum_diag_hits / cov_accum_diag_invnpp, OpenMP Target Offload."""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
from ...math.rows import add_rows, take_rows
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
    n_det, n_samp = pixels.shape

    d_hits = resolve_view(accel, hits, use_accel)
    d_pix = resolve_view(accel, pixels, use_accel)

    def body(idet, iivl, lanes):
        s = starts[iivl] + lanes
        row = idet * n_samp + s
        pix = take_rows(d_pix, row, lead=2)
        good = pix >= 0
        np.add.at(d_hits, pix[good], 1)

    launcher_for(accel, use_accel)(
        "cov_accum_diag_hits",
        (n_det, starts, stops),
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
    n_det, n_samp = pixels.shape
    nnz = weights.shape[2]
    tri = [(i, j) for i in range(nnz) for j in range(i, nnz)]

    d_inv = resolve_view(accel, invnpp, use_accel)
    d_pix = resolve_view(accel, pixels, use_accel)
    d_wts = resolve_view(accel, weights, use_accel)
    d_scale = resolve_view(accel, det_scale, use_accel)

    def body(idet, iivl, lanes):
        s = starts[iivl] + lanes
        row = idet * n_samp + s
        pix = take_rows(d_pix, row, lead=2)
        good = pix >= 0
        w = take_rows(d_wts, row[good], lead=2)
        g = np.broadcast_to(d_scale[idet], good.shape)[good]
        outer = np.stack([g * w[..., i] * w[..., j] for i, j in tri], axis=-1)
        add_rows(d_inv, pix[good], outer)

    launcher_for(accel, use_accel)(
        "cov_accum_diag_invnpp",
        (n_det, starts, stops),
        body,
        flops_per_iteration=18.0,
        bytes_per_iteration=104.0,
    )
