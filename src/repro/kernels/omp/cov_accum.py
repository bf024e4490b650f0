"""cov_accum_diag_hits / cov_accum_diag_invnpp, OpenMP Target Offload."""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
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
    n_det = pixels.shape[0]
    n_ivl = len(starts)
    max_len = int(np.max(stops - starts)) if n_ivl else 0
    if max_len == 0:
        return

    d_hits = resolve_view(accel, hits, use_accel)
    d_pix = resolve_view(accel, pixels, use_accel)

    def body(idet, iivl, lanes):
        keep = lanes < stops[iivl] - starts[iivl]
        idet = idet[keep]
        s = starts[iivl[keep]] + lanes[keep]
        pix = d_pix[idet, s]
        good = pix >= 0
        np.add.at(d_hits, pix[good], 1)

    launcher_for(accel, use_accel)(
        "cov_accum_diag_hits",
        (n_det, n_ivl, max_len),
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
    n_det = pixels.shape[0]
    n_ivl = len(starts)
    max_len = int(np.max(stops - starts)) if n_ivl else 0
    if max_len == 0:
        return
    nnz = weights.shape[2]
    tri = [(i, j) for i in range(nnz) for j in range(i, nnz)]

    d_inv = resolve_view(accel, invnpp, use_accel)
    d_pix = resolve_view(accel, pixels, use_accel)
    d_wts = resolve_view(accel, weights, use_accel)
    d_scale = resolve_view(accel, det_scale, use_accel)

    def body(idet, iivl, lanes):
        keep = lanes < stops[iivl] - starts[iivl]
        idet = idet[keep]
        s = starts[iivl[keep]] + lanes[keep]
        pix = d_pix[idet, s]
        good = pix >= 0
        p = pix[good]
        w = d_wts[idet, s][good]
        g = d_scale[idet][good]
        outer = np.stack([g * w[:, i] * w[:, j] for i, j in tri], axis=1)
        np.add.at(d_inv, p, outer)

    launcher_for(accel, use_accel)(
        "cov_accum_diag_invnpp",
        (n_det, n_ivl, max_len),
        body,
        flops_per_iteration=18.0,
        bytes_per_iteration=104.0,
    )
