"""cov_accum_diag_hits / cov_accum_diag_invnpp, batched CPU.

Both accumulate with a single filtered ordered scatter (``np.add.at``
into the 1-D hit map, ``add_rows`` into the invnpp blocks) in
detector-major, sample order (the reference order); the invnpp
outer-product triangle keeps the reference's ``(g * w_i) * w_j``
multiplication order.
"""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
from ...math.rows import add_rows, take_rows
from ...math.segments import segments


@kernel("cov_accum_diag_hits", ImplementationType.NUMPY)
def cov_accum_diag_hits(
    hits,
    pixels,
    starts,
    stops,
    accel=None,
    use_accel=False,
):
    seg = segments(starts, stops)
    if not seg.n_samples:
        return
    pix = seg.take(pixels)
    good = pix >= 0
    if not good.any():
        return
    np.add.at(hits, pix[good], 1)


@kernel("cov_accum_diag_invnpp", ImplementationType.NUMPY)
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
    seg = segments(starts, stops)
    if not seg.n_samples:
        return
    nnz = weights.shape[2]
    tri = [(i, j) for i in range(nnz) for j in range(i, nnz)]
    pix = seg.take(pixels)
    good = pix >= 0
    if not good.any():
        return
    # Build the outer-product triangle only for surviving lanes; the mask's
    # row-major order keeps the reference's detector-major scatter order.
    keep = np.flatnonzero(good)
    w = take_rows(seg.take(weights), keep, lead=2)
    g = np.broadcast_to(det_scale[:, None], good.shape)[good]
    outer = np.stack([g * w[:, i] * w[:, j] for i, j in tri], axis=-1)
    add_rows(invnpp, pix[good], outer)
