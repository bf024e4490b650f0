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
from ..common import flatten_intervals


@kernel("cov_accum_diag_hits", ImplementationType.NUMPY)
def cov_accum_diag_hits(
    hits,
    pixels,
    starts,
    stops,
    accel=None,
    use_accel=False,
):
    flat = flatten_intervals(starts, stops)
    if flat.size == 0:
        return
    pix = np.take(pixels, flat, axis=1)
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
    flat = flatten_intervals(starts, stops)
    if flat.size == 0:
        return
    nnz = weights.shape[2]
    tri = [(i, j) for i in range(nnz) for j in range(i, nnz)]
    pix = np.take(pixels, flat, axis=1)
    good = pix >= 0
    if not good.any():
        return
    # Build the outer-product triangle only for surviving lanes; nonzero's
    # row-major order keeps the reference's detector-major scatter order.
    det_idx, lane_idx = np.nonzero(good)
    w = take_rows(weights, det_idx * pixels.shape[1] + flat[lane_idx], lead=2)
    g = det_scale[det_idx]
    outer = np.stack([g * w[:, i] * w[:, j] for i, j in tri], axis=-1)
    add_rows(invnpp, pix[good], outer)
