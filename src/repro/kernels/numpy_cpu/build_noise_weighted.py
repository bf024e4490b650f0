"""build_noise_weighted, batched CPU implementation.

One flattened scatter-accumulation: flagged and invalid samples are
filtered out (not zero-padded), their samples are gathered by flat
``det * n_samp + sample`` rows, and ``add_rows`` applies the surviving
contributions in sample-major (detector inner) order -- exactly the order
the scalar reference visits, so duplicate-pixel accumulation is bitwise
identical to it, and windowed streaming over the sample axis reproduces the
full-observation sum for any window size.
"""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
from ...math.rows import add_rows, take_rows
from ..common import flatten_intervals


@kernel("build_noise_weighted", ImplementationType.NUMPY)
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
    flat = flatten_intervals(starts, stops)
    if flat.size == 0:
        return
    pix = np.take(pixels, flat, axis=1)
    good = pix >= 0
    if shared_flags is not None and mask:
        good &= ((shared_flags[flat] & mask) == 0)[None, :]
    if det_flags is not None and det_mask:
        good &= (np.take(det_flags, flat, axis=1) & det_mask) == 0
    if not good.any():
        # Fully flag-masked: no scatter work to build.
        return
    # Compress to the surviving lanes before computing contributions --
    # transposing before np.nonzero enumerates lanes sample-major
    # (detector inner), preserving the canonical scatter order.
    lane_idx, det_idx = np.nonzero(good.T)
    row = det_idx * pixels.shape[1] + flat[lane_idx]
    z = det_scale[det_idx] * take_rows(tod, row, lead=2)
    contrib = z[:, None] * take_rows(weights, row, lead=2)
    add_rows(zmap, take_rows(pix, det_idx * len(flat) + lane_idx, lead=2), contrib)
