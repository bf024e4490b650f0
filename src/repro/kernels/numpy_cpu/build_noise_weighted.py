"""build_noise_weighted, batched CPU implementation.

One flattened scatter-accumulation: the in-interval samples are gathered
run by run, flagged and invalid ones are dropped (not zero-padded), and
``add_rows`` applies the surviving contributions in sample-major (detector
inner) order -- exactly the order the scalar reference visits, so
duplicate-pixel accumulation is bitwise identical to it, and windowed
streaming over the sample axis reproduces the full-observation sum for any
window size.
"""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
from ...math.rows import add_rows, take_rows
from ...math.segments import segments


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
    seg = segments(starts, stops)
    if not seg.n_samples:
        return
    # The working set is gathered sample-major (detector inner): the order
    # the reference visits, so its row-major survivors scatter in order.
    pix = seg.take(pixels.T, axis=0)
    good = pix >= 0
    if shared_flags is not None and mask:
        good &= ((seg.take(shared_flags, axis=0) & mask) == 0)[:, None]
    if det_flags is not None and det_mask:
        good &= (seg.take(det_flags.T, axis=0) & det_mask) == 0
    if not good.any():
        # Fully flag-masked: no scatter work to build.
        return
    keep = np.flatnonzero(good)
    z = det_scale * seg.take(tod.T, axis=0)
    contrib = z[..., None] * seg.take(weights.transpose(1, 0, 2), axis=0)
    add_rows(zmap, pix.reshape(-1)[keep], take_rows(contrib, keep, lead=2))
