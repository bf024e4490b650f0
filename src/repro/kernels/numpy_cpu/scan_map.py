"""scan_map, batched CPU implementation.

Row-gathers the map at every (detector, sample) pixel in one pass.  The
Stokes contraction accumulates component by component in the reference
order, and flagged lanes are excluded with ``where=`` so untouched samples
keep their exact bits.
"""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
from ...math.rows import take_rows
from ...math.segments import segments


@kernel("scan_map", ImplementationType.NUMPY)
def scan_map(
    map_data,
    pixels,
    weights,
    tod,
    starts,
    stops,
    data_scale=1.0,
    should_zero=False,
    should_subtract=False,
    accel=None,
    use_accel=False,
):
    seg = segments(starts, stops)
    if not seg.n_samples:
        return
    nnz = map_data.shape[1]
    pix = seg.take(pixels)
    good = pix >= 0
    if not good.any():
        # Every in-interval sample is invalid: no map gather to do.  The
        # zeroing side effect still applies to in-interval lanes.
        if should_zero:
            seg.put(tod, 0.0)
        return
    safe = np.where(good, pix, 0)
    terms = take_rows(map_data, safe) * seg.take(weights)
    sampled = np.zeros(pix.shape, dtype=np.float64)
    for k in range(nnz):
        sampled += terms[..., k]
    value = sampled * data_scale

    out = seg.take(tod)
    if should_zero:
        out[...] = 0.0
    if should_subtract:
        np.subtract(out, value, out=out, where=good)
    else:
        np.add(out, value, out=out, where=good)
    seg.put(tod, out)
