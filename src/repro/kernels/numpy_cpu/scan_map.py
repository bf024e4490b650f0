"""scan_map, batched CPU implementation.

Row-gathers the map at every (detector, sample) pixel in one pass.  The
Stokes contraction accumulates component by component in the reference
order, and flagged lanes are excluded with ``where=`` so untouched samples
keep their exact bits.
"""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
from ...math.rows import put_lanes, take_rows
from ..common import flatten_intervals


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
    flat = flatten_intervals(starts, stops)
    if flat.size == 0:
        return
    nnz = map_data.shape[1]
    pix = np.take(pixels, flat, axis=1)
    good = pix >= 0
    if not good.any():
        # Every in-interval sample is invalid: no map gather to do.  The
        # zeroing side effect still applies to in-interval lanes.
        if should_zero:
            put_lanes(tod, flat, 0.0)
        return
    safe = np.where(good, pix, 0)
    gathered = take_rows(map_data, safe)
    w = np.take(weights, flat, axis=1)
    sampled = np.zeros(pix.shape, dtype=np.float64)
    for k in range(nnz):
        sampled += gathered[..., k] * w[..., k]
    value = sampled * data_scale

    out = np.take(tod, flat, axis=1)
    if should_zero:
        out[...] = 0.0
    if should_subtract:
        np.subtract(out, value, out=out, where=good)
    else:
        np.add(out, value, out=out, where=good)
    put_lanes(tod, flat, out)
