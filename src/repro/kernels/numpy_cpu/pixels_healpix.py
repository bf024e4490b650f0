"""pixels_healpix, batched CPU implementation.

The branch-heavy kernel the paper singles out (§4.2): here the flag branch
becomes one write to the flagged lanes of the ``(n_det, n_flat)`` working set.
"""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
from ...healpix import ang2pix
from ...math import qa
from ...math.rows import put_lanes
from ..common import flatten_intervals


@kernel("pixels_healpix", ImplementationType.NUMPY)
def pixels_healpix(
    quats,
    pixels_out,
    nside,
    nest,
    starts,
    stops,
    shared_flags=None,
    mask=0,
    accel=None,
    use_accel=False,
):
    flat = flatten_intervals(starts, stops)
    if flat.size == 0:
        return
    theta, phi = qa.to_position(np.take(quats, flat, axis=1))
    pix = ang2pix(nside, theta, phi, nest=nest)
    if shared_flags is not None and mask:
        put_lanes(pix, np.flatnonzero(shared_flags[flat] & mask), -1)
    put_lanes(pixels_out, flat, pix)
