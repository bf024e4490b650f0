"""noise_weight, batched CPU implementation."""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
from ...math.rows import put_lanes
from ..common import flatten_intervals


@kernel("noise_weight", ImplementationType.NUMPY)
def noise_weight(
    tod,
    det_weights,
    starts,
    stops,
    accel=None,
    use_accel=False,
):
    flat = flatten_intervals(starts, stops)
    if flat.size == 0:
        return
    put_lanes(tod, flat, np.take(tod, flat, axis=1) * det_weights[:, None])
