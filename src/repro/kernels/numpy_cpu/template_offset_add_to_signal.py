"""template_offset_add_to_signal, batched CPU implementation."""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
from ...math.rows import put_lanes
from ..common import flatten_intervals


@kernel("template_offset_add_to_signal", ImplementationType.NUMPY)
def template_offset_add_to_signal(
    step_length,
    amplitudes,
    amp_offsets,
    tod,
    starts,
    stops,
    accel=None,
    use_accel=False,
):
    flat = flatten_intervals(starts, stops)
    if flat.size == 0:
        return
    amp = amp_offsets[:, None] + flat[None, :] // step_length
    put_lanes(tod, flat, np.take(tod, flat, axis=1) + amplitudes[amp])
