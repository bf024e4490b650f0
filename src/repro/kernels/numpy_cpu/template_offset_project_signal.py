"""template_offset_project_signal, batched CPU implementation.

The transpose of add_to_signal as one ordered scatter: ``np.add.at``
accumulates detector-major, sample order -- the reference loop order -- so
the blocked dot products agree bitwise.
"""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
from ..common import flatten_intervals


@kernel("template_offset_project_signal", ImplementationType.NUMPY)
def template_offset_project_signal(
    step_length,
    tod,
    amplitudes,
    amp_offsets,
    starts,
    stops,
    accel=None,
    use_accel=False,
):
    flat = flatten_intervals(starts, stops)
    if flat.size == 0:
        return
    amp = amp_offsets[:, None] + flat[None, :] // step_length
    np.add.at(amplitudes, amp, np.take(tod, flat, axis=1))
