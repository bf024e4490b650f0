"""template_offset_project_signal, batched CPU implementation.

The transpose of add_to_signal as one ordered scatter: ``np.add.at``
accumulates detector-major, sample order -- the reference loop order -- so
the blocked dot products agree bitwise.
"""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
from ...math.segments import segments


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
    seg = segments(starts, stops)
    if not seg.n_samples:
        return
    amp = amp_offsets[:, None] + seg.flat[None, :] // step_length
    np.add.at(amplitudes, amp, seg.take(tod))
