"""pointing_detector, batched CPU implementation.

One quaternion multiply over the full ``(n_det, n_flat)`` working set; the
quaternion algebra is elementwise, so batching keeps results bitwise
identical to the per-sample reference.
"""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
from ...math import qa
from ...math.rows import put_lanes, take_rows
from ..common import flatten_intervals


@kernel("pointing_detector", ImplementationType.NUMPY)
def pointing_detector(
    fp_quats,
    boresight,
    quats_out,
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
    rotated = qa.mult(take_rows(boresight, flat)[None, :, :], fp_quats[:, None, :])
    if shared_flags is not None and mask:
        put_lanes(rotated, np.flatnonzero(shared_flags[flat] & mask), fp_quats[:, None, :])
    put_lanes(quats_out, flat, rotated)
