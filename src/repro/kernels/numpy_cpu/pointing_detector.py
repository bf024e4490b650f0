"""pointing_detector, batched CPU implementation.

One quaternion multiply over the full ``(n_det, n_samples)`` working set,
reading the boresight gathered component-major (four contiguous rows); the
quaternion algebra is elementwise, so batching keeps results bitwise
identical to the per-sample reference.
"""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
from ...math import qa
from ...math.rows import put_lanes
from ...math.segments import segments


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
    seg = segments(starts, stops)
    if not seg.n_samples:
        return
    rotated = qa.mult_components(seg.take(boresight.T), fp_quats.T[:, :, None])
    if shared_flags is not None and mask:
        lanes = np.flatnonzero(seg.take(shared_flags, axis=0) & mask)
        put_lanes(rotated, lanes, fp_quats[:, None, :])
    seg.put(quats_out, rotated)
