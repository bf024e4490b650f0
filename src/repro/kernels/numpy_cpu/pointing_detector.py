"""pointing_detector, batched CPU implementation.

One quaternion multiply over the full ``(n_det, n_samples)`` working set,
component-major in and out: the boresight gathered as four contiguous
rows, the product as four contiguous ``(n_det, n_samples)`` blocks that
the segment mover interleaves as it writes them out.  The quaternion
algebra is elementwise, so batching keeps results bitwise identical to
the per-sample reference.
"""

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
    rotated = qa.mult_by_component(seg.take(boresight.T), fp_quats.T[:, :, None])
    if shared_flags is not None and mask:
        lanes = (seg.take(shared_flags, axis=0) & mask).nonzero()[0]
        rows = rotated.shape[0] * rotated.shape[1]
        put_lanes(rotated.reshape(rows, -1), lanes, fp_quats.T.reshape(rows, 1))
    seg.put(quats_out, rotated.transpose(1, 2, 0))
