"""stokes_weights_IQU, batched CPU implementation.

Position angles for all detectors and in-interval samples are recovered in
one elementwise pass; the I/Q/U weight products keep the reference's
left-to-right multiplication order so results match bitwise, and land in
one preallocated ``(n_det, n_samples, 3)`` array.
"""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
from ...math import qa
from ...math.segments import segments


@kernel("stokes_weights_IQU", ImplementationType.NUMPY)
def stokes_weights_IQU(
    quats,
    weights_out,
    hwp_angle,
    epsilon,
    cal,
    starts,
    stops,
    accel=None,
    use_accel=False,
):
    seg = segments(starts, stops)
    if not seg.n_samples:
        return
    eta = (1.0 - epsilon) / (1.0 + epsilon)
    angle = qa.position_angle(seg.take(quats))
    if hwp_angle is not None:
        angle = angle + 2.0 * seg.take(hwp_angle, axis=0)
    scale = cal * eta[:, None]
    iqu = np.empty(angle.shape + (3,))
    iqu[..., 0] = cal
    np.multiply(scale, np.cos(2.0 * angle), out=iqu[..., 1])
    np.multiply(scale, np.sin(2.0 * angle), out=iqu[..., 2])
    seg.put(weights_out, iqu)
