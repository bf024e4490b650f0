"""stokes_weights_IQU, batched CPU implementation.

Position angles for all detectors and in-interval samples are recovered in
one elementwise pass; the I/Q/U weight products keep the reference's
left-to-right multiplication order so results match bitwise.
"""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
from ...math import qa
from ...math.rows import put_lanes
from ..common import flatten_intervals


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
    flat = flatten_intervals(starts, stops)
    if flat.size == 0:
        return
    eta = (1.0 - epsilon) / (1.0 + epsilon)
    angle = qa.position_angle(np.take(quats, flat, axis=1))
    if hwp_angle is not None:
        angle = angle + 2.0 * hwp_angle[flat]
    iqu = (
        np.full_like(angle, cal),
        cal * eta[:, None] * np.cos(2.0 * angle),
        cal * eta[:, None] * np.sin(2.0 * angle),
    )
    put_lanes(weights_out, flat, np.stack(iqu, axis=-1))
