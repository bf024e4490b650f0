"""stokes_weights_I, batched CPU implementation."""

from ...core.dispatch import ImplementationType, kernel
from ...math.rows import put_lanes
from ..common import flatten_intervals


@kernel("stokes_weights_I", ImplementationType.NUMPY)
def stokes_weights_I(
    weights_out,
    cal,
    starts,
    stops,
    accel=None,
    use_accel=False,
):
    flat = flatten_intervals(starts, stops)
    if flat.size == 0:
        return
    put_lanes(weights_out, flat, cal)
