"""stokes_weights_I, batched CPU implementation."""

from ...core.dispatch import ImplementationType, kernel
from ...math.segments import segments


@kernel("stokes_weights_I", ImplementationType.NUMPY)
def stokes_weights_I(
    weights_out,
    cal,
    starts,
    stops,
    accel=None,
    use_accel=False,
):
    segments(starts, stops).put(weights_out, cal)
