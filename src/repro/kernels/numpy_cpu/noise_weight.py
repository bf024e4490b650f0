"""noise_weight, batched CPU implementation."""

from ...core.dispatch import ImplementationType, kernel
from ...math.segments import segments


@kernel("noise_weight", ImplementationType.NUMPY)
def noise_weight(
    tod,
    det_weights,
    starts,
    stops,
    accel=None,
    use_accel=False,
):
    seg = segments(starts, stops)
    seg.put(tod, seg.take(tod) * det_weights[:, None])
