"""template_offset_add_to_signal, batched CPU implementation."""

from ...core.dispatch import ImplementationType, kernel
from ...math.segments import segments


@kernel("template_offset_add_to_signal", ImplementationType.NUMPY)
def template_offset_add_to_signal(
    step_length,
    amplitudes,
    amp_offsets,
    tod,
    starts,
    stops,
    accel=None,
    use_accel=False,
):
    seg = segments(starts, stops)
    if not seg.n_samples:
        return
    amp = amp_offsets[:, None] + seg.flat[None, :] // step_length
    seg.put(tod, seg.take(tod) + amplitudes[amp])
