"""template_offset_add_to_signal, OpenMP Target Offload implementation."""

from ...core.dispatch import ImplementationType, kernel
from ...ompshim import LoopNest
from ..common import launcher_for, resolve_view


@kernel("template_offset_add_to_signal", ImplementationType.OMP_TARGET)
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
    grid = LoopNest((tod.shape[0], starts, stops))
    seg = grid.segments

    d_amp = resolve_view(accel, amplitudes, use_accel)
    d_off = resolve_view(accel, amp_offsets, use_accel)
    d_tod = resolve_view(accel, tod, use_accel)

    def body(idet, _iivl, _lanes):
        amp_idx = d_off[idet] + seg.flat // step_length
        seg.put(d_tod, seg.take(d_tod) + d_amp[amp_idx])

    launcher_for(accel, use_accel)(
        "template_offset_add_to_signal",
        grid,
        body,
        flops_per_iteration=3.0,
        bytes_per_iteration=24.0,
    )
