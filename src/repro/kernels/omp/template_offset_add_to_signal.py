"""template_offset_add_to_signal, OpenMP Target Offload implementation."""

from ...core.dispatch import ImplementationType, kernel
from ...math.rows import put_rows, take_rows
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
    n_det, n_samp = tod.shape

    d_amp = resolve_view(accel, amplitudes, use_accel)
    d_off = resolve_view(accel, amp_offsets, use_accel)
    d_tod = resolve_view(accel, tod, use_accel)

    def body(idet, iivl, lanes):
        s = starts[iivl] + lanes
        row = idet * n_samp + s
        amp_idx = d_off[idet] + s // step_length
        put_rows(d_tod, row, take_rows(d_tod, row, lead=2) + d_amp[amp_idx], lead=2)

    launcher_for(accel, use_accel)(
        "template_offset_add_to_signal",
        (n_det, starts, stops),
        body,
        flops_per_iteration=3.0,
        bytes_per_iteration=24.0,
    )
