"""template_offset_add_to_signal, OpenMP Target Offload implementation."""

from ...core.dispatch import ImplementationType, kernel
from ...math.rows import put_rows, take_rows
from ..common import launcher_for, max_interval_length, resolve_view


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
    n_ivl = len(starts)
    max_len = max_interval_length(starts, stops)
    if max_len == 0:
        return

    d_amp = resolve_view(accel, amplitudes, use_accel)
    d_off = resolve_view(accel, amp_offsets, use_accel)
    d_tod = resolve_view(accel, tod, use_accel)

    def body(idet, iivl, lanes):
        keep = lanes < stops[iivl] - starts[iivl]
        idet = idet[keep]
        s = starts[iivl[keep]] + lanes[keep]
        row = idet * n_samp + s
        amp_idx = d_off[idet] + s // step_length
        put_rows(d_tod, row, take_rows(d_tod, row, lead=2) + d_amp[amp_idx], lead=2)

    launcher_for(accel, use_accel)(
        "template_offset_add_to_signal",
        (n_det, n_ivl, max_len),
        body,
        flops_per_iteration=3.0,
        bytes_per_iteration=24.0,
    )
