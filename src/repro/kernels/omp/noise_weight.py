"""noise_weight, OpenMP Target Offload implementation."""

from ...core.dispatch import ImplementationType, kernel
from ...math.rows import put_rows, take_rows
from ..common import launcher_for, max_interval_length, resolve_view


@kernel("noise_weight", ImplementationType.OMP_TARGET)
def noise_weight(
    tod,
    det_weights,
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

    d_tod = resolve_view(accel, tod, use_accel)
    d_w = resolve_view(accel, det_weights, use_accel)

    def body(idet, iivl, lanes):
        keep = lanes < stops[iivl] - starts[iivl]
        idet = idet[keep]
        s = starts[iivl[keep]] + lanes[keep]
        row = idet * n_samp + s
        put_rows(d_tod, row, take_rows(d_tod, row, lead=2) * d_w[idet], lead=2)

    launcher_for(accel, use_accel)(
        "noise_weight",
        (n_det, n_ivl, max_len),
        body,
        flops_per_iteration=1.0,
        bytes_per_iteration=16.0,
    )
