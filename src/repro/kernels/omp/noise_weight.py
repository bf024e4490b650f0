"""noise_weight, OpenMP Target Offload implementation."""

from ...core.dispatch import ImplementationType, kernel
from ...math.rows import put_rows, take_rows
from ..common import launcher_for, resolve_view


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

    d_tod = resolve_view(accel, tod, use_accel)
    d_w = resolve_view(accel, det_weights, use_accel)

    def body(idet, iivl, lanes):
        s = starts[iivl] + lanes
        row = idet * n_samp + s
        put_rows(d_tod, row, take_rows(d_tod, row, lead=2) * d_w[idet], lead=2)

    launcher_for(accel, use_accel)(
        "noise_weight",
        (n_det, starts, stops),
        body,
        flops_per_iteration=1.0,
        bytes_per_iteration=16.0,
    )
