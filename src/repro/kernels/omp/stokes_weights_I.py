"""stokes_weights_I, OpenMP Target Offload implementation."""

from ...core.dispatch import ImplementationType, kernel
from ...math.rows import put_rows
from ..common import launcher_for, max_interval_length, resolve_view


@kernel("stokes_weights_I", ImplementationType.OMP_TARGET)
def stokes_weights_I(
    weights_out,
    cal,
    starts,
    stops,
    accel=None,
    use_accel=False,
):
    n_det, n_samp = weights_out.shape
    n_ivl = len(starts)
    max_len = max_interval_length(starts, stops)
    if max_len == 0:
        return

    d_out = resolve_view(accel, weights_out, use_accel)

    def body(idet, iivl, lanes):
        keep = lanes < stops[iivl] - starts[iivl]
        idet = idet[keep]
        s = starts[iivl[keep]] + lanes[keep]
        row = idet * n_samp + s
        put_rows(d_out, row, cal, lead=2)

    launcher_for(accel, use_accel)(
        "stokes_weights_I",
        (n_det, n_ivl, max_len),
        body,
        flops_per_iteration=1.0,
        bytes_per_iteration=8.0,
    )
