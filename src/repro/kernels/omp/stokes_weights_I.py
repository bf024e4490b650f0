"""stokes_weights_I, OpenMP Target Offload implementation."""

from ...core.dispatch import ImplementationType, kernel
from ...math.rows import put_rows
from ..common import launcher_for, resolve_view


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

    d_out = resolve_view(accel, weights_out, use_accel)

    def body(idet, iivl, lanes):
        s = starts[iivl] + lanes
        row = idet * n_samp + s
        put_rows(d_out, row, cal, lead=2)

    launcher_for(accel, use_accel)(
        "stokes_weights_I",
        (n_det, starts, stops),
        body,
        flops_per_iteration=1.0,
        bytes_per_iteration=8.0,
    )
