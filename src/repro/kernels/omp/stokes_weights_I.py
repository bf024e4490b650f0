"""stokes_weights_I, OpenMP Target Offload implementation."""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
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
    n_det = weights_out.shape[0]
    n_ivl = len(starts)
    max_len = int(np.max(stops - starts)) if n_ivl else 0
    if max_len == 0:
        return

    d_out = resolve_view(accel, weights_out, use_accel)

    def body(idet, iivl, lanes):
        keep = lanes < stops[iivl] - starts[iivl]
        idet = idet[keep]
        s = starts[iivl[keep]] + lanes[keep]
        d_out[idet, s] = cal

    launcher_for(accel, use_accel)(
        "stokes_weights_I",
        (n_det, n_ivl, max_len),
        body,
        flops_per_iteration=1.0,
        bytes_per_iteration=8.0,
    )
