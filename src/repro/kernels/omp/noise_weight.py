"""noise_weight, OpenMP Target Offload implementation."""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
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
    n_det = tod.shape[0]
    n_ivl = len(starts)
    max_len = int(np.max(stops - starts)) if n_ivl else 0
    if max_len == 0:
        return

    d_tod = resolve_view(accel, tod, use_accel)
    d_w = resolve_view(accel, det_weights, use_accel)

    def body(idet, iivl, lanes):
        keep = lanes < stops[iivl] - starts[iivl]
        idet = idet[keep]
        s = starts[iivl[keep]] + lanes[keep]
        d_tod[idet, s] *= d_w[idet]

    launcher_for(accel, use_accel)(
        "noise_weight",
        (n_det, n_ivl, max_len),
        body,
        flops_per_iteration=1.0,
        bytes_per_iteration=16.0,
    )
