"""scan_map, OpenMP Target Offload implementation."""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
from ..common import launcher_for, resolve_view


@kernel("scan_map", ImplementationType.OMP_TARGET)
def scan_map(
    map_data,
    pixels,
    weights,
    tod,
    starts,
    stops,
    data_scale=1.0,
    should_zero=False,
    should_subtract=False,
    accel=None,
    use_accel=False,
):
    n_det = pixels.shape[0]
    n_ivl = len(starts)
    max_len = int(np.max(stops - starts)) if n_ivl else 0
    if max_len == 0:
        return

    d_map = resolve_view(accel, map_data, use_accel)
    d_pix = resolve_view(accel, pixels, use_accel)
    d_wts = resolve_view(accel, weights, use_accel)
    d_tod = resolve_view(accel, tod, use_accel)

    def body(idet, iivl, lanes):
        keep = lanes < stops[iivl] - starts[iivl]
        idet = idet[keep]
        s = starts[iivl[keep]] + lanes[keep]
        pix = d_pix[idet, s]
        good = pix >= 0
        value = np.einsum("sk,sk->s", d_map[np.where(good, pix, 0)], d_wts[idet, s])
        value = np.where(good, value, 0.0) * data_scale
        if should_zero:
            d_tod[idet, s] = 0.0
        if should_subtract:
            d_tod[idet, s] -= value
        else:
            d_tod[idet, s] += value

    launcher_for(accel, use_accel)(
        "scan_map",
        (n_det, n_ivl, max_len),
        body,
        flops_per_iteration=8.0,
        bytes_per_iteration=72.0,
    )
