"""scan_map, OpenMP Target Offload implementation."""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
from ...math.rows import put_rows, take_rows
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
    n_det, n_samp = pixels.shape

    d_map = resolve_view(accel, map_data, use_accel)
    d_pix = resolve_view(accel, pixels, use_accel)
    d_wts = resolve_view(accel, weights, use_accel)
    d_tod = resolve_view(accel, tod, use_accel)

    def body(idet, iivl, lanes):
        s = starts[iivl] + lanes
        row = idet * n_samp + s
        pix = take_rows(d_pix, row, lead=2)
        good = pix >= 0
        value = np.einsum(
            "...k,...k->...",
            take_rows(d_map, np.where(good, pix, 0)),
            take_rows(d_wts, row, lead=2),
        )
        value = np.where(good, value, 0.0) * data_scale
        if should_zero:
            tod = np.zeros(row.shape, dtype=d_tod.dtype)
        else:
            tod = take_rows(d_tod, row, lead=2)
        put_rows(d_tod, row, tod - value if should_subtract else tod + value, lead=2)

    launcher_for(accel, use_accel)(
        "scan_map",
        (n_det, starts, stops),
        body,
        flops_per_iteration=8.0,
        bytes_per_iteration=72.0,
    )
