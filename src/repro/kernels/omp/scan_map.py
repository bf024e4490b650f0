"""scan_map, OpenMP Target Offload implementation."""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
from ...math.rows import take_rows
from ...ompshim import LoopNest
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
    grid = LoopNest((pixels.shape[0], starts, stops))
    seg = grid.segments

    d_map = resolve_view(accel, map_data, use_accel)
    d_pix = resolve_view(accel, pixels, use_accel)
    d_wts = resolve_view(accel, weights, use_accel)
    d_tod = resolve_view(accel, tod, use_accel)

    def body(_idet, _iivl, _lanes):
        pix = seg.take(d_pix)
        good = pix >= 0
        value = np.einsum(
            "...k,...k->...",
            take_rows(d_map, np.where(good, pix, 0)),
            seg.take(d_wts),
        )
        value = np.where(good, value, 0.0) * data_scale
        if should_zero:
            tod = np.zeros(pix.shape, dtype=d_tod.dtype)
        else:
            tod = seg.take(d_tod)
        seg.put(d_tod, tod - value if should_subtract else tod + value)

    launcher_for(accel, use_accel)(
        "scan_map",
        grid,
        body,
        flops_per_iteration=8.0,
        bytes_per_iteration=72.0,
    )
