"""noise_weight, OpenMP Target Offload implementation."""

from ...core.dispatch import ImplementationType, kernel
from ...ompshim import LoopNest
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
    grid = LoopNest((tod.shape[0], starts, stops))
    seg = grid.segments

    d_tod = resolve_view(accel, tod, use_accel)
    d_w = resolve_view(accel, det_weights, use_accel)

    def body(idet, _iivl, _lanes):
        seg.put(d_tod, seg.take(d_tod) * d_w[idet])

    launcher_for(accel, use_accel)(
        "noise_weight",
        grid,
        body,
        flops_per_iteration=1.0,
        bytes_per_iteration=16.0,
    )
