"""stokes_weights_I, OpenMP Target Offload implementation."""

from ...core.dispatch import ImplementationType, kernel
from ...ompshim import LoopNest
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
    grid = LoopNest((weights_out.shape[0], starts, stops))
    seg = grid.segments

    d_out = resolve_view(accel, weights_out, use_accel)

    def body(_idet, _iivl, _lanes):
        seg.put(d_out, cal)

    launcher_for(accel, use_accel)(
        "stokes_weights_I",
        grid,
        body,
        flops_per_iteration=1.0,
        bytes_per_iteration=8.0,
    )
