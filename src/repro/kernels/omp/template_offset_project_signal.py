"""template_offset_project_signal, OpenMP Target Offload implementation.

A straight loop with atomic accumulation -- the structure the paper notes
loses to XLA's linear-algebra rewriting on this particular kernel (§4.2).
"""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
from ...ompshim import LoopNest
from ..common import launcher_for, resolve_view


@kernel("template_offset_project_signal", ImplementationType.OMP_TARGET)
def template_offset_project_signal(
    step_length,
    tod,
    amplitudes,
    amp_offsets,
    starts,
    stops,
    accel=None,
    use_accel=False,
):
    grid = LoopNest((tod.shape[0], starts, stops))
    seg = grid.segments

    d_tod = resolve_view(accel, tod, use_accel)
    d_amp = resolve_view(accel, amplitudes, use_accel)
    d_off = resolve_view(accel, amp_offsets, use_accel)

    def body(idet, _iivl, _lanes):
        amp_idx = d_off[idet] + seg.flat // step_length
        np.add.at(d_amp, amp_idx.ravel(), seg.take(d_tod).ravel())

    launcher_for(accel, use_accel)(
        "template_offset_project_signal",
        grid,
        body,
        flops_per_iteration=3.0,
        bytes_per_iteration=24.0,
    )
