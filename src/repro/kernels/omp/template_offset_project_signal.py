"""template_offset_project_signal, OpenMP Target Offload implementation.

A straight loop with atomic accumulation -- the structure the paper notes
loses to XLA's linear-algebra rewriting on this particular kernel (§4.2).
"""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
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
    n_det = tod.shape[0]
    n_ivl = len(starts)
    max_len = int(np.max(stops - starts)) if n_ivl else 0
    if max_len == 0:
        return

    d_tod = resolve_view(accel, tod, use_accel)
    d_amp = resolve_view(accel, amplitudes, use_accel)
    d_off = resolve_view(accel, amp_offsets, use_accel)

    def body(idet, iivl, lanes):
        keep = lanes < stops[iivl] - starts[iivl]
        idet = idet[keep]
        s = starts[iivl[keep]] + lanes[keep]
        amp_idx = d_off[idet] + s // step_length
        np.add.at(d_amp, amp_idx, d_tod[idet, s])

    launcher_for(accel, use_accel)(
        "template_offset_project_signal",
        (n_det, n_ivl, max_len),
        body,
        flops_per_iteration=3.0,
        bytes_per_iteration=24.0,
    )
