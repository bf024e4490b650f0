"""OpenMP Target Offload kernel implementations (the paper's OMP port).

Each kernel keeps the compiled-CPU loop structure and adds the offload
machinery (paper §3.1.2): the triple (detector, interval, sample) loop is
collapsed and launched over the device through
``target_teams_distribute_parallel_for``; intervals are iterated at the
precomputed maximum interval size with an in-loop guard cutting
out-of-interval work; data is dereferenced through mapped device pointers.

A kernel's loop body runs once per launch, over the collapsed
``(idet, iivl, lanes)`` index vectors in loop order (detector outermost,
lane innermost).  The guard is a mask over all three; per-detector
values become per-lane gathers; in-body ``np.add.at`` scatters add in
the nested loop's order, so they match the scalar reference bit for bit.

Without a runtime (``use_accel=False``) the kernels run on the host --
OpenMP's fallback behaviour when no device is available.
"""

from ...core.dispatch import ImplementationType, kernel_registry
from .stacked import stacked_entry

# Before any kernel registers: megabatch kernels derive their stacked
# entry from the per-observation implementation as it registers.
kernel_registry.set_stacker(ImplementationType.OMP_TARGET, stacked_entry)

from . import (  # noqa: F401,E402  (registration side effects)
    pointing_detector,
    stokes_weights_I,
    stokes_weights_IQU,
    pixels_healpix,
    scan_map,
    noise_weight,
    build_noise_weighted,
    template_offset_add_to_signal,
    template_offset_project_signal,
    template_offset_apply_diag_precond,
    cov_accum,
)
