"""OpenMP Target Offload kernel implementations (the paper's OMP port).

Each kernel keeps the compiled-CPU loop structure and adds the offload
machinery (paper §3.1.2): the triple (detector, interval, sample) loop is
collapsed and launched over the device through
``target_teams_distribute_parallel_for`` as the nest ``LoopNest((n_det,
starts, stops))``; the launch is charged for the maximum interval size,
and the launcher's in-loop guard cuts the out-of-interval lanes once, from
the intervals' segment descriptor; data is dereferenced through mapped
device pointers.

A kernel's loop body runs once per launch, over the iterations that pass
the guard: the detectors by the descriptor's in-interval samples, in
loop order (detector outermost, lane innermost).  The launcher passes
``idet`` as a column and ``None`` for ``iivl`` and ``lanes``, so a
per-detector value (``d_w[idet]``) is read once per detector.  The body
moves per-sample data as GPU teams read it, in contiguous sample runs:
it reaches its launch's own descriptor (``seg = grid.segments``, the one
the launcher swept) and gathers and writes whole (detector x interval)
runs with ``seg.take`` and ``seg.put`` (:mod:`repro.math.segments`), in
interval order, building no per-iteration row index.  The samples they
move are exactly the guarded iterations', so in-body scatters
(``add_rows``, a 1-D ``np.add.at``) add in the nested loop's order and
match the scalar reference bit for bit.  Flag branches write only the
flagged lanes.

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
