"""OpenMP Target Offload kernel implementations (the paper's OMP port).

Each kernel keeps the compiled-CPU loop structure and adds the offload
machinery (paper §3.1.2): the triple (detector, interval, sample) loop is
collapsed and launched over the device through
``target_teams_distribute_parallel_for`` as the nest ``(n_det, starts,
stops)``; the launch is charged for the maximum interval size, and the
launcher's in-loop guard cuts the out-of-interval lanes once, from the
intervals' segment descriptor; data is dereferenced through mapped device
pointers.

A kernel's loop body runs once per launch, over index arrays ``(idet,
iivl, lanes)`` that broadcast to the iterations that pass the guard; the
C-order ravel of the broadcast is loop order (detector outermost, lane
innermost).  The launcher passes an open grid -- ``idet`` a column,
``(iivl, lanes)`` one row of in-interval samples -- so ``s =
starts[iivl] + lanes`` is computed once per sample and a per-detector
value (``d_w[idet]``) once per detector, and bodies index trailing axes
with ``...``.  Per-sample data is addressed by the flat offset ``row =
idet * n_samp + s``, as in the C port, and moved through the ordered row
substrate (:mod:`repro.math.rows`): ``take_rows`` gathers, ``put_rows``
writes, and in-body ``add_rows`` (or a 1-D ``np.add.at``) scatters add
in the nested loop's order, so they match the scalar reference bit for
bit.

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
