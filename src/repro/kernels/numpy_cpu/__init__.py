"""Vectorized NumPy implementations: the "compiled CPU" baseline.

These stand in for the original OpenMP-parallel C++ kernels.  Every kernel
is one batched NumPy pass over the ``(n_det, n_samples)`` working set of
in-interval samples, gathered and written back run by run through the
intervals' segment descriptor (:meth:`repro.math.segments.Segments.take`,
:meth:`~repro.math.segments.Segments.put`): the sample, interval, *and*
detector loops are all vectorized, and scatter accumulations run in the
same order as the scalar reference loops, so results stay bitwise
identical to the ``python`` oracle.  They define the performance and
correctness baseline every ported implementation is compared against.
"""

from . import (  # noqa: F401  (registration side effects)
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
