"""repro — reproduction of *High-level GPU code: a case study examining JAX
and OpenMP* (Demeure et al., SC-W 2023).

The package rebuilds, in pure Python, the system the paper studies:

* a TOAST-like time-ordered-data framework (:mod:`repro.core`,
  :mod:`repro.ops`, :mod:`repro.workflows`),
* the ten ported kernels in four implementations (:mod:`repro.kernels`),
* a mini-JAX tracing/JIT library (:mod:`repro.jaxshim`),
* a mini OpenMP Target Offload runtime (:mod:`repro.ompshim`),
* a simulated accelerator with memory pool, transfer, and MPS models
  (:mod:`repro.accel`),
* a calibrated performance model regenerating the paper's figures
  (:mod:`repro.perfmodel`).

Quickstart::

    from repro.core import ImplementationType
    from repro.workflows.satellite import (
        SIZES,
        make_satellite_data,
        satellite_processing_pipeline,
    )

    size = SIZES["tiny"]
    data = make_satellite_data(size)
    pipe = satellite_processing_pipeline(
        size.nside, implementation=ImplementationType.NUMPY
    )
    pipe.apply(data)
    zmap = data["zmap"]  # the noise-weighted I/Q/U map, one row per pixel
"""

from ._version import __version__
from .utils.hostmem import retain_freed_memory

# Before any kernel runs: freed NumPy temporaries stay mapped for reuse.
retain_freed_memory()

__all__ = ["__version__"]
