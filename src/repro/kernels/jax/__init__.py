"""jaxshim kernel implementations (the paper's JAX port).

Ported in the paper's two steps -- C++ to NumPy, then NumPy to JAX --
"turning loops into calls to vmap ... and removing side effects".
Variable-length intervals are padded to the maximum interval length
(a static shape at trace time); out-of-interval lanes are clamped onto the
last valid sample so they do the paper's "dummy work", and accumulating
kernels mask those lanes to zero.

Importing this package applies the port's two JAX configuration changes
(§3.1.3): 64-bit arithmetic on, device memory preallocation off.
"""

from ...jaxshim import config

# The paper's "only two modifications to JAX default settings".
config.update("enable_x64", True)
config.update("preallocate_memory", False)

from ...core.dispatch import ImplementationType, kernel_registry  # noqa: E402
from .stacked import stacked_entry  # noqa: E402

# Before any kernel registers: megabatch kernels derive their stacked
# entry from the per-observation implementation as it registers.
kernel_registry.set_stacker(ImplementationType.JAX, stacked_entry)

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
