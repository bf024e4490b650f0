"""jaxshim -- a miniature JAX built on NumPy.

The paper ports TOAST kernels to JAX: pure functions over immutable arrays,
traced once per static shape signature, compiled by XLA, with ``vmap``
vectorizing the detector/interval loops.  No JAX exists in this
environment, so this package rebuilds the *programming model* the paper
evaluates:

* a NumPy-like ``jnp`` namespace whose operations either execute eagerly
  or record into a static graph ("HLO") while tracing;
* :func:`jit` -- trace-and-cache compilation keyed on shapes/dtypes and
  static arguments; ``donate_argnums`` is accepted and its bytes counted,
  but no buffer is reused;
* :func:`vmap` -- vectorization via per-primitive batching rules;
* functional updates (``x.at[idx].set(v)``) in place of mutation, with the
  purity errors JAX raises on in-place assignment;
* graph optimization passes (dead-code elimination, common-subexpression
  elimination, elementwise fusion) whose fused-group count drives the
  simulated device's kernel-launch accounting;
* a Threefry ``PRNGKey`` reusing :mod:`repro.rng`;
* the two configuration switches the paper flips: 64-bit mode and device
  memory preallocation.

Execution is NumPy underneath; when a :class:`repro.accel.SimulatedDevice`
is attached, compiled calls charge modeled compile, launch, and roofline
execution time to its virtual clock.
"""

from . import numpy_api as jnp  # noqa: F401  (the conventional alias)
from . import lax  # noqa: F401  (structured control flow)
from .api import jit, make_graph, vmap, grad_not_supported
from .config import config
from .core import ShapedArray, Tracer
from .devices import attach_device, current_device, detach_device
from .errors import (
    ConcretizationError,
    JaxshimError,
    ShapeError,
    TracerArrayConversionError,
    TracerError,
)
from .prng import PRNGKey, normal, split, uniform

__all__ = [
    "jnp",
    "lax",
    "jit",
    "vmap",
    "make_graph",
    "grad_not_supported",
    "config",
    "ShapedArray",
    "Tracer",
    "attach_device",
    "detach_device",
    "current_device",
    "JaxshimError",
    "TracerError",
    "ConcretizationError",
    "TracerArrayConversionError",
    "ShapeError",
    "PRNGKey",
    "split",
    "uniform",
    "normal",
]
