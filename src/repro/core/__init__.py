"""The TOAST-like framework core.

Data model (``Observation`` holding shared telescope data, per-detector
timestreams, and interval lists; ``Data`` holding the observations of a
process group), the operator/pipeline machinery with hybrid CPU/GPU data
movement (paper §3.2), the runtime kernel-dispatch system, and the
CSV-based timing tools (§3.2.3).
"""

from .focalplane import Focalplane, fake_hexagon_focalplane
from .observation import Observation
from .data import Data
from .dispatch import (
    ImplementationType,
    KernelRegistry,
    default_implementation,
    get_kernel,
    kernel_registry,
    use_implementation,
)
from .operator import Operator
from .pipeline import LoopOrder, MovementPolicy, Pipeline
from .pixdist import PixelDistribution
from .timing import GlobalTimers, Timer, function_timer

__all__ = [
    "Focalplane",
    "fake_hexagon_focalplane",
    "Observation",
    "Data",
    "ImplementationType",
    "KernelRegistry",
    "kernel_registry",
    "get_kernel",
    "use_implementation",
    "default_implementation",
    "Operator",
    "Pipeline",
    "MovementPolicy",
    "LoopOrder",
    "PixelDistribution",
    "Timer",
    "GlobalTimers",
    "function_timer",
]
