"""Performance model calibrated to the paper's evaluation.

The live pipelines in this reproduction run scaled-down problems on a
simulated device; absolute A100 timings cannot be measured here.  This
package provides the *calibrated analytic model* that regenerates the
paper's reported performance relations:

* :mod:`~repro.perfmodel.calibration` -- per-kernel CPU costs and GPU
  speedups (Fig 6), process-sweep speedup anchors (Fig 4), and the
  full-benchmark constants (Fig 5), all with citations to the paper text;
* :mod:`~repro.perfmodel.memory` -- the per-process device-memory
  footprint model that reproduces the out-of-memory points of Fig 4;
* :mod:`~repro.perfmodel.runtime_model` -- whole-run times as functions of
  implementation, process count, problem size, and MPS state;
* :mod:`~repro.perfmodel.movement` -- the NAIVE / HYBRID / COMPILED /
  MEGABATCH copy, byte and launch counts of a pipeline plan (§3.2.2),
  summed from the walk of each schedule that
  :func:`repro.compilepipe.planned_copies` makes.

Everything the model asserts is cross-checked against the paper's numbers
in ``EXPERIMENTS.md`` and in ``tests/test_perfmodel.py``.
"""

from .calibration import (
    ACCEL_DATA_CALIBRATION,
    AMDAHL_BOUND,
    FULL_BENCHMARK,
    KERNEL_CALIBRATION,
    SWEEP_PROCESS_COUNTS,
    KernelCalibration,
)
from .energy import NodePower, energy_per_run, full_benchmark_energy
from .memory import MemoryModel
from .movement import MovementEstimate, estimate_movement
from .runtime_model import (
    Backend,
    accel_runtime,
    cpu_runtime,
    full_benchmark_runtimes,
    per_kernel_times,
    process_sweep,
    speedup_anchor,
)

__all__ = [
    "KernelCalibration",
    "KERNEL_CALIBRATION",
    "ACCEL_DATA_CALIBRATION",
    "FULL_BENCHMARK",
    "AMDAHL_BOUND",
    "SWEEP_PROCESS_COUNTS",
    "MemoryModel",
    "MovementEstimate",
    "estimate_movement",
    "NodePower",
    "energy_per_run",
    "full_benchmark_energy",
    "Backend",
    "cpu_runtime",
    "accel_runtime",
    "speedup_anchor",
    "process_sweep",
    "full_benchmark_runtimes",
    "per_kernel_times",
]
