"""Host-speed calibration: a fixed loop timed next to every measurement.

On a shared virtual machine the same unit of work runs up to ~1.7x slower
for seconds to minutes at a time, whenever other tenants load the host;
process CPU time slows with wall time, so the loss is in the host, not in
the program.  A 20 s run can fall wholly inside such a phase, so no
statistic over one run's units removes it.

The loop below does the two kinds of work the workloads do -- Python
dictionary and integer operations, and NumPy passes over an 8 MB array
that lives in the shared last-level cache -- and slows with them: across
the host's slow and fast phases within a run, log unit time rises 0.9-1.0
(omp-hybrid) and 0.6-0.8 (jax-megabatch) per unit rise of log loop time.
Each measured interval is divided by the loop's time taken right next to
it and multiplied by
:data:`NOMINAL_S`, giving "calibrated" seconds: the interval's length on a
host where the loop takes exactly :data:`NOMINAL_S`.

The loop runs once untimed before the timed pass, so the caches hold the
loop's own data whatever the measured code left behind.  Timed straight
after code that swept 64 MB, the single pass ran ~10% slower than after
code that swept 1 MB; with the untimed pass first the two agree
(``tests/test_calibrate.py`` checks this).  The divisor thus does not move
when a change to the program changes its working set.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["NOMINAL_S", "calibration_loop", "calibrated"]

#: The loop's duration on the reference host speed (a 2-vCPU Xeon VM took
#: ~3.3 ms in its fast phases and ~4.3 ms in its slow ones).
NOMINAL_S = 0.004

_PY_STEPS = 12_000
_NP_PASSES = 4
_ARRAY = np.ones(1_000_000)


def _loop() -> None:
    acc: dict = {}
    for i in range(_PY_STEPS):
        acc[i & 63] = acc.get(i & 63, 0) + i
    for _ in range(_NP_PASSES):
        np.multiply(_ARRAY, 1.0, out=_ARRAY)


def calibration_loop() -> float:
    """Run the fixed loop untimed, then again timed; returns the timed wall
    time in seconds."""
    _loop()
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def calibrated(wall_s: float, loop_s: float) -> float:
    """``wall_s`` rescaled to the reference host speed."""
    if not loop_s > 0:
        raise ValueError(f"calibration loop time must be positive, got {loop_s}")
    return wall_s * NOMINAL_S / loop_s
