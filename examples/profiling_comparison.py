#!/usr/bin/env python
"""The paper's profiling workflow (§3.2.3), reproduced end to end.

TOAST collects coarse per-function timings through a decorator and dumps
them to CSV; the authors added a script merging several CSVs into a
comparative spreadsheet -- "a tremendously useful and simple tool to
identify operations where our updated code spent a suspect amount of
time".  This example runs the same pipeline under two kernel
implementations, each under ``obs.tracing()`` so every ``function_timer``
call (each operator ``exec``) is a span, reads the timing table off the
tracer, dumps one CSV per run, and prints the merged comparison.

Usage::

    python examples/profiling_comparison.py
"""

import tempfile
from pathlib import Path

from repro import obs
from repro.accel import SimulatedDevice
from repro.core import ImplementationType
from repro.core.timing import GlobalTimers, merge_timing_csv
from repro.ompshim import OmpTargetRuntime
from repro.workflows.satellite import SIZES, run_satellite_benchmark


def timed_run(impl: ImplementationType, csv_path: Path) -> None:
    accel = None
    if impl is not ImplementationType.NUMPY:
        accel = OmpTargetRuntime(SimulatedDevice(memory_bytes=1 << 28))
    with obs.tracing() as tracer:
        run_satellite_benchmark(SIZES["small"], impl, accel=accel)
    GlobalTimers.from_tracer(tracer).dump_csv(csv_path)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cpu_csv = Path(tmp) / "cpu.csv"
        gpu_csv = Path(tmp) / "omp_target.csv"

        print("running the small benchmark with the CPU baseline kernels ...")
        timed_run(ImplementationType.NUMPY, cpu_csv)
        print("running the small benchmark with the OMP Target kernels ...")
        timed_run(ImplementationType.OMP_TARGET, gpu_csv)

        print()
        print(merge_timing_csv([cpu_csv, gpu_csv], labels=["cpu", "omp_target"]))
        print()
        print("reading the table: the right-most column is the per-operation")
        print("ratio -- the paper's team scanned exactly this view for values")
        print("far from the expected speedup to find misbehaving operations.")


if __name__ == "__main__":
    main()
