"""Ablation: asynchronous submission and host/device overlap.

Paper §2.2.2: compilers attempt internal asynchronous data movement and
kernel submission, but "to achieve a satisfactory overlap between kernel
submission and execution, manual specification of data dependencies is
often indispensable".  This bench runs a kernel-plus-host-work loop both
ways and quantifies the overlap the ``nowait`` path buys on the modeled
timeline.
"""

import numpy as np

from repro.accel import SimulatedDevice
from repro.ompshim import OmpTargetRuntime
from repro.utils.table import Table, format_seconds

N_STEPS = 8
# The launcher builds index vectors of 24 B per iteration, so the kernel's
# weight sits in BYTES_PER_ITERATION rather than in a huge grid.
GRID = (64, 16, 64)
BYTES_PER_ITERATION = 400.0 * 128
HOST_WORK_S = 2.0e-3


def run(nowait: bool) -> float:
    rt = OmpTargetRuntime(SimulatedDevice(memory_bytes=1 << 24))
    for _ in range(N_STEPS):
        rt.target_teams_distribute_parallel_for(
            "pipeline_kernel",
            GRID,
            lambda i, j, k: None,
            bytes_per_iteration=BYTES_PER_ITERATION,
            nowait=nowait,
        )
        # The serial host-side work of the next pipeline stage.
        rt.device.clock.charge("host_side_work", HOST_WORK_S)
    rt.taskwait()
    return rt.device.clock.now


def test_ablation_async_overlap(benchmark, publish):
    t_async = benchmark.pedantic(lambda: run(True), rounds=1, iterations=1)
    t_sync = run(False)

    kernel_s = N_STEPS * (
        np.prod(GRID) * BYTES_PER_ITERATION / SimulatedDevice().spec.memory_bandwidth_bps
    )
    host_s = N_STEPS * HOST_WORK_S

    table = Table(["quantity", "value"], title="ablation - async submission (paper 2.2.2)")
    table.add_row(["steps", N_STEPS])
    table.add_row(["device kernel time", format_seconds(kernel_s)])
    table.add_row(["host-side work", format_seconds(host_s)])
    table.add_row(["modeled total, synchronous", format_seconds(t_sync)])
    table.add_row(["modeled total, nowait + taskwait", format_seconds(t_async)])
    table.add_row(["overlap saving", f"{1 - t_async / t_sync:.1%}"])
    publish("ablation_async", table.render())

    assert t_async < t_sync
    # With overlap, the total approaches max(kernel, host) per step rather
    # than their sum.
    assert t_async < t_sync - 0.8 * min(kernel_s, host_s)
