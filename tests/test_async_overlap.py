"""Tests for asynchronous submission and host/device overlap."""

import numpy as np
import pytest

from repro.accel import SimulatedDevice
from repro.ompshim import OmpTargetRuntime


@pytest.fixture
def dev():
    return SimulatedDevice(memory_bytes=1 << 22)


class TestDeviceAsync:
    def test_async_returns_immediately(self, dev):
        t0 = dev.clock.now
        dev.launch_async("k", 1.0)
        # Host paid only the submission overhead, not the kernel second.
        assert dev.clock.now - t0 < 1e-3
        assert dev.busy_until > dev.clock.now

    def test_synchronize_waits(self, dev):
        dev.launch_async("k", 1.0)
        dev.synchronize()
        assert np.isclose(dev.clock.now, 1.0 + dev.spec.kernel_launch_overhead_s)
        assert dev.busy_until == dev.clock.now
        assert dev.clock.region_time("device_synchronize") > 0.9

    def test_overlap_with_host_work(self, dev):
        """Host work during an async kernel is hidden."""
        dev.launch_async("k", 1.0)
        dev.clock.charge("host_work", 0.8)  # overlaps the kernel
        dev.synchronize()
        # Total ~= max(kernel, host) not their sum.
        assert dev.clock.now < 1.1

    def test_back_to_back_async_queue(self, dev):
        dev.launch_async("a", 0.5)
        dev.launch_async("b", 0.5)  # queues behind a
        dev.synchronize()
        assert dev.clock.now >= 1.0

    def test_sync_launch_waits_for_async(self, dev):
        dev.launch_async("a", 1.0)
        dev.launch("b", 0.1)
        # b could only run after a finished.
        assert dev.clock.now >= 1.1

    def test_transfers_synchronize(self, dev):
        buf = dev.alloc(64)
        dev.launch_async("k", 0.5)
        dev.update_host(buf, np.zeros(8))
        assert dev.clock.now >= 0.5

    def test_synchronize_idempotent(self, dev):
        dev.launch_async("k", 0.2)
        dev.synchronize()
        t = dev.clock.now
        dev.synchronize()
        assert dev.clock.now == t

    def test_reset_clears_queue(self, dev):
        dev.launch_async("k", 5.0)
        dev.reset_all()
        assert dev.busy_until == 0.0

    def test_bad_args(self, dev):
        with pytest.raises(ValueError):
            dev.launch_async("k", -1.0)
        with pytest.raises(ValueError):
            dev.launch_async("k", 1.0, n_launches=0)


class TestRuntimeNowait:
    def test_nowait_results_after_taskwait(self):
        rt = OmpTargetRuntime(SimulatedDevice(memory_bytes=1 << 22))
        x = np.zeros((1, 1, 64))
        with rt.target_data(tofrom=[x]):
            d = rt.device_view(x)

            def body(i, j, k):
                d[i, j, k] = 7.0

            rt.target_teams_distribute_parallel_for(
                "k", (1, 1, 64), body, nowait=True
            )
            rt.taskwait()
        assert np.all(x == 7.0)

    def test_nowait_overlap_beats_sync(self):
        """A submit-then-host-work loop is faster with nowait."""

        def run(nowait):
            rt = OmpTargetRuntime(SimulatedDevice(memory_bytes=1 << 22))
            for _ in range(4):
                # ~2 ms of modeled kernel per launch.  The launcher builds
                # index vectors of 24 B per iteration, so the weight sits in
                # bytes_per_iteration rather than in a 16M-iteration grid.
                rt.target_teams_distribute_parallel_for(
                    "k",
                    (64, 64, 16),
                    lambda i, j, k: None,
                    bytes_per_iteration=200.0 * 256,
                    nowait=nowait,
                )
                rt.device.clock.charge("host_side_work", 1e-3)
            rt.taskwait()
            return rt.device.clock.now

        assert run(True) < run(False)

    def test_exit_data_waits_for_async_kernels(self):
        rt = OmpTargetRuntime(SimulatedDevice(memory_bytes=1 << 22))
        x = np.zeros(64)
        rt.target_enter_data(to=[x])
        rt.target_teams_distribute_parallel_for(
            "k", (1, 1, 64), lambda i, j, k: None, nowait=True
        )
        busy = rt.device.busy_until
        assert busy > rt.device.clock.now
        rt.target_exit_data(from_=[x])  # the copy-back must sync first
        assert rt.device.clock.now >= busy
