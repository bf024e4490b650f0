"""The simulated accelerator device.

One :class:`SimulatedDevice` stands in for one NVIDIA A100: it owns a
memory pool sized like the real card, a virtual clock, a transfer model,
and launch accounting.  Both GPU programming-model shims
(:mod:`repro.jaxshim` and :mod:`repro.ompshim`) drive their data and
kernels through this object, so data movement and memory pressure are real
even though execution happens on the host.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..obs import state as obs_state
from ..obs.events import EventType
from ..resilience import state as res_state
from ..resilience.faults import FaultKind
from .buffer import DeviceBuffer
from .clock import VirtualClock
from .errors import DeviceLostError, InvalidFreeError
from .mps import GpuSharingModel
from .pool import MemoryPool
from .streams import CopyStream
from .transfer import TransferModel

__all__ = ["DeviceSpec", "SimulatedDevice"]

GiB = 1024**3


@dataclass(frozen=True)
class DeviceSpec:
    """Performance-relevant hardware constants (defaults: A100-40GB SXM)."""

    name: str = "A100-SXM4-40GB"
    memory_bytes: int = 40 * GiB
    peak_fp64_flops: float = 9.7e12
    memory_bandwidth_bps: float = 1555.0e9
    kernel_launch_overhead_s: float = 5.0e-6
    transfer: TransferModel = field(default_factory=TransferModel)

    def __post_init__(self) -> None:
        if self.memory_bytes <= 0:
            raise ValueError("device memory must be positive")
        if self.peak_fp64_flops <= 0 or self.memory_bandwidth_bps <= 0:
            raise ValueError("peak rates must be positive")
        if self.kernel_launch_overhead_s < 0:
            raise ValueError("launch overhead must be non-negative")


class SimulatedDevice:
    """A device: pool + clock + transfer accounting + launch accounting.

    Named clock regions follow the paper's Fig 6 conventions:
    ``accel_data_update_device``, ``accel_data_update_host``,
    ``accel_data_reset``, ``accel_data_delete`` for data operations, and the
    kernel name for launches.
    """

    def __init__(
        self,
        spec: Optional[DeviceSpec] = None,
        clock: Optional[VirtualClock] = None,
        device_id: int = 0,
        memory_bytes: Optional[int] = None,
    ):
        self.spec = spec if spec is not None else DeviceSpec()
        self.clock = clock if clock is not None else VirtualClock()
        self.device_id = device_id
        capacity = memory_bytes if memory_bytes is not None else self.spec.memory_bytes
        self.pool = MemoryPool(capacity)
        self.sharing = GpuSharingModel()
        self._buffers: Dict[int, DeviceBuffer] = {}
        self.kernels_launched = 0
        #: Device-timeline point (same coordinate as clock.now) up to which
        #: asynchronously submitted work keeps the device busy.
        self.busy_until = 0.0
        #: Set when an injected DEVICE_LOST fault destroyed the device;
        #: every device operation fails until :meth:`revive`.
        self.lost = False
        #: Independent DMA engines, one per copy direction (the pipeline
        #: compiler overlaps staged copies with compute through these).
        self.h2d_stream = CopyStream(self.clock, self.spec.transfer, "transfer_wait_h2d")
        self.d2h_stream = CopyStream(self.clock, self.spec.transfer, "transfer_wait_d2h")
        #: Active fused-launch accumulator (see :meth:`begin_fused`).
        self._fusion: Optional[dict] = None

    def _check_lost(self) -> None:
        if self.lost:
            raise DeviceLostError(
                f"device {self.device_id} is lost; revive() it (the pipeline's "
                "checkpoint/resume recovery does this) before further use"
            )

    def _poll_launch_faults(self, name: str) -> None:
        """Evaluate launch-site faults; may stall the clock or lose the device."""
        ctrl = res_state.active
        if ctrl is None:
            return
        try:
            spec = ctrl.check("device.launch", clock=self.clock, kernel=name)
        except DeviceLostError:
            self.lose()
            raise
        if spec is not None and spec.kind is FaultKind.DEVICE_STALL:
            self.clock.charge("fault_stall", spec.stall_seconds)

    def lose(self) -> None:
        """Destroy device state (injected device loss): data becomes garbage."""
        self.lost = True
        for buf in self._buffers.values():
            buf.scramble()

    def revive(self) -> None:
        """Bring a lost device back with a fresh, empty memory pool.

        Device-resident data is gone -- callers must rebuild it from host
        copies (the pipeline resumes from its last checkpoint manifest).
        The virtual clock keeps running: recovery time is real time.
        """
        for buf in self._buffers.values():
            buf.mark_freed()
        self._buffers.clear()
        self.pool = MemoryPool(self.pool.capacity, alignment=self.pool.alignment, policy=self.pool.policy)
        self.busy_until = self.clock.now
        self.h2d_stream.reset()
        self.d2h_stream.reset()
        self._fusion = None
        self.lost = False

    # -- memory --------------------------------------------------------------

    def alloc(self, nbytes: int, label: Optional[str] = None) -> DeviceBuffer:
        """Allocate a device buffer (``omp_target_alloc`` analogue).

        ``label`` names the owning kernel/field so the alloc trace event
        identifies the buffer by what it holds.
        """
        self._check_lost()
        offset = self.pool.allocate(nbytes)
        buf = DeviceBuffer(
            offset, self.pool.size_of(offset), device_id=self.device_id, label=label
        )
        self._buffers[offset] = buf
        tr = obs_state.active
        if tr is not None:
            tr.device_event(
                EventType.ALLOC,
                "accel_alloc",
                ts=self.clock.now,
                nbytes=buf.nbytes,
                offset=offset,
                device=self.device_id,
                pool_allocated_bytes=self.pool.allocated_bytes,
                **({"label": label} if label is not None else {}),
            )
        return buf

    def free(self, buf: DeviceBuffer) -> None:
        """Free a device buffer (``omp_target_free`` analogue)."""
        if buf.offset not in self._buffers or self._buffers[buf.offset] is not buf:
            raise InvalidFreeError(f"buffer at offset {buf.offset} is not live on this device")
        self.pool.free(buf.offset)
        del self._buffers[buf.offset]
        buf.mark_freed()
        self.clock.charge("accel_data_delete", 1.0e-6)
        tr = obs_state.active
        if tr is not None:
            tr.device_event(
                EventType.FREE,
                "accel_free",
                ts=self.clock.now,
                charged_s=1.0e-6,
                nbytes=buf.nbytes,
                offset=buf.offset,
                device=self.device_id,
                pool_allocated_bytes=self.pool.allocated_bytes,
            )

    @property
    def allocated_bytes(self) -> int:
        return self.pool.allocated_bytes

    @property
    def live_buffers(self) -> int:
        return len(self._buffers)

    # -- data movement ---------------------------------------------------------

    def update_device(self, buf: DeviceBuffer, host: np.ndarray) -> None:
        """Host -> device copy, charging modeled PCIe time.

        Copies on the default stream wait for outstanding async kernels.
        """
        self._check_lost()
        self.synchronize()
        t0 = self.clock.now
        ctrl = res_state.active
        if ctrl is not None:
            moved = ctrl.guarded_transfer("transfer.h2d", buf, host, clock=self.clock)
        else:
            moved = buf.write_from(host)
        seconds = self.spec.transfer.time(moved)
        self.clock.charge("accel_data_update_device", seconds)
        tr = obs_state.active
        if tr is not None:
            tr.device_event(
                EventType.H2D,
                "accel_data_update_device",
                ts=t0,
                dur=seconds,
                nbytes=moved,
                device=self.device_id,
                **self.spec.transfer.attrs(),
            )

    def update_host(self, buf: DeviceBuffer, host: np.ndarray) -> None:
        """Device -> host copy, charging modeled PCIe time (after a sync)."""
        self._check_lost()
        self.synchronize()
        t0 = self.clock.now
        ctrl = res_state.active
        if ctrl is not None:
            moved = ctrl.guarded_transfer("transfer.d2h", buf, host, clock=self.clock)
        else:
            moved = buf.read_into(host)
        seconds = self.spec.transfer.time(moved)
        self.clock.charge("accel_data_update_host", seconds)
        tr = obs_state.active
        if tr is not None:
            tr.device_event(
                EventType.D2H,
                "accel_data_update_host",
                ts=t0,
                dur=seconds,
                nbytes=moved,
                device=self.device_id,
                **self.spec.transfer.attrs(),
            )

    def update_device_async(
        self, buf: DeviceBuffer, host: np.ndarray, coalesced: bool = False
    ) -> None:
        """Host -> device copy on the H2D stream; the host pays nothing now.

        The bytes move immediately (the simulation's DMA is a memcpy) but
        the modeled copy occupies the stream timeline; only a later
        :meth:`wait_transfers` exposes whatever tail compute did not hide.
        Callers must not mutate ``host`` until the stream is drained --
        the same contract as ``cudaMemcpyAsync`` from pageable memory.
        """
        self._check_lost()
        ctrl = res_state.active
        if ctrl is not None:
            moved = ctrl.guarded_transfer("transfer.h2d", buf, host, clock=self.clock)
        else:
            moved = buf.write_from(host)
        seconds = self.spec.transfer.time(moved)
        start = max(self.clock.now, self.h2d_stream.busy_until)
        self.h2d_stream.submit(moved, coalesced=coalesced)
        tr = obs_state.active
        if tr is not None:
            tr.device_event(
                EventType.H2D,
                "accel_data_update_device",
                ts=start,
                dur=seconds,
                nbytes=moved,
                device=self.device_id,
                mode="async",
                **self.spec.transfer.attrs(),
            )

    def update_host_async(
        self, buf: DeviceBuffer, host: np.ndarray, coalesced: bool = False
    ) -> None:
        """Device -> host copy on the D2H stream (deferred drain).

        Ordered after outstanding async compute (``busy_until``): the copy
        reads bytes the device produced, so the modeled DMA cannot start
        before the producing kernel finishes.
        """
        self._check_lost()
        ctrl = res_state.active
        if ctrl is not None:
            moved = ctrl.guarded_transfer("transfer.d2h", buf, host, clock=self.clock)
        else:
            moved = buf.read_into(host)
        seconds = self.spec.transfer.time(moved)
        start = max(self.clock.now, self.d2h_stream.busy_until, self.busy_until)
        self.d2h_stream.submit(moved, coalesced=coalesced, not_before=self.busy_until)
        tr = obs_state.active
        if tr is not None:
            tr.device_event(
                EventType.D2H,
                "accel_data_update_host",
                ts=start,
                dur=seconds,
                nbytes=moved,
                device=self.device_id,
                mode="async",
                **self.spec.transfer.attrs(),
            )

    def wait_transfers(self, direction: str = "both") -> float:
        """Drain the copy streams; returns (and charges) the exposed seconds."""
        exposed = 0.0
        for stream in (
            [self.h2d_stream, self.d2h_stream]
            if direction == "both"
            else [self.h2d_stream if direction == "h2d" else self.d2h_stream]
        ):
            pending = stream.pending()
            if pending > 0:
                t0 = self.clock.now
                stream.wait()
                exposed += pending
                tr = obs_state.active
                if tr is not None:
                    tr.device_event(
                        EventType.SYNC,
                        stream.wait_region,
                        ts=t0,
                        dur=pending,
                        device=self.device_id,
                    )
            else:
                stream.wait()
        return exposed

    def reset(self, buf: DeviceBuffer) -> None:
        """Zero a device buffer on-device (a tiny memset kernel)."""
        buf.zero()
        t0 = self.clock.now
        memset_time = self.spec.kernel_launch_overhead_s + (
            buf.nbytes / self.spec.memory_bandwidth_bps
        )
        self.clock.charge("accel_data_reset", memset_time)
        tr = obs_state.active
        if tr is not None:
            tr.device_event(
                EventType.KERNEL_LAUNCH,
                "accel_data_reset",
                ts=t0,
                dur=memset_time,
                charged_s=memset_time,
                nbytes=buf.nbytes,
                device=self.device_id,
            )

    # -- kernels ---------------------------------------------------------------

    def launch(self, name: str, seconds: float, n_launches: int = 1) -> None:
        """Record a kernel execution of modeled duration ``seconds``.

        The GPU-sharing multiplier and per-launch overhead are applied here
        so callers only supply the isolated-kernel cost.
        """
        if seconds < 0:
            raise ValueError("kernel time must be non-negative")
        if n_launches < 1:
            raise ValueError("a launch records at least one kernel")
        self._check_lost()
        self._poll_launch_faults(name)
        if self._fusion is not None:
            self._accumulate_fused(name, seconds)
            return
        total = (
            seconds * self.sharing.kernel_time_multiplier()
            + n_launches * self.spec.kernel_launch_overhead_s
        )
        # A synchronous launch also waits for prior async work.
        self.synchronize()
        t0 = self.clock.now
        self.clock.charge(name, total)
        self.busy_until = self.clock.now
        self.kernels_launched += n_launches
        tr = obs_state.active
        if tr is not None:
            tr.device_event(
                EventType.KERNEL_LAUNCH,
                name,
                ts=t0,
                dur=total,
                charged_s=total,
                n_launches=n_launches,
                device=self.device_id,
                mode="sync",
            )

    def launch_async(self, name: str, seconds: float, n_launches: int = 1) -> None:
        """Submit a kernel without waiting (``nowait`` / stream semantics).

        The host pays only the submission overhead; the kernel occupies the
        device timeline starting when the device is free.  This is the
        overlap the paper says OpenMP Target Offload needs "manual
        specification of data dependencies" to achieve (§2.2.2); results
        must not be read back before :meth:`synchronize`.
        """
        if seconds < 0:
            raise ValueError("kernel time must be non-negative")
        if n_launches < 1:
            raise ValueError("a launch records at least one kernel")
        self._check_lost()
        self._poll_launch_faults(name)
        if self._fusion is not None:
            self._accumulate_fused(name, seconds)
            return
        submit = n_launches * self.spec.kernel_launch_overhead_s
        self.clock.charge(name, submit)
        duration = seconds * self.sharing.kernel_time_multiplier()
        start = max(self.clock.now, self.busy_until)
        self.busy_until = start + duration
        self.kernels_launched += n_launches
        tr = obs_state.active
        if tr is not None:
            # The event spans the device-timeline occupancy; only the
            # submission overhead was charged to the kernel's clock region.
            tr.device_event(
                EventType.KERNEL_LAUNCH,
                name,
                ts=start,
                dur=duration,
                charged_s=submit,
                n_launches=n_launches,
                device=self.device_id,
                mode="async",
            )

    # -- fused launch regions ---------------------------------------------------

    def begin_fused(self, name: str) -> None:
        """Open a fused-launch region (the pipeline compiler's fusion pass).

        Until :meth:`end_fused`, member :meth:`launch` calls accumulate
        their modeled kernel time instead of charging it; the region then
        charges one merged launch with a single launch overhead.  Fault
        polling still happens per member, so injected fault plans fire at
        the same ``device.launch`` evaluation as in unfused execution.
        """
        if self._fusion is not None:
            raise RuntimeError("fused launch regions do not nest")
        self._fusion = {
            "name": name,
            "seconds": 0.0,
            "members": [],
        }

    def _accumulate_fused(self, name: str, seconds: float) -> None:
        self._fusion["seconds"] += seconds * self.sharing.kernel_time_multiplier()
        self._fusion["members"].append(name)

    def abort_fused(self) -> None:
        """Discard an open fused region (device lost mid-group)."""
        self._fusion = None

    def end_fused(self) -> int:
        """Close the region: one merged launch charge.

        Returns the kernel dispatches elided: members merged, minus one.
        A jaxshim member may count several device launches of its own;
        ``kernels_launched`` still moves by exactly one.
        """
        if self._fusion is None:
            raise RuntimeError("no fused launch region is open")
        fusion, self._fusion = self._fusion, None
        if not fusion["members"]:
            return 0
        self._check_lost()
        total = fusion["seconds"] + self.spec.kernel_launch_overhead_s
        self.synchronize()
        t0 = self.clock.now
        name = f"fused.{fusion['name']}"
        self.clock.charge(name, total)
        self.busy_until = self.clock.now
        self.kernels_launched += 1
        elided = len(fusion["members"]) - 1
        tr = obs_state.active
        if tr is not None:
            tr.device_event(
                EventType.KERNEL_LAUNCH,
                name,
                ts=t0,
                dur=total,
                charged_s=total,
                n_launches=1,
                device=self.device_id,
                mode="fused",
                members=list(fusion["members"]),
                launches_elided=elided,
            )
        return elided

    def synchronize(self) -> None:
        """Block the host until outstanding async kernels finish."""
        wait = self.busy_until - self.clock.now
        if wait > 0:
            t0 = self.clock.now
            self.clock.charge("device_synchronize", wait)
            tr = obs_state.active
            if tr is not None:
                tr.device_event(
                    EventType.SYNC,
                    "device_synchronize",
                    ts=t0,
                    dur=wait,
                    device=self.device_id,
                )
        self.busy_until = self.clock.now

    # -- lifecycle ---------------------------------------------------------------

    def reset_all(self) -> None:
        """Free every live buffer and zero the accounting (test isolation)."""
        for buf in list(self._buffers.values()):
            self.free(buf)
        self.clock.reset()
        self.kernels_launched = 0
        self.busy_until = 0.0
        self.h2d_stream = CopyStream(self.clock, self.spec.transfer, "transfer_wait_h2d")
        self.d2h_stream = CopyStream(self.clock, self.spec.transfer, "transfer_wait_d2h")
        self._fusion = None
        self.lost = False

    def __repr__(self) -> str:
        return (
            f"SimulatedDevice({self.spec.name}, id={self.device_id}, "
            f"{self.allocated_bytes}/{self.pool.capacity} bytes, "
            f"{self.live_buffers} buffers)"
        )
