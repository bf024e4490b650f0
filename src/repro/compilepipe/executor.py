"""Execute a pipeline plan: residency, overlap, fusion, recovery.

This is the one accelerated executor: every ``Pipeline`` run on a device
goes through :class:`CompiledRun`, whatever its plan.  It walks the
planned stage sequence keeping a small dynamic model of device state —
which arrays are mapped, and whether the device or the host holds the
newer bytes.  Every planner decision is re-validated against that model
before it is acted on, so spills, device loss, and injected faults can
reshape execution without ever making it wrong; the plan only decides
*when* copies happen and *what* never needs to move.

Two kinds of plan share the loop, its liveness spill and its recovery:

* the compiled plan (``plan="compiled"``/``"megabatch"``) elides H2D
  copies of zero first touches into on-device memsets, prefetches and
  drains on the async copy streams, and fuses launches;
* the eager schedules (``plan="eager"`` with ``MovementPolicy.HYBRID`` or
  ``NAIVE``) copy synchronously through the ompshim data environment
  (``target_enter_data``/``target_update_*``/``target_exit_data``)
  around each operator.

Numerically every plan is bitwise identical: kernels execute unchanged
against the same device views, in the same order, and every
device-written array is back on the host by pipeline exit.  The parity
suite pins this.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..accel.errors import DeviceLostError, OutOfDeviceMemoryError
from ..obs import state as obs_state
from ..obs.events import EventType
from ..resilience import state as res_state
from .lifetime import lower_workflow
from .planner import PipelinePlan, build_plan, eager_plan

__all__ = ["execute_compiled", "CompiledRun"]

#: Device-loss recoveries tolerated per stage before giving up.
MAX_DEVICE_RECOVERIES = 3

#: Buffer coherence states.
_SYNCED = "synced"  # host and device agree
_DEVICE_NEWER = "device_newer"  # device copy is ahead (pending drain)
_HOST_NEWER = "host_newer"  # host copy is ahead (device copy stale)


class CompiledRun:
    """One execution of a pipeline's plan over one device runtime."""

    def __init__(self, pipeline, data, runtime):
        self.pipeline = pipeline
        self.data = data
        self.runtime = runtime
        self.device = runtime.device
        self.clock = runtime.device.clock
        from ..core.pipeline import MovementPolicy

        self.megabatch = pipeline.plan == "megabatch"
        self.units = pipeline.work_units(data)
        self.ir = lower_workflow(pipeline.operators, self.units)
        if pipeline.plan == "eager":
            naive = pipeline.policy is MovementPolicy.NAIVE
            self.plan: PipelinePlan = eager_plan(self.ir, naive=naive)
        else:
            self.plan = build_plan(self.ir, megabatch=self.megabatch)
        # Dynamic device-state model.
        self._mapped: Dict[int, np.ndarray] = {}
        self._label: Dict[int, str] = {}
        self._status: Dict[int, str] = {}
        self._d2h_inflight: set[int] = set()
        self._fused_open = None
        # Actuals (the plan's static counts are verified against these).
        self.transfers_elided = 0
        self.launches_elided = 0
        self.spills = 0
        self.replans = 0

    # -- state helpers -------------------------------------------------------

    def _life(self, arr: np.ndarray):
        return self.ir.life_of(arr)

    def _emit_plan_event(self, replan: bool = False) -> None:
        """Report the compiled plan; an eager schedule elides nothing."""
        tr = obs_state.active
        if tr is None or self.plan.eager:
            return
        tr.device_event(
            EventType.PLAN,
            self.pipeline.name,
            ts=self.clock.now,
            stages=len(self.plan.stages),
            buffers=len(self.plan.buffers),
            transfers_elided=0 if replan else self.plan.transfers_elided,
            fused_groups=0 if replan else self.plan.fused_groups,
            launches_elided=0 if replan else self.plan.launches_elided,
            replan=replan,
        )

    def _enter(self, arr: np.ndarray, label: str, copy: bool = False) -> None:
        """Map ``arr``; ``copy`` makes it a synchronous ``map(to:)``."""
        key = id(arr)
        if copy:
            self.runtime.target_enter_data(to=[arr], labels={key: label})
        else:
            self.runtime.target_enter_data(alloc=[arr], labels={key: label})
        self._mapped[key] = arr
        self._label[key] = label
        self._status[key] = _SYNCED

    def _ensure_on_device(self, arr: np.ndarray, label: str, elide: bool) -> None:
        """Make the device copy of ``arr`` present and valid, asynchronously.

        ``elide``: the planner proved no host write precedes this first
        touch, so an all-zero host array maps to an on-device memset
        instead of an H2D copy (re-checked here — authoritative).
        """
        key = id(arr)
        if key not in self._mapped:
            self._enter(arr, label)
            assoc = self.runtime.present.lookup(arr)
            if elide and not arr.any():
                # Freshly allocated device storage is already zero; the
                # memset still charges its on-device cost for honesty.
                self.device.reset(assoc.buffer)
                self.transfers_elided += 1
            else:
                self.device.update_device_async(assoc.buffer, arr)
        elif self._status.get(key) == _HOST_NEWER:
            assoc = self.runtime.present.lookup(arr)
            self.device.update_device_async(assoc.buffer, arr)
            self._status[key] = _SYNCED

    def _drain_async(self, arr: np.ndarray, coalesced: bool) -> None:
        """Submit the deferred D2H for a device-written array."""
        key = id(arr)
        if self._status.get(key) != _DEVICE_NEWER:
            return
        assoc = self.runtime.present.lookup(arr)
        self.device.update_host_async(assoc.buffer, arr, coalesced=coalesced)
        self._status[key] = _SYNCED
        self._d2h_inflight.add(key)

    def _sync_back(self, arr: np.ndarray) -> None:
        """Blocking D2H of a device-newer array (host reader needs it now)."""
        key = id(arr)
        if key in self._d2h_inflight:
            self.device.wait_transfers("d2h")
            self._d2h_inflight.clear()
        if self._status.get(key) == _DEVICE_NEWER:
            self.runtime.target_update_from(arr)
            self._status[key] = _SYNCED

    def _release(self, key: int) -> None:
        """Unmap one array, syncing it back first if the device is newer."""
        arr = self._mapped[key]
        if self._status.get(key) == _DEVICE_NEWER:
            self._sync_back(arr)
        self.runtime.target_exit_data(release=[arr])
        del self._mapped[key]
        self._label.pop(key, None)
        self._status.pop(key, None)
        self._d2h_inflight.discard(key)

    def _release_all(self) -> None:
        for key in list(self._mapped):
            self._release(key)

    def _invalidate_all(self) -> None:
        """Device loss: residency is gone; host copies are what they are."""
        self._mapped.clear()
        self._label.clear()
        self._status.clear()
        self._d2h_inflight.clear()

    # -- spill-by-liveness ---------------------------------------------------

    def _spill_one(self, working: set, stage_idx: int, op_name: str, ctrl) -> bool:
        """Evict the mapped buffer with the farthest next device use."""
        candidates = [k for k in self._mapped if k not in working]
        if not candidates:
            return False

        def distance(key: int):
            life = self._life(self._mapped[key])
            nxt = life.next_device_use(stage_idx) if life is not None else None
            # No future device use sorts last (evict first); then farthest
            # next use; ties broken toward larger buffers.
            far = float("inf") if nxt is None else float(nxt)
            return (far, self._mapped[key].nbytes)

        victim = max(candidates, key=distance)
        nbytes = self._mapped[victim].nbytes
        label = self._label.get(victim, "?")
        self._release(victim)
        self.spills += 1
        if ctrl is not None:
            ctrl.record_eviction(
                op_name,
                nbytes,
                clock=self.clock,
                reason="device_oom",
                label=label,
                policy="liveness",
            )
        else:
            tr = obs_state.active
            if tr is not None:
                tr.device_event(
                    EventType.EVICT,
                    label,
                    ts=self.clock.now,
                    nbytes=nbytes,
                    label=label,
                    policy="liveness",
                    reason="device_oom",
                )
        return True

    # -- stage bodies --------------------------------------------------------

    def _stage_in(self, stage, sp) -> None:
        """Make everything ``stage`` touches valid on the device."""
        if self.plan.eager:
            # Per-operator staging: a synchronous map(to:) of each array
            # not yet resident, labelled by its key as operators do.
            for label in sp.stage_in_sync:
                life = self.ir.buffers[label]
                if id(life.array) not in self._mapped:
                    self._enter(life.array, life.key, copy=True)
            return
        # Stage-in what this stage needs (elisions and async copies), then
        # drain the H2D stream: prefetched copies from earlier stages are
        # already hidden behind compute, so this exposes only the tail.
        for acc in stage.accesses:
            elide = acc.label in sp.stage_in_elide
            self._ensure_on_device(acc.array, acc.label, elide=elide)
        # A device write to an array whose deferred D2H is still in flight
        # must wait for the copy (real hardware would corrupt the readback).
        if self._d2h_inflight and any(
            acc.writes and id(acc.array) in self._d2h_inflight
            for acc in stage.accesses
        ):
            self.device.wait_transfers("d2h")
            self._d2h_inflight.clear()
        self.device.wait_transfers("h2d")

        # Double-buffering: submit next stages' H2D while this stage
        # computes.  Prefetched buffers are first-touches, so entering and
        # copying now is safe — no earlier stage can still write them.
        for label in sp.prefetch:
            life = self.ir.buffers[label]
            self._ensure_on_device(life.array, label, elide=False)

    def _run_accel_stage(self, stage, sp) -> None:
        self._stage_in(stage, sp)
        group = self.plan.group_of(stage.index)
        if group is not None and group.stage_indices[0] == stage.index:
            self.device.begin_fused(group.name)
            self._fused_open = group
        with self.pipeline._stage(stage.op, self.runtime):
            if self.megabatch:
                from ..core.dispatch import megabatch_collection
                from ..kernels.megabatch import MegabatchCollector

                coll = MegabatchCollector()
                with megabatch_collection(coll):
                    stage.op.exec(stage.unit, use_accel=True, accel=self.runtime)
                # Stacking elisions compose with fusion's: the fused
                # region already sees the reduced (stacked) launch count.
                self.launches_elided += coll.launches_elided
            else:
                stage.op.exec(stage.unit, use_accel=True, accel=self.runtime)
        for acc in stage.accesses:
            if acc.writes and id(acc.array) in self._mapped:
                self._status[id(acc.array)] = _DEVICE_NEWER
        if group is not None and self._fused_open is group and (
            group.stage_indices[-1] == stage.index
        ):
            self.launches_elided += self.device.end_fused()
            self._fused_open = None

        # Deferred drains: last device use of device-written arrays —
        # submit now, coalesced, and let them run behind later compute.
        for label in sp.drain:
            life = self.ir.buffers[label]
            if id(life.array) in self._mapped:
                self._drain_async(life.array, coalesced=True)

    def _run_host_stage(self, stage) -> None:
        """Run a stage's operator on the host (also the OOM last resort)."""
        # Host readers need device-newer bytes synced back first.
        for acc in stage.accesses:
            if acc.reads:
                self._sync_back(acc.array)
        with self.pipeline._stage(stage.op):
            stage.op.exec(stage.unit, use_accel=False, accel=None)
        for acc in stage.accesses:
            key = id(acc.array)
            if acc.writes and key in self._mapped:
                if self.plan.eager:
                    # Eager refreshes the device copy right away.
                    self.runtime.target_update_to(acc.array)
                else:
                    # The plan defers the refresh to the next device use,
                    # which may never come (a counted elision).
                    self._status[key] = _HOST_NEWER

    # -- the main loop -------------------------------------------------------

    def execute(self) -> PipelinePlan:
        ctrl = res_state.active
        h2d0 = (self.device.h2d_stream.busy_seconds, self.device.h2d_stream.waited_seconds)
        d2h0 = (self.device.d2h_stream.busy_seconds, self.device.d2h_stream.waited_seconds)
        self._emit_plan_event()

        for stage in self.ir.stages:
            sp = self.plan.stages[stage.index]
            working = {id(acc.array) for acc in stage.accesses}
            oom_backoffs = 0
            device_recoveries = 0
            while True:
                try:
                    if stage.accel:
                        self._run_accel_stage(stage, sp)
                    else:
                        self._run_host_stage(stage)
                    break
                except OutOfDeviceMemoryError as e:
                    if self._fused_open is not None:
                        self.device.abort_fused()
                        self._fused_open = None
                    if (
                        ctrl is None or ctrl.config.evict_on_oom
                    ) and self._spill_one(working, stage.index, stage.op.name, ctrl):
                        continue
                    if (
                        ctrl is not None
                        and oom_backoffs < ctrl.config.retry.max_attempts - 1
                    ):
                        oom_backoffs += 1
                        ctrl.backoff(
                            f"pipeline.{stage.op.name}", oom_backoffs, e, clock=self.clock
                        )
                        continue
                    if ctrl is None or not stage.accel:
                        raise
                    ctrl.record_host_fallback(
                        stage.op.name, "device_oom", clock=self.clock
                    )
                    self._run_host_stage(stage)
                    break
                except DeviceLostError:
                    if self._fused_open is not None:
                        self.device.abort_fused()
                        self._fused_open = None
                    if ctrl is None or not ctrl.config.checkpoint:
                        raise
                    if device_recoveries >= MAX_DEVICE_RECOVERIES:
                        raise
                    device_recoveries += 1
                    # Residency is garbage: recover the device, forget the
                    # model, and replan the rest of the run from host
                    # copies (current up to the last per-stage checkpoint).
                    self.runtime.recover_device()
                    self._invalidate_all()
                    self.replans += 1
                    ctrl.record_device_recovery(
                        stage.op.name, stage.index, clock=self.clock
                    )
                    self._emit_plan_event(replan=True)
                    continue

            if ctrl is not None and ctrl.config.checkpoint:
                # Host copies current up to here: the device-loss resume
                # point.  This forfeits D2H deferral across stages under a
                # controller — the price of recoverability.
                for key, arr in list(self._mapped.items()):
                    if self._status.get(key) == _DEVICE_NEWER:
                        self._sync_back(arr)
                ctrl.record_checkpoint(
                    {
                        "pipeline": self.pipeline.name,
                        "op": stage.op.name,
                        "stage": stage.index,
                        "fields": sorted(
                            acc.key for acc in stage.accesses if acc.writes
                        ),
                    },
                    clock=self.clock,
                )
            if sp.release:
                self._release_all()

        # Pipeline exit: drain everything still device-newer, wait out the
        # streams, release the device.  Every device result is now on the
        # host.
        for key, arr in list(self._mapped.items()):
            if self._status.get(key) == _DEVICE_NEWER:
                self._drain_async(arr, coalesced=True)
        self.device.wait_transfers("both")
        self._release_all()

        h2d = self.device.h2d_stream
        d2h = self.device.d2h_stream
        overlap = max(
            0.0,
            (h2d.busy_seconds - h2d0[0]) - (h2d.waited_seconds - h2d0[1]),
        ) + max(
            0.0,
            (d2h.busy_seconds - d2h0[0]) - (d2h.waited_seconds - d2h0[1]),
        )
        tr = obs_state.active
        if tr is not None and not self.plan.eager:
            tr.device_event(
                EventType.OVERLAP,
                self.pipeline.name,
                ts=self.clock.now,
                dur=overlap,
                transfers_elided=self.transfers_elided,
                launches_elided=self.launches_elided,
                spills=self.spills,
                replans=self.replans,
            )
        self.plan.executed.update(
            {
                "transfers_elided": float(self.transfers_elided),
                "launches_elided": float(self.launches_elided),
                "overlap_seconds": float(overlap),
                "spills": float(self.spills),
                "replans": float(self.replans),
            }
        )
        return self.plan


def execute_compiled(pipeline, data, runtime) -> PipelinePlan:
    """Plan and execute ``pipeline`` over ``data`` on ``runtime``."""
    run = CompiledRun(pipeline, data, runtime)
    return run.execute()
