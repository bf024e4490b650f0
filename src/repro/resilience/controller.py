"""The resilience controller: one object owning injection and recovery.

The controller is installed process-wide (see :mod:`repro.resilience.state`)
and consulted by hooks in the accelerator, the offload shim, the kernel
dispatch, and the pipeline.  It is three things at once:

* the **injection plane**: :meth:`check` evaluates the fault plan at each
  wired site and raises / returns the injected fault;
* the **recovery plane**: retry-with-backoff on the virtual clock,
  per-(kernel, implementation) circuit breakers, the backend fallback
  chain, and the bookkeeping the pipeline's eviction and checkpoint paths
  use;
* the **witness**: every injected fault and every recovery decision is
  counted here and emitted as a typed ``repro.obs`` event when tracing is
  active, so a fault run's trace shows exactly what happened and why.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..accel.errors import (
    DeviceLostError,
    KernelLaunchError,
    OutOfDeviceMemoryError,
    TransferCorruptionError,
    TransferError,
)
from ..accel.transfer import transfer_checksum
from ..obs import state as obs_state
from ..obs.events import ClockDomain, Event, EventType
from .faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from .recovery import CircuitBreaker, RetryPolicy

__all__ = ["ResilienceConfig", "ResilienceController", "TRANSIENT_ERRORS"]

#: Exception classes the recovery plane treats as transient (retry, then
#: fall back).  ``TargetRegionError`` subclasses ``KernelLaunchError`` so
#: the offload path's failures classify without an ompshim import here.
TRANSIENT_ERRORS: Tuple[type, ...] = (KernelLaunchError, TransferError)

#: Errors the kernel-level wrapper must re-raise untouched: recovery for
#: these lives at the pipeline level (eviction / checkpoint-resume).
_PIPELINE_ERRORS: Tuple[type, ...] = (OutOfDeviceMemoryError, DeviceLostError)

#: Tracer counter names for host-domain resilience events (device-domain
#: events go through ``Tracer.device_event``, which counts them itself).
_RESILIENCE_METRIC = {
    EventType.FAULT_INJECTED: "resilience.faults_injected",
    EventType.RETRY: "resilience.retries",
    EventType.FALLBACK: "resilience.fallbacks",
    EventType.BREAKER_OPEN: "resilience.breaker_opens",
    EventType.BREAKER_CLOSE: "resilience.breaker_closes",
    EventType.EVICT: "resilience.evictions",
    EventType.CHECKPOINT: "resilience.checkpoints",
}


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs for the recovery plane (injection comes from the plan)."""

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker_failure_threshold: int = 3
    #: Virtual seconds an open breaker waits before a half-open probe.
    breaker_cooldown_s: float = 0.05
    #: Walk the implementation fallback chain when a kernel keeps failing.
    fallback: bool = True
    #: On device OOM, spill the non-working-set buffer with the farthest
    #: next device use and retry.
    evict_on_oom: bool = True
    #: Record per-stage checkpoints so device loss resumes, not restarts.
    checkpoint: bool = True
    #: Checksum both ends of guarded transfers.  ``None`` = only when the
    #: plan can inject corruption (keeps clean runs cheap).
    verify_transfers: Optional[bool] = None


class ResilienceController:
    """Injection + recovery + witness; see the module docstring."""

    def __init__(
        self,
        plan: Optional[FaultPlan] = None,
        config: Optional[ResilienceConfig] = None,
        seed: Optional[int] = None,
    ):
        self.plan = plan
        self.config = config if config is not None else ResilienceConfig()
        self.injector = FaultInjector(plan) if plan is not None else None
        base_seed = plan.seed if plan is not None else (seed if seed is not None else 0)
        #: Recovery-side RNG (jitter, corruption offsets) -- independent of
        #: the injector's stream so recovery draws never perturb replay.
        self.rng = random.Random(base_seed ^ 0x5EED)
        self.breakers: Dict[str, CircuitBreaker] = {}
        self.counters: Dict[str, int] = {}
        self.checkpoints: List[Dict[str, Any]] = []
        self._clock = None
        self._ticks = 0.0
        if self.config.verify_transfers is None:
            self._verify_transfers = plan is not None and any(
                s.kind is FaultKind.TRANSFER_CORRUPT for s in plan.specs
            )
        else:
            self._verify_transfers = self.config.verify_transfers

    # -- time ------------------------------------------------------------------

    def bind_clock(self, clock) -> None:
        """Use a device :class:`~repro.accel.clock.VirtualClock` for backoff
        charges, breaker cooldowns, and event timestamps."""
        self._clock = clock

    def now(self, clock=None) -> float:
        c = clock if clock is not None else self._clock
        if c is not None:
            return c.now
        return self._ticks

    # -- bookkeeping -----------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _emit(self, etype: EventType, name: str, clock=None, **attrs: Any) -> None:
        tr = obs_state.active
        if tr is None:
            return
        c = clock if clock is not None else self._clock
        if c is not None:
            # On the device timeline; device_event also maintains the
            # tracer's resilience aggregate counters.
            tr.device_event(etype, name, ts=c.now, **attrs)
        else:
            tr.emit(
                Event(etype, name, ts=tr.now(), clock=ClockDomain.HOST, attrs=attrs)
            )
            key = _RESILIENCE_METRIC.get(etype)
            if key is not None:
                tr.metrics.count(key)
                if etype is EventType.EVICT:
                    tr.metrics.count(
                        "resilience.evicted_bytes", float(attrs.get("nbytes", 0))
                    )

    # -- injection plane -------------------------------------------------------

    def check(self, site: str, clock=None, **attrs: Any) -> Optional[FaultSpec]:
        """Evaluate the plan at ``site``.

        Raising kinds (OOM, launch failure, device loss, transfer failure)
        raise their exception here; behavioural kinds (stall, corruption,
        target-region failure, torn store writes, bit rot) return the spec
        for the call site to act on.  Either way a FAULT_INJECTED event is
        emitted first.
        """
        if self.injector is None:
            return None
        spec = self.injector.poll(site)
        if spec is None:
            return None
        call = self.injector.calls[site]
        self.count("faults_injected")
        self._emit(
            EventType.FAULT_INJECTED,
            site,
            clock=clock,
            kind=spec.kind.value,
            call=call,
            transient=spec.transient,
            **attrs,
        )
        kind = spec.kind
        if kind is FaultKind.OOM:
            raise OutOfDeviceMemoryError(
                f"[injected fault: {site} call #{call}] allocation denied by "
                f"external memory pressure (plan {self.injector.plan.name!r})"
            )
        if kind is FaultKind.FRAGMENT:
            raise OutOfDeviceMemoryError(
                f"[injected fault: {site} call #{call}] allocation denied: no "
                f"contiguous block under fragmentation pressure "
                f"(plan {self.injector.plan.name!r})"
            )
        if kind is FaultKind.LAUNCH_FAIL:
            raise KernelLaunchError(
                f"[injected fault: {site} call #{call}] kernel launch failed "
                f"transiently (plan {self.injector.plan.name!r})"
            )
        if kind is FaultKind.DEVICE_LOST:
            raise DeviceLostError(
                f"[injected fault: {site} call #{call}] device lost; "
                f"device-resident data destroyed (plan {self.injector.plan.name!r})"
            )
        if kind is FaultKind.TRANSFER_FAIL:
            raise TransferError(
                f"[injected fault: {site} call #{call}] transient transfer "
                f"failure (plan {self.injector.plan.name!r})"
            )
        # DEVICE_STALL / TRANSFER_CORRUPT / TARGET_FAIL / WORKER_CRASH:
        # the caller acts on the returned spec.
        return spec

    # -- retry plane -----------------------------------------------------------

    def backoff(self, site: str, attempt: int, error: BaseException, clock=None) -> None:
        """Charge one exponential-backoff delay (virtual time, seeded jitter)."""
        delay = self.config.retry.delay(attempt, self.rng)
        c = clock if clock is not None else self._clock
        if c is not None:
            c.charge("resilience_backoff", delay)
        else:
            self._ticks += delay
        self.count("retries")
        self._emit(
            EventType.RETRY,
            site,
            clock=clock,
            attempt=attempt,
            backoff_s=delay,
            error=type(error).__name__,
        )

    def guarded_transfer(self, site: str, buf, host: np.ndarray, clock=None) -> int:
        """One host<->device copy under injection + retry.

        ``site`` is ``"transfer.h2d"`` or ``"transfer.d2h"``; ``buf`` is the
        :class:`~repro.accel.buffer.DeviceBuffer`, ``host`` the (contiguous)
        host array.  Transient failures and detected corruption re-issue
        the copy after a backoff; the bytes moved are returned.
        """
        h2d = site == "transfer.h2d"
        policy = self.config.retry
        last: Optional[TransferError] = None
        for attempt in range(1, policy.max_attempts + 1):
            try:
                spec = self.check(site, clock=clock, nbytes=int(host.nbytes))
                moved = buf.write_from(host) if h2d else buf.read_into(host)
                corrupt = spec is not None and spec.kind is FaultKind.TRANSFER_CORRUPT
                if corrupt:
                    k = self.rng.randrange(max(1, moved))
                    if h2d:
                        buf.corrupt_byte(k)
                    else:
                        host.view(np.uint8).reshape(-1)[k % max(1, moved)] ^= 0xFF
                if corrupt or self._verify_transfers:
                    src = transfer_checksum(host, moved) if h2d else buf.checksum(moved)
                    dst = buf.checksum(moved) if h2d else transfer_checksum(host, moved)
                    if src != dst:
                        raise TransferCorruptionError(
                            f"{site}: checksum mismatch after copying {moved} "
                            f"bytes (source {src:#010x} != destination {dst:#010x}); "
                            "the copy was corrupted in flight"
                        )
                return moved
            except TransferError as e:
                last = e
                if attempt >= policy.max_attempts:
                    raise
                self.backoff(site, attempt, e, clock=clock)
        raise last if last is not None else AssertionError("unreachable")

    # -- breakers + fallback chain ---------------------------------------------

    def breaker(self, key: str) -> CircuitBreaker:
        br = self.breakers.get(key)
        if br is None:
            br = self.breakers[key] = CircuitBreaker(
                key,
                failure_threshold=self.config.breaker_failure_threshold,
                cooldown_s=self.config.breaker_cooldown_s,
            )
        return br

    def resilient_kernel(
        self,
        name: str,
        requested,
        registry,
        chain: Sequence,
        accel_impls: Tuple,
    ) -> Callable:
        """The callable ``get_kernel`` returns under resilience.

        ``chain`` is the implementation fallback order starting at the
        requested implementation, already filtered to registered ones.
        Each link has a circuit breaker; transient failures retry with
        backoff, then fall through to the next link.  Falling from an
        accelerated implementation to a host one syncs mapped arrays back
        first (and refreshes the device after) so data stays coherent.
        """

        def call(*args: Any, **kwargs: Any) -> Any:
            policy = self.config.retry
            last_err: Optional[BaseException] = None
            for pos, impl in enumerate(chain):
                br = self.breaker(f"{name}:{impl.value}")
                if not br.allow(self.now()):
                    self.count("breaker_skips")
                    continue
                if pos > 0:
                    self.count("fallbacks")
                    self._emit(
                        EventType.FALLBACK,
                        name,
                        requested=requested.value,
                        to=impl.value,
                        reason=(
                            type(last_err).__name__
                            if last_err is not None
                            else "breaker_open"
                        ),
                    )
                fn = registry.get(name, impl, allow_fallback=False)
                host_sync = (
                    requested in accel_impls
                    and impl not in accel_impls
                    and bool(kwargs.get("use_accel"))
                    and kwargs.get("accel") is not None
                )
                for attempt in range(1, policy.max_attempts + 1):
                    try:
                        if host_sync:
                            result = self._run_on_host(fn, args, kwargs)
                        else:
                            result = fn(*args, **kwargs)
                    except _PIPELINE_ERRORS:
                        raise  # eviction / checkpoint-resume owns these
                    except TRANSIENT_ERRORS as e:
                        last_err = e
                        if br.record_failure(self.now()) == "opened":
                            self.count("breaker_opens")
                            self._emit(
                                EventType.BREAKER_OPEN,
                                br.name,
                                failures=br.consecutive_failures,
                                cooldown_s=br.cooldown_s,
                            )
                        if attempt < policy.max_attempts and self.plan is not None:
                            self.backoff(f"kernel.{name}", attempt, e)
                            continue
                        break  # exhausted: next implementation
                    else:
                        if br.record_success() == "closed":
                            self.count("breaker_closes")
                            self._emit(EventType.BREAKER_CLOSE, br.name)
                        return result
                if not self.config.fallback:
                    break
            if last_err is not None:
                raise last_err
            open_names = sorted(
                k for k, b in self.breakers.items() if k.startswith(f"{name}:")
            )
            raise KernelLaunchError(
                f"kernel {name!r}: no implementation available "
                f"(fallback chain exhausted; breakers: {open_names})"
            )

        return call

    def _run_on_host(self, fn: Callable, args: Tuple, kwargs: Dict) -> Any:
        """Run a host implementation coherently mid-accelerated-pipeline.

        Device-mapped array arguments are synced back to the host before
        the call and pushed to the device after, so neither side goes
        stale when execution bounces between paths.
        """
        runtime = kwargs.get("accel")
        present: List[np.ndarray] = []
        seen: set = set()
        for a in (*args, *kwargs.values()):
            if isinstance(a, np.ndarray) and id(a) not in seen:
                seen.add(id(a))
                if runtime is not None and runtime.is_present(a):
                    present.append(a)
        for a in present:
            runtime.target_update_from(a)
        kw = dict(kwargs, use_accel=False, accel=None)
        result = fn(*args, **kw)
        for a in present:
            runtime.target_update_to(a)
        self.count("host_syncs")
        return result

    # -- pipeline recovery bookkeeping -----------------------------------------

    def record_eviction(self, name: str, nbytes: int, clock=None, **attrs: Any) -> None:
        self.count("evictions")
        self._emit(EventType.EVICT, name, clock=clock, nbytes=int(nbytes), **attrs)

    def record_host_fallback(self, op_name: str, reason: str, clock=None) -> None:
        self.count("fallbacks")
        self._emit(
            EventType.FALLBACK, op_name, clock=clock, to="host", reason=reason
        )

    def record_checkpoint(self, manifest: Dict[str, Any], clock=None) -> None:
        self.count("checkpoints")
        if len(self.checkpoints) >= 1024:
            del self.checkpoints[0]
        self.checkpoints.append(dict(manifest))
        self._emit(EventType.CHECKPOINT, str(manifest.get("op", "stage")), clock=clock, **manifest)

    def record_worker_recovery(self, rank: int, n_obs: int, clock=None) -> None:
        """A crashed shard worker's observations were re-run successfully."""
        self.count("worker_recoveries")
        self._emit(
            EventType.RETRY,
            "parallel.worker.rerun",
            clock=clock,
            rank=rank,
            n_obs=n_obs,
            reason="worker_crash",
        )

    def record_device_recovery(self, op_name: str, stage: int, clock=None) -> None:
        self.count("device_recoveries")
        self._emit(
            EventType.RETRY,
            "pipeline.resume",
            clock=clock,
            op=op_name,
            stage=stage,
            reason="device_lost",
        )

    # -- reporting -------------------------------------------------------------

    def report(self) -> Dict[str, Any]:
        """Everything a recovery report needs, as plain data."""
        return {
            "plan": self.plan.name if self.plan is not None else None,
            "seed": self.plan.seed if self.plan is not None else None,
            "counters": dict(self.counters),
            "faults": (
                [r.as_dict() for r in self.injector.log]
                if self.injector is not None
                else []
            ),
            "breakers": {k: b.state.value for k, b in sorted(self.breakers.items())},
            "checkpoints": len(self.checkpoints),
            "last_checkpoint": self.checkpoints[-1] if self.checkpoints else None,
        }

    def __repr__(self) -> str:
        plan = self.plan.name if self.plan is not None else None
        return f"ResilienceController(plan={plan!r}, counters={self.counters})"
