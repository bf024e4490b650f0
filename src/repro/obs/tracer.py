"""The span tracer: host spans, device-clock stages, and the event buffer.

One :class:`Tracer` owns a bounded in-memory event buffer, a
:class:`~repro.obs.metrics.MetricsRegistry` of live aggregates, and a
thread-local stack of open :class:`Span`\\ s.  The instrumentation hooks
check the module-global active tracer (``None`` by default), so disabled
tracing costs one attribute load and one ``is None`` branch.  The one
timing decorator is :func:`repro.core.timing.function_timer`, which opens
a :meth:`Tracer.span` per call while a tracer is active.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from typing import Any, Iterator, List, Optional

from .events import ClockDomain, Event, EventType
from .metrics import MetricsRegistry

__all__ = ["Span", "Tracer"]

#: Default event-buffer bound: large enough for a medium_scaled run,
#: small enough that a runaway loop cannot exhaust memory.
DEFAULT_MAX_EVENTS = 200_000


class Span:
    """One open host-side region; closed by its context manager."""

    __slots__ = ("name", "t0", "t1", "attrs", "depth", "parent_name")

    def __init__(self, name: str, t0: float, attrs: dict, depth: int, parent_name: Optional[str]):
        self.name = name
        self.t0 = t0
        self.t1: Optional[float] = None
        self.attrs = attrs
        self.depth = depth
        self.parent_name = parent_name

    @property
    def closed(self) -> bool:
        return self.t1 is not None

    @property
    def duration(self) -> float:
        if self.t1 is None:
            raise RuntimeError(f"span {self.name!r} is still open")
        return self.t1 - self.t0

    def __repr__(self) -> str:
        state = f"dur={self.duration:.3g}" if self.closed else "open"
        return f"Span({self.name!r}, depth={self.depth}, {state})"


class Tracer:
    """Collects events and aggregates; the heart of ``repro.obs``.

    Host timestamps are seconds since tracer construction (so host and
    device timelines both start near zero and overlay cleanly in a trace
    viewer).  Device events are emitted by the instrumentation hooks with
    timestamps read from a :class:`~repro.accel.clock.VirtualClock`.
    """

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS):
        if max_events <= 0:
            raise ValueError("event buffer bound must be positive")
        self.max_events = max_events
        self.events: List[Event] = []
        self.dropped = 0
        self.metrics = MetricsRegistry()
        self._epoch = time.perf_counter()
        self._local = threading.local()

    # -- clocks ----------------------------------------------------------------

    def now(self) -> float:
        """Host seconds since this tracer was created."""
        return time.perf_counter() - self._epoch

    # -- trace-id correlation --------------------------------------------------

    @property
    def current_trace_id(self) -> Optional[str]:
        """The trace id stamped onto events emitted by this thread."""
        return getattr(self._local, "trace_id", None)

    @contextmanager
    def trace_context(self, trace_id: Optional[str]) -> Iterator[None]:
        """Stamp every event this thread emits with ``trace_id``.

        Nested contexts override; exiting restores the outer id.  The
        serving plane opens one per request, so a client call can be
        followed broker -> node -> kernel through one correlation key;
        any other caller (a CLI run, a test) can open one too -- the
        mechanism is shared, not serve-specific.
        """
        previous = getattr(self._local, "trace_id", None)
        self._local.trace_id = trace_id
        try:
            yield
        finally:
            self._local.trace_id = previous

    # -- raw emission ----------------------------------------------------------

    def emit(self, event: Event) -> None:
        """Append an event, dropping the oldest beyond the buffer bound."""
        if event.trace_id is None:
            tid = getattr(self._local, "trace_id", None)
            if tid is not None:
                event = replace(event, trace_id=tid)
        if len(self.events) >= self.max_events:
            del self.events[0 : max(1, self.max_events // 10)]
            self.dropped += max(1, self.max_events // 10)
        self.events.append(event)

    def device_event(
        self,
        etype: EventType,
        name: str,
        ts: float,
        dur: float = 0.0,
        charged_s: Optional[float] = None,
        **attrs: Any,
    ) -> Event:
        """Emit a device-timeline event and update the live aggregates.

        ``ts``/``dur`` are virtual-clock seconds.  For kernel launches,
        ``charged_s`` is what the launch charged to the clock under the
        kernel's region name (defaults to ``dur``); the per-kernel
        aggregate accumulates exactly that, so metric totals agree with
        ``VirtualClock`` region accounting to the bit.
        """
        if charged_s is not None:
            attrs["charged_s"] = charged_s
        ev = Event(etype, name, ts=ts, dur=dur, clock=ClockDomain.DEVICE, attrs=attrs)
        self.emit(ev)

        m = self.metrics
        if etype is EventType.KERNEL_LAUNCH:
            m.record_launch(
                name,
                charged_s if charged_s is not None else dur,
                dur,
                int(attrs.get("n_launches", 1)),
            )
        elif etype is EventType.H2D:
            m.count("transfer.h2d_bytes", float(attrs.get("nbytes", 0)))
            m.count("transfer.h2d_seconds", dur)
        elif etype is EventType.D2H:
            m.count("transfer.d2h_bytes", float(attrs.get("nbytes", 0)))
            m.count("transfer.d2h_seconds", dur)
        elif etype is EventType.ALLOC:
            m.count("pool.allocs")
            if "pool_allocated_bytes" in attrs:
                m.gauge_set("pool.allocated_bytes", float(attrs["pool_allocated_bytes"]))
        elif etype is EventType.FREE:
            m.count("pool.frees")
            if "pool_allocated_bytes" in attrs:
                m.gauge_set("pool.allocated_bytes", float(attrs["pool_allocated_bytes"]))
        elif etype is EventType.SYNC:
            m.count("device.sync_seconds", dur)
        elif etype is EventType.FAULT_INJECTED:
            m.count("resilience.faults_injected")
        elif etype is EventType.RETRY:
            m.count("resilience.retries")
        elif etype is EventType.FALLBACK:
            m.count("resilience.fallbacks")
        elif etype is EventType.BREAKER_OPEN:
            m.count("resilience.breaker_opens")
        elif etype is EventType.BREAKER_CLOSE:
            m.count("resilience.breaker_closes")
        elif etype is EventType.EVICT:
            m.count("resilience.evictions")
            m.count("resilience.evicted_bytes", float(attrs.get("nbytes", 0)))
        elif etype is EventType.CHECKPOINT:
            m.count("resilience.checkpoints")
        elif etype is EventType.PLAN:
            m.count("pipeline.plans")
            m.count(
                "pipeline.transfers_elided", float(attrs.get("transfers_elided", 0))
            )
            m.count("pipeline.fused_groups", float(attrs.get("fused_groups", 0)))
            m.count("pipeline.launches_elided", float(attrs.get("launches_elided", 0)))
        elif etype is EventType.OVERLAP:
            m.count("pipeline.overlap_seconds", dur)
        return ev

    # -- spans -----------------------------------------------------------------

    def _span_stack(self) -> List[Span]:
        stack = getattr(self._local, "spans", None)
        if stack is None:
            stack = self._local.spans = []
        return stack

    @property
    def current_span(self) -> Optional[Span]:
        stack = self._span_stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a host-side region; emits one SPAN event when the block exits."""
        stack = self._span_stack()
        parent = stack[-1] if stack else None
        sp = Span(
            name,
            t0=self.now(),
            attrs=dict(attrs),
            depth=len(stack),
            parent_name=parent.name if parent else None,
        )
        stack.append(sp)
        try:
            yield sp
        finally:
            stack.pop()
            sp.t1 = self.now()
            sp.attrs.setdefault("depth", sp.depth)
            if sp.parent_name:
                sp.attrs.setdefault("parent", sp.parent_name)
            self.emit(
                Event(
                    EventType.SPAN,
                    sp.name,
                    ts=sp.t0,
                    dur=sp.duration,
                    clock=ClockDomain.HOST,
                    attrs=sp.attrs,
                )
            )
            self.metrics.count(f"span.{sp.name}_seconds", sp.duration)

    @contextmanager
    def stage(self, name: str, device_clock, **attrs: Any) -> Iterator[None]:
        """A pipeline-stage region on the *device* timeline.

        The event spans the virtual time the stage consumed on
        ``device_clock`` (a :class:`~repro.accel.clock.VirtualClock`);
        host wall time rides along as an attribute.  A host operator's
        exec is a plain span instead (:func:`repro.core.timing.function_timer`).
        """
        t0_host = self.now()
        t0_dev = device_clock.now
        try:
            yield
        finally:
            attrs["host_seconds"] = self.now() - t0_host
            self.emit(
                Event(
                    EventType.PIPELINE_STAGE,
                    name,
                    ts=t0_dev,
                    dur=device_clock.now - t0_dev,
                    clock=ClockDomain.DEVICE,
                    attrs=attrs,
                )
            )

    # -- queries ---------------------------------------------------------------

    def events_of(self, *types: EventType) -> List[Event]:
        wanted = set(types)
        return [e for e in self.events if e.type in wanted]

    def device_timeline(self) -> List[Event]:
        """Device-domain events in timestamp order."""
        devs = [e for e in self.events if e.clock is ClockDomain.DEVICE]
        return sorted(devs, key=lambda e: (e.ts, e.end))

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0
        self.metrics.clear()

    def __repr__(self) -> str:
        return (
            f"Tracer({len(self.events)} events, {self.dropped} dropped, "
            f"{len(self.metrics.kernels)} kernels)"
        )
