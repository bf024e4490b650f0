"""repro.obs — structured tracing & metrics with device-timeline export.

The paper's team called their CSV timing decorator "the most significant
productivity boost throughout the project" (§3.2.3).  This package is that
idea grown up: a span tracer (``with tracer.span(name):``), a typed
device-timeline event stream fed by hooks inside the dispatch, pipeline,
accelerator, jaxshim, and ompshim layers, live counters/gauges/per-kernel
aggregates, and exporters for Chrome ``trace_event`` JSON (Perfetto /
``chrome://tracing``), merge-friendly CSV, and rendered tables.  The
paper's decorator itself is :func:`repro.core.timing.function_timer`: each
decorated call (every operator ``exec``) is one span of the active tracer,
and :meth:`repro.core.timing.GlobalTimers.from_tracer` reads those spans
back as the per-function timing table.

Tracing is **off by default and free when off**: every hook reads one
module attribute and branches on ``is None``.  Turn it on around a region::

    from repro import obs

    with obs.tracing() as tracer:
        pipeline.apply(data)
    obs.write_chrome_trace(tracer, "timeline.json")
    print(obs.render_summary(tracer))

Device events (kernel launches, transfers, pool traffic, syncs) carry
timestamps from the simulated device's virtual clock, so exported
timelines show modeled GPU time; host spans ride a separate track.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from .events import (
    DEVICE_TIMELINE_TYPES,
    RESILIENCE_TYPES,
    SERVE_TYPES,
    STORE_TYPES,
    ClockDomain,
    Event,
    EventType,
)
from .export import (
    chrome_trace_events,
    kernel_metrics_rows,
    render_summary,
    to_chrome_trace,
    write_chrome_trace,
    write_events_csv,
    write_kernel_metrics_csv,
)
from .metrics import Counter, Gauge, KernelStats, MetricsRegistry
from .tracer import Span, Tracer

__all__ = [
    "Event",
    "EventType",
    "ClockDomain",
    "DEVICE_TIMELINE_TYPES",
    "RESILIENCE_TYPES",
    "SERVE_TYPES",
    "STORE_TYPES",
    "Span",
    "Tracer",
    "Counter",
    "Gauge",
    "KernelStats",
    "MetricsRegistry",
    "chrome_trace_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "kernel_metrics_rows",
    "write_kernel_metrics_csv",
    "write_events_csv",
    "render_summary",
    "active_tracer",
    "set_tracer",
    "tracing",
]

from . import state as _state


def active_tracer() -> Optional[Tracer]:
    """The installed tracer, or ``None`` when tracing is disabled.

    Instrumentation hooks use the equivalent (but cheaper) direct check
    ``repro.obs.state.active is not None``.
    """
    return _state.active


def set_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install (or with ``None`` remove) the process-wide tracer."""
    previous = _state.active
    _state.active = tracer
    return previous


@contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Enable tracing for a ``with`` block; restores the prior state.

    A fresh :class:`Tracer` is created when none is passed; either way the
    active tracer is yielded so callers can export from it afterwards.
    """
    t = tracer if tracer is not None else Tracer()
    previous = set_tracer(t)
    try:
        yield t
    finally:
        set_tracer(previous)
