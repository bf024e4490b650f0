"""Exporters: Chrome ``trace_event`` JSON, CSV, and rendered tables.

Three consumers, three formats:

* ``chrome://tracing`` / Perfetto load the JSON produced by
  :func:`write_chrome_trace` (the ``trace_event`` format's ``X``
  complete-events, ``i`` instants, and ``C`` counter series);
* the paper's comparison-spreadsheet flow consumes the CSV produced by
  :func:`write_kernel_metrics_csv`, which begins with the same
  :data:`TIMING_COLUMNS` as :meth:`repro.core.timing.GlobalTimers.dump_csv`
  so :func:`repro.core.timing.merge_timing_csv` merges both kinds;
* humans read :func:`render_summary`.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Union

from ..utils.table import Table, format_bytes, format_seconds
from .events import ClockDomain, Event, EventType
from .tracer import Tracer

__all__ = [
    "chrome_trace_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "kernel_metrics_rows",
    "write_kernel_metrics_csv",
    "write_events_csv",
    "render_summary",
    "TIMING_COLUMNS",
    "write_csv",
]

#: Synthetic process ids: pid 0 is the parent; events replayed from a
#: shard worker carry a ``worker`` attribute and land on that worker's own
#: pid track (ranks are small non-negative ints, so ``pid = rank + 1``).
_PID = 0
_TID_BY_DOMAIN = {ClockDomain.DEVICE: "device", ClockDomain.HOST: "host"}


def _event_pid(event: Event) -> int:
    worker = event.attrs.get("worker")
    if worker is None:
        return _PID
    return int(worker) + 1

#: Instantaneous device actions render as instants rather than 0-width slices.
_INSTANT_TYPES = {
    EventType.ALLOC,
    EventType.FREE,
    EventType.KERNEL_RESOLVE,
    EventType.FAULT_INJECTED,
    EventType.RETRY,
    EventType.FALLBACK,
    EventType.BREAKER_OPEN,
    EventType.BREAKER_CLOSE,
    EventType.EVICT,
    EventType.CHECKPOINT,
    EventType.SERVE_COALESCE,
    EventType.SERVE_REJECT,
    EventType.SERVE_FAILOVER,
}


def _chrome_one(event: Event) -> Dict[str, Any]:
    """One trace_event dict (ts/dur in microseconds, per the format)."""
    args = dict(event.attrs)
    if event.trace_id is not None:
        args["trace_id"] = event.trace_id
    out: Dict[str, Any] = {
        "name": event.name,
        "cat": event.type.value,
        "ts": event.ts * 1e6,
        "pid": _event_pid(event),
        "tid": _TID_BY_DOMAIN[event.clock],
        "args": args,
    }
    if event.dur > 0 and event.type not in _INSTANT_TYPES:
        out["ph"] = "X"
        out["dur"] = event.dur * 1e6
    else:
        out["ph"] = "i"
        out["s"] = "t"  # thread-scoped instant
    return out


def chrome_trace_events(tracer: Tracer) -> List[Dict[str, Any]]:
    """All buffered events as trace_event dicts, plus counter series.

    Events are ordered by timestamp within each clock domain (the format
    does not require global ordering, but sorted output diffs cleanly).
    A ``pool.allocated_bytes`` counter track is synthesised from the
    ALLOC/FREE events that carry pool occupancy.
    """
    ordered = sorted(tracer.events, key=lambda e: (e.clock.value, e.ts, e.end))
    out = [_chrome_one(e) for e in ordered]
    for pid in sorted({_event_pid(e) for e in ordered}):
        out.append(
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "args": {"name": "parent" if pid == _PID else f"worker {pid - 1}"},
            }
        )
    for e in ordered:
        if e.type in (EventType.ALLOC, EventType.FREE) and "pool_allocated_bytes" in e.attrs:
            out.append(
                {
                    "name": "pool.allocated_bytes",
                    "cat": "memory",
                    "ph": "C",
                    "ts": e.ts * 1e6,
                    "pid": _PID,
                    "args": {"bytes": e.attrs["pool_allocated_bytes"]},
                }
            )
    return out


def to_chrome_trace(tracer: Tracer) -> Dict[str, Any]:
    """The full JSON document for ``chrome://tracing`` / Perfetto."""
    return {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {
            "producer": "repro.obs",
            "events_buffered": len(tracer.events),
            "events_dropped": tracer.dropped,
            "clock_note": "device track timestamps are modeled (virtual) seconds",
        },
    }


def write_chrome_trace(tracer: Tracer, path: Union[str, Path]) -> Path:
    path = Path(path)
    path.write_text(json.dumps(to_chrome_trace(tracer), indent=1))
    return path


def kernel_metrics_rows(tracer: Tracer) -> List[Dict[str, Any]]:
    """Per-kernel aggregate rows (descending virtual time)."""
    return [
        {
            "name": k.name,
            "total_seconds": k.virtual_seconds,
            "calls": k.calls,
            "mean_seconds": k.mean_seconds,
            "max_seconds": k.max_seconds,
            "launches": k.launches,
            "device_seconds": k.device_seconds,
        }
        for k in tracer.metrics.kernel_rows()
    ]


#: The timing-CSV columns that :func:`repro.core.timing.merge_timing_csv`
#: reads; every timing table is written with these first.
TIMING_COLUMNS = ("name", "total_seconds", "calls", "mean_seconds", "max_seconds")


def write_csv(
    path: Union[str, Path, io.TextIOBase], header: Sequence[str], rows: Iterable[Sequence]
) -> None:
    """Write ``header`` and ``rows`` to a path or an open text stream."""
    own = isinstance(path, (str, Path))
    fh = open(path, "w", newline="") if own else path
    try:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if own:
            fh.close()


def write_kernel_metrics_csv(
    tracer: Tracer, path: Union[str, Path, io.TextIOBase]
) -> None:
    """Per-kernel CSV: :data:`TIMING_COLUMNS`, then launches and occupancy.

    The first five columns are the timing-CSV schema, so the output drops
    straight into :func:`repro.core.timing.merge_timing_csv` next to
    host-timer dumps; two extra columns carry launch counts and device
    occupancy.
    """
    columns = TIMING_COLUMNS + ("launches", "device_seconds")
    rows = sorted(kernel_metrics_rows(tracer), key=lambda r: r["name"])
    write_csv(path, columns, [[row[c] for c in columns] for row in rows])


def write_events_csv(
    tracer: Tracer, path: Union[str, Path, io.TextIOBase]
) -> None:
    """Every buffered event as one CSV row, ``trace_id`` included.

    The per-kernel CSV aggregates away individual events; this export
    keeps them, one row each, so a spreadsheet (or ``grep``) can follow a
    single request's ``trace_id`` across clock domains and processes.
    Attributes are flattened into one ``key=value;...`` column to keep the
    schema fixed.
    """
    write_csv(
        path,
        ["type", "name", "clock", "ts_seconds", "dur_seconds", "trace_id", "attrs"],
        [
            [
                e.type.value,
                e.name,
                e.clock.value,
                repr(e.ts),
                repr(e.dur),
                e.trace_id if e.trace_id is not None else "",
                ";".join(f"{k}={e.attrs[k]}" for k in sorted(e.attrs)),
            ]
            for e in sorted(tracer.events, key=lambda e: (e.clock.value, e.ts, e.end))
        ],
    )


def render_summary(tracer: Tracer, title: str = "trace summary") -> str:
    """Human-readable digest: kernels, transfers, pool, event census."""
    m = tracer.metrics
    parts: List[str] = []

    kernels = Table(
        ["kernel", "virtual [s]", "calls", "launches", "mean [s]"],
        title=title + " — kernels (virtual device time)",
    )
    for k in m.kernel_rows():
        kernels.add_row([k.name, k.virtual_seconds, k.calls, k.launches, k.mean_seconds])
    parts.append(kernels.render())

    flows = Table(["measure", "value"], title=title + " — data movement & memory")
    h2d_b = m.counters.get("transfer.h2d_bytes")
    d2h_b = m.counters.get("transfer.d2h_bytes")
    h2d_s = m.counters.get("transfer.h2d_seconds")
    d2h_s = m.counters.get("transfer.d2h_seconds")
    pool = m.gauges.get("pool.allocated_bytes")
    sync = m.counters.get("device.sync_seconds")
    if h2d_b:
        flows.add_row(["H2D moved", f"{format_bytes(h2d_b.value)} in {h2d_b.samples} copies"])
    if h2d_s:
        flows.add_row(["H2D virtual time", format_seconds(h2d_s.value)])
    if d2h_b:
        flows.add_row(["D2H moved", f"{format_bytes(d2h_b.value)} in {d2h_b.samples} copies"])
    if d2h_s:
        flows.add_row(["D2H virtual time", format_seconds(d2h_s.value)])
    if pool:
        flows.add_row(["pool peak", format_bytes(pool.peak)])
    if sync:
        flows.add_row(["async sync wait", format_seconds(sync.value)])
    flows.add_row(["events buffered", len(tracer.events)])
    if tracer.dropped:
        flows.add_row(["events dropped", tracer.dropped])
    parts.append(flows.render())

    census: Dict[str, int] = {}
    for e in tracer.events:
        census[e.type.value] = census.get(e.type.value, 0) + 1
    kinds = Table(["event type", "count"], title=title + " — event census")
    for etype in sorted(census):
        kinds.add_row([etype, census[etype]])
    parts.append(kinds.render())

    return "\n\n".join(parts)
