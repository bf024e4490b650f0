"""Coarse timing tools (paper §3.2.3).

TOAST ships a decorator collecting per-function timing that dumps to CSV;
the authors added a script merging several CSVs into a comparative
spreadsheet and call it "the most significant productivity boost throughout
the project".  Here the decorator, :func:`function_timer`, times each call
as a :mod:`repro.obs` span named after the function, so with tracing off
it costs one ``is None`` branch and records nothing.  To collect the table,
run under :func:`repro.obs.tracing`, read it off the tracer with
:meth:`GlobalTimers.from_tracer` and dump it to CSV; :func:`merge_timing_csv`
turns several runs' CSVs into the comparison spreadsheet::

    with obs.tracing() as tracer:
        pipeline.apply(data)
    GlobalTimers.from_tracer(tracer).dump_csv("cpu.csv")
    ...
    print(merge_timing_csv(["cpu.csv", "gpu.csv"], labels=["cpu", "gpu"]))
"""

from __future__ import annotations

import csv
import functools
import io
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..obs import state as obs_state
from ..obs.export import TIMING_COLUMNS, write_csv
from ..obs.tracer import Tracer
from ..utils.table import Table

__all__ = [
    "Timer",
    "GlobalTimers",
    "function_timer",
    "merge_timing_csv",
]


@dataclass
class TimerRecord:
    """Accumulated statistics for one named timer."""

    name: str
    total_seconds: float = 0.0
    calls: int = 0
    max_seconds: float = 0.0

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.calls if self.calls else 0.0


class Timer:
    """A stopwatch usable as a context manager."""

    def __init__(self) -> None:
        self._start: Optional[float] = None
        self.elapsed = 0.0

    def start(self) -> "Timer":
        if self._start is not None:
            raise RuntimeError(
                "timer is already running; stop() it before starting again "
                "(a second start() would silently discard the running interval)"
            )
        self._start = time.perf_counter()
        return self

    def stop(self) -> float:
        if self._start is None:
            raise RuntimeError("timer was not started")
        self.elapsed += time.perf_counter() - self._start
        self._start = None
        return self.elapsed

    def __enter__(self) -> "Timer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


@dataclass
class GlobalTimers:
    """The paper's per-function timing table: one row per timer name."""

    records: Dict[str, TimerRecord] = field(default_factory=dict)

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "GlobalTimers":
        """The table of a tracer's spans.

        One row per span name, read from the tracer's live
        ``span.<name>_seconds`` counters (exact even after the event
        buffer has dropped old spans).
        """
        timers = cls()
        for key, counter in tracer.metrics.counters.items():
            if key.startswith("span.") and key.endswith("_seconds"):
                name = key[len("span.") : -len("_seconds")]
                timers.record(name, counter.value, counter.samples, counter.max_sample)
        return timers

    def record(
        self, name: str, seconds: float, calls: int = 1, max_seconds: Optional[float] = None
    ) -> None:
        """Add ``calls`` calls of ``name`` taking ``seconds`` in total.

        ``max_seconds`` is the longest of them; it defaults to ``seconds``,
        which is exact for one call.
        """
        rec = self.records.setdefault(name, TimerRecord(name))
        rec.total_seconds += seconds
        rec.calls += calls
        rec.max_seconds = max(rec.max_seconds, seconds if max_seconds is None else max_seconds)

    def dump_csv(self, path: Union[str, Path, io.TextIOBase]) -> None:
        """Write one row per timer: name, total, calls, mean, max."""
        rows = [self.records[name] for name in sorted(self.records)]
        write_csv(
            path,
            TIMING_COLUMNS,
            [[r.name, r.total_seconds, r.calls, r.mean_seconds, r.max_seconds] for r in rows],
        )

    def render(self, title: str = "timers") -> str:
        table = Table(["name", "total [s]", "calls", "mean [s]"], title=title)
        for name in sorted(self.records, key=lambda n: -self.records[n].total_seconds):
            r = self.records[name]
            table.add_row([r.name, r.total_seconds, r.calls, r.mean_seconds])
        return table.render()


def function_timer(fn: Callable) -> Callable:
    """Time each call of ``fn`` as a span named after its qualname.

    With tracing off the wrapper calls ``fn`` directly.  Under
    :func:`repro.obs.tracing` the call runs inside
    ``tracer.span(qualname)``, which adds it to the tracer's
    ``span.<qualname>_seconds`` counter (see :meth:`GlobalTimers.from_tracer`).
    """
    name = getattr(fn, "__qualname__", getattr(fn, "__name__", "anonymous"))

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tr = obs_state.active
        if tr is None:
            return fn(*args, **kwargs)
        with tr.span(name):
            return fn(*args, **kwargs)

    return wrapper


def merge_timing_csv(
    paths: Sequence[Union[str, Path]],
    labels: Optional[Sequence[str]] = None,
) -> str:
    """Merge several timing CSVs into one comparative table.

    One row per timer name, one column of total seconds per input file,
    plus a ratio column against the first file -- the comparison
    spreadsheet the paper's team used to hunt suspicious slowdowns.
    """
    if not paths:
        raise ValueError("need at least one CSV to merge")
    if labels is None:
        labels = [Path(p).stem for p in paths]
    if len(labels) != len(paths):
        raise ValueError("labels must match paths")

    totals: List[Dict[str, float]] = []
    for p in paths:
        with open(p, newline="") as fh:
            rows = list(csv.DictReader(fh))
        # Timer-name sets may be disjoint across files, and rows written by
        # other tools may carry blank cells; missing entries render as
        # blank cells rather than raising.
        file_totals: Dict[str, float] = {}
        for r in rows:
            name = r.get("name")
            total = r.get("total_seconds")
            if name is None or name == "":
                continue
            if total is None or total == "":
                continue
            file_totals[name] = float(total)
        totals.append(file_totals)

    names = sorted(set().union(*[set(t) for t in totals]))
    columns = ["name"] + [f"{lab} [s]" for lab in labels]
    if len(paths) > 1:
        columns.append(f"{labels[-1]}/{labels[0]}")
    table = Table(columns, title="timing comparison")
    for name in names:
        row: List = [name]
        for t in totals:
            row.append(t.get(name))
        if len(paths) > 1:
            base = totals[0].get(name)
            last = totals[-1].get(name)
            row.append(None if not base or last is None else last / base)
        table.add_row(row)
    return table.render()
