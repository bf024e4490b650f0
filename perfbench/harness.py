"""The measurement loop and the run record.

Noise rules the loop follows, because the host's own jitter already
moves unit times by several percent:

* fresh inputs are made, and ``gc.collect()`` runs, before a unit's timer
  starts; the calibration loop and the bitwise oracle check run after it
  stops;
* no worker processes, RPC or fsync inside a unit (store writes happen
  during set-up only);
* one caller, many units per run, and medians rather than means;
* every reported host time is calibrated (:mod:`perfbench.calibrate`);
  the raw wall times stay in the record.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import re
import statistics
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .calibrate import calibrated, calibration_loop
from .layers import (
    Instrumentation,
    SpanRecorder,
    median_metrics,
    setup_layer_metrics,
    unit_layer_metrics,
)
from .metrics import error_rate, unit_summary
from .workloads import WorkloadConfig, reset_jit_caches, same_bits, setup

__all__ = [
    "SETUP_REPEATS",
    "UnitRun",
    "run_units",
    "measure",
    "host_info",
]

#: Each reported metric's unit, as ``BENCHMARK.json`` declares it.
_SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
METRIC_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 7

#: How many unit errors a record keeps verbatim.
_KEEP_ERRORS = 5


@dataclass
class UnitRun:
    """What a closed loop of units measured."""

    seconds: List[float] = field(default_factory=list)
    #: Calibration loop times: one before the first unit, one after each.
    loop_s: List[float] = field(default_factory=list)
    modeled_s: List[float] = field(default_factory=list)
    #: Whether each unit ran with the layer wrappers installed.
    traced: List[bool] = field(default_factory=list)
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: Per traced unit: its span range and counter increments.
    windows: List[Tuple[int, int, Dict[str, float]]] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.seconds)

    def select(self, traced: bool, values: List[float]) -> List[float]:
        return [v for v, t in zip(values, self.traced) if t is traced]

    def calibrated(self) -> List[float]:
        """Unit times rescaled by the mean of the loops on either side."""
        loops = self.loop_s
        return [calibrated(s, 0.5 * (loops[i] + loops[i + 1])) for i, s in enumerate(self.seconds)]


def run_units(
    prepared: Any, seconds: float, inst: Optional[Instrumentation] = None
) -> UnitRun:
    """Run units back to back until ``seconds`` of wall time have passed.

    ``prepared`` supplies ``make_inputs()``, ``run_unit(inputs)``,
    ``oracle`` and ``runtime`` (see :class:`~perfbench.workloads.Prepared`).
    A unit fails when it raises or its map is not bitwise equal to the
    oracle.  At least one unit runs.  With ``inst``, every second unit runs
    traced, so traced and untraced units see the same host drift.
    """
    clock = prepared.runtime.device.clock if prepared.runtime is not None else None
    out = UnitRun()
    out.loop_s.append(calibration_loop())
    deadline = time.perf_counter() + seconds
    while len(out.seconds) < (2 if inst else 1) or time.perf_counter() < deadline:
        traced = inst is not None and len(out.seconds) % 2 == 1
        inputs = prepared.make_inputs()
        gc.collect()
        modeled0 = clock.now if clock is not None else 0.0
        if traced:
            inst.install()
            rec = inst.rec
            lo, before = len(rec), dict(rec.counters)
            span = rec.open("bench.unit")
        t0 = time.perf_counter()
        try:
            zmap = prepared.run_unit(inputs)
        except Exception as exc:  # a failed unit is counted, not fatal
            zmap = None
            if len(out.errors) < _KEEP_ERRORS:
                out.errors.append(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
        if traced:
            rec.close(span)
            inst.uninstall()
            delta = {k: v - before.get(k, 0) for k, v in rec.counters.items()}
            out.windows.append((lo, len(rec), delta))
        out.loop_s.append(calibration_loop())
        out.seconds.append(elapsed)
        out.modeled_s.append(clock.now - modeled0 if clock is not None else 0.0)
        out.traced.append(traced)
        if zmap is None or not same_bits(zmap, prepared.oracle):
            out.failed += 1
    return out


def host_info() -> Dict[str, Any]:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpus": os.cpu_count(),
        "cpu_model": model,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _status_mb(field: str) -> float:
    """A ``/proc/self/status`` memory field (kB) in MB."""
    with open("/proc/self/status") as f:
        match = re.search(rf"^{field}:\s+(\d+) kB", f.read(), re.MULTILINE)
    return int(match.group(1)) * 1024 / 1e6


def _reset_peak_rss() -> bool:
    """Reset the process's RSS high-water mark to its current RSS."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        return False
    return True


def _crc(arr: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(arr).tobytes())


def _timed_setup(config: WorkloadConfig, seed: int, scratch: Path, inst=None):
    """One set-up from cold jit caches: ``(prepared, wall_s, loop_s)``.

    ``loop_s`` is the mean of the calibration loops run just before and
    just after it.
    """
    reset_jit_caches()
    gc.collect()
    loop_before = calibration_loop()
    t0 = time.perf_counter()
    if inst is None:
        prepared = setup(config, seed, scratch)
    else:
        with inst:
            span = inst.rec.open("bench.setup")
            prepared = setup(config, seed, scratch)
            inst.rec.close(span)
    wall = time.perf_counter() - t0
    return prepared, wall, 0.5 * (loop_before + calibration_loop())


def _calibrate_times(metrics: Dict[str, float], loop_s: float) -> Dict[str, float]:
    """Rescale every host time (``*_s``) among per-layer metrics."""
    return {k: calibrated(v, loop_s) if k.endswith("_s") else v for k, v in metrics.items()}


def _untraced(config: WorkloadConfig, seed: int, seconds: float, scratch: Path):
    setup_wall: List[float] = []
    setup_cal: List[float] = []
    for i in range(SETUP_REPEATS):
        prepared, wall, loop_s = _timed_setup(config, seed, scratch)
        setup_wall.append(wall)
        setup_cal.append(calibrated(wall, loop_s))
        if i < SETUP_REPEATS - 1:
            prepared.close()
    gc.collect()
    # Peak RSS covers the timed units: what set-up left resident plus the
    # units' own peak, not the set-ups' transient peaks.
    reset = _reset_peak_rss()
    rss_before = _status_mb("VmRSS")
    try:
        units = run_units(prepared, seconds)
        peak_rss = _status_mb("VmHWM")
    finally:
        prepared.close()
    summary = unit_summary(units.calibrated(), prepared.samples_per_unit)
    wall = unit_summary(units.seconds, prepared.samples_per_unit)
    metrics = {
        "setup_s": statistics.median(setup_cal),
        "samples_per_s": summary["samples_per_s"],
        "unit_p50_ms": summary["unit_p50_ms"],
        "unit_tail_ms": summary["unit_tail_ms"],
        "peak_rss_mb": peak_rss,
    }
    detail = {
        "units": summary["units"],
        "tail_percentile": summary["tail_percentile"],
        "tail_units_beyond": summary["tail_units_beyond"],
        "modeled_device_s_per_unit": statistics.median(units.modeled_s),
        "calibration_loop_ms": 1e3 * statistics.median(units.loop_s),
        "peak_rss_scope": "timed units" if reset else "process",
        "rss_before_units_mb": rss_before,
        "wall": {
            "setup_s": statistics.median(setup_wall),
            "samples_per_s": wall["samples_per_s"],
            "unit_p50_ms": wall["unit_p50_ms"],
            "unit_tail_ms": wall["unit_tail_ms"],
        },
        "setup_wall_s": setup_wall,
        "unit_wall_s": units.seconds,
        "loop_s": units.loop_s,
    }
    return prepared, units, metrics, detail


def _traced(config: WorkloadConfig, seed: int, seconds: float, scratch: Path):
    rec = SpanRecorder()
    inst = Instrumentation(rec)
    prepared, _, setup_loop_s = _timed_setup(config, seed, scratch, inst)
    setup_table = rec.table(0, len(rec))
    setup_counters = dict(rec.counters)
    try:
        units = run_units(prepared, seconds, inst)
    finally:
        prepared.close()
    per_unit = []
    shares: Dict[str, List[float]] = {}
    loops = units.loop_s
    traced_at = [i for i, t in enumerate(units.traced) if t]
    for (lo, hi, counters), i in zip(units.windows, traced_at):
        table = rec.table(lo, hi)
        unit_s = table["bench.unit"]["busy_s"]
        for name, row in table.items():
            shares.setdefault(name, []).append(row["self_s"] / unit_s)
        m = unit_layer_metrics(table, counters)
        m = _calibrate_times(m, 0.5 * (loops[i] + loops[i + 1]))
        m["modeled_device_s"] = units.modeled_s[i]  # virtual clock: not rescaled
        per_unit.append(m)
    metrics, counts_repeat = median_metrics(per_unit)
    metrics.update(_calibrate_times(setup_layer_metrics(setup_table, setup_counters), setup_loop_s))
    unit_s = units.calibrated()
    traced = units.select(True, unit_s)
    plain = units.select(False, unit_s)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain) - 1.0
    detail = {
        "untraced_units": len(plain),
        "traced_units": len(traced),
        "counts_repeat": counts_repeat,
        "spans": len(rec),
        # Median share of a traced unit's time spent in each span name's
        # own code (``bench.unit``: outside every wrapped entry point).
        "self_share": dict(
            sorted(
                ((name, statistics.median(v)) for name, v in shares.items()),
                key=lambda kv: -kv[1],
            )
        ),
    }
    return prepared, units, metrics, detail, rec


def measure(
    config: WorkloadConfig, seed: int, seconds: float, trace: bool, scratch: Path
) -> Tuple[Dict[str, Any], Optional[SpanRecorder]]:
    """Run one workload; returns the run record (and the spans when traced)."""
    rec = None
    if trace:
        prepared, units, metrics, detail, rec = _traced(config, seed, seconds, scratch)
    else:
        prepared, units, metrics, detail = _untraced(config, seed, seconds, scratch)
    attempted = units.attempted
    failed = units.failed
    record = {
        "schema": "perfbench-run/1",
        "workload": config.name,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "host": host_info(),
        "config": config.as_record(),
        "oracle": {
            "kind": f"{config.backend} host path, eager, in memory",
            "crc32": _crc(prepared.oracle),
            "numpy_max_rel_diff": prepared.numpy_max_rel_diff,
        },
        "attempted": attempted,
        "failed": failed,
        "error_rate": error_rate(failed, attempted),
        "errors": units.errors,
        "detail": detail,
        "metrics": {k: {"value": v, "unit": METRIC_UNITS[k]} for k, v in metrics.items()},
    }
    return record, rec
