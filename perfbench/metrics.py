"""The arithmetic behind every reported number.

Nothing here imports the program under test, so the benchmark's own
tests check it without running a workload.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence, Tuple

__all__ = ["TAIL_BEYOND", "tail_percentile", "error_rate", "unit_summary", "span_table"]

#: Units that must rank above the reported tail percentile.
TAIL_BEYOND = 10


def tail_percentile(
    values: Sequence[float], beyond: int = TAIL_BEYOND
) -> Tuple[float, float, int]:
    """``(percentile, value, units_beyond)`` of the highest percentile that
    still has ``beyond`` units above it.

    The value is the nearest-rank percentile at rank ``n - beyond``: the
    ``beyond + 1``-th largest unit, so exactly ``beyond`` units rank above
    it.  With ``beyond`` or fewer units no percentile qualifies; the
    maximum is returned as percentile 100 with no unit beyond it.
    """
    n = len(values)
    if n == 0:
        raise ValueError("no units measured")
    ordered = sorted(values)
    if n <= beyond:
        return 100.0, ordered[-1], 0
    rank = n - beyond
    return 100.0 * rank / n, ordered[rank - 1], beyond


def error_rate(failed: int, attempted: int) -> float:
    """Units that raised or mismatched the oracle, per unit attempted."""
    if attempted <= 0:
        raise ValueError("error_rate needs at least one attempted unit")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def unit_summary(unit_seconds: Sequence[float], samples_per_unit: int) -> Dict[str, float]:
    """End-to-end unit metrics from per-unit wall times (seconds)."""
    pct, tail, beyond = tail_percentile(unit_seconds)
    return {
        "units": len(unit_seconds),
        "unit_p50_ms": 1e3 * statistics.median(unit_seconds),
        "unit_tail_ms": 1e3 * tail,
        "tail_percentile": pct,
        "tail_units_beyond": beyond,
        "samples_per_s": samples_per_unit * len(unit_seconds) / math.fsum(unit_seconds),
    }


def span_table(
    names: Sequence[str],
    starts: Sequence[float],
    ends: Sequence[float],
    parents: Sequence[int],
    lo: int = 0,
    hi: int = -1,
) -> Dict[str, Dict[str, float]]:
    """Per span name over spans ``[lo, hi)``: count, busy and self time.

    Spans come from one thread in open order, so children nest inside
    their parent and never overlap one another; ``parents[i]`` is the
    index of span ``i``'s parent, or -1 for a root.  Parents outside the
    range count as roots.

    * self time: a span's duration minus the time its direct children
      cover;
    * busy time: the summed duration of the spans of a name that have no
      ancestor of the same name, so recursion is not counted twice.
    """
    if hi < 0:
        hi = len(names)
    bit: Dict[str, int] = {}
    ancestors: Dict[int, int] = {}  # span -> bitmask of ancestor names
    own: Dict[int, float] = {}
    table: Dict[str, Dict[str, float]] = {}
    for i in range(lo, hi):
        name = names[i]
        b = bit.setdefault(name, 1 << len(bit))
        p = parents[i]
        m = (ancestors[p] | bit[names[p]]) if p in ancestors else 0
        ancestors[i] = m
        dur = ends[i] - starts[i]
        own[i] = dur
        if p in own:
            own[p] -= dur
        row = table.setdefault(name, {"count": 0, "busy_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        if not m & b:
            row["busy_s"] += dur
    for i, dur in own.items():
        table[names[i]]["self_s"] += dur
    return table
