"""A virtual clock accumulating modeled time, with named regions.

Reported benchmark numbers in this reproduction are *modeled* seconds on
this clock (the real numerics execute on scaled problems).  Named regions
provide the per-operation accounting used by Fig 6 (kernels plus the
``accel_data_*`` data-movement entries).
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator

__all__ = ["VirtualClock"]


class VirtualClock:
    """Accumulates modeled seconds globally and per named region."""

    def __init__(self) -> None:
        self._now = 0.0
        self._regions: Dict[str, float] = defaultdict(float)
        self._counts: Dict[str, int] = defaultdict(int)
        self._stack: list[str] = []

    @property
    def now(self) -> float:
        """Total modeled seconds elapsed."""
        return self._now

    def advance(self, seconds: float) -> None:
        """Advance the clock; attributes the time to the active region."""
        if seconds < 0:
            raise ValueError("cannot advance the clock backwards")
        self._now += seconds
        if self._stack:
            self._regions[self._stack[-1]] += seconds

    def charge(self, region: str, seconds: float) -> None:
        """Advance the clock attributing the time directly to ``region``."""
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        self._now += seconds
        self._regions[region] += seconds
        self._counts[region] += 1

    @contextmanager
    def region(self, name: str) -> Iterator[None]:
        """Attribute :meth:`advance` calls inside the block to ``name``."""
        self._stack.append(name)
        self._counts[name] += 1
        try:
            yield
        finally:
            self._stack.pop()

    def region_time(self, name: str) -> float:
        return self._regions.get(name, 0.0)

    def region_count(self, name: str) -> int:
        return self._counts.get(name, 0)

    def regions(self) -> Dict[str, float]:
        """Copy of the per-region totals."""
        return dict(self._regions)

    def reset(self) -> None:
        self._now = 0.0
        self._regions.clear()
        self._counts.clear()
        self._stack.clear()
