"""Sample-interval algebra, mirroring TOAST's ``IntervalList``.

Most ported kernels run a triple loop over (detectors, intervals, samples);
intervals are half-open spans ``[first, last)`` of sample indices with
varying lengths.  The varying length is exactly what forced the padding
workarounds discussed in the paper (static shapes in JAX, collapse-friendly
loops in OpenMP), so the algebra here is a first-class substrate.  Each
list hands the kernels one read-only ``(starts, stops)`` pair and owns its
segment descriptor (:mod:`repro.math.segments`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .segments import Segments, adopt

__all__ = ["Interval", "IntervalList", "regular_intervals"]


@dataclass(frozen=True, order=True)
class Interval:
    """A half-open span of samples ``[first, last)``."""

    first: int
    last: int

    def __post_init__(self) -> None:
        if self.first < 0 or self.last < self.first:
            raise ValueError(f"invalid interval [{self.first}, {self.last})")

    def __len__(self) -> int:
        return self.last - self.first

    def overlaps(self, other: "Interval") -> bool:
        return self.first < other.last and other.first < self.last

    def contains(self, sample: int) -> bool:
        return self.first <= sample < self.last


class IntervalList:
    """An ordered, non-overlapping list of :class:`Interval` spans.

    Construction normalizes the input: spans are sorted, merged when they
    touch or overlap, and empty spans are dropped.  A list never changes
    afterwards, so its kernel arrays and segment descriptor are built once,
    on first use, and live as long as the list.  A list cut from another's
    arrays (:meth:`window`) starts from its arrays and builds its
    :class:`Interval` spans only if asked for them.
    """

    def __init__(self, spans: Iterable[Tuple[int, int]] = ()):  # noqa: D401
        normalized: List[Interval] = []
        for first, last in sorted((int(f), int(l)) for f, l in spans):
            iv = Interval(first, last)
            if len(iv) == 0:
                continue
            if normalized and iv.first <= normalized[-1].last:
                prev = normalized[-1]
                normalized[-1] = Interval(prev.first, max(prev.last, iv.last))
            else:
                normalized.append(iv)
        self._span_list: Optional[List[Interval]] = normalized
        self._arrays: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._segments: Optional[Segments] = None

    @classmethod
    def _owning(cls, starts: np.ndarray, stops: np.ndarray) -> "IntervalList":
        """A list whose pair is ``(starts, stops)``: normalized int64
        arrays that nothing else holds."""
        out = cls.__new__(cls)
        out._span_list = None
        out._arrays = adopt(out, starts, stops)
        out._segments = None
        return out

    @property
    def _spans(self) -> List[Interval]:
        if self._span_list is None:
            starts, stops = self._arrays
            self._span_list = [Interval(f, l) for f, l in zip(starts.tolist(), stops.tolist())]
        return self._span_list

    def __getstate__(self) -> dict:
        # Copies and pickles rebuild their own arrays and descriptor.
        return {"_spans": self._spans}

    def __setstate__(self, state: dict) -> None:
        self._span_list = state["_spans"]
        self._arrays = None
        self._segments = None

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._spans)

    def __getitem__(self, idx: int) -> Interval:
        return self._spans[idx]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalList):
            return NotImplemented
        return self._spans == other._spans

    def __repr__(self) -> str:
        inner = ", ".join(f"[{iv.first},{iv.last})" for iv in self._spans)
        return f"IntervalList({inner})"

    # -- conversions ---------------------------------------------------------

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(starts, stops)`` as int64 arrays -- the kernel ABI.

        The same read-only pair on every call; kernels find the list's
        :attr:`segments` from it (:func:`repro.math.segments.segments`).
        """
        if self._arrays is None:
            starts = np.array([iv.first for iv in self._spans], dtype=np.int64)
            stops = np.array([iv.last for iv in self._spans], dtype=np.int64)
            self._arrays = adopt(self, starts, stops)
        return self._arrays

    @property
    def segments(self) -> Segments:
        """The list's segment descriptor, built on first use."""
        if self._segments is None:
            self._segments = Segments(*self.as_arrays())
        return self._segments

    @classmethod
    def from_arrays(cls, starts: Sequence[int], stops: Sequence[int]) -> "IntervalList":
        if len(starts) != len(stops):
            raise ValueError("starts and stops must have the same length")
        return cls(zip(starts, stops))

    def mask(self, n_samples: int) -> np.ndarray:
        """Boolean mask of length ``n_samples``, True inside any interval."""
        out = np.zeros(n_samples, dtype=bool)
        for iv in self._spans:
            if iv.first >= n_samples:
                break
            out[iv.first : min(iv.last, n_samples)] = True
        return out

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "IntervalList":
        """Inverse of :meth:`mask`: contiguous True runs become intervals."""
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 1:
            raise ValueError("mask must be one-dimensional")
        padded = np.concatenate(([False], mask, [False]))
        edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
        starts = edges[0::2]
        stops = edges[1::2]
        return cls(zip(starts.tolist(), stops.tolist()))

    # -- measures ------------------------------------------------------------

    @property
    def n_samples(self) -> int:
        """Total number of samples covered."""
        return sum(len(iv) for iv in self._spans)

    @property
    def max_length(self) -> int:
        """Length of the longest interval -- the static padding size used by
        the jax and omp kernel implementations."""
        return self.segments.max_len

    # -- set algebra -----------------------------------------------------------

    def union(self, other: "IntervalList") -> "IntervalList":
        return IntervalList(
            [(iv.first, iv.last) for iv in self._spans]
            + [(iv.first, iv.last) for iv in other._spans]
        )

    def intersection(self, other: "IntervalList") -> "IntervalList":
        out: List[Tuple[int, int]] = []
        i = j = 0
        a, b = self._spans, other._spans
        while i < len(a) and j < len(b):
            lo = max(a[i].first, b[j].first)
            hi = min(a[i].last, b[j].last)
            if lo < hi:
                out.append((lo, hi))
            if a[i].last < b[j].last:
                i += 1
            else:
                j += 1
        return IntervalList(out)

    def invert(self, n_samples: int) -> "IntervalList":
        """Complement within ``[0, n_samples)``."""
        out: List[Tuple[int, int]] = []
        cursor = 0
        for iv in self._spans:
            if iv.first >= n_samples:
                break
            if iv.first > cursor:
                out.append((cursor, iv.first))
            cursor = max(cursor, iv.last)
        if cursor < n_samples:
            out.append((cursor, n_samples))
        return IntervalList(out)

    def shift(self, offset: int) -> "IntervalList":
        """Translate every interval by ``offset`` samples."""
        return IntervalList((iv.first + offset, iv.last + offset) for iv in self._spans)

    def window(self, start: int, stop: int) -> "IntervalList":
        """The spans inside the window ``[start, stop)``, shifted to its origin.

        Equal to ``self.intersection(IntervalList([(start, stop)])).shift(-start)``,
        and raises as that does on an invalid window, but cut from
        :meth:`as_arrays`: the spans that overlap the window, the first and
        last clipped to it.  A normalized list stays normalized under the
        cut, so the result owns the two new arrays as its pair.
        """
        if start < 0 or stop < start:
            raise ValueError(f"invalid interval [{start}, {stop})")
        starts, stops = self.as_arrays()
        lo = stops.searchsorted(start, side="right")
        hi = starts.searchsorted(stop, side="left") if stop > start else lo
        first = np.maximum(starts[lo:hi], start)
        last = np.minimum(stops[lo:hi], stop)
        first -= start
        last -= start
        return IntervalList._owning(first, last)

    # -- time-domain construction -----------------------------------------------

    @classmethod
    def from_time_ranges(
        cls,
        times: np.ndarray,
        ranges: Sequence[Tuple[float, float]],
    ) -> "IntervalList":
        """Sample intervals covering time spans ``[t0, t1)``.

        ``times`` must be non-decreasing sample timestamps; each time range
        maps onto the half-open sample span whose timestamps fall inside
        it.  This is how TOAST turns schedule entries into the interval
        lists the kernels iterate over.
        """
        times = np.asarray(times, dtype=np.float64)
        if times.ndim != 1:
            raise ValueError("times must be one-dimensional")
        if len(times) > 1 and np.any(np.diff(times) < 0):
            raise ValueError("times must be non-decreasing")
        spans = []
        for t0, t1 in ranges:
            if t1 < t0:
                raise ValueError(f"time range ({t0}, {t1}) is inverted")
            first = int(np.searchsorted(times, t0, side="left"))
            last = int(np.searchsorted(times, t1, side="left"))
            spans.append((first, last))
        return cls(spans)

    def time_ranges(self, times: np.ndarray) -> List[Tuple[float, float]]:
        """The timestamp spans ``(times[first], times[last-1])`` per interval."""
        times = np.asarray(times, dtype=np.float64)
        out = []
        for iv in self._spans:
            if iv.last > len(times):
                raise ValueError("interval exceeds the timestamp array")
            out.append((float(times[iv.first]), float(times[iv.last - 1])))
        return out


def regular_intervals(
    n_samples: int,
    interval_length: int,
    gap_length: int = 0,
    start: int = 0,
) -> IntervalList:
    """Build evenly spaced intervals, as a scan schedule would.

    Intervals of ``interval_length`` samples separated by ``gap_length``
    samples, starting at ``start``, truncated to ``n_samples``.
    """
    if interval_length <= 0:
        raise ValueError("interval_length must be positive")
    if gap_length < 0:
        raise ValueError("gap_length must be non-negative")
    spans = []
    first = start
    step = interval_length + gap_length
    while first < n_samples:
        spans.append((first, min(first + interval_length, n_samples)))
        first += step
    return IntervalList(spans)
