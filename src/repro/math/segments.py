"""One segment descriptor per interval list: the kernels' view of ``(starts, stops)``.

Every port walks the same segments -- the in-interval samples the numpy
kernels and the OpenMP loop bodies move, the guarded collapse(3) nest of
the OpenMP launcher, the padded lanes of the JAX kernels.
:class:`Segments` derives them from one ``(starts, stops)`` pair, and
moves data over them: :meth:`~Segments.take` and :meth:`~Segments.put`
copy whole interval runs as ``a[:, start:stop]`` slices (``a[start:stop]``
for a shared, sample-indexed array), never one row index per sample.  An
:class:`~repro.math.intervals.IntervalList` hands out one read-only pair
and owns one descriptor, built on first use and dropped with the list;
:func:`segments` finds it from the arrays alone, so no kernel signature
changes.  Any other pair (a raw test array) gets a fresh descriptor that
nothing keeps.

Memory: per in-interval sample, ``flat`` holds 8 B (built on first use);
the JAX padded lanes add 9 B per padded lane (``n_ivl * max_len``), and
:attr:`~Segments.runs` holds three ints per span that holds a sample.
Nothing is held or built per detector: the OpenMP launcher hands its loop
body a column of detector indices, and the body moves per-sample data
through the descriptor itself (:meth:`repro.ompshim.LoopNest.iterations`).
"""

from __future__ import annotations

import weakref
from functools import cached_property
from typing import Tuple

import numpy as np

__all__ = ["Segments", "segments", "adopt"]

#: ``id(starts)`` -> the owner (an ``IntervalList``) that handed out the
#: read-only ``starts``.  The owner keeps its arrays alive, so an id found
#: here cannot belong to a different array; the entry dies with its owner.
_owners: "weakref.WeakValueDictionary[int, object]" = weakref.WeakValueDictionary()


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class Segments:
    """The segments of one ``(starts, stops)`` pair of half-open spans.

    Empty and inverted spans hold no sample, like the scalar reference's
    empty ``range()``.  Per interval: ``lengths`` and ``offsets`` (each
    span's first position among the in-interval samples), plus
    ``max_len`` and ``n_samples``.  Per in-interval sample, in interval
    order: ``flat`` (its sample index).  Every array is read-only.  Per
    span holding a sample: ``runs``.
    """

    def __init__(self, starts, stops):
        self.starts = np.asarray(starts, dtype=np.int64)
        self.stops = np.asarray(stops, dtype=np.int64)
        lengths = np.maximum(self.stops - self.starts, 0)
        self.lengths = _frozen(lengths)
        self.offsets = _frozen(lengths.cumsum() - lengths)
        self.max_len = int(np.maximum.reduce(lengths, initial=0))
        self.n_samples = int(np.add.reduce(lengths))

    def __len__(self) -> int:
        return len(self.lengths)

    @cached_property
    def flat(self) -> np.ndarray:
        positions = np.arange(self.n_samples, dtype=np.int64)
        return _frozen(np.repeat(self.starts - self.offsets, self.lengths) + positions)

    @cached_property
    def runs(self) -> Tuple[Tuple[int, int, int], ...]:
        """``(start, stop, offset)`` of every span that holds a sample, in
        interval order: the sample run ``[start, stop)`` sits at
        ``[offset, offset + stop - start)`` among the in-interval samples."""
        keep = self.lengths > 0
        return tuple(
            zip(
                self.starts[keep].tolist(),
                self.stops[keep].tolist(),
                self.offsets[keep].tolist(),
            )
        )

    def take(self, a: np.ndarray, axis: int = 1) -> np.ndarray:
        """The in-interval samples of ``a`` along ``axis``, in interval order:
        ``np.take(a, self.flat, axis=axis)``, copied run by run.

        ``axis=1`` gathers every detector row of a ``(n_det, n_samp, ...)``
        array; ``axis=0`` a shared ``(n_samp, ...)`` array.
        """
        lead = (slice(None),) * axis
        runs = self.runs
        if len(runs) == 1:
            start, stop, _ = runs[0]
            return a[lead + (slice(start, stop),)].copy()
        if not runs:
            return np.empty(a.shape[:axis] + (0,) + a.shape[axis + 1 :], dtype=a.dtype)
        return np.concatenate([a[lead + (slice(start, stop),)] for start, stop, _ in runs], axis=axis)

    def put(self, a: np.ndarray, values, axis: int = 1) -> None:
        """Write ``values`` to the in-interval samples of ``a`` along
        ``axis``, in place: ``put_lanes(a, self.flat, values)`` (for
        ``axis=1``), one slice write per run.

        Runs are written in interval order, so where spans overlap the
        last write wins, as it does for the index form.  ``values`` are
        broadcast to ``take(a, axis)``'s shape (an array of that shape is
        sliced as it is) and cast as assignment casts them.
        """
        lead = (slice(None),) * axis
        shape = a.shape[:axis] + (self.n_samples,) + a.shape[axis + 1 :]
        if type(values) is not np.ndarray or values.shape != shape:
            values = np.broadcast_to(values, shape)
        for start, stop, offset in self.runs:
            run = values[lead + (slice(offset, offset + stop - start),)]
            a[lead + (slice(start, stop),)] = run

    @cached_property
    def padded(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(sample_index, valid)``, each ``(n_ivl, max_len)``: the lanes
        padded to the longest interval (paper §3.1.3).

        A padding lane is clamped to its interval's last sample, so it
        redoes that sample's work; a degenerate interval's lanes go to the
        list's first valid sample.  Accumulating kernels zero padding
        contributions with ``valid``.
        """
        lanes = np.arange(self.max_len, dtype=np.int64)
        valid = lanes[None, :] < self.lengths[:, None]
        index = np.minimum(self.starts[:, None] + lanes, self.stops[:, None] - 1)
        if len(self):
            index[self.lengths == 0] = self.starts[np.argmax(self.lengths > 0)]
        return _frozen(index), _frozen(valid)


def adopt(owner, starts: np.ndarray, stops: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Make ``(starts, stops)`` read-only and let :func:`segments` find
    ``owner.segments`` from them.  Returns the pair."""
    _frozen(starts)
    _frozen(stops)
    _owners[id(starts)] = owner
    return starts, stops


def segments(starts, stops) -> Segments:
    """The descriptor of ``(starts, stops)``: its owner's, when both
    arrays are the pair an owner handed out, else a fresh one."""
    owner = _owners.get(id(starts))
    if owner is not None:
        own_starts, own_stops = owner.as_arrays()
        if own_starts is starts and own_stops is stops:
            return owner.segments
    return Segments(starts, stops)
