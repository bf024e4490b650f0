"""Shared helpers for the kernel implementations."""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from ..math.segments import segments
from ..ompshim.runtime import LoopNest

__all__ = [
    "pad_intervals",
    "resolve_view",
    "host_parallel_for_collapse3",
    "launcher_for",
    "after_launch",
    "recording_launches",
]


def pad_intervals(
    starts: np.ndarray, stops: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Pad variable-length intervals to the maximum length (paper §3.1.3).

    Returns ``(sample_index, valid_mask, max_length)`` where
    ``sample_index`` has shape (n_intervals, max_length).  Out-of-interval
    lanes are *clamped to the last valid sample* of their interval, so
    non-accumulating kernels can let the padding lanes do "dummy work"
    (recomputing the last sample's value) exactly as the paper describes;
    accumulating kernels must zero their contribution using ``valid_mask``.
    A degenerate (empty or inverted) interval has no sample of its own:
    its lanes go to the list's first valid sample (the megabatch anchor
    rule), so their dummy work rewrites a value a valid lane also writes.
    An empty interval list pads to a ``(0, 0)`` slab.  The arrays are the
    segment descriptor's (:attr:`~repro.math.segments.Segments.padded`),
    shared and read-only.
    """
    seg = segments(starts, stops)
    index, valid = seg.padded
    return index, valid, seg.max_len


def resolve_view(accel, arr: np.ndarray, use_accel: bool) -> np.ndarray:
    """The array a kernel should operate on.

    With acceleration, mapped host arrays resolve to their device views
    (dereferencing the device pointer); otherwise the host array is used
    directly (OpenMP's host-fallback behaviour).
    """
    if use_accel and accel is not None and accel.is_present(arr):
        return accel.device_view(arr)
    return arr


def host_parallel_for_collapse3(
    name: str,
    grid,
    body: Callable[[np.ndarray, np.ndarray, np.ndarray], None],
    flops_per_iteration: float = 10.0,
    bytes_per_iteration: float = 24.0,
) -> None:
    """Host fallback of the collapse(3) launcher (no device, no charge).

    The same sweep as the device launcher: one ``body`` call with the
    loop indices of the :class:`~repro.ompshim.runtime.LoopNest` of
    ``grid`` (:meth:`~repro.ompshim.runtime.LoopNest.iterations`).
    """
    nest = LoopNest.of(grid)
    if nest.size:
        body(*nest.iterations())


class LaunchRecord:
    """The collapse(3) launch, and the commits deferred past it, that one
    per-observation kernel made under :func:`recording_launches`."""

    def __init__(self) -> None:
        self.nest: Optional[LoopNest] = None
        self.body: Optional[Callable] = None
        self.costs: dict = {}
        self.commits: List[Callable[[], None]] = []

    def launch(self, name, grid, body, **costs) -> None:
        nest = LoopNest.of(grid)
        if not nest.launches:
            return
        if self.body is not None:
            raise RuntimeError(
                f"{name}: a stacked entry needs one launch per observation"
            )
        self.nest = nest
        self.body = body
        self.costs = costs


_recording = threading.local()


@contextmanager
def recording_launches() -> Iterator[LaunchRecord]:
    """Record the launches made inside instead of running them.

    A stacked OpenMP entry runs each group member's per-observation
    kernel under this, then makes one launch over all recorded loop
    bodies (see :mod:`repro.kernels.omp.stacked`).
    """
    record = LaunchRecord()
    _recording.active = record
    try:
        yield record
    finally:
        _recording.active = None


def launcher_for(accel, use_accel: bool) -> Callable:
    """Pick the device or host collapse(3) launcher (or, while
    :func:`recording_launches` is active, the recorder)."""
    record = getattr(_recording, "active", None)
    if record is not None:
        return record.launch
    if use_accel and accel is not None:
        return accel.target_teams_distribute_parallel_for
    return host_parallel_for_collapse3


def after_launch(commit: Callable[[], None]) -> None:
    """Run ``commit`` once the launch just made has finished.

    That is now, unless launches are being recorded: then it runs after
    the stacked launch, in group-member order.
    """
    record = getattr(_recording, "active", None)
    if record is None:
        commit()
    else:
        record.commits.append(commit)
