"""Shared helpers for the kernel implementations."""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from ..ompshim.runtime import collapse3

__all__ = [
    "check_intervals",
    "pad_intervals",
    "pad_intervals_grouped",
    "flatten_intervals",
    "resolve_view",
    "host_parallel_for_collapse3",
    "launcher_for",
    "after_launch",
    "recording_launches",
]


def check_intervals(starts: np.ndarray, stops: np.ndarray, n_samples: int) -> None:
    """Validate interval arrays against the sample count."""
    starts = np.asarray(starts)
    stops = np.asarray(stops)
    if starts.shape != stops.shape or starts.ndim != 1:
        raise ValueError("interval starts/stops must be matching 1-D arrays")
    if len(starts) and (
        np.any(starts < 0) or np.any(stops < starts) or np.any(stops > n_samples)
    ):
        raise ValueError("intervals out of range")


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
    An empty interval list pads to a ``(0, 0)`` slab.
    """
    starts = np.asarray(starts, dtype=np.int64)
    stops = np.asarray(stops, dtype=np.int64)
    if len(starts) == 0:
        return np.zeros((0, 0), dtype=np.int64), np.zeros((0, 0), dtype=bool), 0
    # Degenerate (empty or inverted) intervals contribute no valid lanes,
    # mirroring the scalar reference's empty range().
    lengths = np.maximum(stops - starts, 0)
    max_len = int(lengths.max())
    lanes = np.arange(max_len, dtype=np.int64)
    raw = starts[:, None] + lanes[None, :]
    valid = lanes[None, :] < lengths[:, None]
    clamped = np.minimum(raw, np.maximum(stops[:, None] - 1, starts[:, None]))
    # Clamp degenerate rows (start == stop at the sample-count boundary)
    # into range: every lane there is masked anyway.
    np.clip(clamped, 0, None, out=clamped)
    return clamped, valid, max_len


def pad_intervals_grouped(
    starts: np.ndarray, stops: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Pad already-stacked ``(n_obs, n_ivl)`` interval slabs.

    The megabatch collector hands kernels their group's starts/stops as
    rectangular slabs with degenerate ``(0, 0)`` padding rows; this is
    the stacked analogue of :func:`pad_intervals`, returning
    ``(sample_index, valid_mask, max_length)`` with a leading ``n_obs``
    axis and one group-wide ``max_length``.
    """
    starts = np.asarray(starts, dtype=np.int64)
    stops = np.asarray(stops, dtype=np.int64)
    if starts.ndim != 2 or starts.shape != stops.shape:
        raise ValueError("grouped starts/stops must be matching 2-D slabs")
    n_obs, n_ivl = starts.shape
    idx, valid, max_len = pad_intervals(starts.reshape(-1), stops.reshape(-1))
    return (
        idx.reshape(n_obs, n_ivl, max_len),
        valid.reshape(n_obs, n_ivl, max_len),
        max_len,
    )


def flatten_intervals(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenated sample indices of every interval, in interval order.

    The batched CPU kernels use this to collapse the per-detector and
    per-interval Python loops into a single NumPy pass: gathering a
    ``(n_det, n_samples)`` array at ``[:, flatten_intervals(...)]`` yields
    the ``(n_det, n_flat)`` working set covering exactly the in-interval
    samples, with lanes ascending in sample order.  Each scatter kernel
    then enumerates this working set in the same order as its scalar
    reference, so ordered scatter-accumulations (``np.add.at``) stay
    bitwise identical to it -- most references are detector-major, while
    ``build_noise_weighted`` is sample-major (detector inner) so windowed
    streaming over the sample axis reproduces the full-run accumulation.

    The construction itself is vectorized (no Python loop over intervals);
    zero-length intervals contribute nothing.
    """
    starts = np.asarray(starts, dtype=np.int64)
    stops = np.asarray(stops, dtype=np.int64)
    if len(starts) == 0:
        return np.zeros(0, dtype=np.int64)
    # Empty (start == stop) and inverted (stop < start) intervals both
    # flatten to nothing, exactly like the reference's ``range(start, stop)``.
    lengths = np.maximum(stops - starts, 0)
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    # Lane j of the flat index lives in interval k at in-interval offset
    # j - cum[k]; its sample index is starts[k] + (j - cum[k]).
    cum = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(lengths)[:-1]))
    return np.repeat(starts - cum, lengths) + np.arange(total, dtype=np.int64)


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
    grid: Tuple[int, int, int],
    body: Callable[[np.ndarray, np.ndarray, np.ndarray], None],
    flops_per_iteration: float = 10.0,
    bytes_per_iteration: float = 24.0,
) -> None:
    """Host fallback of the collapse(3) launcher (no device, no charge).

    The same sweep as the device launcher: one ``body`` call over the
    :func:`~repro.ompshim.runtime.collapse3` index vectors of ``grid``.
    """
    i, j, k = collapse3(grid)
    if len(k):
        body(i, j, k)


class LaunchRecord:
    """The collapse(3) launch, and the commits deferred past it, that one
    per-observation kernel made under :func:`recording_launches`."""

    def __init__(self) -> None:
        self.grid: Optional[Tuple[int, int, int]] = None
        self.body: Optional[Callable] = None
        self.costs: dict = {}
        self.commits: List[Callable[[], None]] = []

    def launch(self, name, grid, body, **costs) -> None:
        if self.body is not None:
            raise RuntimeError(
                f"{name}: a stacked entry needs one launch per observation"
            )
        self.grid = tuple(int(g) for g in grid)
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
