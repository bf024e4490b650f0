"""Windowed streaming execution: pipelines over store-backed windows.

The executor walks each observation window-by-window in ascending sample
order, reads each window into a fresh :class:`Observation` (its own
writable arrays; between windows the store keeps only each observation's
read plan: chunk paths and header frames, interval lists, focalplane),
and runs the pipeline on it with a **shared** meta dict -- so global
products (the noise-weighted map) accumulate in place across windows and
observations in exactly the order a full in-memory run applies them.
Because every scatter kernel accumulates sample-major, the result is
bitwise identical to the all-in-memory run for any window size.

The window length comes from a per-window read budget in stored bytes
(``StreamConfig.host_budget_bytes``): the largest whole-chunk multiple
whose stored bytes fit the budget.  Nothing measures process RSS.
Pipeline-created detdata (pixels, weights, quats) scales with the same
window length, so the budget bounds the streamed working set up to that
constant factor, and freed windows stay in the process heap for reuse
(:mod:`repro.utils.hostmem`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..core.data import Data
from .store import ObservationStore

__all__ = ["StreamConfig", "plan_windows", "stream_pipeline"]


@dataclass(frozen=True)
class StreamConfig:
    """How much of an observation one window reads.

    ``host_budget_bytes`` caps the stored bytes read per window (the
    window length is rounded down to a whole number of chunks, never below
    one chunk).  ``window_samples`` overrides the budget with an explicit
    window length.  With neither set, the whole observation is one window.
    """

    host_budget_bytes: Optional[int] = None
    window_samples: Optional[int] = None

    def __post_init__(self) -> None:
        if self.host_budget_bytes is not None and self.host_budget_bytes <= 0:
            raise ValueError("host_budget_bytes must be positive")
        if self.window_samples is not None and self.window_samples <= 0:
            raise ValueError("window_samples must be positive")


def plan_windows(
    store: ObservationStore, iobs: int, config: Optional[StreamConfig] = None
) -> List[Tuple[int, int]]:
    """Chunk-aligned windows for one observation under the config."""
    if config is None:
        config = StreamConfig()
    if config.window_samples is not None:
        ws = config.window_samples
    elif config.host_budget_bytes is not None:
        per_sample = max(1, store.bytes_per_sample(iobs))
        ws = max(1, config.host_budget_bytes // per_sample)
    else:
        ws = int(store.manifest(iobs)["n_samples"])
    return store.windows(iobs, ws)


def stream_pipeline(
    store: ObservationStore,
    pipe,
    meta: Optional[Dict[str, Any]] = None,
    config: Optional[StreamConfig] = None,
    observations: Optional[List[int]] = None,
    use_accel: bool = False,
    accel=None,
) -> Data:
    """Run a pipeline over the store window-by-window; returns the Data.

    Works for eager and compiled plans alike: each window unit goes
    through ``pipe.exec`` (so a compiled pipeline plans residency for the
    window-sized working set), and all units share one meta dict.
    """
    data = Data()
    if meta:
        data.meta.update(meta)
    indices = range(store.n_observations) if observations is None else observations
    n_windows = 0
    for iobs in indices:
        for start, stop in plan_windows(store, iobs, config):
            unit = Data(comm=data.comm)
            unit.meta = data.meta
            unit.obs.append(store.window_observation(iobs, start, stop))
            pipe.exec(unit, use_accel=use_accel, accel=accel)
            n_windows += 1
    pipe.finalize(data)
    data.stream_windows = n_windows
    return data
