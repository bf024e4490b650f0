"""Observations: the unit of data distribution.

An observation holds a contiguous span of time for one telescope: *shared*
arrays common to all detectors (timestamps, boresight pointing, shared
flags), *detdata* arrays with one row per detector (signal, pixel numbers,
Stokes weights, ...), and named *interval* lists marking the valid spans
the kernels iterate over.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..math.intervals import IntervalList
from .focalplane import Focalplane

__all__ = ["Observation"]


class Observation:
    """One observation: shared data, detector data, intervals.

    Parameters
    ----------
    focalplane:
        The instrument; fixes the detector list and ordering.
    n_samples:
        Number of time samples.
    name:
        Unique name; also seeds the observation's RNG key.
    uid:
        Stable integer identity used in counter-based RNG keys; derived
        from the name when omitted.
    """

    def __init__(
        self,
        focalplane: Focalplane,
        n_samples: int,
        name: str = "obs",
        uid: Optional[int] = None,
    ):
        if n_samples <= 0:
            raise ValueError("an observation needs at least one sample")
        self.focalplane = focalplane
        self.name = name
        self.uid = uid if uid is not None else (hash(name) & 0xFFFFFFFF)
        self.n_samples = int(n_samples)
        self.shared: Dict[str, np.ndarray] = {}
        self.detdata: Dict[str, np.ndarray] = {}
        self.intervals: Dict[str, IntervalList] = {}

    # -- detectors ------------------------------------------------------------

    @property
    def detectors(self) -> List[str]:
        return self.focalplane.detectors

    @property
    def n_detectors(self) -> int:
        return self.focalplane.n_detectors

    # -- shared data ------------------------------------------------------------

    def create_shared(self, key: str, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """Allocate a shared (all-detector) array; first axis is samples."""
        if shape[0] != self.n_samples:
            raise ValueError(
                f"shared array leading axis {shape[0]} != n_samples {self.n_samples}"
            )
        if key in self.shared:
            raise KeyError(f"shared key {key!r} already exists")
        self.shared[key] = np.zeros(shape, dtype=dtype)
        return self.shared[key]

    def set_shared(self, key: str, value: np.ndarray) -> None:
        value = np.ascontiguousarray(value)
        if value.shape[0] != self.n_samples:
            raise ValueError("shared array leading axis must be n_samples")
        self.shared[key] = value

    # -- detector data ------------------------------------------------------------

    def create_detdata(
        self, key: str, sample_shape: Tuple[int, ...] = (), dtype=np.float64
    ) -> np.ndarray:
        """Allocate a per-detector array of shape (n_det, n_samples, *extra)."""
        if key in self.detdata:
            raise KeyError(f"detdata key {key!r} already exists")
        shape = (self.n_detectors, self.n_samples) + tuple(sample_shape)
        self.detdata[key] = np.zeros(shape, dtype=dtype)
        return self.detdata[key]

    def ensure_detdata(
        self, key: str, sample_shape: Tuple[int, ...] = (), dtype=np.float64
    ) -> np.ndarray:
        """Get-or-create semantics used by operators providing outputs."""
        if key not in self.detdata:
            return self.create_detdata(key, sample_shape, dtype)
        existing = self.detdata[key]
        expected = (self.n_detectors, self.n_samples) + tuple(sample_shape)
        if existing.shape != expected:
            raise ValueError(
                f"detdata {key!r} exists with shape {existing.shape}, wanted {expected}"
            )
        return existing

    # -- intervals ------------------------------------------------------------

    def set_intervals(self, key: str, intervals: IntervalList) -> None:
        for iv in intervals:
            if iv.last > self.n_samples:
                raise ValueError(
                    f"interval [{iv.first},{iv.last}) exceeds n_samples {self.n_samples}"
                )
        self.intervals[key] = intervals

    def interval_arrays(self, key: Optional[str]) -> Tuple[np.ndarray, np.ndarray]:
        """(starts, stops) arrays for a named interval list.

        ``None`` means "the whole observation" -- a single interval.
        """
        if key is None:
            return (
                np.array([0], dtype=np.int64),
                np.array([self.n_samples], dtype=np.int64),
            )
        return self.intervals[key].as_arrays()

    # -- memory accounting (feeds the footprint model) ----------------------------

    def memory_bytes(self) -> int:
        total = 0
        for arr in self.shared.values():
            total += arr.nbytes
        for arr in self.detdata.values():
            total += arr.nbytes
        return total

    def __repr__(self) -> str:
        return (
            f"Observation({self.name!r}, {self.n_detectors} det x "
            f"{self.n_samples} samp, shared={sorted(self.shared)}, "
            f"detdata={sorted(self.detdata)})"
        )
