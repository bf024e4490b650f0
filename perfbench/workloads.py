"""The three workloads: set-up, one timed unit, and the host oracle.

Each unit is one full noise-weighted map product (``zmap``) of the
satellite processing pipeline, run by one caller in a closed loop.

* ``omp-hybrid`` -- OpenMP target offload on the simulated device, eager
  plan, HYBRID residency, operator-major, in memory.  The kernel loop
  bodies under the collapse(3) launcher take ~80% of a traced unit,
  HYBRID staging and launch overhead ~5%; jaxshim, compilepipe, the
  megabatch collector and the store stay idle.
* ``jax-megabatch`` -- the jaxshim port on the simulated device under
  ``plan="megabatch"`` with every observation in one group.  Compiled-graph
  execution takes ~70% of a traced unit, megabatch flush ~8%, compilepipe
  planning and execution ~5%; the ompshim launcher and the store stay
  idle.  Tracing and batching happen during set-up.
* ``stream-windows`` -- the numpy host kernels streamed window by window
  out of an :class:`~repro.store.ObservationStore` (a window is a quarter
  observation).  384 small kernel calls per unit: the kernels take ~60% of
  a traced unit, store window reads ~20%, per-window pipeline and dispatch
  overhead ~15%.  Store writes happen only during set-up.

The shares are each span's self time in the traced record
(``detail.self_share``) at the sizes below.

Unit sizes are scaled so a unit takes tens to hundreds of milliseconds on
a 2-vCPU host, so a 20 s run holds 60-250 units.
"""

from __future__ import annotations

import copy
import itertools
import os
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.core import Data, ImplementationType, MovementPolicy
from repro.core.pipeline import LoopOrder
from repro.jaxshim.api import JitFunction
from repro.ompshim import OmpTargetRuntime
from repro.parallel.satellite import make_satellite_data_shard
from repro.store import ObservationStore, StreamConfig, stream_pipeline
from repro.workflows.satellite import SizeSpec, satellite_processing_pipeline

__all__ = [
    "WorkloadConfig",
    "WORKLOADS",
    "Prepared",
    "setup",
    "same_bits",
    "reset_jit_caches",
]

#: Relative agreement required between a backend's host map and the numpy
#: host map.  The backends order floating-point operations differently, so
#: their maps agree to rounding, not bitwise (float64: ~1e-16 per step).
CROSS_BACKEND_RTOL = 1e-12

_store_ids = itertools.count()


@dataclass(frozen=True)
class WorkloadConfig:
    """Everything that selects what a workload runs."""

    name: str
    backend: str
    plan: str
    policy: Optional[str]
    size: SizeSpec
    #: Samples per streamed window (None: in memory, no store).
    window_samples: Optional[int] = None
    warmup_units: int = 2

    def as_record(self) -> Dict[str, Any]:
        s = self.size
        return {
            "backend": self.backend,
            "plan": self.plan,
            "policy": self.policy,
            "loop_order": LoopOrder.OPERATOR_MAJOR.value,  # the Pipeline default
            "size": {
                "n_observations": s.n_observations,
                "n_detectors": s.n_detectors,
                "n_samples": s.n_samples,
                "nside": s.nside,
                "samples_per_unit": s.total_samples,
            },
            "window_samples": self.window_samples,
            # Megabatch plans put every observation in one group.
            "megabatch_group": "all" if self.plan == "megabatch" else None,
            "warmup_units": self.warmup_units,
        }


WORKLOADS: Dict[str, WorkloadConfig] = {
    "omp-hybrid": WorkloadConfig(
        "omp-hybrid", "omp_target", "eager", "hybrid", SizeSpec("omp-hybrid", 4, 2, 4096, 32)
    ),
    "jax-megabatch": WorkloadConfig(
        "jax-megabatch", "jax", "megabatch", "hybrid", SizeSpec("jax-megabatch", 4, 2, 2048, 32)
    ),
    "stream-windows": WorkloadConfig(
        "stream-windows",
        "numpy",
        "eager",
        None,
        SizeSpec("stream-windows", 16, 2, 4096, 32),
        window_samples=1024,
        warmup_units=1,
    ),
}


@dataclass
class Prepared:
    """One set-up workload, ready for timed units."""

    config: WorkloadConfig
    #: Bitwise reference map every unit must reproduce.
    oracle: np.ndarray
    #: Fresh inputs for one unit (made outside the timed region).
    make_inputs: Callable[[], Any]
    #: One unit: inputs -> zmap.
    run_unit: Callable[[Any], np.ndarray]
    #: The simulated accelerator (None on the host), for modeled time.
    runtime: Optional[OmpTargetRuntime] = None
    #: Largest difference between the oracle and the numpy host map.
    numpy_max_rel_diff: float = 0.0
    workdir: Optional[Path] = None

    @property
    def samples_per_unit(self) -> int:
        return self.config.size.total_samples

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None


def same_bits(a: Any, b: np.ndarray) -> bool:
    """Bitwise equality (NaN payloads and signed zeros included)."""
    a = np.asarray(a)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def reset_jit_caches() -> int:
    """Empty every module-level jit cache; returns how many were emptied.

    Each set-up then pays jit tracing again, as a fresh process would.
    """
    emptied = 0
    for name, mod in list(sys.modules.items()):
        if mod is None or name.split(".")[0] != "repro":
            continue
        for value in list(vars(mod).values()):
            if isinstance(value, JitFunction):
                value._cache.clear()
                emptied += 1
    return emptied


def _clone(base: Data) -> Data:
    """Fresh copies of every input array; metadata is shared read-only."""
    out = Data(comm=base.comm)
    out.meta = dict(base.meta)
    for ob in base.obs:
        c = copy.copy(ob)
        c.shared = {k: v.copy() for k, v in ob.shared.items()}
        c.detdata = {k: v.copy() for k, v in ob.detdata.items()}
        c.intervals = dict(ob.intervals)
        out.obs.append(c)
    return out


def _host_map(config: WorkloadConfig, base: Data, backend: str) -> np.ndarray:
    data = _clone(base)
    pipe = satellite_processing_pipeline(
        config.size.nside, implementation=ImplementationType(backend)
    )
    pipe.apply(data)
    return data["zmap"]


def _max_rel_diff(a: np.ndarray, ref: np.ndarray) -> float:
    scale = float(np.max(np.abs(ref))) or 1.0
    return float(np.max(np.abs(a - ref))) / scale


def setup(config: WorkloadConfig, seed: int, scratch: Path) -> Prepared:
    """Simulate inputs from ``seed``, compute the oracle, build and warm up.

    The oracle is the host path of the workload's own backend (no device,
    eager plan, in memory): device execution, megabatching and streaming
    must reproduce it bitwise.  It must also agree with the numpy host
    map to :data:`CROSS_BACKEND_RTOL`.
    """
    size = config.size
    base = make_satellite_data_shard(size, list(range(size.n_observations)), realization=seed)
    numpy_map = _host_map(config, base, "numpy")
    if config.backend == "numpy":
        oracle = numpy_map
    else:
        oracle = _host_map(config, base, config.backend)
    rel = _max_rel_diff(oracle, numpy_map)
    if not rel <= CROSS_BACKEND_RTOL:
        raise RuntimeError(
            f"{config.name}: {config.backend} host map differs from the numpy "
            f"host map by {rel:.3g} (relative), above {CROSS_BACKEND_RTOL}"
        )

    impl = ImplementationType(config.backend)
    if config.window_samples is None:
        runtime = OmpTargetRuntime()
        pipe = satellite_processing_pipeline(
            size.nside,
            implementation=impl,
            accel=runtime,
            policy=MovementPolicy(config.policy),
            plan=config.plan,
        )

        def run_unit(data: Data) -> np.ndarray:
            pipe.exec(data, use_accel=True, accel=runtime)
            pipe.finalize(data)
            return data["zmap"]

        prepared = Prepared(config, oracle, lambda: _clone(base), run_unit, runtime)
    else:
        workdir = Path(scratch) / f"store-{os.getpid()}-{next(_store_ids)}"
        store = ObservationStore.create(workdir, chunk_samples=config.window_samples)
        for ob in base.obs:
            store.spill_observation(ob)
        store = ObservationStore.open(workdir)  # scrubs: verifies every chunk
        pipe = satellite_processing_pipeline(size.nside, implementation=impl)
        stream_config = StreamConfig(window_samples=config.window_samples)
        sky = base["sky_map"]

        def run_unit(meta: Dict[str, Any]) -> np.ndarray:
            return stream_pipeline(store, pipe, meta=meta, config=stream_config)["zmap"]

        prepared = Prepared(
            config, oracle, lambda: {"sky_map": sky}, run_unit, workdir=workdir
        )
    prepared.numpy_max_rel_diff = rel

    for _ in range(config.warmup_units):
        if not same_bits(prepared.run_unit(prepared.make_inputs()), oracle):
            prepared.close()
            raise RuntimeError(f"{config.name}: warm-up unit does not match the oracle")
    return prepared
