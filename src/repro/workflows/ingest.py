"""Out-of-core ingest: simulate, spill to a store, stream back through.

The ingest benchmark measures the storage half of streaming out-of-core
execution: the satellite dataset is simulated and spilled into a
:class:`~repro.store.ObservationStore`, then the processing pipeline runs
window-by-window under a per-window read budget -- serially (eager and
compiled plans) and on the elastic pool -- with every run parity-gated
against the corresponding all-in-memory oracle.  Fault legs replay the
``store-*`` plans: torn writes during spill (commit retries), and bit rot
at read time (quarantine + regeneration from the registered producer).

The registered ``satellite-sim`` producer makes regeneration possible:
simulation is counter-based and layout-independent, so re-simulating one
observation reproduces its spilled bytes exactly.
"""

from __future__ import annotations

import dataclasses
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from ..core import ImplementationType
from ..core.pipeline import MovementPolicy
from ..obs import state as obs_state
from ..ompshim import OmpTargetRuntime
from ..parallel.elastic import ElasticConfig, run_zmap_tasks
from ..parallel.shm import SharedSlab
from ..resilience import named_plan, resilient
from ..store import (
    ObservationStore,
    StreamConfig,
    register_producer,
    stream_pipeline,
)
from .products import produce_zmap
from .satellite import (
    NNZ,
    SIZES,
    SizeSpec,
    make_satellite_data,
    run_satellite_benchmark,
    same_bits,
    satellite_processing_pipeline,
    satellite_sky,
)

__all__ = [
    "satellite_observation_producer",
    "ingest_satellite_store",
    "run_streamed_elastic",
    "run_ingest_benchmark",
    "streamed_task_runner",
    "streamed_task_cleanup",
]

#: The producer name recorded in every ingested manifest.
PRODUCER_NAME = "satellite-sim"


def satellite_observation_producer(
    size: Union[Dict[str, Any], SizeSpec], iobs: int, realization: int
) -> Any:
    """Re-simulate one observation from scratch (pure, counter-based)."""
    spec = SizeSpec(**size) if isinstance(size, dict) else size
    return make_satellite_data(spec, [iobs], realization=realization).obs[0]


register_producer(PRODUCER_NAME, satellite_observation_producer)


def ingest_satellite_store(
    root: Union[str, Path],
    size: SizeSpec,
    realization: int = 0,
    chunk_samples: Optional[int] = None,
) -> ObservationStore:
    """Simulate the benchmark dataset and spill it into a fresh store.

    Observations are simulated and spilled one at a time, so ingest holds
    one observation (plus the sky) in memory, never the dataset.  Every
    observation is spilled with the ``satellite-sim`` producer registered
    in its manifest, and the input sky map is saved as store-level meta so
    streamed runs (and worker processes) read back the exact bytes the
    simulation used.
    """
    if chunk_samples is None:
        chunk_samples = max(64, size.n_samples // 8)
    store = ObservationStore.create(root, chunk_samples=chunk_samples)
    sky = satellite_sky(size, realization)
    for iobs in range(size.n_observations):
        ob = make_satellite_data(size, [iobs], realization=realization, sky=sky).obs[0]
        store.spill_observation(
            ob,
            producer={
                "name": PRODUCER_NAME,
                "args": {
                    "size": dataclasses.asdict(size),
                    "iobs": iobs,
                    "realization": realization,
                },
            },
        )
        del ob  # freed before the next observation is simulated
    store.save_meta("sky_map", sky)
    return store


# -- elastic streamed execution ------------------------------------------------

#: Per-worker-process cache: attach the slab and open the store once per
#: (segment, store) pair, not once per stolen/hedged task.
_STREAM_CTX: Dict[Any, Any] = {}


def streamed_task_runner(
    wid: int,
    iobs: int,
    slab_spec,
    store_root: str,
    nside: int,
    implementation: ImplementationType,
    window_samples: Optional[int],
) -> None:
    """One elastic task: stream one observation's windows into slab slot ``iobs``.

    The task streams its windows **sequentially in ascending sample
    order**, accumulating a per-observation partial map in a private meta
    dict, then assigns the finished partial into its slot.  Assignment is
    idempotent and the bytes are a function of ``iobs`` and the store
    alone -- never of ``wid``, window scheduling, or steal/hedge history
    -- so elastic recovery composes unchanged with streaming.  (Windows
    of one observation cannot fan out across workers: floating-point
    accumulation is order-sensitive, so the window sequence within an
    observation must stay sequential to preserve bitwise parity.)
    """
    key = (slab_spec.shm_name, str(store_root))
    ctx = _STREAM_CTX.get(key)
    if ctx is None:
        slab = SharedSlab.attach(slab_spec)
        # The parent scrubbed at open; workers skip the integrity pass.
        store = ObservationStore.open(store_root, scrub=False)
        sky = store.load_meta("sky_map")
        pipe = satellite_processing_pipeline(nside, implementation=implementation)
        _STREAM_CTX[key] = ctx = (slab, store, sky, pipe)
    slab, store, sky, pipe = ctx

    def run() -> np.ndarray:
        out = stream_pipeline(
            store,
            pipe,
            meta={"sky_map": sky},
            config=StreamConfig(window_samples=window_samples),
            observations=[iobs],
        )
        return out["zmap"]

    tr = obs_state.active
    if tr is not None:
        with tr.span(f"stream_obs_{iobs:04d}", rank=wid, obs=iobs):
            slab.array("zmap")[iobs] = run()
    else:
        slab.array("zmap")[iobs] = run()


def streamed_task_cleanup() -> None:
    """Close cached slab mappings (runs in each worker before exit)."""
    for slab, _store, _sky, _pipe in _STREAM_CTX.values():
        slab.close()
    _STREAM_CTX.clear()


def run_streamed_elastic(
    store_root: Union[str, Path],
    implementation: ImplementationType = ImplementationType.NUMPY,
    n_procs: int = 1,
    window_samples: Optional[int] = None,
    host_budget_bytes: Optional[int] = None,
    elastic_config: Optional[ElasticConfig] = None,
    scrub: bool = True,
) -> Dict[str, Any]:
    """Stream every observation through the elastic pool; reduce the map.

    Tasks address whole observations; each streams its (observation,
    window) pairs internally, so steal/hedge/crash recovery needs no
    ordering guarantees.  The parent reduces slab slots in fixed
    observation order -- bitwise identical for any worker count, window
    size, and fault schedule.
    """
    store_root = str(store_root)
    store = ObservationStore.open(store_root, scrub=scrub)
    sky = store.load_meta("sky_map")
    n_pix = sky.shape[0]
    nside = int(round((n_pix / 12) ** 0.5))
    n_obs = store.n_observations
    if host_budget_bytes is not None and window_samples is None:
        per = max(store.bytes_per_sample(i) for i in range(n_obs))
        window_samples = max(1, host_budget_bytes // per)

    out = run_zmap_tasks(
        streamed_task_runner,
        (store_root, nside, implementation, window_samples),
        n_obs,
        (n_pix, NNZ),
        n_procs,
        config=elastic_config,
        cleanup=streamed_task_cleanup,
    )
    out["window_samples"] = window_samples
    out["scrub"] = store.scrub_report.as_dict() if store.scrub_report else None
    return out


# -- the parity-gated ingest benchmark -----------------------------------------


def run_ingest_benchmark(
    size: Union[str, SizeSpec] = "tiny",
    implementation: ImplementationType = ImplementationType.NUMPY,
    realization: int = 0,
    host_budget_bytes: Optional[int] = None,
    chunk_samples: Optional[int] = None,
    elastic_procs: Sequence[int] = (1, 2),
    compiled: bool = True,
    faults: bool = True,
    seed: int = 0,
    out_dir: Optional[Union[str, Path]] = None,
) -> Dict[str, Any]:
    """Spill, stream, and parity-gate against the in-memory oracles.

    Legs: eager streamed vs in-memory (same implementation), compiled
    streamed vs in-memory compiled (OpenMP target on the simulated
    device), elastic streamed for each worker count vs the per-observation
    partial-sum oracle, plus fault replays of the ``store-torn-write`` and
    ``store-bitrot`` plans.  ``identical`` in the result is the single
    gate: True only if every leg reproduced its oracle bitwise.
    """
    if isinstance(size, str):
        size = SIZES[size]
    sky = satellite_sky(size, realization)
    tmp = None
    if out_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-ingest-")
        out_dir = tmp.name
    out_dir = Path(out_dir)
    report: Dict[str, Any] = {
        "size": size.name,
        "implementation": implementation.name.lower(),
        "realization": realization,
    }
    try:
        # -- in-memory eager oracle (continuous accumulation) -----------------
        zmap_mem = run_satellite_benchmark(
            size, implementation, mapmaking=False, realization=realization
        )["zmap"]

        # -- ingest under the torn-write plan (commit retries) ----------------
        t0 = time.perf_counter()
        if faults:
            with resilient(named_plan("store-torn-write", seed=seed)) as ctrl:
                store = ingest_satellite_store(
                    out_dir / "store", size, realization, chunk_samples
                )
                report["torn_write"] = {
                    "faults_injected": ctrl.report()["counters"].get("faults_injected", 0),
                    "commit_retries": ctrl.report()["counters"].get("store.commit_retries", 0),
                }
        else:
            store = ingest_satellite_store(out_dir / "store", size, realization, chunk_samples)
        report["ingest_seconds"] = time.perf_counter() - t0
        report["chunk_samples"] = store.chunk_samples

        # -- streamed eager under the budget ----------------------------------
        store = ObservationStore.open(out_dir / "store")
        report["scrub"] = store.scrub_report.as_dict()
        if host_budget_bytes is None:
            # Default: a budget a quarter of one observation's stored
            # bytes, forcing several windows per observation.
            host_budget_bytes = max(
                1, store.bytes_per_sample(0) * size.n_samples // 4
            )
        report["host_budget_bytes"] = int(host_budget_bytes)
        cfg = StreamConfig(host_budget_bytes=host_budget_bytes)
        t0 = time.perf_counter()
        pipe2 = satellite_processing_pipeline(size.nside, implementation=implementation)
        streamed = stream_pipeline(store, pipe2, meta={"sky_map": sky}, config=cfg)
        report["stream_seconds"] = time.perf_counter() - t0
        report["stream_windows"] = streamed.stream_windows
        report["eager_identical"] = same_bits(streamed["zmap"], zmap_mem)

        # -- streamed bit-rot replay ------------------------------------------
        if faults:
            with resilient(named_plan("store-bitrot", seed=seed)) as ctrl:
                pipe3 = satellite_processing_pipeline(size.nside, implementation=implementation)
                rotted = stream_pipeline(store, pipe3, meta={"sky_map": sky}, config=cfg)
                counters = ctrl.report()["counters"]
            report["bitrot"] = {
                "faults_injected": counters.get("faults_injected", 0),
                "quarantined": counters.get("store.chunks_quarantined", 0),
                "regenerated": counters.get("store.chunks_regenerated", 0),
                "identical": same_bits(rotted["zmap"], zmap_mem),
            }

        # -- compiled plan streamed vs in-memory ------------------------------
        if compiled:
            def compiled_pipe():
                accel = OmpTargetRuntime()
                p = satellite_processing_pipeline(
                    size.nside,
                    implementation=ImplementationType.OMP_TARGET,
                    accel=accel,
                    policy=MovementPolicy.HYBRID,
                    plan="compiled",
                )
                return p, accel

            cdata = make_satellite_data(size, realization=realization, sky=sky)
            cp, caccel = compiled_pipe()
            cp.exec(cdata, use_accel=True, accel=caccel)
            sp, saccel = compiled_pipe()
            cstream = stream_pipeline(
                store, sp, meta={"sky_map": sky}, config=cfg,
                use_accel=True, accel=saccel,
            )
            report["compiled_identical"] = same_bits(cstream["zmap"], cdata["zmap"])

        # -- elastic streamed for each worker count ---------------------------
        oracle = produce_zmap(size, implementation, realization)
        report["elastic"] = {}
        for n_procs in elastic_procs:
            out = run_streamed_elastic(
                out_dir / "store",
                implementation=implementation,
                n_procs=n_procs,
                host_budget_bytes=host_budget_bytes,
                scrub=False,
            )
            report["elastic"][str(n_procs)] = {
                "identical": same_bits(out["zmap"], oracle),
                "window_samples": out["window_samples"],
                "committed": out["elastic"]["committed"],
            }

        gates = [report["eager_identical"]]
        if compiled:
            gates.append(report["compiled_identical"])
        if faults:
            gates.append(report["bitrot"]["identical"])
        gates.extend(e["identical"] for e in report["elastic"].values())
        report["identical"] = bool(all(gates))
        return report
    finally:
        if tmp is not None:
            tmp.cleanup()
