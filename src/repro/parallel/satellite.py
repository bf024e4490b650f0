"""The satellite benchmark on live worker processes.

Each elastic task simulates and processes one observation (a
:class:`~repro.core.Data` pinned to it by :class:`~repro.parallel.sharding.
SubsetComm`) and writes its partial noise-weighted map into that
observation's slot of a shared-memory slab.  The parent reduces the
per-observation partials in fixed observation order, so the final map is
bitwise identical for any worker count -- the property the determinism
tests pin down.

Simulation is layout-independent by construction: observation timestamps
derive from the global observation index and every random draw is
counter-based, keyed by ``(observation uid, stream)`` -- a worker produces
exactly the bytes a serial run produces for the same observation.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from ..core import ImplementationType
from ..healpix import npix as healpix_npix
from ..mpi.simworld import SimWorld
from ..obs import state as obs_state
from ..workflows.satellite import (
    NNZ,
    make_satellite_data as make_satellite_data_shard,
    satellite_processing_pipeline,
    satellite_sky,
)
from .elastic import ElasticConfig, TaskCheckpoint, run_zmap_tasks
from .shm import SharedSlab, SlabSpec

__all__ = [
    "make_satellite_data_shard",
    "satellite_task_runner",
    "run_parallel_satellite",
]


def _process_one_observation(
    iobs: int,
    size,
    implementation: ImplementationType,
    realization: int,
    sky: np.ndarray,
    plan: str = "eager",
) -> np.ndarray:
    """Simulate + process one observation; return its partial zmap."""
    data = make_satellite_data_shard(size, [iobs], realization=realization, sky=sky)
    pipe = satellite_processing_pipeline(
        size.nside, implementation=implementation, plan=plan
    )
    pipe.apply(data)
    return data["zmap"]


#: Per-worker-process cache for the elastic task runner: attach the slab
#: and synthesise the input sky once per (segment, realization), not once
#: per stolen/hedged task.
_ELASTIC_CTX: Dict[Any, Any] = {}


def satellite_task_runner(
    wid: int,
    iobs: int,
    slab_spec: SlabSpec,
    size,
    implementation: ImplementationType,
    realization: int,
    plan: str = "eager",
) -> None:
    """One elastic task: one observation's partial map into the slab.

    The pure-producer contract that makes stealing and hedging safe: this
    function's only output is slot ``iobs`` of the shared slab, and its
    bytes are a function of ``(iobs, size, implementation, realization)``
    alone -- never of ``wid`` or scheduling -- so duplicate executions
    overwrite the slot with identical bytes.
    """
    key = (slab_spec.shm_name, realization)
    ctx = _ELASTIC_CTX.get(key)
    if ctx is None:
        slab = SharedSlab.attach(slab_spec)
        sky = satellite_sky(size, realization)
        _ELASTIC_CTX[key] = ctx = (slab, sky)
    slab, sky = ctx
    tr = obs_state.active
    if tr is not None:
        with tr.span(f"shard_obs_{iobs:04d}", rank=wid, obs=iobs):
            slab.array("zmap")[iobs] = _process_one_observation(
                iobs, size, implementation, realization, sky, plan
            )
    else:
        slab.array("zmap")[iobs] = _process_one_observation(
            iobs, size, implementation, realization, sky, plan
        )


def satellite_task_cleanup() -> None:
    """Close cached slab mappings (runs in each worker before exit)."""
    for slab, _ in _ELASTIC_CTX.values():
        slab.close()
    _ELASTIC_CTX.clear()


def run_parallel_satellite(
    size,
    implementation: ImplementationType = ImplementationType.NUMPY,
    n_procs: int = 1,
    realization: int = 0,
    elastic_config: Optional[ElasticConfig] = None,
    checkpoint: Optional[TaskCheckpoint] = None,
    abort_after_commits: Optional[int] = None,
    plan: str = "eager",
) -> Dict[str, Any]:
    """The Figure 4 measurement: the benchmark across live processes.

    Per-observation tasks run on the work-stealing
    :class:`~repro.parallel.elastic.ElasticPool` with up to ``n_procs``
    workers, and the parent reduces the per-observation partial maps in
    fixed observation order (:func:`~repro.parallel.elastic.run_zmap_tasks`),
    so the map is bitwise identical for any worker count and any
    steal/hedge/crash schedule.  The iterative map-maker needs every
    detector timestream at once, so this measured path stops at the
    noise-weighted map -- the section the Figure 4 timings are dominated by.

    ``checkpoint`` makes completed observations durable: their slots are
    seeded from the store and skipped on resume, and every commit saves
    its slot back.  ``abort_after_commits`` models a mid-ensemble kill
    (raises :class:`~repro.parallel.elastic.ElasticAborted`).
    """
    world = SimWorld(n_nodes=1, procs_per_node=n_procs)
    out = run_zmap_tasks(
        satellite_task_runner,
        (size, implementation, realization, plan),
        size.n_observations,
        (healpix_npix(size.nside), NNZ),
        n_procs,
        config=elastic_config,
        checkpoint=checkpoint,
        abort_after_commits=abort_after_commits,
        cleanup=satellite_task_cleanup,
    )
    tr = obs_state.active
    if tr is not None:
        tr.metrics.gauge_set("parallel.workers", float(out["n_workers"]))
        tr.metrics.count(
            "parallel.worker_recoveries", float(len(out["recovered_ranks"]))
        )
    out["world"] = world.describe()
    return out
