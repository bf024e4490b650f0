"""repro.parallel — observation tasks across live OS processes.

The paper's runs get their node-level throughput from MPI ranks; this
package runs the satellite benchmark on real worker processes so the
Figure 4 process sweep can be measured in wall-clock seconds, not just
modeled.  Three pieces:

* :class:`SharedSlab` (:mod:`~repro.parallel.shm`): named arrays in one
  shared-memory segment, so detector-scale results cross the process
  boundary without pickling;
* :class:`SubsetComm` (:mod:`~repro.parallel.sharding`): a communicator
  that pins a dataset to a fixed set of observations;
* :class:`ElasticPool` (:mod:`~repro.parallel.elastic`): a lease-based
  work-stealing queue at per-observation granularity with worker
  heartbeats, straggler hedging (first-writer-wins), bounded respawn, an
  inline last-resort lane, and per-worker ``repro.obs`` event streams
  merged into one trace.  :func:`run_zmap_tasks` is the one parent-side
  path over it: one slab slot per observation, the pool, and the
  fixed-order reduction.

Determinism is the contract: per-observation partial maps reduced in
fixed observation order make the result bitwise identical for any worker
count *and any steal/hedge/crash schedule*.
"""

from __future__ import annotations

from .elastic import (
    CRASH_EXIT_CODE,
    ElasticAborted,
    ElasticConfig,
    ElasticPool,
    ElasticReport,
    TaskCheckpoint,
    replay_worker_events,
    run_zmap_tasks,
)
from .satellite import (
    make_satellite_data_shard,
    run_parallel_satellite,
    satellite_task_runner,
)
from .sharding import SubsetComm
from .shm import SharedSlab, SlabSpec, slab_until_registered

__all__ = [
    "CRASH_EXIT_CODE",
    "ElasticAborted",
    "ElasticConfig",
    "ElasticPool",
    "ElasticReport",
    "SharedSlab",
    "SlabSpec",
    "TaskCheckpoint",
    "slab_until_registered",
    "SubsetComm",
    "make_satellite_data_shard",
    "replay_worker_events",
    "run_parallel_satellite",
    "run_zmap_tasks",
    "satellite_task_runner",
]
