"""Named fault plans: the scenarios the paper's production runs hit.

Each plan is a deterministic scenario replayable from ``(name, seed)``.
The two CI-grade plans -- ``oom-then-recover`` and ``transient-transfer``
-- are designed so recovery keeps execution on the device with the same
implementation, making the final maps **bitwise identical** to a
fault-free run.
"""

from __future__ import annotations

from typing import Dict, List

from .faults import FaultKind, FaultPlan, FaultSpec

__all__ = ["NAMED_PLANS", "named_plan", "plan_names"]


def _plan(name: str, *specs: FaultSpec) -> FaultPlan:
    return FaultPlan(name=name, specs=tuple(specs))


NAMED_PLANS: Dict[str, FaultPlan] = {
    # The Fig 4 scenario: an allocation is denied by external pressure
    # (other processes on the shared device), then succeeds on retry after
    # the liveness spill relieves the pool.  Stays on-device -> bitwise
    # identical.
    "oom-then-recover": _plan(
        "oom-then-recover",
        FaultSpec(site="pool.allocate", kind=FaultKind.OOM, nth=(5,), max_fires=1),
    ),
    # Transient PCIe hiccups in both directions; the transfer layer's
    # retry-with-backoff re-issues the copies.  Bitwise identical.
    "transient-transfer": _plan(
        "transient-transfer",
        FaultSpec(site="transfer.h2d", kind=FaultKind.TRANSFER_FAIL, nth=(2,), max_fires=1),
        FaultSpec(site="transfer.d2h", kind=FaultKind.TRANSFER_FAIL, nth=(1,), max_fires=1),
    ),
    # A copy lands corrupted; checksums detect it and the retry rewrites
    # the bytes.  Bitwise identical.
    "corrupt-transfer": _plan(
        "corrupt-transfer",
        FaultSpec(
            site="transfer.h2d", kind=FaultKind.TRANSFER_CORRUPT, nth=(3,), max_fires=1
        ),
    ),
    # Flaky kernel launches (driver/queue hiccups under device sharing);
    # the dispatch wrapper retries in place.  Bitwise identical.
    "flaky-launch": _plan(
        "flaky-launch",
        FaultSpec(
            site="device.launch", kind=FaultKind.LAUNCH_FAIL, nth=(2, 6), max_fires=2
        ),
    ),
    # The offload path itself fails (the paper's OpenMP target region);
    # retried at dispatch level, falling back to the CPU chain only if it
    # keeps failing.  No-op under backends that never enter a target region.
    "target-flaky": _plan(
        "target-flaky",
        FaultSpec(
            site="ompshim.target_region",
            kind=FaultKind.TARGET_FAIL,
            nth=(2,),
            max_fires=1,
        ),
    ),
    # Device loss mid-pipeline: device-resident data is destroyed and the
    # pipeline resumes from its last per-stage checkpoint.
    "device-loss": _plan(
        "device-loss",
        FaultSpec(
            site="device.launch", kind=FaultKind.DEVICE_LOST, nth=(5,), max_fires=1
        ),
    ),
    # A sharded worker process dies mid-shard; the parallel engine re-runs
    # that worker's observations (each shard is a pure function of the
    # seeded inputs), so the reduced maps stay bitwise identical.
    "worker-crash": _plan(
        "worker-crash",
        FaultSpec(
            site="parallel.worker",
            kind=FaultKind.WORKER_CRASH,
            nth=(2,),
            max_fires=1,
        ),
    ),
    # A worker goes silent mid-task (wedged pipe, paused VM): heartbeats
    # stop, the lease expires, and the elastic pool steals the task for a
    # live worker.  The silent worker keeps computing and rejoins when it
    # resurfaces; first-writer-wins commit keeps the maps bitwise identical.
    "heartbeat-loss": _plan(
        "heartbeat-loss",
        FaultSpec(
            site="parallel.heartbeat",
            kind=FaultKind.HEARTBEAT_LOSS,
            nth=(2,),
            max_fires=1,
        ),
        # The silent worker is also slow: under a lease shorter than the
        # stall the lease genuinely expires and the task is stolen (a
        # fast muted task would finish before its lease ran out).
        FaultSpec(
            site="parallel.task",
            kind=FaultKind.TASK_STALL,
            nth=(2,),
            max_fires=1,
            stall_seconds=1.5,
        ),
    ),
    # One task straggles (noisy neighbour): it sleeps past the hedge
    # deadline and the pool launches a speculative duplicate on an idle
    # worker.  Both produce identical bytes; the first commit wins.
    "straggler": _plan(
        "straggler",
        FaultSpec(
            site="parallel.task",
            kind=FaultKind.TASK_STALL,
            nth=(2,),
            max_fires=1,
            stall_seconds=0.75,
        ),
    ),
    # The hostile-schedule composition: a worker crash, a heartbeat loss,
    # and a straggler in one run -- the elastic pool must steal, hedge,
    # and respawn its way to a map bitwise identical to the clean run.
    "elastic-storm": _plan(
        "elastic-storm",
        FaultSpec(
            site="parallel.worker",
            kind=FaultKind.WORKER_CRASH,
            nth=(2,),
            max_fires=1,
        ),
        FaultSpec(
            site="parallel.heartbeat",
            kind=FaultKind.HEARTBEAT_LOSS,
            nth=(3,),
            max_fires=1,
        ),
        FaultSpec(
            site="parallel.task",
            kind=FaultKind.TASK_STALL,
            nth=(3,),
            max_fires=1,
            stall_seconds=0.5,
        ),
    ),
    # A serving-plane request is dropped in flight (connection reset);
    # the client's retry-with-backoff re-sends it.  Served slices stay
    # byte-identical because the node's cached product never moved.
    "serve-flaky": _plan(
        "serve-flaky",
        FaultSpec(
            site="serve.request",
            kind=FaultKind.REQUEST_DROP,
            nth=(2,),
            max_fires=1,
        ),
    ),
    # A serving node dies mid-request: the broker's per-node breaker
    # records the failure and in-flight clients fail over to another node,
    # which recomputes the product (deterministically, so slices match).
    "serve-node-crash": _plan(
        "serve-node-crash",
        FaultSpec(
            site="serve.node",
            kind=FaultKind.NODE_CRASH,
            nth=(1,),
            max_fires=1,
        ),
    ),
    # The writer is killed mid-commit: only a prefix of the shadow chunk
    # reaches disk.  The live generation is untouched (commit is
    # shadow-write + rename), the spill layer retries the commit, and the
    # open-time scrub clears the torn shadow -- bitwise identical.
    "store-torn-write": _plan(
        "store-torn-write",
        FaultSpec(site="store.write", kind=FaultKind.TORN_WRITE, nth=(2,), max_fires=1),
    ),
    # A stored payload byte flips at rest (bit rot): read-time CRC
    # verification detects it, the chunk is quarantined and regenerated
    # from its registered producer -- bitwise identical.
    "store-bitrot": _plan(
        "store-bitrot",
        FaultSpec(site="store.read", kind=FaultKind.BIT_FLIP, nth=(1,), max_fires=1),
    ),
    # Non-fatal stalls: the device hiccups and the run just takes longer
    # (virtual time); results are untouched.
    "stall": _plan(
        "stall",
        FaultSpec(
            site="device.launch",
            kind=FaultKind.DEVICE_STALL,
            every=4,
            stall_seconds=2.0e-3,
        ),
    ),
}


def plan_names() -> List[str]:
    return sorted(NAMED_PLANS)


def named_plan(name: str, seed: int = 0) -> FaultPlan:
    """Look up a named plan, re-seeded for replayability from the CLI."""
    try:
        plan = NAMED_PLANS[name]
    except KeyError:
        raise KeyError(
            f"unknown fault plan {name!r}; available plans: {', '.join(plan_names())}"
        ) from None
    return plan.with_seed(seed)
