"""The chaos soak: randomized fault schedules against whole-system invariants.

Named fault plans replay one hand-written scenario each; this harness is
the complement: from a seed it *generates* a randomized plan across the
registered fault sites, runs the stack's three execution legs under it,
and asserts the invariants that every PR has promised so far --

1. **Bitwise parity**: every faulted run's map equals the fault-free
   serial oracle byte for byte (recovery never changes results);
2. **Zero leaks**: no child process and no ``/dev/shm`` segment survives
   a seed, however hostile its schedule;
3. **Bounded recovery**: steal/hedge/respawn/recovery counters stay
   within schedule-independent bounds (no retry storms).

Determinism carries over from the named plans: a chaos seed IS the
schedule, so any red seed in CI replays locally with
``repro-bench chaos --seeds <seed>``.

The generated plans draw from a *curated* menu of (site, kind) scenarios
-- exactly the fault space where the recovery plane guarantees
bitwise-identical recovery (retries stay on-device, crashes re-execute
pure producers).  Unbounded random kinds could legitimately exhaust a
retry budget into a cross-implementation fallback, which changes results
by design; that regime belongs to the named-plan tests, not the parity
gate.  Two sites are exercised elsewhere and excluded here:
``ompshim.target_region`` only fires on the omp_target backend, and
``serve.request``'s client-retry drill lives in the serve smoke.

Legs per seed (each runs only when the generated plan targets its sites):

* **device** -- the tiny/jax pipeline: OOM, transfer faults, launch
  failures, stalls;
* **elastic** -- the multiprocess benchmark on the work-stealing pool:
  worker crashes, heartbeat loss, stragglers;
* **serve**  -- two in-process serving nodes (optionally elastic):
  a node crash mid-produce with failover to the survivor;
* **store**  -- spill-to-store then windowed streaming: torn chunk and
  manifest writes during ingest (commit retries, ``.prev`` fallback) and
  bit rot at read time (quarantine + regeneration from the registered
  producer), gated against the continuous-accumulation stream oracle and
  the store's own leak report.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import os
import random
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import ImplementationType
from ..parallel.elastic import ElasticConfig
from ..resilience.faults import FaultKind, FaultPlan, FaultSpec
from .satellite import (
    SIZES,
    SizeSpec,
    run_satellite_benchmark,
    same_bits,
    satellite_sky,
)

__all__ = ["ChaosFailure", "generate_plan", "run_chaos_soak", "CHAOS_MENU"]

_SHM_DIR = "/dev/shm"

#: The elastic leg's problem size: enough observations to shard, small
#: enough that a seed runs in seconds.
_ELASTIC_SIZE = SizeSpec("chaos_par", 4, 2, 512, 16)

#: Scheduler knobs for the elastic leg: tight deadlines so injected
#: stalls/mutes actually cross them within a short soak.
_ELASTIC_CFG = ElasticConfig(
    lease_s=1.0,
    heartbeat_s=0.1,
    hedge_s=0.25,
    total_timeout_s=120.0,
    drain_timeout_s=5.0,
)

#: The curated scenario menu: every entry preserves bitwise recovery.
#: ``leg`` routes the spec to the execution leg that polls its site.
CHAOS_MENU: Tuple[Dict[str, Any], ...] = (
    {"leg": "device", "site": "pool.allocate", "kind": FaultKind.OOM},
    {"leg": "device", "site": "transfer.h2d", "kind": FaultKind.TRANSFER_FAIL},
    {"leg": "device", "site": "transfer.d2h", "kind": FaultKind.TRANSFER_FAIL},
    {"leg": "device", "site": "transfer.h2d", "kind": FaultKind.TRANSFER_CORRUPT},
    {"leg": "device", "site": "device.launch", "kind": FaultKind.LAUNCH_FAIL},
    {"leg": "device", "site": "device.launch", "kind": FaultKind.DEVICE_STALL},
    {"leg": "elastic", "site": "parallel.worker", "kind": FaultKind.WORKER_CRASH},
    {"leg": "elastic", "site": "parallel.heartbeat", "kind": FaultKind.HEARTBEAT_LOSS},
    {"leg": "elastic", "site": "parallel.task", "kind": FaultKind.TASK_STALL},
    {"leg": "serve", "site": "serve.node", "kind": FaultKind.NODE_CRASH},
    {"leg": "store", "site": "store.write", "kind": FaultKind.TORN_WRITE},
    {"leg": "store", "site": "store.manifest", "kind": FaultKind.TORN_WRITE},
    {"leg": "store", "site": "store.read", "kind": FaultKind.BIT_FLIP},
)


class ChaosFailure(AssertionError):
    """A chaos invariant did not hold for some seed."""


def _spec_for(entry: Dict[str, Any], rng: random.Random) -> List[FaultSpec]:
    """Randomize one menu entry into concrete spec(s), within safe bounds."""
    site, kind = entry["site"], entry["kind"]
    if kind is FaultKind.DEVICE_STALL:
        return [
            FaultSpec(
                site=site,
                kind=kind,
                every=rng.randint(3, 6),
                stall_seconds=1.0e-3,
            )
        ]
    if kind is FaultKind.LAUNCH_FAIL:
        # At most 2 consecutive failures: the dispatch retry budget is 3
        # attempts, so recovery stays on-device (no fallback, no drift).
        first = rng.randint(1, 8)
        nth = (first,) if rng.random() < 0.5 else (first, first + 1)
        return [FaultSpec(site=site, kind=kind, nth=nth, max_fires=len(nth))]
    if kind is FaultKind.TASK_STALL:
        return [
            FaultSpec(
                site=site,
                kind=kind,
                nth=(rng.randint(1, 4),),
                max_fires=1,
                # Straddles the hedge deadline; stays under the lease so a
                # heartbeating straggler is hedged, not stolen.
                stall_seconds=round(rng.uniform(0.1, 0.6), 3),
            )
        ]
    if kind is FaultKind.HEARTBEAT_LOSS:
        nth = rng.randint(1, 4)
        specs = [FaultSpec(site=site, kind=kind, nth=(nth,), max_fires=1)]
        if rng.random() < 0.5:
            # Half the time the silent worker is also slow: mute + a stall
            # past the lease forces an actual lease expiry and steal (a
            # mute alone can finish before its lease runs out).
            specs.append(
                FaultSpec(
                    site="parallel.task",
                    kind=FaultKind.TASK_STALL,
                    nth=(nth,),
                    max_fires=1,
                    stall_seconds=_ELASTIC_CFG.lease_s + 0.5,
                )
            )
        return specs
    if kind is FaultKind.WORKER_CRASH:
        return [
            FaultSpec(site=site, kind=kind, nth=(rng.randint(1, 3),), max_fires=1)
        ]
    if kind is FaultKind.NODE_CRASH:
        return [FaultSpec(site=site, kind=kind, nth=(1,), max_fires=1)]
    if kind is FaultKind.TORN_WRITE:
        # Manifests commit once per observation; chunk commits are dense.
        # One fire each: the commit path retries, and nth counts *calls*,
        # so the retry of the torn call cannot re-fire the same spec.
        last = 2 if site == "store.manifest" else 12
        return [
            FaultSpec(site=site, kind=kind, nth=(rng.randint(1, last),), max_fires=1)
        ]
    if kind is FaultKind.BIT_FLIP:
        # A random byte of a random early chunk read rots on disk; the
        # reader's CRC check must catch it and regenerate.
        return [
            FaultSpec(site=site, kind=kind, nth=(rng.randint(1, 8),), max_fires=1)
        ]
    # OOM / transfer faults: one fire at a random early call.
    return [
        FaultSpec(site=site, kind=kind, nth=(rng.randint(1, 8),), max_fires=1)
    ]


def generate_plan(seed: int) -> Dict[str, FaultPlan]:
    """The randomized schedule for one seed, split per execution leg.

    Pure function of ``seed``: the same seed always yields the same plans
    (the replay contract).  Returns ``{leg: FaultPlan}`` for each leg the
    schedule targets; an empty dict never happens (2-4 scenarios are
    always drawn).
    """
    rng = random.Random(seed)
    picks = rng.sample(list(CHAOS_MENU), k=rng.randint(2, 4))
    by_leg: Dict[str, List[FaultSpec]] = {}
    for entry in picks:
        by_leg.setdefault(entry["leg"], []).extend(_spec_for(entry, rng))
    return {
        leg: FaultPlan(name=f"chaos-{seed}-{leg}", specs=tuple(specs), seed=seed)
        for leg, specs in sorted(by_leg.items())
    }


def _shm_entries() -> List[str]:
    try:
        return sorted(os.listdir(_SHM_DIR))
    except OSError:
        return []


def _leak_sweep(
    shm_before: Sequence[str], children_before: set
) -> Tuple[List[str], List[int]]:
    """What survived a seed: (shm segments, child pids), after settling."""
    gc.collect()
    leaked_shm: List[str] = []
    leaked_procs: List[int] = []
    for _ in range(50):
        leaked_shm = sorted(
            e
            for e in set(_shm_entries()) - set(shm_before)
            if not e.startswith("sem.mp-")
        )
        leaked_procs = sorted(
            p.pid for p in mp.active_children() if p.pid not in children_before
        )
        if not leaked_shm and not leaked_procs:
            break
        time.sleep(0.1)
    return leaked_shm, leaked_procs


class _References:
    """Fault-free reference maps, computed once per (kind, size, realization).

    ``"device"`` and ``"stream"`` are the continuous-accumulation map of
    :func:`run_satellite_benchmark` -- on a simulated device with jax, and
    on the numpy host path -- which the device leg and windowed streaming
    must reproduce.  ``"fixed_order"`` is :func:`produce_zmap`, the
    per-observation maps summed in observation order, which the elastic
    and serve legs must reproduce.  The two maps differ bitwise by design.
    """

    def __init__(self) -> None:
        self._cache: Dict[Tuple[str, str, int], np.ndarray] = {}

    def get(self, kind: str, size: SizeSpec, realization: int) -> np.ndarray:
        key = (kind, size.name, realization)
        if key not in self._cache:
            if kind == "fixed_order":
                from .products import produce_zmap

                zmap = produce_zmap(size, ImplementationType.NUMPY, realization)
            else:
                from ..accel import SimulatedDevice
                from ..ompshim import OmpTargetRuntime

                on_device = kind == "device"
                zmap = run_satellite_benchmark(
                    size,
                    ImplementationType.JAX if on_device else ImplementationType.NUMPY,
                    accel=OmpTargetRuntime(SimulatedDevice()) if on_device else None,
                    mapmaking=False,
                    realization=realization,
                )["zmap"]
            self._cache[key] = zmap
        return self._cache[key]


def _run_device_leg(
    plan: FaultPlan, realization: int, refs: _References
) -> Dict[str, Any]:
    from ..accel import SimulatedDevice
    from ..ompshim import OmpTargetRuntime
    from ..resilience import resilient

    reference = refs.get("device", SIZES["tiny"], realization)
    accel = OmpTargetRuntime(SimulatedDevice())
    error: Optional[str] = None
    faulted: Optional[np.ndarray] = None
    with resilient(plan) as ctrl:
        ctrl.bind_clock(accel.device.clock)
        try:
            out = run_satellite_benchmark(
                SIZES["tiny"],
                ImplementationType.JAX,
                accel=accel,
                mapmaking=False,
                realization=realization,
            )
            faulted = np.asarray(out["zmap"])
        except Exception as exc:  # noqa: BLE001 - the report carries it
            error = f"{type(exc).__name__}: {exc}"
        report = ctrl.report()
    return {
        "leg": "device",
        "bitwise": faulted is not None and same_bits(reference, faulted),
        "error": error,
        "counters": report["counters"],
        "fired": report["faults"],
    }


def _run_elastic_leg(
    plan: FaultPlan, realization: int, n_workers: int, refs: _References
) -> Dict[str, Any]:
    from ..parallel import run_parallel_satellite
    from ..resilience import resilient

    reference = refs.get("fixed_order", _ELASTIC_SIZE, realization)
    error: Optional[str] = None
    faulted: Optional[np.ndarray] = None
    out: Dict[str, Any] = {}
    with resilient(plan) as ctrl:
        try:
            out = run_parallel_satellite(
                _ELASTIC_SIZE,
                ImplementationType.NUMPY,
                n_procs=n_workers,
                realization=realization,
                elastic_config=_ELASTIC_CFG,
            )
            faulted = out["zmap"]
        except Exception as exc:  # noqa: BLE001 - the report carries it
            error = f"{type(exc).__name__}: {exc}"
        report = ctrl.report()

    # Bounded-recovery invariant: counters scale with the schedule, never
    # with retry storms.  The bounds are deliberately loose (scheduling
    # noise may add a spurious lease expiry) but schedule-independent.
    n_tasks = _ELASTIC_SIZE.n_observations
    counters = dict(out.get("elastic", {}).get("counters", {}))
    bounds = {
        "steals": 2 * n_tasks,
        "hedges": n_tasks,
        "respawns": 2 * n_workers,
        "duplicates": 2 * n_tasks,
        "inline_runs": n_tasks,
        "worker_deaths": 2 * n_workers + 2,
    }
    unbounded = {
        name: (counters.get(name, 0), bound)
        for name, bound in bounds.items()
        if counters.get(name, 0) > bound
    }
    return {
        "leg": "elastic",
        "n_workers": n_workers,
        "bitwise": faulted is not None and same_bits(reference, faulted),
        "error": error,
        "counters": report["counters"],
        "elastic_counters": counters,
        "unbounded": {k: list(v) for k, v in unbounded.items()},
        "fired": report["faults"],
    }


def _run_serve_leg(
    plan: FaultPlan, realization: int, elastic_workers: int, refs: _References
) -> Dict[str, Any]:
    from ..resilience import resilient
    from ..serve.handles import ProductKey
    from ..serve.node import NodeLostError, ServeNode

    reference = refs.get("fixed_order", SIZES["tiny"], realization)
    key = ProductKey("satellite/zmap", "tiny", "numpy", realization=realization)
    nodes = [
        ServeNode(f"chaos-{nid}", elastic_workers=elastic_workers)
        for nid in ("a", "b")
    ]
    error: Optional[str] = None
    failed_over = False
    got: Optional[np.ndarray] = None
    try:
        with resilient(plan) as ctrl:
            try:
                handle = nodes[0].produce(key)
                got = nodes[0].fetch(handle.handle_id)
            except NodeLostError:
                # The serve-plane invariant under NODE_CRASH: the
                # survivor recomputes the product deterministically.
                failed_over = True
                handle = nodes[1].produce(key)
                got = nodes[1].fetch(handle.handle_id)
            report = ctrl.report()
    except Exception as exc:  # noqa: BLE001 - the report carries it
        error = f"{type(exc).__name__}: {exc}"
        report = {"counters": {}, "faults": []}
    finally:
        for node in nodes:
            node.shutdown()
    return {
        "leg": "serve",
        "elastic_workers": elastic_workers,
        "failed_over": failed_over,
        "bitwise": got is not None and same_bits(reference, got),
        "error": error,
        "counters": report["counters"],
        "fired": report["faults"],
    }


def _run_store_leg(
    plan: FaultPlan, realization: int, refs: _References
) -> Dict[str, Any]:
    import tempfile
    from pathlib import Path

    from ..resilience import resilient
    from ..store import (
        ObservationStore,
        StreamConfig,
        leak_report,
        reset_leak_registry,
        stream_pipeline,
    )
    from .ingest import ingest_satellite_store
    from .satellite import satellite_processing_pipeline

    size = SIZES["tiny"]
    reference = refs.get("stream", size, realization)
    sky = satellite_sky(size, realization)
    error: Optional[str] = None
    faulted: Optional[np.ndarray] = None
    scrub: Optional[Dict[str, Any]] = None
    store_leaks: List[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-chaos-store-") as tmp:
        root = Path(tmp) / "store"
        with resilient(plan) as ctrl:
            try:
                # Spill under the schedule (torn chunk/manifest writes fire
                # here and must be absorbed by commit retries), reopen with
                # the scrub, then stream several windows per observation
                # (bit rot fires on the window reads).
                ingest_satellite_store(root, size, realization)
                store = ObservationStore.open(root)
                scrub = store.scrub_report.as_dict()
                pipe = satellite_processing_pipeline(
                    size.nside, implementation=ImplementationType.NUMPY
                )
                out = stream_pipeline(
                    store,
                    pipe,
                    meta={"sky_map": sky},
                    config=StreamConfig(
                        window_samples=max(1, size.n_samples // 4)
                    ),
                )
                faulted = np.asarray(out["zmap"])
            except Exception as exc:  # noqa: BLE001 - the report carries it
                error = f"{type(exc).__name__}: {exc}"
            report = ctrl.report()
        # Sweep while the store still exists, then forget it: the tempdir
        # is gone after this block, so stale roots must not accumulate.
        store_leaks = leak_report()
        reset_leak_registry()

    # Bounded recovery: every store spec fires at most once, and one fire
    # costs at most one retry or one quarantine+regeneration.
    counters = dict(report["counters"])
    bounds = {
        "store.commit_retries": 4,
        "store.chunks_quarantined": 4,
        "store.chunks_regenerated": 4,
        "store.manifest_fallbacks": 2,
    }
    unbounded = {
        name: (counters.get(name, 0), bound)
        for name, bound in bounds.items()
        if counters.get(name, 0) > bound
    }
    return {
        "leg": "store",
        "bitwise": faulted is not None and same_bits(reference, faulted),
        "error": error,
        "scrub": scrub,
        "store_leaks": store_leaks,
        "counters": counters,
        "unbounded": {k: list(v) for k, v in unbounded.items()},
        "fired": report["faults"],
    }


def run_chaos_soak(
    seeds: Sequence[int],
    verbose: bool = False,
    stop_on_failure: bool = False,
) -> Dict[str, Any]:
    """Soak the stack over ``seeds``; returns the ``repro-chaos/1`` report.

    Each seed generates its randomized plan, runs every targeted leg, and
    checks the three invariants (parity, leaks, bounds).  The report
    records per-seed verdicts and the fired-fault timelines, so any
    failure is replayable from its seed alone.
    """

    def say(msg: str) -> None:
        if verbose:
            print(f"[chaos] {msg}")

    refs = _References()
    results: List[Dict[str, Any]] = []
    t_start = time.perf_counter()
    for seed in seeds:
        rng = random.Random(seed ^ 0x5EED)  # leg params, decoupled from specs
        realization = rng.randint(0, 3)
        n_workers = rng.randint(2, 3)
        serve_elastic = rng.choice([0, 1])
        plans = generate_plan(seed)

        shm_before = _shm_entries()
        children_before = {p.pid for p in mp.active_children()}
        t0 = time.perf_counter()
        legs: List[Dict[str, Any]] = []
        for leg, plan in plans.items():
            if leg == "device":
                legs.append(_run_device_leg(plan, realization, refs))
            elif leg == "elastic":
                legs.append(_run_elastic_leg(plan, realization, n_workers, refs))
            elif leg == "serve":
                legs.append(
                    _run_serve_leg(plan, realization, serve_elastic, refs)
                )
            elif leg == "store":
                legs.append(_run_store_leg(plan, realization, refs))
        leaked_shm, leaked_procs = _leak_sweep(shm_before, children_before)

        problems: List[str] = []
        for leg in legs:
            if leg["error"]:
                problems.append(f"{leg['leg']}: {leg['error']}")
            elif not leg["bitwise"]:
                problems.append(f"{leg['leg']}: maps differ from the oracle")
            if leg.get("unbounded"):
                problems.append(f"{leg['leg']}: counters exceed bounds {leg['unbounded']}")
            if leg.get("store_leaks"):
                problems.append(f"{leg['leg']}: store leaks {leg['store_leaks']}")
        if leaked_shm:
            problems.append(f"leaked shm segments: {leaked_shm}")
        if leaked_procs:
            problems.append(f"leaked child processes: {leaked_procs}")

        result = {
            "seed": seed,
            "realization": realization,
            "plan": {
                leg: [
                    {
                        "site": s.site,
                        "kind": s.kind.value,
                        "nth": list(s.nth),
                        "every": s.every,
                        "max_fires": s.max_fires,
                        "stall_seconds": s.stall_seconds,
                    }
                    for s in plan.specs
                ]
                for leg, plan in plans.items()
            },
            "legs": legs,
            "leaks": {"shm": leaked_shm, "processes": leaked_procs},
            "seconds": round(time.perf_counter() - t0, 3),
            "ok": not problems,
            "problems": problems,
        }
        results.append(result)
        fired = sum(len(leg["fired"]) for leg in legs)
        say(
            f"seed {seed}: {'ok' if result['ok'] else 'FAILED'} "
            f"({'+'.join(sorted(plans))}, {fired} fault(s) fired, "
            f"{result['seconds']:.2f}s)"
            + (f" -- {'; '.join(problems)}" if problems else "")
        )
        if problems and stop_on_failure:
            break

    report = {
        "schema": "repro-chaos/1",
        "seeds": list(seeds),
        "results": results,
        "seconds": round(time.perf_counter() - t_start, 3),
        "ok": all(r["ok"] for r in results) and len(results) == len(seeds),
    }
    return report
