"""End-to-end smoke drill for the serving plane (``repro-bench serve``).

One broker (RPC, in this process), two real node processes, four
concurrent clients -- and three correctness gates that make this a test,
not a demo:

1. **Coalescing**: all clients request overlapping patches of the same
   product concurrently; the primary node must report *exactly one*
   pipeline run, and every fetched slice must be byte-identical to a
   direct serverless ``produce`` of the same key.
2. **Failover**: the second round targets a key whose rendezvous-primary
   is a node armed with an injected NODE_CRASH (it ``os._exit``\\ s mid
   produce, like an OOM kill).  Every in-flight client must still get
   correct bytes -- served by the surviving node -- and the broker's
   breaker for the dead node must be open afterwards.
3. **No leaks**: after shutdown, no child process may survive and
   ``/dev/shm`` must be back to its pre-run contents (the slab-guard
   satellite fix is what makes this pass when nodes die mid-produce).

Any violated gate raises :class:`SmokeFailure`; the CLI maps that to a
nonzero exit for CI.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..core import ImplementationType
from ..workflows.products import get_product
from ..workflows.satellite import SIZES, same_bits
from .broker import Broker, BrokerServer, route_order
from .client import ServeClient
from .handles import ProductKey, SliceSpec
from .node import NodeServer, ServeNode
from .quota import QuotaPolicy
from .wire import PeerUnavailableError, call

__all__ = ["SmokeFailure", "run_serve_smoke"]

_SHM_DIR = "/dev/shm"


class SmokeFailure(AssertionError):
    """A smoke gate did not hold."""


def _node_main(
    node_id: str,
    broker_address: Tuple[str, int],
    ready,  # mp.Queue
    plan_name: Optional[str] = None,
    seed: int = 0,
    elastic_workers: int = 1,
) -> None:
    """Entry point of one node process: serve until told to shut down."""
    from ..resilience import named_plan, resilient

    node = ServeNode(
        node_id, exit_on_crash=True, elastic_workers=elastic_workers
    )
    server = NodeServer(node).start()
    call(
        broker_address,
        "register",
        node_id=node_id,
        namespaces=node.namespaces(),
        address=server.address,
    )
    ready.put(node_id)
    if plan_name is not None:
        with resilient(named_plan(plan_name, seed=seed)):
            server.wait_for_shutdown()
    else:
        server.wait_for_shutdown()
    server.stop()


def _shm_entries() -> Sequence[str]:
    try:
        return sorted(os.listdir(_SHM_DIR))
    except OSError:
        return ()


def _pick_realization(primary_of: str, key0: ProductKey, node_ids: List[str]) -> int:
    """The smallest realization whose rendezvous-primary is ``primary_of``.

    This is the trick that makes the failover round deterministic: the
    driver computes, with the same pure :func:`route_order` the broker
    uses, a key that is guaranteed to land first on the armed node.
    """
    for r in range(1, 64):
        key = ProductKey(key0.product, key0.size, key0.backend, realization=r)
        if route_order(key.describe(), node_ids)[0] == primary_of:
            return r
    raise SmokeFailure(f"no realization in [1, 64) routes to {primary_of}")


def _concurrent_requests(
    clients: Sequence[ServeClient],
    key: ProductKey,
    windows: Sequence[Optional[SliceSpec]],
) -> List[np.ndarray]:
    """All clients request at once; returns results in client order."""
    import threading

    results: List[Any] = [None] * len(clients)
    errors: List[Any] = [None] * len(clients)
    barrier = threading.Barrier(len(clients))

    def one(i: int) -> None:
        try:
            barrier.wait(timeout=30)
            results[i] = clients[i].request(key, windows[i])
        except BaseException as e:  # noqa: BLE001 - reported below
            errors[i] = e

    threads = [
        threading.Thread(target=one, args=(i,), daemon=True)
        for i in range(len(clients))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    failed = [(clients[i].client_id, e) for i, e in enumerate(errors) if e is not None]
    if failed:
        raise SmokeFailure(f"client requests failed: {failed}")
    return results


def run_serve_smoke(
    size: str = "tiny",
    n_clients: int = 4,
    seed: int = 0,
    verbose: bool = False,
    elastic_workers: int = 1,
) -> Dict[str, Any]:
    """Run the full drill; returns the report dict or raises SmokeFailure.

    With ``elastic_workers > 0`` (the default) every node runs its zmap
    pipeline through the elastic work-stealing pool, so the drill also
    gates the serve x parallel composition: node crashes, worker
    processes, and the leak sentinel all in one run.
    """
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; known: {', '.join(sorted(SIZES))}")
    if n_clients < 4:
        raise ValueError("the drill needs at least 4 concurrent clients")

    def say(msg: str) -> None:
        if verbose:
            print(f"[serve-smoke] {msg}")

    shm_before = _shm_entries()
    children_before = {p.pid for p in mp.active_children()}

    # The serverless reference: what every served byte must equal.
    spec = SIZES[size]
    product = get_product("satellite/zmap")
    key0 = ProductKey("satellite/zmap", size, backend="numpy", realization=0)
    reference0 = product.producer(spec, ImplementationType.NUMPY, 0)

    node_ids = ["node-a", "node-b"]
    primary0 = route_order(key0.describe(), node_ids)[0]
    crash_node = next(n for n in node_ids if n != primary0)
    crash_r = _pick_realization(crash_node, key0, node_ids)
    key_crash = ProductKey(key0.product, size, key0.backend, realization=crash_r)
    reference_crash = product.producer(spec, ImplementationType.NUMPY, crash_r)
    say(
        f"routing: {key0.describe()} -> {primary0}; "
        f"{key_crash.describe()} -> {crash_node} (armed)"
    )

    ctx = mp.get_context("spawn")
    broker = Broker(policy=QuotaPolicy(max_inflight=n_clients + 2))
    broker_server = BrokerServer(broker).start()
    procs: List[mp.Process] = []
    ready = ctx.Queue()
    report: Dict[str, Any] = {
        "size": size,
        "n_clients": n_clients,
        "elastic_workers": elastic_workers,
        "ok": False,
    }
    try:
        with obs.tracing() as tracer:
            for nid in node_ids:
                plan = "serve-node-crash" if nid == crash_node else None
                p = ctx.Process(
                    target=_node_main,
                    args=(
                        nid,
                        broker_server.address,
                        ready,
                        plan,
                        seed,
                        elastic_workers,
                    ),
                    name=f"serve-{nid}",
                )
                p.start()
                procs.append(p)
            for _ in node_ids:
                ready.get(timeout=60)
            roster = call(broker_server.address, "roster")
            if sorted(roster) != sorted(node_ids):
                raise SmokeFailure(f"bad roster after registration: {roster}")
            say(f"roster: {roster}")

            clients = [
                ServeClient(f"client-{i}", broker_server.address)
                for i in range(n_clients)
            ]
            npix = reference0.shape[0]
            quarter = max(1, npix // 4)
            windows: List[Optional[SliceSpec]] = [
                SliceSpec.rows(0, 3 * quarter),          # overlapping patches
                SliceSpec.rows(quarter, npix),
                SliceSpec.rows(quarter, 3 * quarter),
                None,                                     # full read (crc check)
            ] + [SliceSpec.rows(0, npix) for _ in range(n_clients - 4)]

            # -- gate 1: coalescing + bytes ---------------------------------
            results = _concurrent_requests(clients, key0, windows)
            for i, (win, got) in enumerate(zip(windows, results)):
                want = reference0 if win is None else reference0[win.as_slices()]
                if not same_bits(got, want):
                    raise SmokeFailure(
                        f"round 1: client-{i} bytes differ from serverless "
                        f"reference for window {win.describe() if win else '[:]'}"
                    )
            primary_stats = _node_stats(roster, primary0)
            produces = primary_stats["counters"].get("produces", 0)
            if produces != 1:
                raise SmokeFailure(
                    f"round 1: expected exactly 1 pipeline run on {primary0}, "
                    f"saw {produces} (coalescing broke)"
                )
            if elastic_workers > 0:
                elastic_runs = primary_stats["counters"].get("elastic_produces", 0)
                if elastic_runs < 1:
                    raise SmokeFailure(
                        f"round 1: elastic_workers={elastic_workers} but "
                        f"{primary0} reports no elastic produce"
                    )
            say(f"round 1 ok: 1 produce on {primary0}, {n_clients} clients served")

            # -- gate 2: failover through a crashing node -------------------
            results = _concurrent_requests(
                clients, key_crash, [None] * n_clients
            )
            for i, got in enumerate(results):
                if not same_bits(got, reference_crash):
                    raise SmokeFailure(
                        f"round 2: client-{i} bytes differ after failover"
                    )
            stats = call(broker_server.address, "stats")
            breaker = stats["nodes"][crash_node]["breaker"]
            if breaker != "open":
                raise SmokeFailure(
                    f"round 2: {crash_node} died but its breaker is "
                    f"{breaker!r}, not open"
                )
            survivor = primary0
            survivor_stats = _node_stats(roster, survivor)
            say(
                f"round 2 ok: {crash_node} crashed, breaker open, "
                f"{survivor} served {survivor_stats['counters'].get('produces')}"
                " produce(s) total"
            )

            report["broker"] = stats
            report["trace_events"] = len(tracer.events)
            report["client_counters"] = {
                c.client_id: c.stats()["counters"] for c in clients
            }
    finally:
        # -- shutdown + gate 3: no leaked processes or shm segments ---------
        for nid in node_ids:
            address = _address_of(broker, nid)
            if address is not None:
                try:
                    call(address, "shutdown", timeout_s=5.0)
                except PeerUnavailableError:
                    pass  # the armed node is already dead
        deadline = time.monotonic() + 30.0
        for p in procs:
            p.join(timeout=max(0.1, deadline - time.monotonic()))
            if p.is_alive():
                p.terminate()
                p.join(timeout=5.0)
        broker_server.stop()

    leaked_procs = {
        p.pid for p in mp.active_children() if p.pid not in children_before
    }
    if leaked_procs:
        raise SmokeFailure(f"leaked child processes: {leaked_procs}")
    # The queue's semaphores (sem.mp-*) are multiprocessing plumbing,
    # reclaimed at finalization -- release them before the segment gate so
    # only real shared-memory segments (slab psm_* names) can trip it.
    import gc

    ready.close()
    ready.join_thread()
    del ready
    gc.collect()
    leaked_shm: List[str] = []
    for _ in range(50):
        leaked_shm = sorted(
            e
            for e in set(_shm_entries()) - set(shm_before)
            if not e.startswith("sem.mp-")
        )
        if not leaked_shm:
            break
        time.sleep(0.1)
    if leaked_shm:
        raise SmokeFailure(f"leaked shared-memory segments: {leaked_shm}")

    report["ok"] = True
    report["leaks"] = {"processes": 0, "shm_segments": 0}
    say("round 3 ok: no leaked processes, /dev/shm clean")
    return report


def _node_stats(roster: Dict[str, Any], node_id: str) -> Dict[str, Any]:
    address = roster[node_id]["address"]
    return call(tuple(address), "stats")


def _address_of(broker: Broker, node_id: str) -> Optional[Tuple[str, int]]:
    with broker._lock:
        ref = broker._nodes.get(node_id)
    return ref.address if ref is not None else None
