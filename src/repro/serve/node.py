"""A serving node: SimWorld + pipeline executor behind an RPC surface.

A :class:`ServeNode` owns one modeled world and can materialise any
product it advertises: a ``produce`` request runs the registered pipeline
producer (once -- concurrent requests coalesce), lands the result in a
shared-memory slab, and answers with an :class:`~repro.serve.handles.
ArrayHandle`; ``fetch`` requests then read slices straight out of the
slab.  Handles-not-bytes is the design center: producing is expensive and
cached, fetching is cheap and per-client.

Slab lifetime is leak-proof by construction: creation runs under
:func:`repro.parallel.slab_until_registered`, so a crash anywhere between
allocating the segment and registering it in the product store unlinks it
in the ``finally`` instead of stranding it in ``/dev/shm``.  The node's
own failure mode is the ``serve.node`` fault site: an injected NODE_CRASH
kills the process mid-request, exactly like a production OOM-kill.
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..core import ImplementationType
from ..mpi.simworld import SimWorld
from ..obs import state as obs_state
from ..obs.events import ClockDomain, Event, EventType
from ..parallel.elastic import CRASH_EXIT_CODE
from ..parallel.shm import SharedSlab, slab_until_registered
from ..resilience import state as res_state
from ..workflows.products import ProductSpec, get_product, product_names
from ..workflows.satellite import SIZES
from .coalesce import CoalesceTable
from .handles import ArrayHandle, ProductKey, SliceSpec
from .wire import RpcServer

__all__ = ["NodeLostError", "UnknownHandleError", "ServeNode", "NodeServer"]


class NodeLostError(RuntimeError):
    """This node is (simulating) death; callers should fail over."""

    wire_kind = "node_lost"


class UnknownHandleError(KeyError):
    """The handle does not live on this node (expired or failed over)."""

    wire_kind = "unknown_handle"

    def __str__(self) -> str:  # KeyError quotes its repr; keep it readable
        return self.args[0] if self.args else "unknown handle"


class BadRequestError(ValueError):
    """The request named an unknown product, size, or backend."""

    wire_kind = "bad_request"


@dataclass
class _StoredProduct:
    """One materialised product: its slab and the handle describing it."""

    handle: ArrayHandle
    slab: SharedSlab

    @property
    def array(self) -> np.ndarray:
        return self.slab.array("data")


class ServeNode:
    """One worker node of the serving plane.

    ``products`` restricts what this node advertises (default: the whole
    registry); ``world`` is the modeled rank layout its pipeline runs
    stand in for; ``max_cached_products`` bounds slab memory -- the
    oldest product is unlinked when the store overflows (clients holding
    its handle transparently re-resolve).  ``exit_on_crash`` picks the
    injected-NODE_CRASH behaviour: ``True`` (process mode) dies with
    ``os._exit``, ``False`` (in-process tests) raises
    :class:`NodeLostError` and refuses all further requests.

    ``elastic_workers > 0`` routes pipeline runs of products that declare
    an ``elastic_producer`` through the work-stealing
    :class:`~repro.parallel.elastic.ElasticPool` with that many workers --
    so node-level faults (NODE_CRASH) and worker-level faults
    (WORKER_CRASH / HEARTBEAT_LOSS / TASK_STALL) compose in one plan, and
    the served bytes still match the serial path exactly.
    """

    def __init__(
        self,
        node_id: str,
        products: Optional[List[str]] = None,
        world: Optional[SimWorld] = None,
        max_cached_products: int = 8,
        exit_on_crash: bool = False,
        elastic_workers: int = 0,
    ):
        if max_cached_products < 1:
            raise ValueError("a node must cache at least one product")
        if elastic_workers < 0:
            raise ValueError("elastic_workers must be >= 0 (0 = serial)")
        self.node_id = node_id
        names = products if products is not None else product_names()
        self.products: Dict[str, ProductSpec] = {n: get_product(n) for n in names}
        self.world = world if world is not None else SimWorld(n_nodes=1, procs_per_node=1)
        self.max_cached_products = max_cached_products
        self.exit_on_crash = exit_on_crash
        self.elastic_workers = elastic_workers
        self.coalesce = CoalesceTable(max_cached=max_cached_products)
        self.address: Optional[Tuple[str, int]] = None
        self._lock = threading.Lock()
        self._store: Dict[str, _StoredProduct] = {}
        self._store_order: List[str] = []  # handle ids, oldest first
        self._by_key: Dict[ProductKey, str] = {}
        self._seq = 0
        self._dead = False
        self.counters: Dict[str, int] = {}

    # -- small helpers ---------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def _emit(self, etype: EventType, name: str, metric: str, **attrs: Any) -> None:
        tr = obs_state.active
        if tr is None:
            return
        tr.emit(
            Event(etype, name, ts=tr.now(), clock=ClockDomain.HOST, attrs=attrs)
        )
        tr.metrics.count(metric)

    def namespaces(self) -> List[str]:
        return sorted({spec.namespace for spec in self.products.values()})

    def _check_alive(self) -> None:
        if self._dead:
            raise NodeLostError(f"node {self.node_id} is down")

    def _poll_crash(self, op: str, detail: str) -> None:
        """The ``serve.node`` fault site: die here if the plan says so."""
        ctrl = res_state.active
        if ctrl is None:
            return
        spec = ctrl.check("serve.node", node=self.node_id, op=op, what=detail)
        if spec is None:
            return
        self._dead = True
        if self.exit_on_crash:
            import os

            os._exit(CRASH_EXIT_CODE)
        raise NodeLostError(
            f"node {self.node_id} crashed (injected) during {op} of {detail}"
        )

    # -- produce ---------------------------------------------------------------

    def _resolve_request(self, key: ProductKey):
        spec = self.products.get(key.product)
        if spec is None:
            raise BadRequestError(
                f"node {self.node_id} does not serve {key.product!r} "
                f"(serves: {', '.join(sorted(self.products))})"
            )
        if key.size not in SIZES:
            raise BadRequestError(
                f"unknown size {key.size!r}; known: {', '.join(sorted(SIZES))}"
            )
        try:
            impl = ImplementationType(key.backend)
        except ValueError:
            raise BadRequestError(
                f"unknown backend {key.backend!r}; known: "
                f"{', '.join(i.value for i in ImplementationType)}"
            ) from None
        return spec, SIZES[key.size], impl

    def produce(self, key: ProductKey, trace_id: Optional[str] = None) -> ArrayHandle:
        """Materialise ``key`` (or join/reuse a run) and hand back a handle."""
        self._check_alive()
        self._poll_crash("produce", key.describe())
        spec, size, impl = self._resolve_request(key)
        tr = obs_state.active

        elastic = self.elastic_workers > 0 and spec.elastic_producer is not None

        def compute() -> ArrayHandle:
            t0 = tr.now() if tr is not None else 0.0
            if elastic:
                # Per-observation tasks on the work-stealing pool: the
                # elastic producer's bitwise-parity contract means the
                # served bytes are indistinguishable from the serial path.
                array = spec.elastic_producer(
                    size, impl, key.realization, self.elastic_workers
                )
                self._count("elastic_produces")
            else:
                array = spec.producer(size, impl, key.realization)
            handle = self._register(key, spec, array, trace_id)
            if tr is not None:
                tr.emit(
                    Event(
                        EventType.SERVE_PRODUCE,
                        key.product,
                        ts=t0,
                        dur=tr.now() - t0,
                        clock=ClockDomain.HOST,
                        attrs={
                            "node": self.node_id,
                            "key": key.describe(),
                            "handle": handle.handle_id,
                            "nbytes": int(array.nbytes),
                            "elastic_workers": self.elastic_workers if elastic else 0,
                        },
                    )
                )
                tr.metrics.count("serve.produces")
            self._count("produces")
            return handle

        handle, led = self.coalesce.run(key, compute)
        if not led:
            self._count("coalesced")
            self._emit(
                EventType.SERVE_COALESCE,
                key.product,
                "serve.coalesced",
                node=self.node_id,
                key=key.describe(),
                handle=handle.handle_id,
            )
        return handle

    def _register(
        self,
        key: ProductKey,
        spec: ProductSpec,
        array: np.ndarray,
        trace_id: Optional[str],
    ) -> ArrayHandle:
        """Copy a produced array into a slab and enter it in the store.

        The slab guard is the leak fix in action: any failure before
        ``mark_registered`` (a crash injected mid-registration, an
        eviction error) unlinks the segment on the way out.
        """
        with slab_until_registered({"data": (array.shape, array.dtype)}) as slab:
            slab.array("data")[...] = array
            with self._lock:
                self._seq += 1
                handle_id = f"{self.node_id}-h{self._seq:04d}"
            handle = ArrayHandle(
                handle_id=handle_id,
                key=key,
                shape=tuple(int(s) for s in array.shape),
                dtype=np.dtype(array.dtype).str,
                node=self.node_id,
                address=self.address,
                crc32=zlib.crc32(np.ascontiguousarray(array).tobytes()),
                trace_id=trace_id,
            )
            evicted: Optional[_StoredProduct] = None
            with self._lock:
                self._store[handle_id] = _StoredProduct(handle=handle, slab=slab)
                self._store_order.append(handle_id)
                self._by_key[key] = handle_id
                if len(self._store_order) > self.max_cached_products:
                    old_id = self._store_order.pop(0)
                    evicted = self._store.pop(old_id, None)
                    if evicted is not None:
                        self._by_key.pop(evicted.handle.key, None)
            slab.mark_registered()
        if evicted is not None:
            self.coalesce.invalidate(evicted.handle.key)
            evicted.slab.close()
            evicted.slab.unlink()
            self._count("evicted_products")
        return handle

    # -- fetch -----------------------------------------------------------------

    def fetch(
        self,
        handle_id: str,
        window: Optional[SliceSpec] = None,
        trace_id: Optional[str] = None,
    ) -> np.ndarray:
        """A copy of one slice of a stored product."""
        self._check_alive()
        with self._lock:
            stored = self._store.get(handle_id)
        if stored is None:
            raise UnknownHandleError(
                f"node {self.node_id} has no handle {handle_id!r} "
                "(evicted, or produced on another node)"
            )
        window = window if window is not None else SliceSpec()
        out = np.array(stored.array[window.as_slices()], copy=True)
        self._count("slices")
        self._emit(
            EventType.SERVE_SLICE,
            stored.handle.key.product,
            "serve.slices",
            node=self.node_id,
            handle=handle_id,
            window=window.describe(),
            nbytes=int(out.nbytes),
        )
        return out

    # -- lifecycle -------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            counters = dict(self.counters)
            stored = len(self._store)
        return {
            "node": self.node_id,
            "namespaces": self.namespaces(),
            "products_stored": stored,
            "counters": counters,
            "coalesce": self.coalesce.stats(),
            "world": {
                "n_nodes": self.world.n_nodes,
                "procs_per_node": self.world.procs_per_node,
            },
        }

    def shutdown(self) -> None:
        """Unlink every stored slab; the node serves nothing afterwards."""
        with self._lock:
            stored = list(self._store.values())
            self._store.clear()
            self._store_order.clear()
            self._by_key.clear()
            self._dead = True
        for item in stored:
            item.slab.close()
            item.slab.unlink()

    def __repr__(self) -> str:
        return (
            f"ServeNode({self.node_id!r}, namespaces={self.namespaces()}, "
            f"stored={len(self._store)})"
        )


class NodeServer:
    """A :class:`ServeNode` behind an :class:`~repro.serve.wire.RpcServer`."""

    def __init__(self, node: ServeNode):
        self.node = node
        self._shutdown = threading.Event()
        self.server = RpcServer(self._handle)
        node.address = self.server.address

    @property
    def address(self) -> Tuple[str, int]:
        return self.server.address

    def start(self) -> "NodeServer":
        self.server.start()
        return self

    def _handle(self, request: Dict[str, Any]) -> Any:
        op = request.get("op")
        trace_id = request.get("trace_id")
        if op == "produce":
            return self.node.produce(request["key"], trace_id=trace_id)
        if op == "fetch":
            return self.node.fetch(
                request["handle_id"], request.get("window"), trace_id=trace_id
            )
        if op == "stats":
            return self.node.stats()
        if op == "ping":
            return {"node": self.node.node_id}
        if op == "shutdown":
            self._shutdown.set()
            return True
        raise BadRequestError(f"unknown op {op!r}")

    def wait_for_shutdown(self, timeout_s: Optional[float] = None) -> bool:
        return self._shutdown.wait(timeout_s)

    def stop(self) -> None:
        self.server.stop()
        self.node.shutdown()
