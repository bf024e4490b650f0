"""Tests for repro.serve: the multi-tenant array-serving plane.

The load-bearing contracts, in rough dependency order: the wire layer
classifies dead peers vs application errors; the coalescing table runs
each key's computation exactly once under concurrency; admission control
rejects deterministically and trips per-client breakers; and the
assembled plane serves byte-identical arrays through coalescing,
eviction, request drops, and node crashes -- because producers are pure,
any node's answer equals the serverless reference.
"""

import threading

import numpy as np
import pytest

from repro import obs, resilience
from repro.core import ImplementationType
from repro.obs import EventType
from repro.resilience import BreakerState, named_plan
from repro.serve import (
    ArrayHandle,
    Broker,
    CoalesceTable,
    IntegrityError,
    NoNodesError,
    PeerUnavailableError,
    ProductKey,
    QuotaExceededError,
    QuotaLedger,
    QuotaPolicy,
    RemoteCallError,
    RpcServer,
    ServeClient,
    ServeNode,
    SliceSpec,
    call,
    local_plane,
    route_order,
)
from repro.workflows.products import get_product, product_names
from repro.workflows.satellite import SIZES, same_bits

pytestmark = pytest.mark.usefixtures("leak_sentinel")

KEY = ProductKey("satellite/zmap", "tiny")


@pytest.fixture(autouse=True)
def _no_leaked_state():
    """Tests must leave tracing and resilience disabled (process default)."""
    yield
    assert obs.active_tracer() is None, "a test leaked an active tracer"
    assert resilience.active_controller() is None, "a test leaked a controller"
    obs.set_tracer(None)
    resilience.set_controller(None)


@pytest.fixture(scope="module")
def reference():
    """The serverless answer every served byte must equal."""
    product = get_product("satellite/zmap")
    return product.producer(SIZES["tiny"], ImplementationType.NUMPY, 0)


def _fanout(n, fn):
    """Run ``fn(i)`` on n threads behind a barrier; returns results in order."""
    results, errors = [None] * n, [None] * n
    barrier = threading.Barrier(n)

    def one(i):
        try:
            barrier.wait(timeout=30)
            results[i] = fn(i)
        except BaseException as e:  # noqa: BLE001 - re-raised below
            errors[i] = e

    threads = [threading.Thread(target=one, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    for e in errors:
        if e is not None:
            raise e
    return results


class TestHandles:
    def test_product_key_requires_namespace(self):
        with pytest.raises(ValueError):
            ProductKey("zmap", "tiny")
        with pytest.raises(ValueError):
            ProductKey("satellite/zmap", "tiny", realization=-1)

    def test_product_key_namespace_and_describe(self):
        key = ProductKey("satellite/zmap", "tiny", backend="jax", realization=3)
        assert key.namespace == "satellite"
        assert key.describe() == "satellite/zmap@tiny/jax/r3"

    def test_keys_are_the_coalescing_unit(self):
        assert KEY == ProductKey("satellite/zmap", "tiny")
        assert hash(KEY) == hash(ProductKey("satellite/zmap", "tiny"))
        assert KEY != ProductKey("satellite/zmap", "tiny", realization=1)

    def test_slice_spec_windows(self):
        spec = SliceSpec.rows(2, 9)
        assert spec.as_slices() == (slice(2, 9),)
        assert spec.describe() == "[2:9]"
        assert SliceSpec().describe() == "[:]"
        x = np.arange(24).reshape(8, 3)
        assert np.array_equal(x[spec.as_slices()], x[2:9])

    def test_slice_spec_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            SliceSpec(bounds=((-1, 4),))
        with pytest.raises(ValueError):
            SliceSpec(bounds=((5, 2),))

    def test_handle_element_count(self):
        h = ArrayHandle("h1", KEY, (12, 3), "<f8", "node-a")
        assert h.n_elements == 36
        assert "h1" in h.describe()


class TestRouteOrder:
    NODES = ["node-a", "node-b", "node-c"]

    def test_permutation_invariant_and_complete(self):
        order = route_order("some/key@tiny", self.NODES)
        assert sorted(order) == sorted(self.NODES)
        assert route_order("some/key@tiny", list(reversed(self.NODES))) == order

    def test_different_keys_spread(self):
        primaries = {
            route_order(f"satellite/zmap@tiny/numpy/r{r}", self.NODES)[0]
            for r in range(32)
        }
        assert len(primaries) > 1  # rendezvous actually spreads keys

    def test_losing_a_node_only_remaps_its_keys(self):
        keys = [f"k{r}" for r in range(20)]
        before = {k: route_order(k, self.NODES)[0] for k in keys}
        survivors = [n for n in self.NODES if n != "node-b"]
        after = {k: route_order(k, survivors)[0] for k in keys}
        for k in keys:
            if before[k] != "node-b":
                assert after[k] == before[k]


class TestCoalesceTable:
    def test_concurrent_requests_one_run(self):
        table = CoalesceTable()
        runs = []

        def compute():
            runs.append(1)
            return "value"

        results = _fanout(8, lambda i: table.run("k", compute))
        assert len(runs) == 1
        assert all(v == "value" for v, _ in results)
        assert sum(1 for _, led in results if led) == 1
        assert table.stats()["runs"] == 1

    def test_failures_are_not_cached(self):
        table = CoalesceTable()
        attempts = []

        def boom():
            attempts.append(1)
            raise RuntimeError("transient")

        with pytest.raises(RuntimeError):
            table.run("k", boom)
        value, led = table.run("k", lambda: 42)  # a new leader is elected
        assert (value, led) == (42, True)
        assert len(attempts) == 1

    def test_cache_and_invalidate(self):
        table = CoalesceTable()
        table.run("k", lambda: 1)
        assert table.cached("k") is not None
        value, led = table.run("k", lambda: 2)
        assert (value, led) == (1, False)  # served from cache, not recomputed
        assert table.invalidate("k")
        value, led = table.run("k", lambda: 2)
        assert (value, led) == (2, True)

    def test_lru_eviction(self):
        table = CoalesceTable(max_cached=2)
        for k in "abc":
            table.run(k, lambda: k)
        assert table.cached("a") is None  # oldest out
        assert table.cached("b") is not None and table.cached("c") is not None
        assert table.stats()["evicted"] == 1


class TestQuota:
    def test_inflight_cap(self):
        ledger = QuotaLedger(QuotaPolicy(max_inflight=2))
        ledger.admit("c")
        ledger.admit("c")
        with pytest.raises(QuotaExceededError) as err:
            ledger.admit("c")
        assert err.value.reason == "inflight"
        ledger.release("c")
        ledger.admit("c")  # freed capacity admits again

    def test_request_budget(self):
        ledger = QuotaLedger(QuotaPolicy(max_requests=2))
        for _ in range(2):
            ledger.admit("c")
            ledger.release("c")
        with pytest.raises(QuotaExceededError) as err:
            ledger.admit("c")
        assert err.value.reason == "budget"

    def test_abuse_breaker_opens_then_cools_down(self):
        policy = QuotaPolicy(
            max_inflight=1, breaker_threshold=2, breaker_cooldown=3.0
        )
        ledger = QuotaLedger(policy)
        ledger.admit("c")  # holds the single slot for the whole test
        for _ in range(2):
            with pytest.raises(QuotaExceededError):
                ledger.admit("c")
        assert ledger.breaker_state("c") is BreakerState.OPEN
        with pytest.raises(QuotaExceededError) as err:
            ledger.admit("c")
        assert err.value.reason == "breaker_open"  # refused before quota math
        ledger.release("c")
        for _ in range(4):  # advance the admissions clock past the cooldown
            try:
                ledger.admit("c")
                ledger.release("c")
                break
            except QuotaExceededError:
                pass
        assert ledger.breaker_state("c") is not BreakerState.OPEN

    def test_clients_are_isolated(self):
        ledger = QuotaLedger(QuotaPolicy(max_inflight=1))
        ledger.admit("a")
        ledger.admit("b")  # a's open slot does not count against b
        with pytest.raises(QuotaExceededError):
            ledger.admit("a")


class TestWire:
    def test_roundtrip_and_error_kinds(self):
        class Refused(RuntimeError):
            wire_kind = "refused"

        def handler(request):
            if request["op"] == "echo":
                return {"got": request["x"]}
            raise Refused("no")

        server = RpcServer(handler).start()
        try:
            assert call(server.address, "echo", x=[1, 2]) == {"got": [1, 2]}
            with pytest.raises(RemoteCallError) as err:
                call(server.address, "nope")
            assert err.value.kind == "refused"
        finally:
            server.stop()

    def test_dead_peer_classifies(self):
        server = RpcServer(lambda r: r).start()
        address = server.address
        server.stop()
        with pytest.raises(PeerUnavailableError):
            call(address, "ping", timeout_s=2.0)


class TestServeNode:
    def test_produce_fetch_roundtrip(self, reference):
        node = ServeNode("n1")
        try:
            handle = node.produce(KEY)
            assert handle.shape == reference.shape
            assert same_bits(node.fetch(handle.handle_id), reference)
            band = node.fetch(handle.handle_id, SliceSpec.rows(3, 11))
            assert same_bits(band, reference[3:11])
        finally:
            node.shutdown()

    def test_produce_coalesces_to_one_run(self):
        node = ServeNode("n1")
        try:
            handles = _fanout(6, lambda i: node.produce(KEY))
            assert len({h.handle_id for h in handles}) == 1
            assert node.stats()["counters"]["produces"] == 1
        finally:
            node.shutdown()

    def test_unknown_requests_classify(self):
        node = ServeNode("n1")
        try:
            from repro.serve.node import BadRequestError, UnknownHandleError

            with pytest.raises(BadRequestError):
                node.produce(ProductKey("nope/zmap", "tiny"))
            with pytest.raises(BadRequestError):
                node.produce(ProductKey("satellite/zmap", "no-such-size"))
            with pytest.raises(BadRequestError):
                node.produce(ProductKey("satellite/zmap", "tiny", backend="cuda"))
            with pytest.raises(UnknownHandleError):
                node.fetch("n1-h9999")
        finally:
            node.shutdown()

    def test_elastic_produce_matches_direct_compute(self, reference):
        """A node routing its pipeline through the elastic pool serves the
        same bytes as the serverless producer (serve x parallel compose)."""
        node = ServeNode("n1", elastic_workers=2)
        try:
            handle = node.produce(KEY)
            assert same_bits(node.fetch(handle.handle_id), reference)
            assert node.stats()["counters"].get("elastic_produces") == 1
        finally:
            node.shutdown()

    def test_eviction_unlinks_the_slab(self):
        from repro.parallel import SharedSlab

        node = ServeNode("n1", max_cached_products=1)
        try:
            h0 = node.produce(KEY)
            spec0 = node._store[h0.handle_id].slab.spec
            node.produce(ProductKey("satellite/zmap", "tiny", realization=1))
            assert node.stats()["products_stored"] == 1
            with pytest.raises(FileNotFoundError):
                SharedSlab.attach(spec0)  # the evicted segment is gone
        finally:
            node.shutdown()


class TestProducts:
    def test_registry_lists_satellite_products(self):
        names = product_names()
        assert "satellite/zmap" in names
        assert "satellite/sky" in names
        from repro.workflows.products import namespaces

        assert "satellite" in namespaces()

    def test_producer_is_pure(self, reference):
        product = get_product("satellite/zmap")
        again = product.producer(SIZES["tiny"], ImplementationType.NUMPY, 0)
        assert reference.tobytes() == again.tobytes()
        assert np.any(reference)  # a real map, not zeros == zeros

    def test_shape_matches_producer(self, reference):
        product = get_product("satellite/zmap")
        assert product.shape(SIZES["tiny"]) == reference.shape


class TestPlane:
    """The assembled in-process plane: broker + nodes + clients."""

    def test_roundtrip_matches_serverless(self, reference):
        with local_plane(n_nodes=2) as (broker, nodes, make_client):
            client = make_client("c0")
            assert same_bits(client.request(KEY), reference)
            band = client.request(KEY, SliceSpec.rows(1, 7))
            assert same_bits(band, reference[1:7])

    def test_concurrent_overlapping_patches_coalesce(self, reference):
        """The tentpole determinism gate: N clients, overlapping patches,
        byte-identical slices, exactly one pipeline run in the trace."""
        npix = reference.shape[0]
        q = max(1, npix // 4)
        windows = [
            None,
            SliceSpec.rows(0, 3 * q),
            SliceSpec.rows(q, npix),
            SliceSpec.rows(q, 3 * q),
            SliceSpec.rows(0, npix),
            None,
        ]
        with obs.tracing() as tracer:
            with local_plane(n_nodes=2) as (broker, nodes, make_client):
                clients = [make_client(f"c{i}") for i in range(len(windows))]
                results = _fanout(
                    len(windows), lambda i: clients[i].request(KEY, windows[i])
                )
        for win, got in zip(windows, results):
            want = reference if win is None else reference[win.as_slices()]
            assert got.tobytes() == want.tobytes()
        produces = tracer.events_of(EventType.SERVE_PRODUCE)
        assert len(produces) == 1  # exactly one pipeline run for all six
        assert tracer.metrics.counters["serve.requests"].value == len(windows)

    def test_failover_after_injected_node_crash(self, reference):
        plan = named_plan("serve-node-crash", seed=0)
        with obs.tracing() as tracer:
            with resilience.resilient(plan):
                with local_plane(n_nodes=2) as (broker, nodes, make_client):
                    primary = route_order(
                        KEY.describe(), [n.node_id for n in nodes]
                    )[0]
                    client = make_client("c0")
                    got = client.request(KEY)  # crashes primary mid-produce
        assert same_bits(got, reference)
        stats = broker.stats()
        assert stats["nodes"][primary]["breaker"] == "open"
        survivor = next(n for n in stats["nodes"] if n != primary)
        assert stats["nodes"][survivor]["produces"] == 1
        assert tracer.events_of(EventType.SERVE_FAILOVER)

    def test_crashed_node_does_not_fail_other_inflight_clients(self, reference):
        plan = named_plan("serve-node-crash", seed=0)
        with resilience.resilient(plan):
            with local_plane(n_nodes=2) as (broker, nodes, make_client):
                clients = [make_client(f"c{i}") for i in range(4)]
                results = _fanout(4, lambda i: clients[i].request(KEY))
        for got in results:
            assert same_bits(got, reference)

    def test_quota_rejection_and_event(self):
        """Admission gates resolves (the control plane); a second *resolve*
        past the budget is refused.  Cached-handle fetches go straight to
        the node and are deliberately not metered here."""
        policy = QuotaPolicy(max_requests=1)
        with obs.tracing() as tracer:
            with local_plane(n_nodes=1, policy=policy) as (broker, _, make_client):
                client = make_client("greedy")
                client.request(KEY)
                with pytest.raises(QuotaExceededError) as err:
                    client.request(ProductKey("satellite/zmap", "tiny", realization=1))
        assert err.value.reason == "budget"
        rejects = tracer.events_of(EventType.SERVE_REJECT)
        assert len(rejects) == 1
        assert rejects[0].attrs["client"] == "greedy"
        assert tracer.metrics.counters["serve.rejections"].value == 1

    def test_injected_request_drops_are_retried(self, reference):
        plan = named_plan("serve-flaky", seed=0)
        with resilience.resilient(plan):
            with local_plane(n_nodes=1) as (broker, _, make_client):
                client = make_client("c0")
                first = client.request(KEY)
                second = client.request(KEY)  # this one hits the drop
        assert same_bits(first, reference)
        assert same_bits(second, reference)
        assert client.stats()["counters"].get("drops", 0) >= 1

    def test_eviction_forces_fresh_resolve_not_blame(self, reference):
        key1 = ProductKey("satellite/zmap", "tiny", realization=1)
        with local_plane(n_nodes=1, max_cached_products=1) as (
            broker,
            nodes,
            make_client,
        ):
            client = make_client("c0")
            assert same_bits(client.request(KEY), reference)
            client.request(key1)  # evicts KEY's slab on the single node
            again = client.request(KEY)  # stale handle -> fresh resolve
            assert same_bits(again, reference)
            stats = broker.stats()
            assert stats["nodes"][nodes[0].node_id]["breaker"] == "closed"
            assert client.stats()["counters"]["failovers"] == 1

    def test_no_nodes_is_a_clean_error(self):
        broker = Broker()
        with pytest.raises(NoNodesError):
            broker.resolve(KEY, "c0")

    def test_checksum_guards_full_reads(self, reference):
        with local_plane(n_nodes=1) as (broker, nodes, make_client):
            client = make_client("c0")
            handle = broker.resolve(KEY, "c0")
            nodes[0]._store[handle.handle_id].array[0, 0] += 1.0  # corrupt
            with pytest.raises(IntegrityError):
                client.request(KEY)


class TestTraceCorrelation:
    def test_one_trace_id_broker_to_node_to_kernel(self):
        with obs.tracing() as tracer:
            with local_plane(n_nodes=2) as (broker, nodes, make_client):
                make_client("cli").request(KEY, SliceSpec.rows(0, 4))
        request = tracer.events_of(EventType.SERVE_REQUEST)[0]
        tid = request.trace_id
        assert tid == "cli-0001"
        for etype in (
            EventType.SERVE_RESOLVE,
            EventType.SERVE_PRODUCE,
            EventType.SERVE_SLICE,
        ):
            events = tracer.events_of(etype)
            assert events, f"no {etype} event"
            assert all(e.trace_id == tid for e in events)
        # The pipeline's own spans, emitted deep inside produce, carry it too.
        spans = [e for e in tracer.events_of(EventType.SPAN) if e.trace_id == tid]
        assert spans, "no kernel/pipeline spans correlated to the request"

    def test_trace_ids_are_deterministic_per_client(self):
        with local_plane(n_nodes=1) as (broker, nodes, make_client):
            client = make_client("cli")
            with obs.tracing() as tracer:
                client.request(KEY)
                client.request(KEY, SliceSpec.rows(0, 2))
        ids = [e.trace_id for e in tracer.events_of(EventType.SERVE_REQUEST)]
        assert ids == ["cli-0001", "cli-0002"]
