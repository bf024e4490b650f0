"""Tests for the pipeline compiler: planning, parity, fusion, recovery.

The compiled path's one hard promise is bitwise identity with the eager
pipeline — same maps, same timestreams, under every backend, loop order,
memory pressure, and injected fault these tests can throw at it.  The
performance claims (transfers elided, launches fused, copies overlapped)
are asserted against the virtual clock.
"""

import numpy as np
import pytest

from repro import obs, resilience
from repro.accel import SimulatedDevice
from repro.compilepipe import (
    build_plan,
    lower_workflow,
    plan_report,
    render_plan,
    transfer_seconds,
)
from repro.core import Data, ImplementationType, Pipeline, fake_hexagon_focalplane
from repro.core.pipeline import LoopOrder, MovementPolicy
from repro.healpix import npix as healpix_npix
from repro.obs.events import EventType
from repro.ompshim import OmpTargetRuntime
from repro.ops import (
    BuildNoiseWeighted,
    DefaultNoiseModel,
    NoiseWeight,
    PixelsHealpix,
    PointingDetector,
    ScanMap,
    SimNoise,
    SimSatellite,
    StokesWeights,
    create_fake_sky,
)
from repro.resilience.plans import named_plan
from repro.workflows.satellite import same_bits

NSIDE = 16


def make_data(n_samples=400, n_obs=2):
    fp = fake_hexagon_focalplane(n_pixels=1, sample_rate=10.0)
    d = Data()
    SimSatellite(
        fp, n_observations=n_obs, n_samples=n_samples, scan_samples=150, gap_samples=10
    ).apply(d)
    DefaultNoiseModel().apply(d)
    d["sky_map"] = create_fake_sky(NSIDE, seed=1)
    SimNoise().apply(d)
    return d


def processing_ops():
    return [
        PointingDetector(),
        PixelsHealpix(nside=NSIDE, nest=True),
        StokesWeights(mode="IQU"),
        ScanMap(),
        NoiseWeight(),
        BuildNoiseWeighted(n_pix=healpix_npix(NSIDE), nnz=3, use_det_weights=False),
    ]


def fresh_runtime(memory_bytes=1 << 28):
    return OmpTargetRuntime(SimulatedDevice(memory_bytes=memory_bytes))


def run_pipeline(
    plan,
    impl=ImplementationType.OMP_TARGET,
    order=LoopOrder.OPERATOR_MAJOR,
    memory_bytes=1 << 28,
    ops=None,
    tracer=None,
):
    d = make_data()
    rt = fresh_runtime(memory_bytes)
    p = Pipeline(
        ops if ops is not None else processing_ops(),
        implementation=impl,
        plan=plan,
        order=order,
    )
    if tracer is not None:
        with obs.tracing(tracer):
            p.exec(d, use_accel=True, accel=rt)
    else:
        p.exec(d, use_accel=True, accel=rt)
    return d, p, rt


def assert_bitwise_equal(da, db):
    assert len(da.obs) == len(db.obs)
    for ob_a, ob_b in zip(da.obs, db.obs):
        for field in ("detdata", "shared"):
            a, b = getattr(ob_a, field), getattr(ob_b, field)
            assert a.keys() == b.keys(), field
            for k in a:
                assert same_bits(a[k], b[k]), k
    assert same_bits(da["zmap"], db["zmap"])


class TestPlanStructure:
    def test_lowering_covers_all_stages_and_buffers(self):
        d = make_data()
        ops = processing_ops()
        for op in ops:
            op.ensure_outputs(d)
        ir = lower_workflow(ops, [d])
        assert len(ir.stages) == len(ops)
        labels = set(ir.buffers)
        # Every staged product of the chain appears in the IR.
        for expect in ("ob0.detdata.quats", "ob0.detdata.pixels", "meta.zmap",
                       "meta.sky_map", "ob0.shared.boresight"):
            assert expect in labels, sorted(labels)

    def test_zero_fill_outputs_are_elided(self):
        d = make_data()
        ir = lower_workflow(processing_ops(), [d])
        plan = build_plan(ir)
        # quats/pixels/weights are zero-filled pure outputs and zmap is a
        # zero-filled accumulator: all first-touch H2Ds become memsets.
        for label in ("ob0.detdata.quats", "ob0.detdata.pixels",
                      "ob0.detdata.weights", "meta.zmap"):
            assert plan.buffers[label].first_touch == "elide", label
        assert plan.transfers_elided > 0

    def test_nonzero_host_data_is_never_elided(self):
        d = make_data()
        ir = lower_workflow(processing_ops(), [d])
        plan = build_plan(ir)
        # The simulated signal and boresight hold real data: must copy.
        for label in ("ob0.detdata.signal", "ob0.shared.boresight",
                      "meta.sky_map"):
            assert plan.buffers[label].first_touch in ("prefetch", "sync"), label

    def test_cross_operator_fusion_group_exists(self):
        d = make_data()
        plan = build_plan(lower_workflow(processing_ops(), [d]))
        assert plan.fused_groups >= 1
        group = plan.groups[0]
        # The elementwise/gather prefix fuses; the scatter accumulation
        # (build_noise_weighted) never joins.
        assert group.n_stages >= 2
        scatter_stage = len(processing_ops()) - 1
        assert scatter_stage not in group.stage_indices

    def test_drains_deferred_to_last_device_use(self):
        d = make_data()
        plan = build_plan(lower_workflow(processing_ops(), [d]))
        life = plan.ir.buffers["ob0.detdata.pixels"]
        bp = plan.buffers["ob0.detdata.pixels"]
        assert bp.drain_after == life.last_device_use
        assert bp.drain_after > life.first_device_use

    def test_plan_report_and_render(self):
        d = make_data()
        plan = build_plan(lower_workflow(processing_ops(), [d]))
        rep = plan_report(plan)
        assert rep["totals"]["transfers_elided"] == plan.transfers_elided
        assert len(rep["stages"]) == len(plan.stages)
        text = render_plan(plan)
        assert "fused" in text and "elide" in text


class TestCompiledParity:
    @pytest.mark.parametrize(
        "impl", [ImplementationType.OMP_TARGET, ImplementationType.JAX]
    )
    @pytest.mark.parametrize(
        "order", [LoopOrder.OPERATOR_MAJOR, LoopOrder.OBSERVATION_MAJOR]
    )
    def test_bitwise_identical_to_eager(self, impl, order):
        de, _, _ = run_pipeline("eager", impl=impl, order=order)
        dc, pc, _ = run_pipeline("compiled", impl=impl, order=order)
        assert_bitwise_equal(de, dc)
        assert pc.last_plan is not None
        assert pc.last_plan.executed["transfers_elided"] > 0

    def test_executed_matches_static_plan(self):
        _, p, _ = run_pipeline("compiled")
        plan = p.last_plan
        assert plan.executed["transfers_elided"] == plan.transfers_elided
        assert plan.executed["launches_elided"] == plan.launches_elided
        assert plan.executed["spills"] == 0

    def test_obs_metrics_and_events(self):
        tracer = obs.Tracer()
        run_pipeline("compiled", tracer=tracer)
        m = tracer.metrics
        assert m.counter("pipeline.plans").value == 1
        assert m.counter("pipeline.transfers_elided").value > 0
        assert m.counter("pipeline.fused_groups").value >= 1
        assert m.counter("pipeline.overlap_seconds").value > 0
        plan_events = tracer.events_of(EventType.PLAN)
        overlap_events = tracer.events_of(EventType.OVERLAP)
        assert len(plan_events) == 1 and len(overlap_events) == 1
        assert overlap_events[0].dur > 0

    def test_invalid_plan_rejected(self):
        with pytest.raises(ValueError, match="plan"):
            Pipeline(processing_ops(), plan="jitted")
        # NAIVE is an eager schedule; the planned paths would ignore it.
        for plan in ("compiled", "megabatch"):
            with pytest.raises(ValueError, match="policy.*plan"):
                Pipeline(processing_ops(), policy=MovementPolicy.NAIVE, plan=plan)

    def test_compiled_beats_hybrid_exposed_transfer(self):
        # Same problem, eager-HYBRID vs compiled: the plan must strictly
        # reduce exposed transfer time (elision + overlap).
        _, _, rt_e = run_pipeline("eager")
        _, _, rt_c = run_pipeline("compiled")
        assert transfer_seconds(rt_c.device.clock) < transfer_seconds(
            rt_e.device.clock
        )

    def test_runtime_released_after_run(self):
        _, _, rt = run_pipeline("compiled")
        assert len(rt.present) == 0
        assert rt.device.pool.allocated_bytes == 0


class TestCompiledResilience:
    def test_device_loss_parity(self):
        def run(plan):
            d = make_data()
            rt = fresh_runtime()
            p = Pipeline(
                processing_ops(),
                implementation=ImplementationType.OMP_TARGET,
                plan=plan,
            )
            with resilience.resilient(named_plan("device-loss")) as ctrl:
                ctrl.bind_clock(rt.device.clock)
                p.exec(d, use_accel=True, accel=rt)
            return d, ctrl

        de, ce = run("eager")
        dc, cc = run("compiled")
        assert_bitwise_equal(de, dc)
        assert ce.counters.get("device_recoveries") == 1
        assert cc.counters.get("device_recoveries") == 1

    def test_oom_spills_by_liveness_with_labels(self):
        cap = 220_000
        de, _, _ = run_pipeline("eager", memory_bytes=1 << 28)
        tracer = obs.Tracer()
        with resilience.resilient() as ctrl:
            dc, p, rt = run_pipeline(
                "compiled", memory_bytes=cap, tracer=tracer
            )
        assert_bitwise_equal(de, dc)
        assert p.last_plan.executed["spills"] > 0
        evicts = tracer.events_of(EventType.EVICT)
        assert evicts, "expected EVICT events under memory pressure"
        for ev in evicts:
            assert ev.attrs.get("label"), ev.attrs
            assert ev.attrs.get("policy") == "liveness"

    def test_oom_spill_without_controller_emits_labeled_evict(self):
        tracer = obs.Tracer()
        de, _, _ = run_pipeline("eager")
        dc, p, _ = run_pipeline("compiled", memory_bytes=220_000, tracer=tracer)
        assert_bitwise_equal(de, dc)
        evicts = tracer.events_of(EventType.EVICT)
        assert evicts
        assert all(ev.attrs.get("label") for ev in evicts)

    def test_eager_eviction_carries_label(self):
        tracer = obs.Tracer()
        with resilience.resilient() as ctrl:
            d = make_data()
            rt = fresh_runtime(220_000)
            ctrl.bind_clock(rt.device.clock)
            p = Pipeline(
                processing_ops(), implementation=ImplementationType.OMP_TARGET
            )
            with obs.tracing(tracer):
                p.exec(d, use_accel=True, accel=rt)
        evicts = tracer.events_of(EventType.EVICT)
        assert evicts
        assert all(ev.attrs.get("label") for ev in evicts)


class TestJaxFusionDiamond:
    """Diamond dependencies in jaxshim fusion: duplicate-or-bail."""

    def _graph(self, fn, *args):
        from repro.jaxshim import make_graph

        return make_graph(fn)(*args)

    def test_diamond_inside_one_group_does_not_escape(self):
        # One producer, two elementwise consumers, rejoined — all four
        # equations fuse into a single group, so the shared intermediate
        # lives in registers and only the graph output escapes.
        from repro.jaxshim.fusion import escaping_outputs, fusion_groups

        g = self._graph(lambda x: (x * 2.0 + 1.0) + (x * 2.0) * 3.0, np.zeros(64))
        groups = fusion_groups(g)
        assert len(groups) == 1
        esc = escaping_outputs(g, groups[0])
        out_uids = {a.uid for a in g.out_atoms if hasattr(a, "uid")}
        assert esc == out_uids
        produced = {g.eqns[i].out.uid for i in groups[0]}
        interior = produced - out_uids
        assert interior, "expected interior diamond values"
        assert not (interior & esc)

    def test_consumer_outside_group_forces_escape(self):
        # The producer feeds one in-group consumer (reduction closes the
        # group) and one consumer in the next group: duplicate-or-bail
        # says the value must be materialized — it escapes group 0.
        from repro.jaxshim import jnp
        from repro.jaxshim.fusion import escaping_outputs, fusion_groups

        g = self._graph(
            lambda x: (jnp.sum(x * 2.0 + 1.0), (x * 2.0) * 3.0), np.zeros(64)
        )
        groups = fusion_groups(g)
        assert len(groups) >= 2
        # CSE collapses the two x*2.0 into one producer; find it: the var
        # consumed by equations in more than one group.
        consumer_groups = {}
        for gi, grp in enumerate(groups):
            for ei in grp:
                for a in g.eqns[ei].inputs:
                    if hasattr(a, "uid"):
                        consumer_groups.setdefault(a.uid, set()).add(gi)
        shared = [u for u, gs in consumer_groups.items() if len(gs) > 1]
        assert shared, "expected a cross-group shared value"
        producer_uid = shared[0]
        home = next(
            gi
            for gi, grp in enumerate(groups)
            if any(g.eqns[ei].out.uid == producer_uid for ei in grp)
        )
        assert producer_uid in escaping_outputs(g, groups[home])

    def test_escaping_value_is_charged_in_group_cost(self):
        # Same split diamond: group 0's byte cost must include the
        # escaping intermediate's materialization.
        from repro.jaxshim import jnp
        from repro.jaxshim.fusion import (
            escaping_outputs,
            fusion_groups,
            group_cost,
        )

        n = 64
        g = self._graph(
            lambda x: (jnp.sum(x * 2.0 + 1.0), (x * 2.0) * 3.0), np.zeros(n)
        )
        groups = fusion_groups(g)
        esc0 = escaping_outputs(g, groups[0])
        _, bytes0 = group_cost(g, groups[0])
        esc_bytes = sum(
            g.eqns[i].out.aval.nbytes
            for i in groups[0]
            if g.eqns[i].out.uid in esc0
        )
        assert esc_bytes > 0
        # input x (n doubles) + every escaping output, nothing less.
        assert bytes0 >= n * 8 + esc_bytes

    def test_fully_private_chain_charges_no_intermediates(self):
        from repro.jaxshim.fusion import fusion_groups, group_cost

        n = 64
        g = self._graph(lambda x: x * 2.0 + 1.0, np.zeros(n))
        groups = fusion_groups(g)
        assert len(groups) == 1
        _, nbytes = group_cost(g, groups[0])
        # Input + output arrays plus the two scalar constants; the x*2.0
        # intermediate is free.
        assert nbytes == 2 * n * 8 + 2 * 8


class TestOrderingProperty:
    """Randomized operator orders + memory caps: compiled stays honest."""

    # Partial order on the 6-op chain (indices into processing_ops()):
    # pointing before pixels/weights; pixels+weights before scan/build.
    _AFTER = {1: {0}, 2: {0}, 3: {0, 1, 2}, 5: {0, 1, 2}, 4: set(), 0: set()}

    @classmethod
    def _topo_order(cls, picks):
        """Build a random topological order from a list of choice indices."""
        remaining = set(range(6))
        order = []
        for pick in picks:
            ready = sorted(
                op for op in remaining if cls._AFTER[op] <= set(order)
            )
            op = ready[pick % len(ready)]
            order.append(op)
            remaining.discard(op)
        return order

    def _run(self, perm, plan, memory_bytes):
        d = make_data(n_samples=200, n_obs=1)
        ops = processing_ops()
        rt = fresh_runtime(memory_bytes)
        p = Pipeline(
            [ops[i] for i in perm],
            implementation=ImplementationType.OMP_TARGET,
            plan=plan,
        )
        tracer = obs.Tracer()
        with resilience.resilient() as ctrl:
            ctrl.bind_clock(rt.device.clock)
            with obs.tracing(tracer):
                p.exec(d, use_accel=True, accel=rt)
        # Normalize to the field name: the compiled planner labels buffers
        # "ob0.detdata.pixels" while eager stage-in labels them "pixels".
        alloc_labels = {
            ev.attrs["label"].split("#")[0].split(".")[-1]
            for ev in tracer.events_of(EventType.ALLOC)
            if "label" in ev.attrs
        }
        return d, alloc_labels

    def test_random_orders_and_caps(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import HealthCheck, given, settings
        from hypothesis import strategies as st

        @settings(
            max_examples=12,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(
            picks=st.lists(
                st.integers(min_value=0, max_value=5), min_size=6, max_size=6
            ),
            cap=st.sampled_from([1 << 28, 400_000, 220_000]),
        )
        def prop(picks, cap):
            perm = self._topo_order(picks)
            de, labels_e = self._run(perm, "eager", cap)
            dc, labels_c = self._run(perm, "compiled", cap)
            assert_bitwise_equal(de, dc)
            # The compiled plan must never stage a buffer the eager
            # pipeline wouldn't touch.
            assert labels_c <= labels_e, labels_c - labels_e

        prop()


class TestMovementComparison:
    def test_compiled_saving_exceeds_hybrid(self):
        from repro.workflows.satellite import SIZES, run_movement_comparison

        r = run_movement_comparison(SIZES["small"])
        assert r["mismatches"] == []
        hybrid = r["policies"]["hybrid"]
        compiled = r["policies"]["compiled"]
        assert compiled["transfer_saving"] > hybrid["transfer_saving"]
        assert compiled["transfers_elided"] > 0
        assert compiled["fused_groups"] >= 1
        assert compiled["overlap_seconds"] > 0
        assert compiled["kernels_launched"] < hybrid["kernels_launched"]

    def test_plans_compare_at_one_jit_cache_state(self):
        # A plan that traces a new executable is charged the modeled
        # jit_compile; the comparison reruns it warm, so a process's first
        # and second calls report the same numbers.
        import sys

        from repro.jaxshim.api import JitFunction
        from repro.workflows.satellite import SIZES, run_movement_comparison

        for name, mod in list(sys.modules.items()):
            if mod is not None and name.split(".")[0] == "repro":
                for value in list(vars(mod).values()):
                    if isinstance(value, JitFunction):
                        value._cache.clear()
        first, second = (
            run_movement_comparison(SIZES["tiny"], implementation=ImplementationType.JAX)
            for _ in range(2)
        )
        for mode, entry in first["policies"].items():
            again = second["policies"][mode]
            assert entry["virtual_seconds"] == again["virtual_seconds"], mode

    def test_movement_model_ordering(self):
        from repro.accel.transfer import TransferModel
        from repro.perfmodel import estimate_movement

        d = make_data()
        plan = build_plan(lower_workflow(processing_ops(), [d]))
        est = estimate_movement(plan, TransferModel())
        assert est["naive"].copy_seconds > est["hybrid"].copy_seconds
        assert est["hybrid"].copy_seconds > est["compiled"].copy_seconds
        assert est["naive"].total_copies > est["hybrid"].total_copies
        assert est["compiled"].h2d_copies < est["hybrid"].h2d_copies


class TestPlannedCopies:
    """The walk of each schedule against the run it predicts (tiny size).

    ``estimate_movement`` sums ``planned_copies`` over the NAIVE, HYBRID
    and compiled schedules of one IR, so each estimate must count exactly
    the copies and bytes its executed run makes.
    """

    RUNS = {
        "naive": (MovementPolicy.NAIVE, "eager"),
        "hybrid": (MovementPolicy.HYBRID, "eager"),
        "compiled": (MovementPolicy.HYBRID, "compiled"),
        "megabatch": (MovementPolicy.HYBRID, "megabatch"),
    }

    def _run(self, impl, order, mode):
        from repro.workflows.satellite import (
            SIZES,
            make_satellite_data,
            satellite_processing_pipeline,
        )

        size = SIZES["tiny"]
        policy, plan = self.RUNS[mode]
        rt = fresh_runtime()
        data = make_satellite_data(size, realization=0)
        pipe = Pipeline(
            satellite_processing_pipeline(size.nside).operators,
            implementation=impl,
            policy=policy,
            plan=plan,
            order=order,
        )
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            pipe.exec(data, use_accel=True, accel=rt)
        m = tracer.metrics
        executed = {
            "h2d_copies": len(tracer.events_of(EventType.H2D)),
            "d2h_copies": len(tracer.events_of(EventType.D2H)),
            "h2d_bytes": m.counter("transfer.h2d_bytes").value,
            "d2h_bytes": m.counter("transfer.d2h_bytes").value,
        }
        return pipe.last_plan, rt.device, executed

    @staticmethod
    def _estimate(plan, impl):
        from repro.accel.transfer import TransferModel
        from repro.core.dispatch import use_implementation
        from repro.perfmodel import estimate_movement

        with use_implementation(impl):
            return estimate_movement(plan, TransferModel())

    @staticmethod
    def _assert_matches(est, device, executed, impl):
        assert {k: getattr(est, k) for k in executed} == executed, est.policy
        if impl is ImplementationType.OMP_TARGET:
            # Dispatches are device launches only on omp_target.
            assert est.launches == device.kernels_launched, est.policy

    @pytest.mark.parametrize(
        "impl", [ImplementationType.OMP_TARGET, ImplementationType.JAX]
    )
    @pytest.mark.parametrize(
        "order", [LoopOrder.OPERATOR_MAJOR, LoopOrder.OBSERVATION_MAJOR]
    )
    def test_walk_matches_executed_runs(self, impl, order):
        runs = {
            mode: self._run(impl, order, mode)
            for mode in ("naive", "hybrid", "compiled")
        }
        plan = runs["compiled"][0]
        est = self._estimate(plan, impl)
        for mode, (_, device, executed) in runs.items():
            self._assert_matches(est[mode], device, executed, impl)
            exposed = transfer_seconds(device.clock)
            if mode == "compiled":
                assert exposed <= est[mode].copy_seconds
            else:
                # Eager schedules copy synchronously: nothing overlaps.
                assert est[mode].copy_seconds == pytest.approx(exposed, abs=1e-12)
        copies = {
            mode: executed["h2d_copies"] + executed["d2h_copies"]
            for mode, (_, _, executed) in runs.items()
        }
        assert plan.transfers_elided == copies["hybrid"] - copies["compiled"]

    @pytest.mark.parametrize(
        "impl", [ImplementationType.OMP_TARGET, ImplementationType.JAX]
    )
    def test_megabatch_walk_matches_executed_run(self, impl):
        plan, device, executed = self._run(
            impl, LoopOrder.OPERATOR_MAJOR, "megabatch"
        )
        est = self._estimate(plan, impl)["megabatch"]
        self._assert_matches(est, device, executed, impl)
