"""Tests for megabatch execution: stacked detector×observation launches.

The megabatch path's one hard promise mirrors the compiled pipeline's:
bitwise-identical results to eager per-observation dispatch, for every
backend, while launching strictly fewer kernels.  These tests pin that
promise at each layer: the collector (kernel-level stacking), the
pipeline (plan="megabatch" on a device, and the host, where every plan
runs the eager loop), the planner (static launch accounting), the perf
model (the launches-saved term), and the jaxshim (vmap batching rules
and padded-shape JIT cache buckets).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs, resilience
from repro.compilepipe import build_plan, lower_workflow
from repro.compilepipe.planner import eager_launches, planned_launch_elisions
from repro.core import Data, ImplementationType, Pipeline
from repro.core.dispatch import get_kernel, megabatch_collection, use_implementation
from repro.jaxshim import PRNGKey, normal, split, uniform, vmap
from repro.jaxshim.primitives import BATCHING_WAIVERS, batching_coverage
from repro.kernels import MegabatchCollector, kernel_registry
from repro.kernels.common import pad_intervals
from repro.kernels.jax import stacked
from repro.kernels.spec import ArgRole
from repro.math.segments import Segments
from repro.resilience import FaultKind, FaultPlan, FaultSpec
from repro.workflows.microbench import kernel_cases

from tests.test_compilepipe import (
    assert_bitwise_equal,
    fresh_runtime,
    make_data,
    processing_ops,
)

#: Every kernel whose spec declares megabatch=True: a new megabatch
#: kernel gets the stacked-vs-eager parity tests without a test edit.
MEGABATCH_KERNELS = sorted(
    name for name, spec in kernel_registry.specs().items() if spec.megabatch
)

ACCEL_IMPLS = [ImplementationType.JAX, ImplementationType.OMP_TARGET]


def test_megabatch_kernels_have_derived_stacked_entries():
    assert MEGABATCH_KERNELS == sorted(
        [
            "pointing_detector",
            "stokes_weights_I",
            "stokes_weights_IQU",
            "pixels_healpix",
            "scan_map",
            "noise_weight",
            "build_noise_weighted",
            "cov_accum_diag_hits",
            "cov_accum_diag_invnpp",
        ]
    )
    for name in MEGABATCH_KERNELS:
        assert kernel_registry.megabatch_implementations(name) == ACCEL_IMPLS, name

#: Interval shapes for the collector group: one member with *zero*
#: intervals exercises the degenerate-row / anchor-redirect path.
GROUP_KINDS = ["irregular", "full", "empty", "irregular"]


def _build_group(name, spec, kinds=GROUP_KINDS, seed0=1000):
    """Per-observation call args for one kernel, GLOBAL args shared."""
    gnames = [a.name for a in spec.args if a.role == ArgRole.GLOBAL]
    obs = []
    for i, kind in enumerate(kinds):
        factory = kernel_cases(
            n_det=3, n_samp=96, intervals=kind, seed=seed0 + 37 * i
        )[name]
        args, outputs = factory()
        obs.append((args, list(outputs)))
    # Scatter kernels accumulate into one shared map: alias the GLOBALs.
    for g in gnames:
        for args, _ in obs[1:]:
            args[g] = obs[0][0][g]
    return obs, gnames


def _clone_group(obs, gnames):
    """Deep-copy a group, preserving GLOBAL aliasing between members."""
    gmap, out = {}, []
    for args, outputs in obs:
        a2 = {}
        for k, v in args.items():
            if k in gnames and isinstance(v, np.ndarray):
                if id(v) not in gmap:
                    gmap[id(v)] = np.copy(v)
                a2[k] = gmap[id(v)]
            elif isinstance(v, np.ndarray):
                a2[k] = np.copy(v)
            else:
                a2[k] = v
        out.append((a2, outputs))
    return out


class TestCollectorParity:
    """Kernel-level: one stacked launch == k eager launches, bitwise."""

    @pytest.mark.parametrize("impl", ACCEL_IMPLS, ids=lambda i: i.value)
    @pytest.mark.parametrize("name", MEGABATCH_KERNELS)
    def test_stacked_flush_matches_eager(self, impl, name):
        spec = kernel_registry.spec(name)
        base, gnames = _build_group(name, spec)
        eager = _clone_group(base, gnames)
        mb = _clone_group(base, gnames)
        fn = get_kernel(name, impl)

        for args, _ in eager:
            fn(**args, accel=None, use_accel=False)

        coll = MegabatchCollector()
        with megabatch_collection(coll):
            for args, _ in mb:
                fn(**args, accel=None, use_accel=False)

        # The group really stacked — a replay would make the test vacuous.
        assert coll.stacked_launches >= 1
        assert coll.replayed_calls == 0
        assert coll.launches_elided == len(GROUP_KINDS) - coll.stacked_launches

        for i, ((ea, outs), (ma, _)) in enumerate(zip(eager, mb)):
            for k in outs:
                assert ea[k].tobytes() == ma[k].tobytes(), (name, impl, i, k)

    @pytest.mark.parametrize("impl", ACCEL_IMPLS, ids=lambda i: i.value)
    @pytest.mark.parametrize("name", MEGABATCH_KERNELS)
    def test_short_member_pads_inside_its_intervals(self, impl, name):
        """A member with fewer intervals than the group, none covering
        sample 0: its padding lanes must do their dummy work inside its
        own intervals (the anchor redirect), never on sample 0."""
        spec = kernel_registry.spec(name)
        base, gnames = _build_group(name, spec, kinds=["irregular", "irregular"])
        base[1][0]["starts"] = np.array([10], dtype=np.int64)
        base[1][0]["stops"] = np.array([40], dtype=np.int64)
        eager = _clone_group(base, gnames)
        mb = _clone_group(base, gnames)
        fn = get_kernel(name, impl)
        for args, _ in eager:
            fn(**args, accel=None, use_accel=False)
        coll = MegabatchCollector()
        with megabatch_collection(coll):
            for args, _ in mb:
                fn(**args, accel=None, use_accel=False)
        assert coll.stacked_launches == 1 and coll.replayed_calls == 0
        for (ea, outs), (ma, _) in zip(eager, mb):
            for k in outs:
                assert ea[k].tobytes() == ma[k].tobytes(), k

    @pytest.mark.parametrize("impl", ACCEL_IMPLS, ids=lambda i: i.value)
    def test_single_call_group_is_passthrough(self, impl):
        """k == 1 replays eagerly — no stacking overhead, same bytes."""
        name = "pointing_detector"
        spec = kernel_registry.spec(name)
        base, gnames = _build_group(name, spec, kinds=["irregular"])
        eager = _clone_group(base, gnames)
        mb = _clone_group(base, gnames)
        fn = get_kernel(name, impl)
        fn(**eager[0][0], accel=None, use_accel=False)
        coll = MegabatchCollector()
        with megabatch_collection(coll):
            fn(**mb[0][0], accel=None, use_accel=False)
        assert coll.launches_elided == 0
        for k in eager[0][1]:
            assert eager[0][0][k].tobytes() == mb[0][0][k].tobytes()

    def test_zero_interval_observation_untouched(self):
        """An obs with no valid samples must not be written at all."""
        name = "pointing_detector"
        spec = kernel_registry.spec(name)
        base, gnames = _build_group(name, spec, kinds=["irregular", "empty"])
        mb = _clone_group(base, gnames)
        before = {k: np.copy(mb[1][0][k]) for k in mb[1][1]}
        fn = get_kernel(name, ImplementationType.JAX)
        with megabatch_collection(MegabatchCollector()):
            for args, _ in mb:
                fn(**args, accel=None, use_accel=False)
        for k, v in before.items():
            assert v.tobytes() == mb[1][0][k].tobytes(), k


class TestPipelineParity:
    """Pipeline(plan="megabatch") is bitwise-identical to eager."""

    @pytest.mark.parametrize("impl", ACCEL_IMPLS, ids=lambda i: i.value)
    def test_accel_parity(self, impl):
        # Three observations: JAX pads the 3-member group to its 4-row bucket.
        d_eager = make_data(n_obs=3)
        Pipeline(processing_ops(), implementation=impl).exec(
            d_eager, use_accel=True, accel=fresh_runtime()
        )
        d = make_data(n_obs=3)
        p = Pipeline(processing_ops(), implementation=impl, plan="megabatch")
        p.exec(d, use_accel=True, accel=fresh_runtime())
        assert_bitwise_equal(d_eager, d)

    @pytest.mark.parametrize(
        "impl",
        [ImplementationType.NUMPY, ImplementationType.JAX, ImplementationType.OMP_TARGET],
        ids=lambda i: i.value,
    )
    def test_host_runs_every_plan_eagerly(self, impl, monkeypatch):
        """A plan is a device schedule: on the host every plan runs the
        eager loop, with no collector installed and no stacked entry
        called, and gives the eager run's bits."""
        from repro.core import dispatch

        installed, stacked_calls = [], []
        real_collection = dispatch.megabatch_collection
        real_stacked = MegabatchCollector._run_stacked

        def recording_collection(collector):
            installed.append(collector)
            return real_collection(collector)

        def recording_stacked(self, calls, mb):
            stacked_calls.append(len(calls))
            return real_stacked(self, calls, mb)

        monkeypatch.setattr(dispatch, "megabatch_collection", recording_collection)
        monkeypatch.setattr(MegabatchCollector, "_run_stacked", recording_stacked)
        d_eager = make_data(n_obs=3)
        Pipeline(processing_ops(), implementation=impl).exec(d_eager)
        for plan in ("eager", "compiled", "megabatch"):
            d = make_data(n_obs=3)
            Pipeline(processing_ops(), implementation=impl, plan=plan).exec(d)
            assert installed == [] and stacked_calls == [], plan
            assert_bitwise_equal(d_eager, d)


class TestLaunchAccounting:
    """Static plan, executed counters, and the perf-model term agree."""

    def _run(self, impl=ImplementationType.OMP_TARGET):
        d = make_data(n_obs=3)
        p = Pipeline(processing_ops(), implementation=impl, plan="megabatch")
        p.exec(d, use_accel=True, accel=fresh_runtime())
        return p.last_plan

    def test_omp_executed_matches_static(self):
        plan = self._run()
        assert plan.executed["launches_elided"] == plan.launches_elided

    def test_jax_executed_matches_static(self):
        # Elisions count kernel dispatches, whatever each one launches.
        plan = self._run(ImplementationType.JAX)
        assert plan.executed["launches_elided"] == plan.launches_elided

    def test_planner_megabatch_beats_fusion_alone(self):
        d = make_data(n_obs=3)
        ops = processing_ops()
        for op in ops:
            op.ensure_outputs(d)
        ir = lower_workflow(ops, [d])
        with use_implementation(ImplementationType.OMP_TARGET):
            plain = build_plan(ir, megabatch=False)
            mb = build_plan(ir, megabatch=True)
        assert mb.launches_elided > plain.launches_elided
        assert eager_launches(ir) - mb.launches_elided > 0

    def test_estimate_movement_has_megabatch_leg(self):
        from repro.accel.transfer import TransferModel
        from repro.perfmodel import estimate_movement

        d = make_data(n_obs=3)
        ops = processing_ops()
        for op in ops:
            op.ensure_outputs(d)
        with use_implementation(ImplementationType.OMP_TARGET):
            plan = build_plan(lower_workflow(ops, [d]))
            est = estimate_movement(plan, TransferModel())
        assert set(est) == {"naive", "hybrid", "compiled", "megabatch"}
        mb, comp = est["megabatch"], est["compiled"]
        # Movement identical to compiled; the win is the launch term.
        assert mb.total_bytes == comp.total_bytes
        assert mb.total_copies == comp.total_copies
        assert mb.launches < comp.launches <= est["hybrid"].launches
        assert mb.launch_seconds < comp.launch_seconds
        assert mb.launch_seconds == pytest.approx(mb.launches * 5.0e-6)


class TestStackedDescriptors:
    """A stacked launch hands each member kernel its own interval lists, so
    every member reads the descriptor its list owns: a unit derives one
    descriptor per member's list on fresh data, and none over lists it
    has seen."""

    def test_warm_unit_derives_one_descriptor_per_member(self, monkeypatch):
        from repro.math import segments as segmod
        from repro.workflows.satellite import (
            SizeSpec,
            make_satellite_data,
            same_bits,
            satellite_processing_pipeline,
        )

        size = SizeSpec("omp-hybrid", 4, 2, 4096, 32)  # perfbench's omp-hybrid size
        derived = []
        real_init = segmod.Segments.__init__

        def counting(seg, starts, stops):
            derived.append(len(starts))
            real_init(seg, starts, stops)

        def unit(impl, plan, data):
            pipe = satellite_processing_pipeline(size.nside, implementation=impl, plan=plan)
            pipe.exec(data, use_accel=True, accel=fresh_runtime())
            pipe.finalize(data)
            return data["zmap"]

        for impl in ACCEL_IMPLS:
            eager = unit(impl, "eager", make_satellite_data(size, realization=1))
            unit(impl, "megabatch", make_satellite_data(size, realization=1))  # cold
            fresh = make_satellite_data(size, realization=1)
            derived.clear()
            monkeypatch.setattr(segmod.Segments, "__init__", counting)
            assert same_bits(unit(impl, "megabatch", fresh), eager), impl
            # One per observation's list, which the six stacked kernels
            # share with every other reader of the list.
            assert len(derived) == size.n_observations, impl
            derived.clear()
            again = make_satellite_data(size, realization=1)
            for ob, seen in zip(again.obs, fresh.obs):
                ob.intervals = seen.intervals
            assert same_bits(unit(impl, "megabatch", again), eager), impl
            assert derived == [], impl
            monkeypatch.undo()


class TestJitCacheBuckets:
    """Padded megabatch shapes hash into pow2 buckets: no per-count churn."""

    def test_no_evictions_across_group_sizes(self):
        name = "pointing_detector"
        spec = kernel_registry.spec(name)
        fn = get_kernel(name, ImplementationType.JAX)
        jf = kernel_registry.megabatch_impl(name, ImplementationType.JAX).compiled
        traces0, evict0 = jf.n_traces, jf.cache_evictions
        for k in (2, 3, 4, 5, 3, 2):
            base, gnames = _build_group(
                name, spec, kinds=["irregular"] * k, seed0=500
            )
            grp = _clone_group(base, gnames)
            with megabatch_collection(MegabatchCollector()):
                for args, _ in grp:
                    fn(**args, accel=None, use_accel=False)
        # Obs counts 2..5 pad to pow2 buckets {2, 4, 8}: at most three
        # fresh traces, and never an eviction when a count recurs.
        assert jf.n_traces - traces0 <= 3
        assert jf.cache_evictions - evict0 == 0


class TestBatchingRuleCoverage:
    def test_every_primitive_has_a_batching_rule(self):
        cov = batching_coverage()
        assert len(cov) >= 60
        holes = {n for n, ok in cov.items() if not ok}
        assert holes <= set(BATCHING_WAIVERS), sorted(holes - set(BATCHING_WAIVERS))

    def test_vmap_random_bits_matches_per_key_loop(self):
        keys = split(PRNGKey(42), 5)
        for fn, shape in ((normal, (8,)), (uniform, (3, 4))):
            batched = np.asarray(vmap(lambda k: fn(k, shape))(keys))
            looped = np.stack([np.asarray(fn(keys[i], shape)) for i in range(5)])
            assert batched.tobytes() == looped.tobytes(), fn.__name__


class TestPadIntervals:
    """Regression: zero-length observations."""

    def test_empty_interval_list(self):
        idx, valid, max_len = pad_intervals(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        )
        assert idx.shape == (0, 0) and valid.shape == (0, 0) and max_len == 0


def slab_lanes(pairs, n_rows):
    """The group lanes as an interval slab gives them (the reference).

    The members' lists stacked into an ``(n_rows, n_ivl)`` slab with
    degenerate ``(0, 0)`` padding, padded as one flat list, then every
    invalid lane of a row with work sent to the row's first valid sample.
    """
    n_ivl = max(len(starts) for starts, _ in pairs)
    starts2 = np.zeros((n_rows, n_ivl), dtype=np.int64)
    stops2 = np.zeros((n_rows, n_ivl), dtype=np.int64)
    for i, (starts, stops) in enumerate(pairs):
        starts2[i, : len(starts)] = starts
        stops2[i, : len(stops)] = stops
    idx, valid, max_len = pad_intervals(starts2.reshape(-1), stops2.reshape(-1))
    flat = idx.reshape(n_rows, -1)
    vmask = valid.reshape(n_rows, -1)
    if max_len == 0:
        return flat, vmask, max_len, np.zeros(n_rows, dtype=bool)
    rows = vmask.any(axis=1)
    anchor = np.where(rows, flat[np.arange(n_rows), np.argmax(vmask, axis=1)], 0)
    return np.where(vmask, flat, anchor[:, None]), vmask, max_len, rows


@st.composite
def member_lists(draw):
    """1-5 members' raw ``(starts, stops)``: lists of different lengths,
    empty lists, and spans that are empty, inverted or at the end."""
    n_samp = draw(st.integers(1, 48))
    pairs = []
    for _ in range(draw(st.integers(1, 5))):
        spans = draw(
            st.lists(st.tuples(st.integers(0, n_samp), st.integers(-3, 12)), max_size=6)
        )
        starts = np.array([a for a, _ in spans], dtype=np.int64)
        stops = np.array([min(max(a + d, 0), n_samp) for a, d in spans], dtype=np.int64)
        pairs.append((starts, stops))
    return pairs, len(pairs) + draw(st.integers(0, 3))


class TestGroupLanes:
    """The JAX stacked entry's lanes, composed from the members' own
    descriptors (``stacked.group_lanes``)."""

    @settings(max_examples=200, deadline=None)
    @given(member_lists())
    def test_lanes_equal_the_slab_derivation(self, case):
        pairs, n_rows = case
        got = stacked.group_lanes([Segments(*pair) for pair in pairs], n_rows)
        want = slab_lanes(pairs, n_rows)
        assert got[2] == want[2]
        for g, w in zip((got[0], got[1], got[3]), (want[0], want[1], want[3])):
            assert g.dtype == w.dtype and g.shape == w.shape
            np.testing.assert_array_equal(g, w)

    def test_stacked_launch_receives_the_group_lanes(self, monkeypatch):
        """Each stacked launch gets the group's ``flat``/``valid`` arrays
        themselves, not copies re-stacked from their rows."""
        from repro.jaxshim.api import JitFunction

        d_eager = make_data(n_obs=3)
        Pipeline(processing_ops(), implementation=ImplementationType.JAX).exec(
            d_eager, use_accel=True, accel=fresh_runtime()
        )
        seen = []
        real_lanes, real_call = stacked.group_lanes, JitFunction.__call__

        def recording_lanes(descriptors, n_rows):
            lanes = real_lanes(descriptors, n_rows)
            seen.append(("lanes", lanes))
            return lanes

        def recording_call(jf, *args, **kwargs):
            if jf.name.endswith("_megabatch"):
                seen.append((jf.name, args))
            return real_call(jf, *args, **kwargs)

        monkeypatch.setattr(stacked, "group_lanes", recording_lanes)
        monkeypatch.setattr(JitFunction, "__call__", recording_call)
        d = make_data(n_obs=3)
        pipe = Pipeline(processing_ops(), implementation=ImplementationType.JAX, plan="megabatch")
        pipe.exec(d, use_accel=True, accel=fresh_runtime())
        assert_bitwise_equal(d_eager, d)  # maps and timestreams
        # Each launch follows its own group_lanes call.
        launches = {
            name: (seen[i - 1][1], args)
            for i, (name, args) in enumerate(seen)
            if name != "lanes"
        }
        assert len(launches) == 6  # one per stacked kernel of the chain
        for name, ((flat, _, _, _), args) in launches.items():
            assert any(a is flat for a in args), name
        (_, valid, _, _), args = launches["_scan_map_megabatch"]
        assert any(a is valid for a in args)  # scan_map also reads the mask


class TestStackedFaultReplay:
    """A fault inside a stacked launch fires before any member body writes:
    the group replays eagerly and the run stays bitwise identical, for a
    fault at each stacked launch of the chain (set-style kernels and the
    ones that add into the timestream or the map)."""

    @pytest.mark.parametrize(
        "impl, site, kind",
        [
            (ImplementationType.OMP_TARGET, "ompshim.target_region", FaultKind.TARGET_FAIL),
            (ImplementationType.JAX, "device.launch", FaultKind.LAUNCH_FAIL),
        ],
        ids=["omp_target", "jax"],
    )
    def test_failed_stacked_launch_replays_bitwise(self, impl, site, kind):
        d_eager = make_data(n_obs=3)
        Pipeline(processing_ops(), implementation=impl).exec(
            d_eager, use_accel=True, accel=fresh_runtime()
        )
        pipe = Pipeline(processing_ops(), implementation=impl, plan="megabatch")
        pipe.exec(make_data(n_obs=3), use_accel=True, accel=fresh_runtime())  # traces

        def run(*nth):
            plan = FaultPlan("stacked-launch", (FaultSpec(site=site, kind=kind, nth=nth, max_fires=1),))
            d = make_data(n_obs=3)
            rt = fresh_runtime()
            with obs.tracing() as tracer, resilience.resilient(plan) as ctrl:
                ctrl.bind_clock(rt.device.clock)
                pipe.exec(d, use_accel=True, accel=rt)
            return d, ctrl, tracer.metrics.counters

        _, ctrl, _ = run(10**9)  # fires nothing; counts the site's calls
        n_calls = ctrl.injector.calls[site]
        assert n_calls == 6  # one stacked launch per kernel of the chain
        for n in range(1, n_calls + 1):
            d, ctrl, counters = run(n)
            assert ctrl.counters.get("faults_injected") == 1, n
            assert counters["megabatch.stacked_failures"].value == 1, n
            assert counters["megabatch.replayed_calls"].value == 3, n  # the group, eagerly
            assert_bitwise_equal(d_eager, d)
