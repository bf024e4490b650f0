"""Tests for megabatch execution: stacked detector×observation launches.

The megabatch path's one hard promise mirrors the compiled pipeline's:
bitwise-identical results to eager per-observation dispatch, for every
backend, every grouping of observations into launch units, and every
worker count of the parallel pool — while launching strictly fewer
kernels.  These tests pin that promise at each layer: the collector
(kernel-level stacking), the pipeline (plan="megabatch" host and accel
paths), the planner (static launch accounting), the perf model (the
launches-saved term), the jaxshim (vmap batching rules and padded-shape
JIT cache buckets), and the parallel pool.
"""

import numpy as np
import pytest

from repro.compilepipe import build_plan, lower_workflow
from repro.compilepipe.planner import eager_launches, planned_launch_elisions
from repro.core import Data, ImplementationType, Pipeline
from repro.core.dispatch import get_kernel, megabatch_collection, use_implementation
from repro.jaxshim import PRNGKey, normal, split, uniform, vmap
from repro.jaxshim.primitives import BATCHING_WAIVERS, batching_coverage
from repro.kernels import MegabatchCollector, kernel_registry
from repro.kernels.common import pad_intervals, pad_intervals_grouped
from repro.kernels.jax import stacked
from repro.kernels.spec import ArgRole
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
    @pytest.mark.parametrize("group", [None, 1, 2, 3])
    def test_accel_parity(self, impl, group):
        d_eager = make_data(n_obs=3)
        Pipeline(processing_ops(), implementation=impl).exec(
            d_eager, use_accel=True, accel=fresh_runtime()
        )
        d = make_data(n_obs=3)
        p = Pipeline(
            processing_ops(),
            implementation=impl,
            plan="megabatch",
            megabatch_group=group,
        )
        p.exec(d, use_accel=True, accel=fresh_runtime())
        assert_bitwise_equal(d_eager, d)

    @pytest.mark.parametrize(
        "impl",
        [ImplementationType.NUMPY, ImplementationType.JAX, ImplementationType.OMP_TARGET],
        ids=lambda i: i.value,
    )
    @pytest.mark.parametrize("group", [None, 2])
    def test_host_parity(self, impl, group):
        d_eager = make_data(n_obs=3)
        Pipeline(processing_ops(), implementation=impl).exec(d_eager)
        d = make_data(n_obs=3)
        Pipeline(
            processing_ops(),
            implementation=impl,
            plan="megabatch",
            megabatch_group=group,
        ).exec(d)
        assert_bitwise_equal(d_eager, d)

    def test_random_groupings_parity(self):
        """Property: ANY grouping of observations gives identical maps."""
        rng = np.random.default_rng(7)
        d_eager = make_data(n_obs=4)
        Pipeline(
            processing_ops(), implementation=ImplementationType.OMP_TARGET
        ).exec(d_eager, use_accel=True, accel=fresh_runtime())
        for group in rng.integers(1, 5, size=4):
            d = make_data(n_obs=4)
            Pipeline(
                processing_ops(),
                implementation=ImplementationType.OMP_TARGET,
                plan="megabatch",
                megabatch_group=int(group),
            ).exec(d, use_accel=True, accel=fresh_runtime())
            assert_bitwise_equal(d_eager, d)

    def test_megabatch_group_validation(self):
        with pytest.raises(ValueError):
            Pipeline(processing_ops(), plan="megabatch", megabatch_group=0)
        with pytest.raises(ValueError):
            Pipeline(processing_ops(), plan="bogus")
        # A group size only means something to the megabatch plan.
        for plan in ("eager", "compiled"):
            with pytest.raises(ValueError, match="megabatch_group.*plan"):
                Pipeline(processing_ops(), plan=plan, megabatch_group=2)

    def test_megabatch_units_chunking(self):
        d = make_data(n_obs=5)
        pipe = Pipeline(processing_ops(), plan="megabatch", megabatch_group=2)
        units = pipe.work_units(d)
        assert [len(u.obs) for u in units] == [2, 2, 1]
        assert sum(len(u.obs) for u in units) == len(d.obs)
        (whole,) = Pipeline(processing_ops(), plan="megabatch").work_units(d)
        assert len(whole.obs) == 5


class TestLaunchAccounting:
    """Static plan, executed counters, and the perf-model term agree."""

    def _run(self, group, impl=ImplementationType.OMP_TARGET):
        d = make_data(n_obs=3)
        p = Pipeline(
            processing_ops(),
            implementation=impl,
            plan="megabatch",
            megabatch_group=group,
        )
        p.exec(d, use_accel=True, accel=fresh_runtime())
        return p.last_plan

    def test_omp_executed_matches_static(self):
        for group in (None, 1, 2, 3):
            plan = self._run(group)
            assert plan.executed["launches_elided"] == plan.launches_elided, group

    def test_jax_executed_matches_static(self):
        # Elisions count kernel dispatches, whatever each one launches.
        for group in (None, 1, 2, 3):
            plan = self._run(group, ImplementationType.JAX)
            assert plan.executed["launches_elided"] == plan.launches_elided, group

    def test_launches_monotone_in_group_size(self):
        """Bigger launch units never launch more kernels."""
        elided = [self._run(g).launches_elided for g in (1, 2, 3, None)]
        assert elided == sorted(elided)
        assert elided[-1] > elided[0]

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


class TestParallelMegabatch:
    """The pool: identical maps for any plan × worker count."""

    @pytest.mark.parametrize("n_procs", [1, 3])
    def test_parallel_megabatch_matches_parallel_eager(self, n_procs):
        from repro.parallel.satellite import run_parallel_satellite
        from repro.workflows.satellite import SIZES

        size = SIZES["tiny"]
        base = run_parallel_satellite(
            size, ImplementationType.OMP_TARGET, n_procs=2, plan="eager"
        )["zmap"]
        out = run_parallel_satellite(
            size, ImplementationType.OMP_TARGET, n_procs=n_procs, plan="megabatch"
        )["zmap"]
        assert np.asarray(base).tobytes() == np.asarray(out).tobytes()


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
    """Regression: zero-length observations and grouped padding rows."""

    def test_empty_interval_list(self):
        idx, valid, max_len = pad_intervals(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        )
        assert idx.shape == (0, 0) and valid.shape == (0, 0) and max_len == 0

    def test_grouped_padding_row_is_masked(self):
        starts = np.array([[0, 5], [0, 0]], dtype=np.int64)
        stops = np.array([[3, 8], [4, 0]], dtype=np.int64)
        idx, valid, max_len = pad_intervals_grouped(starts, stops)
        assert idx.shape == (2, 2, max_len)
        assert not valid[1, 1].any()  # the (0, 0) padding row
        assert valid[1, 0].sum() == 4


class TestGroupLanesCache:
    """The JAX stacked kernels of a flush share one derivation of the
    group's lanes per distinct interval slab (``stacked.group_lanes``)."""

    @staticmethod
    def _count(monkeypatch):
        derived, lookups = [], []
        real_pad, real_lanes = stacked.pad_intervals_grouped, stacked.group_lanes

        def counting_pad(starts, stops):
            derived.append(starts.shape)
            return real_pad(starts, stops)

        def counting_lanes(starts, stops):
            lookups.append(starts.shape)
            return real_lanes(starts, stops)

        monkeypatch.setattr(stacked, "pad_intervals_grouped", counting_pad)
        monkeypatch.setattr(stacked, "group_lanes", counting_lanes)
        stacked._slab_lanes.cache_clear()
        return derived, lookups

    @pytest.mark.parametrize(
        "n_obs, slabs",
        [
            (4, 1),  # jax-megabatch's group: padding to the bucket adds no rows
            (3, 2),  # padded to 4 rows, and unpadded for build_noise_weighted
        ],
    )
    def test_warm_unit_derives_lanes_once_per_slab(self, monkeypatch, n_obs, slabs):
        # The JAX chain on the device, every observation in one group.
        d_eager = make_data(n_obs=n_obs)
        Pipeline(processing_ops(), implementation=ImplementationType.JAX).exec(
            d_eager, use_accel=True, accel=fresh_runtime()
        )
        pipe = Pipeline(processing_ops(), implementation=ImplementationType.JAX, plan="megabatch")
        pipe.exec(make_data(n_obs=n_obs), use_accel=True, accel=fresh_runtime())  # traces
        derived, lookups = self._count(monkeypatch)
        # A unit with new slabs, then a unit whose data, and so whose
        # slabs, are identical: it derives none.
        for expected in (slabs, 0):
            derived.clear()
            lookups.clear()
            d = make_data(n_obs=n_obs)
            pipe.exec(d, use_accel=True, accel=fresh_runtime())
            assert len(lookups) == 6  # the six stacked kernels
            assert len(derived) == expected
            assert_bitwise_equal(d_eager, d)
            assert d["zmap"].tobytes() == d_eager["zmap"].tobytes()

    def test_cached_lanes_are_read_only(self):
        starts = np.array([[0, 5], [2, 0]], dtype=np.int64)
        stops = np.array([[3, 8], [6, 0]], dtype=np.int64)
        flat, valid, max_len, rows = stacked.group_lanes(starts, stops)
        assert max_len == 4
        for a in (flat, valid, rows):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[0]
        again = stacked.group_lanes(starts.copy(), stops.copy())
        assert all(x is y for x, y in zip(again, (flat, valid, max_len, rows)))

    def test_same_shape_other_values_get_their_own_lanes(self, monkeypatch):
        derived, _ = self._count(monkeypatch)
        starts = np.array([[0, 5], [2, 0]], dtype=np.int64)
        stops = np.array([[3, 8], [6, 0]], dtype=np.int64)
        first = stacked.group_lanes(starts, stops)
        other = stacked.group_lanes(starts, stops + np.array([[1, 0], [0, 0]]))
        assert len(derived) == 2
        assert other[2] == first[2] == 4
        assert not np.array_equal(other[0], first[0])
        assert not np.array_equal(other[1], first[1])
        stacked._slab_lanes.cache_clear()  # a fresh derivation agrees
        for cached, fresh in zip(other, stacked.group_lanes(starts, stops + [[1, 0], [0, 0]])):
            assert np.array_equal(cached, fresh)
        assert len(derived) == 3
