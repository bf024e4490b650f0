"""Tests for the OpenMP Target Offload shim."""

import tracemalloc

import numpy as np
import pytest

from repro import obs
from repro.accel import SimulatedDevice
from repro.core.dispatch import ImplementationType, kernel_registry
from repro.kernels.common import host_parallel_for_collapse3, launcher_for, recording_launches
from repro.kernels.omp.stacked import stacked_entry
from repro.kernels.spec import ArgRole, ArgSpec, Intent, KernelSpec
from repro.math import IntervalList
from repro.math.rows import put_lanes
from repro.math.segments import Segments
from repro.obs.events import EventType
from repro.ompshim import LoopNest, MapClause, MappingError, NotPresentError, OmpTargetRuntime
from repro.workflows.microbench import kernel_cases, make_intervals
from repro.workflows.satellite import same_bits


@pytest.fixture
def rt():
    return OmpTargetRuntime(SimulatedDevice(memory_bytes=1 << 24))


class TestDeviceAPI:
    def test_alloc_free(self, rt):
        buf = rt.omp_target_alloc(1024)
        assert rt.device.allocated_bytes >= 1024
        rt.omp_target_free(buf)
        assert rt.device.allocated_bytes == 0

    def test_memcpy_roundtrip(self, rt):
        host = np.arange(128, dtype=np.float64)
        buf = rt.omp_target_alloc(host.nbytes)
        rt.omp_target_memcpy(buf, host, host.nbytes, "h2d")
        out = np.zeros_like(host)
        rt.omp_target_memcpy(out, buf, host.nbytes, "d2h")
        assert np.array_equal(out, host)

    def test_memcpy_bad_direction(self, rt):
        buf = rt.omp_target_alloc(8)
        with pytest.raises(MappingError):
            rt.omp_target_memcpy(buf, np.zeros(1), 8, "sideways")

    def test_memcpy_wrong_operands(self, rt):
        buf = rt.omp_target_alloc(8)
        with pytest.raises(MappingError):
            rt.omp_target_memcpy(np.zeros(1), np.zeros(1), 8, "h2d")
        with pytest.raises(MappingError):
            rt.omp_target_memcpy(buf, buf, 8, "d2h")

    def test_memcpy_oversize(self, rt):
        buf = rt.omp_target_alloc(8)
        with pytest.raises(MappingError):
            rt.omp_target_memcpy(buf, np.zeros(1), 4096, "h2d")

    def test_num_devices(self, rt):
        assert rt.omp_get_num_devices() == 1


class TestPresentTable:
    def test_enter_exit_roundtrip(self, rt):
        x = np.arange(16.0)
        rt.target_enter_data(to=[x])
        assert rt.is_present(x)
        view = rt.device_view(x)
        assert np.array_equal(view, x)
        rt.target_exit_data(release=[x])
        assert not rt.is_present(x)
        assert rt.device.allocated_bytes == 0

    def test_not_present_raises(self, rt):
        with pytest.raises(NotPresentError):
            rt.device_view(np.zeros(4))
        with pytest.raises(NotPresentError):
            rt.target_update_from(np.zeros(4))

    def test_refcounting(self, rt):
        x = np.arange(8.0)
        rt.target_enter_data(to=[x])
        rt.target_enter_data(to=[x])  # nested: refcount 2
        rt.target_exit_data(release=[x])
        assert rt.is_present(x)  # still mapped
        rt.target_exit_data(release=[x])
        assert not rt.is_present(x)

    def test_nested_entry_does_not_recopy(self, rt):
        x = np.arange(8.0)
        rt.target_enter_data(to=[x])
        n = rt.device.clock.region_count("accel_data_update_device")
        rt.target_enter_data(to=[x])  # present: no transfer
        assert rt.device.clock.region_count("accel_data_update_device") == n
        rt.target_exit_data(release=[x])
        rt.target_exit_data(release=[x])

    def test_refcount_underflow(self, rt):
        x = np.arange(8.0)
        rt.target_enter_data(to=[x])
        rt.target_exit_data(release=[x])
        with pytest.raises((NotPresentError, MappingError)):
            rt.target_exit_data(release=[x])

    def test_exit_from_copies_back(self, rt):
        x = np.zeros(8)
        rt.target_enter_data(to=[x])
        rt.device_view(x)[:] = 5.0
        rt.target_exit_data(from_=[x])
        assert np.all(x == 5.0)

    def test_delete_discards(self, rt):
        x = np.zeros(8)
        rt.target_enter_data(to=[x])
        rt.device_view(x)[:] = 5.0
        rt.target_exit_data(delete=[x])
        assert np.all(x == 0.0)
        assert not rt.is_present(x)

    def test_alloc_clause_no_copy(self, rt):
        x = np.full(8, 3.0)
        rt.target_enter_data(alloc=[x])
        # alloc: device storage is zero-initialized, host value not copied.
        assert np.all(rt.device_view(x) == 0.0)
        rt.target_exit_data(release=[x])

    def test_noncontiguous_rejected(self, rt):
        x = np.zeros((4, 4))[:, ::2]
        with pytest.raises(MappingError):
            rt.target_enter_data(to=[x])

    def test_non_array_rejected(self, rt):
        with pytest.raises(MappingError):
            rt.target_enter_data(to=[[1, 2, 3]])

    def test_update_to_from(self, rt):
        x = np.zeros(4)
        rt.target_enter_data(to=[x])
        x[:] = 7.0
        rt.target_update_to(x)
        assert np.all(rt.device_view(x) == 7.0)
        rt.device_view(x)[:] = 9.0
        rt.target_update_from(x)
        assert np.all(x == 9.0)
        rt.target_exit_data(release=[x])


class TestTargetDataRegion:
    def test_tofrom_region(self, rt):
        x = np.arange(8.0)
        with rt.target_data(tofrom=[x]):
            dv = rt.device_view(x)
            dv *= 2.0
        assert np.allclose(x, np.arange(8.0) * 2)
        assert rt.device.allocated_bytes == 0

    def test_to_region_no_copy_back(self, rt):
        x = np.arange(8.0)
        with rt.target_data(to=[x]):
            rt.device_view(x)[:] = -1.0
        assert np.allclose(x, np.arange(8.0))

    def test_from_region_allocates_then_copies_back(self, rt):
        out = np.zeros(8)
        with rt.target_data(from_=[out]):
            rt.device_view(out)[:] = 4.0
        assert np.all(out == 4.0)

    def test_nested_regions(self, rt):
        x = np.zeros(8)
        with rt.target_data(tofrom=[x]):
            with rt.target_data(to=[x]):
                rt.device_view(x)[:] = 1.0
            assert rt.is_present(x)
        assert np.all(x == 1.0)

    def test_region_frees_on_exception(self, rt):
        x = np.zeros(8)
        with pytest.raises(RuntimeError, match="boom"):
            with rt.target_data(tofrom=[x]):
                raise RuntimeError("boom")
        assert not rt.is_present(x)
        assert rt.device.allocated_bytes == 0

    def test_transfers_charged(self, rt):
        x = np.zeros(1 << 16)
        with rt.target_data(tofrom=[x]):
            pass
        assert rt.device.clock.region_time("accel_data_update_device") > 0
        assert rt.device.clock.region_time("accel_data_update_host") > 0


class TestKernelLaunch:
    def test_collapse3_executes_body(self, rt):
        data = np.zeros((2, 3, 8))
        with rt.target_data(tofrom=[data]):
            d = rt.device_view(data)

            def body(i, j, k):
                d[i, j, k] = i * 100 + j * 10 + k

            rt.target_teams_distribute_parallel_for("k", (2, 3, 8), body)
        i, j, k = np.meshgrid(np.arange(2), np.arange(3), np.arange(8), indexing="ij")
        assert np.array_equal(data, i * 100 + j * 10 + k)

    def test_interval_guard_pattern(self, rt):
        """The paper's padding guard: lanes beyond the interval are no-ops."""
        data = np.zeros((1, 2, 10))
        stops = np.array([4, 7])
        with rt.target_data(tofrom=[data]):
            d = rt.device_view(data)

            def body(i, j, k):
                m = k < stops[j]  # the in-loop conditional
                d[i[m], j[m], k[m]] = 1.0

            rt.target_teams_distribute_parallel_for("k", (1, 2, 10), body)
        assert data[0, 0].sum() == 4
        assert data[0, 1].sum() == 7

    def test_launch_charges_device(self, rt):
        rt.target_teams_distribute_parallel_for(
            "mykernel", (4, 4, 1024), lambda i, j, k: None
        )
        assert rt.device.clock.region_time("mykernel") > 0
        assert rt.device.kernels_launched == 1

    def test_cost_scales_with_grid(self, rt):
        rt.target_teams_distribute_parallel_for("small", (1, 1, 1024), lambda i, j, k: None)
        rt.target_teams_distribute_parallel_for("big", (8, 8, 1024), lambda i, j, k: None)
        assert rt.device.clock.region_time("big") > rt.device.clock.region_time("small")

    def test_negative_grid_rejected(self, rt):
        with pytest.raises(ValueError):
            rt.target_teams_distribute_parallel_for("k", (-1, 1, 1), lambda i, j, k: None)

    def test_host_launcher_rejects_negative_grid(self):
        with pytest.raises(ValueError):
            host_parallel_for_collapse3("k", (-1, 1, 4), lambda i, j, k: None)

    def test_empty_grid_never_calls_body(self, rt):
        def body(i, j, k):
            raise AssertionError("body called on an empty grid")

        for launch in (rt.target_teams_distribute_parallel_for, host_parallel_for_collapse3):
            launch("k", (2, 0, 4), body)
            launch("k", (2, 3, 0), body)
        assert rt.device.kernels_launched == 2

    def test_body_called_once_in_loop_order(self, rt):
        """One body call per launch, over the iterations in loop order
        (i outermost, k innermost): in-body scatters add in the order of
        the nested loop."""
        grid = (2, 3, 5)
        for launch in (rt.target_teams_distribute_parallel_for, host_parallel_for_collapse3):
            calls = []
            launch("k", grid, lambda i, j, k: calls.append(np.stack((i, j, k))))
            assert len(calls) == 1
            np.testing.assert_array_equal(calls[0], np.indices(grid).reshape(3, -1))

        # A stacked (megabatch) launch: one body call per member, on that
        # member's own iterations -- lanes cut at its own max_len.
        member_calls = []

        def probe(tod, starts, stops, accel=None, use_accel=False):
            member_grid = (tod.shape[0], len(starts), int(np.max(stops - starts)))

            def body(i, j, k):
                member_calls.append((member_grid, np.stack((i, j, k))))

            launcher_for(accel, use_accel)("probe", member_grid, body)

        spec = KernelSpec(
            "probe",
            args=(
                ArgSpec("tod", Intent.INOUT, ArgRole.DETDATA, np.float64, ("n_det", "n_samp")),
                ArgSpec("starts", Intent.IN, ArgRole.INTERVALS, np.int64, ("n_ivl",)),
                ArgSpec("stops", Intent.IN, ArgRole.INTERVALS, np.int64, ("n_ivl",)),
            ),
            megabatch=True,
        )
        launched = rt.device.kernels_launched
        stacked_entry(spec, probe)(
            tod=(np.zeros((3, 10)), np.zeros((3, 10))),
            starts=(np.array([0, 4]), np.array([6])),
            stops=(np.array([3, 9]), np.array([8])),
            accel=rt,
            use_accel=True,
        )
        assert rt.device.kernels_launched == launched + 1
        assert [g for g, _ in member_calls] == [(3, 2, 5), (3, 1, 2)]
        for member_grid, ijk in member_calls:
            np.testing.assert_array_equal(ijk, np.indices(member_grid).reshape(3, -1))

    def test_reset(self, rt):
        x = np.zeros(8)
        rt.target_enter_data(to=[x])
        rt.target_teams_distribute_parallel_for("k", (1, 1, 8), lambda i, j, k: None)
        rt.reset()
        assert not rt.is_present(x)
        assert rt.device.allocated_bytes == 0
        assert rt.device.clock.now == 0.0


def guarded(n_det, starts, stops):
    """The iterations a collapse(3) body saw before the launchers took
    spans: the padded grid's, cut by the in-loop guard."""
    lengths = np.maximum(stops - starts, 0)
    grid = (n_det, len(starts), int(lengths.max(initial=0)))
    i, j, k = np.indices(grid).reshape(3, -1)
    keep = k < stops[j] - starts[j]
    return grid, np.stack((i[keep], j[keep], k[keep]))


def swept(i, j, k, seg):
    """The iterations a span launch's body runs, in loop order: its
    detector column ``i`` by the in-interval samples of the launch's
    descriptor ``seg`` (``j`` and ``k`` are None), from the descriptor's
    own fields."""
    assert j is None and k is None
    np.testing.assert_array_equal(i, np.arange(len(i))[:, None])
    ivl = np.repeat(np.arange(len(seg)), seg.lengths)
    lane = seg.flat - seg.starts[ivl]
    return np.stack(np.broadcast_arrays(i, ivl, lane)).reshape(3, -1)


def span_lists():
    """Every ``make_intervals`` kind, an all-degenerate list, a list's own
    read-only pair, and random lists (overlap-free, some spans degenerate)."""
    n_samp = 64
    cases = {kind: make_intervals(n_samp, kind) for kind in ("irregular", "full", "empty", "degenerate")}
    cases["all-degenerate"] = (np.array([3, 9, 20]), np.array([3, 5, 20]))
    cases["owned"] = IntervalList([(2, 9), (12, 40), (41, 44)]).as_arrays()
    rng = np.random.default_rng(26)
    for n in range(6):
        edges = np.sort(rng.choice(n_samp + 1, 2 * (n + 1), replace=False)).astype(np.int64)
        starts, stops = edges[0::2], edges[1::2].copy()
        degenerate = rng.random(n + 1) < 0.3  # made empty or inverted
        stops[degenerate] = starts[degenerate] - rng.integers(0, 2, int(degenerate.sum()))
        cases[f"random{n}"] = (starts, stops)
    return cases


SPAN_LISTS = span_lists()


class TestSpanLaunch:
    """The launchers over ``(n_det, starts, stops)``: the guard applied once,
    in the launcher, from the intervals' segment descriptor."""

    @pytest.mark.parametrize("case", sorted(SPAN_LISTS))
    @pytest.mark.parametrize("n_det", [1, 3])
    def test_body_sees_the_guarded_iterations(self, rt, case, n_det):
        starts, stops = SPAN_LISTS[case]
        extents, want = guarded(n_det, starts, stops)
        launchers = {
            "device": rt.target_teams_distribute_parallel_for,
            "host": host_parallel_for_collapse3,
        }
        for where, launch in launchers.items():
            calls = []
            grid = LoopNest((n_det, starts, stops))
            launch("k", grid, lambda i, j, k: calls.append(swept(i, j, k, grid.segments)))
            if want.size:
                assert len(calls) == 1, where
                np.testing.assert_array_equal(calls[0], want)
            else:
                assert calls == [], where
        # The recorder keeps the nest for a stacked launch, or nothing.
        with recording_launches() as record:
            launcher_for(rt, True)("k", (n_det, starts, stops), lambda i, j, k: None)
        if extents[2]:
            assert record.nest.extents == extents
            got = swept(*record.nest.iterations(), record.nest.segments)
            np.testing.assert_array_equal(got, want)
        else:
            assert record.body is None

    @pytest.mark.parametrize("case", ["irregular", "degenerate", "random3"])
    def test_charge_event_and_count_follow_padded_grid(self, case):
        starts, stops = SPAN_LISTS[case]
        grid, _ = guarded(4, starts, stops)
        spans, plain = OmpTargetRuntime(SimulatedDevice()), OmpTargetRuntime(SimulatedDevice())
        with obs.tracing() as tracer:
            spans.target_teams_distribute_parallel_for(
                "k", (4, starts, stops), lambda i, j, k: None, flops_per_iteration=7.0
            )
        plain.target_teams_distribute_parallel_for(
            "k", grid, lambda i, j, k: None, flops_per_iteration=7.0
        )
        assert spans.device.kernels_launched == plain.device.kernels_launched == 1
        assert spans.device.clock.region_time("k") == plain.device.clock.region_time("k") > 0
        (event,) = [e for e in tracer.events_of(EventType.TARGET_REGION) if e.name == "target_teams.k"]
        assert event.attrs["grid"] == list(grid)

    @pytest.mark.parametrize("case", ["empty", "all-degenerate"])
    def test_no_samples_launch_nothing(self, rt, case):
        starts, stops = SPAN_LISTS[case]

        def body(i, j, k):
            raise AssertionError("body called without samples")

        rt.target_teams_distribute_parallel_for("k", (4, starts, stops), body)
        host_parallel_for_collapse3("k", (4, starts, stops), body)
        assert rt.device.kernels_launched == 0
        assert rt.device.clock.now == 0.0
        # No detectors is still a launch over a (0, n_ivl, max_len) grid.
        starts, stops = SPAN_LISTS["irregular"]
        rt.target_teams_distribute_parallel_for("k", (0, starts, stops), body)
        assert rt.device.kernels_launched == 1

    def test_nest_of_a_list_reads_its_descriptor(self):
        il = IntervalList([(0, 5), (8, 20)])
        nest = LoopNest((2, *il.as_arrays()))
        assert nest.segments is il.segments
        assert nest.extents == (2, 2, 12) and nest.size == 48 and nest.segments.n_samples == 17
        assert LoopNest.of(nest) is nest
        with pytest.raises(ValueError):
            LoopNest((-1, *il.as_arrays()))

    def test_stacked_members_get_their_own_iterations(self, rt):
        """A stacked launch over span nests: charged for the padded stacked
        grid, one body call with one open grid per member, and each member
        body sees exactly its own guarded iterations, read from its own
        list's descriptor -- a member without samples is skipped."""
        member_calls = []

        def probe(tod, starts, stops, accel=None, use_accel=False):
            grid = LoopNest((tod.shape[0], starts, stops))

            def body(i, j, k):
                member_calls.append(swept(i, j, k, grid.segments))

            launcher_for(accel, use_accel)("probe", grid, body)

        spec = KernelSpec(
            "probe",
            args=(
                ArgSpec("tod", Intent.INOUT, ArgRole.DETDATA, np.float64, ("n_det", "n_samp")),
                ArgSpec("starts", Intent.IN, ArgRole.INTERVALS, np.int64, ("n_ivl",)),
                ArgSpec("stops", Intent.IN, ArgRole.INTERVALS, np.int64, ("n_ivl",)),
            ),
            megabatch=True,
        )
        # Each member's own lists (the longest has 3 intervals).
        starts = [np.array([0, 4, 9]), np.array([6]), np.array([2, 2]), np.array([1, 5])]
        stops = [np.array([3, 9, 9]), np.array([8]), np.array([2, 1]), np.array([4, 11])]
        stacked_calls = []
        launch = rt.target_teams_distribute_parallel_for

        def spying(name, grid, body, **kwargs):
            def spy(i, j, k):
                stacked_calls.append(
                    [swept(*member, nest.segments) for *member, nest in zip(i, j, k, grid.members)]
                )
                body(i, j, k)

            launch(name, grid, spy, **kwargs)

        rt.target_teams_distribute_parallel_for = spying
        tods = tuple(np.zeros((3, 12)) for _ in starts)
        stacked_entry(spec, probe)(
            tod=tods, starts=tuple(starts), stops=tuple(stops), accel=rt, use_accel=True
        )
        assert rt.device.kernels_launched == 1
        # Charged for the padded (n_obs * n_det, n_ivl, max_len) grid.
        reference = OmpTargetRuntime(SimulatedDevice())
        reference.target_teams_distribute_parallel_for("probe.megabatch", (12, 3, 6), lambda *ijk: None)
        assert rt.device.clock.now == reference.device.clock.now
        members = [0, 1, 3]  # member 2 holds no sample
        wants = [guarded(3, starts[m], stops[m])[1] for m in members]
        (stacked,) = stacked_calls
        for calls in (member_calls, stacked):
            assert len(calls) == len(members)
            for got, want in zip(calls, wants):
                np.testing.assert_array_equal(got, want)


OMP = ImplementationType.OMP_TARGET


def run_omp(name, args, use_accel):
    """Run OpenMP kernel ``name`` on ``args``, on a fresh device or the host."""
    fn = kernel_registry.get(name, OMP, allow_fallback=False)
    if not use_accel:
        fn(**args)
        return
    accel = OmpTargetRuntime(SimulatedDevice(memory_bytes=1 << 26))
    mapped = [a for a in args.values() if isinstance(a, np.ndarray)]
    accel.target_enter_data(to=mapped)
    fn(**args, accel=accel, use_accel=True)
    for arr in mapped:
        accel.target_update_from(arr)
    accel.target_exit_data(release=mapped)


class TestOpenGrid:
    """A span launch hands its body an open grid, not per-iteration vectors."""

    def test_open_grid_views_the_descriptor(self):
        """The grid is the detector column; the samples are the list's own
        descriptor, which the body reads through the nest."""
        il = IntervalList([(2, 9), (12, 40), (41, 44)])
        nest = LoopNest((3, *il.as_arrays()))
        i, j, k = nest.iterations()
        np.testing.assert_array_equal(i, [[0], [1], [2]])
        assert j is None and k is None
        assert nest.segments is il.segments
        assert swept(i, j, k, nest.segments).shape == (3, 3 * il.n_samples)

    def test_launch_allocates_nothing_per_detector_sample(self, rt):
        n_det, n_samp = 32, 1 << 14
        il = IntervalList([(0, n_samp // 3), (n_samp // 3 + 8, n_samp)])
        bound = n_det * il.n_samples  # one byte per iteration
        for launch in (rt.target_teams_distribute_parallel_for, host_parallel_for_collapse3):
            tracemalloc.start()
            try:
                launch("k", (n_det, *il.as_arrays()), lambda i, j, k: None)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (launch, peak)

    @pytest.mark.parametrize("use_accel", [False, True], ids=["host", "device"])
    def test_kernels_give_the_same_bits_on_flat_vectors(self, monkeypatch, use_accel):
        """Every registered OpenMP kernel gives the same bits whether its body
        moves whole interval runs (``Segments.take``/``put``) or moves
        through the flat index vectors they replace (``np.take`` and
        ``put_lanes`` over the descriptor's ``flat``), with and without
        (shared and detector) flags, over every interval kind that launches."""

        def take(seg, a, axis=1):
            return np.take(a, seg.flat, axis=axis)

        def put(seg, a, values, axis=1):
            assert axis == 1
            put_lanes(a, seg.flat, values)

        n_det, n_samp = 3, 120
        movers = ((Segments.take, Segments.put), (take, put))
        for kind in ("irregular", "full", "degenerate"):
            for with_flags in (True, False):
                cases = kernel_cases(
                    n_det=n_det, n_samp=n_samp, intervals=kind, with_flags=with_flags
                )
                names = [n for n in cases if OMP in kernel_registry.implementations(n)]
                assert len(names) >= 11
                for name in names:
                    outputs = []
                    for mover_take, mover_put in movers:
                        monkeypatch.setattr(Segments, "take", mover_take)
                        monkeypatch.setattr(Segments, "put", mover_put)
                        args, outs = cases[name]()
                        run_omp(name, args, use_accel)
                        outputs.append([args[k] for k in outs])
                    for got, want in zip(*outputs):
                        assert same_bits(got, want), (name, kind, with_flags)


class TestMapClauseEnum:
    def test_values(self):
        assert MapClause.TO.value == "to"
        assert MapClause.TOFROM.value == "tofrom"
