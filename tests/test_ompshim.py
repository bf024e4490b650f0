"""Tests for the OpenMP Target Offload shim."""

import numpy as np
import pytest

from repro.accel import SimulatedDevice
from repro.kernels.common import host_parallel_for_collapse3, launcher_for
from repro.kernels.omp.stacked import stacked_entry
from repro.kernels.spec import ArgRole, ArgSpec, Intent, KernelSpec
from repro.ompshim import MapClause, MappingError, NotPresentError, OmpTargetRuntime


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
            tod=np.zeros((2, 3, 10)),
            starts=np.array([[0, 4], [6, 0]]),
            stops=np.array([[3, 9], [8, 0]]),
            accel=rt,
            use_accel=True,
        )
        assert rt.device.kernels_launched == launched + 1
        assert [g for g, _ in member_calls] == [(3, 2, 5), (3, 2, 2)]
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


class TestMapClauseEnum:
    def test_values(self):
        assert MapClause.TO.value == "to"
        assert MapClause.TOFROM.value == "tofrom"
