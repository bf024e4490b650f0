"""Pipeline integration tests: hybrid data movement, policies, dispatch."""

import numpy as np
import pytest

from repro import obs
from repro.accel import SimulatedDevice
from repro.core import (
    Data,
    ImplementationType,
    LoopOrder,
    MovementPolicy,
    Pipeline,
    fake_hexagon_focalplane,
)
from repro.core.operator import Operator
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
from repro.workflows.satellite import (
    SIZES,
    make_satellite_data,
    satellite_processing_pipeline,
)

NSIDE = 16


def make_data(n_samples=400, n_obs=1):
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


def fresh_runtime():
    return OmpTargetRuntime(SimulatedDevice(memory_bytes=1 << 28))


class TestPipelineBasics:
    def test_cpu_pipeline_runs(self):
        d = make_data()
        Pipeline(processing_ops(), implementation=ImplementationType.NUMPY).apply(d)
        assert np.any(d["zmap"] != 0)

    def test_traits_aggregate(self):
        pipe = Pipeline(processing_ops())
        prov = pipe.provides()
        assert "quats" in prov["detdata"]
        assert "zmap" in prov["meta"]
        req = pipe.requires()
        # Keys provided by earlier ops are not external requirements.
        assert "quats" not in req["detdata"]
        assert "boresight" in req["shared"]

    def test_supports_accel(self):
        assert Pipeline(processing_ops()).supports_accel()

    @pytest.mark.parametrize(
        "impl", [ImplementationType.JAX, ImplementationType.OMP_TARGET]
    )
    def test_accel_matches_cpu(self, impl):
        d_cpu = make_data()
        Pipeline(processing_ops(), implementation=ImplementationType.NUMPY).apply(d_cpu)

        d_gpu = make_data()
        Pipeline(processing_ops(), implementation=impl, accel=fresh_runtime()).apply(d_gpu)

        np.testing.assert_allclose(d_gpu["zmap"], d_cpu["zmap"], atol=1e-10)
        ob_cpu, ob_gpu = d_cpu.obs[0], d_gpu.obs[0]
        np.testing.assert_allclose(
            ob_gpu.detdata["signal"], ob_cpu.detdata["signal"], atol=1e-10
        )


class TestDataMovement:
    def test_device_clean_after_pipeline(self):
        rt = fresh_runtime()
        d = make_data()
        Pipeline(
            processing_ops(), implementation=ImplementationType.OMP_TARGET, accel=rt
        ).apply(d)
        # "any data left on the GPU is deleted" (paper 3.2.2).
        assert rt.device.allocated_bytes == 0
        assert len(rt.present) == 0

    def test_hybrid_fewer_transfers_than_naive(self):
        rt_hybrid = fresh_runtime()
        d1 = make_data()
        Pipeline(
            processing_ops(),
            implementation=ImplementationType.OMP_TARGET,
            accel=rt_hybrid,
            policy=MovementPolicy.HYBRID,
        ).apply(d1)

        rt_naive = fresh_runtime()
        d2 = make_data()
        Pipeline(
            processing_ops(),
            implementation=ImplementationType.OMP_TARGET,
            accel=rt_naive,
            policy=MovementPolicy.NAIVE,
        ).apply(d2)

        h2d_hybrid = rt_hybrid.device.clock.region_count("accel_data_update_device")
        h2d_naive = rt_naive.device.clock.region_count("accel_data_update_device")
        assert h2d_hybrid < h2d_naive
        # Both produce the same physics.
        np.testing.assert_allclose(d1["zmap"], d2["zmap"], atol=1e-12)
        # And less modeled transfer time overall: the paper's ~40% argument.
        t_hybrid = rt_hybrid.device.clock.region_time("accel_data_update_device")
        t_naive = rt_naive.device.clock.region_time("accel_data_update_device")
        assert t_hybrid < t_naive

    def test_cpu_op_in_gpu_pipeline_syncs(self):
        """A CPU-only operator between GPU ops forces a round trip."""

        class CpuDoubler(Operator):
            def requires(self):
                return {"shared": [], "detdata": ["signal"], "meta": []}

            def provides(self):
                return {"shared": [], "detdata": ["signal"], "meta": []}

            def supports_accel(self):
                return False

            def exec(self, data, use_accel=False, accel=None):
                assert not use_accel
                for ob in data.obs:
                    ob.detdata["signal"] *= 2.0

        ops = [
            PointingDetector(),
            PixelsHealpix(nside=NSIDE, nest=True),
            StokesWeights(mode="IQU"),
            ScanMap(),
            CpuDoubler(name="cpu_doubler"),
            NoiseWeight(),
            BuildNoiseWeighted(
                n_pix=healpix_npix(NSIDE), nnz=3, use_det_weights=False
            ),
        ]
        rt = fresh_runtime()
        d_gpu = make_data()
        Pipeline(ops, implementation=ImplementationType.OMP_TARGET, accel=rt).apply(d_gpu)

        # CPU reference with the same doubling.
        d_cpu = make_data()
        Pipeline(
            [
                PointingDetector(),
                PixelsHealpix(nside=NSIDE, nest=True),
                StokesWeights(mode="IQU"),
                ScanMap(),
            ],
            implementation=ImplementationType.NUMPY,
        ).apply(d_cpu)
        for ob in d_cpu.obs:
            ob.detdata["signal"] *= 2.0
        Pipeline(
            [
                NoiseWeight(),
                BuildNoiseWeighted(
                    n_pix=healpix_npix(NSIDE), nnz=3, use_det_weights=False
                ),
            ],
            implementation=ImplementationType.NUMPY,
        ).apply(d_cpu)

        np.testing.assert_allclose(d_gpu["zmap"], d_cpu["zmap"], atol=1e-10)

    def test_no_accel_runtime_means_cpu_fallback(self):
        # Accel implementation selected but no runtime given: host fallback.
        d = make_data()
        Pipeline(processing_ops(), implementation=ImplementationType.OMP_TARGET).apply(d)
        assert np.any(d["zmap"] != 0)

    def test_exception_in_operator_propagates(self):
        class Boom(Operator):
            def supports_accel(self):
                return True

            def exec(self, data, use_accel=False, accel=None):
                raise RuntimeError("boom")

        rt = fresh_runtime()
        d = make_data()
        with pytest.raises(RuntimeError, match="boom"):
            Pipeline(
                [PointingDetector(), Boom()],
                implementation=ImplementationType.OMP_TARGET,
                accel=rt,
            ).apply(d)


class TestJaxPipelineDeviceAccounting:
    def test_jit_compile_charged_once_across_repeats(self):
        rt = fresh_runtime()
        # An unusual sample count: the module-level jit caches are keyed on
        # shapes, so this forces a fresh trace regardless of test order.
        d = make_data(n_samples=413)
        pipe = Pipeline(
            processing_ops(), implementation=ImplementationType.JAX, accel=rt
        )
        pipe.apply(d)
        compile_after_first = rt.device.clock.region_time("jit_compile")
        assert compile_after_first > 0
        # Second identical run: cached executables, no recompilation.
        d2 = make_data(n_samples=413)
        pipe.apply(d2)
        assert rt.device.clock.region_time("jit_compile") == compile_after_first

    def test_kernels_launched_on_device(self):
        rt = fresh_runtime()
        d = make_data()
        Pipeline(processing_ops(), implementation=ImplementationType.JAX, accel=rt).apply(d)
        assert rt.device.kernels_launched > 0


class TestLoopOrder:
    """The §3.2.2 looping patterns: observation-major vs operator-major."""

    def test_work_units(self):
        from repro.core import Data, LoopOrder

        d, empty = make_data(n_obs=3), Data()
        obs_major = Pipeline(processing_ops(), order=LoopOrder.OBSERVATION_MAJOR)
        per_obs = obs_major.work_units(d)
        assert [u.obs for u in per_obs] == [[ob] for ob in d.obs]
        assert all(u.meta is d.meta and u.comm is d.comm for u in per_obs)
        assert obs_major.work_units(empty) == []
        assert Pipeline(processing_ops()).work_units(d) == [d]
        assert Pipeline(processing_ops(), plan="megabatch").work_units(empty) == [empty]

    def test_orders_produce_identical_results(self):
        from repro.core import LoopOrder

        d1 = make_data(n_obs=3)
        Pipeline(
            processing_ops(),
            implementation=ImplementationType.NUMPY,
            order=LoopOrder.OPERATOR_MAJOR,
        ).apply(d1)

        d2 = make_data(n_obs=3)
        Pipeline(
            processing_ops(),
            implementation=ImplementationType.NUMPY,
            order=LoopOrder.OBSERVATION_MAJOR,
        ).apply(d2)

        np.testing.assert_allclose(d2["zmap"], d1["zmap"], atol=1e-12)
        for ob1, ob2 in zip(d1.obs, d2.obs):
            np.testing.assert_allclose(
                ob2.detdata["signal"], ob1.detdata["signal"], atol=1e-12
            )

    def test_orders_agree_on_accel(self):
        from repro.core import LoopOrder

        d1 = make_data(n_obs=3)
        Pipeline(
            processing_ops(),
            implementation=ImplementationType.OMP_TARGET,
            accel=fresh_runtime(),
            order=LoopOrder.OPERATOR_MAJOR,
        ).apply(d1)

        d2 = make_data(n_obs=3)
        rt2 = fresh_runtime()
        Pipeline(
            processing_ops(),
            implementation=ImplementationType.OMP_TARGET,
            accel=rt2,
            order=LoopOrder.OBSERVATION_MAJOR,
        ).apply(d2)

        np.testing.assert_allclose(d2["zmap"], d1["zmap"], atol=1e-12)
        assert rt2.device.allocated_bytes == 0  # clean exit per observation

    def test_observation_major_lower_device_footprint(self):
        """One observation resident at a time: lower device high-water."""
        from repro.core import LoopOrder

        def high_water(order):
            rt = fresh_runtime()
            d = make_data(n_obs=4, n_samples=2000)
            Pipeline(
                processing_ops(),
                implementation=ImplementationType.OMP_TARGET,
                accel=rt,
                order=order,
            ).apply(d)
            return rt.device.pool.high_water_bytes

        assert high_water(LoopOrder.OBSERVATION_MAJOR) < high_water(
            LoopOrder.OPERATOR_MAJOR
        )

    def test_finalize_runs_once(self):
        """The cross-observation reduction happens once, after all units."""
        from repro.core import LoopOrder

        d = make_data(n_obs=2)
        pipe = Pipeline(
            processing_ops(),
            implementation=ImplementationType.NUMPY,
            order=LoopOrder.OBSERVATION_MAJOR,
        )
        pipe.apply(d)
        # zmap accumulated contributions from both observations.
        d_single = make_data(n_obs=1)
        Pipeline(
            processing_ops(), implementation=ImplementationType.NUMPY
        ).apply(d_single)
        assert not np.allclose(d["zmap"], d_single["zmap"])


class TestEagerSchedules:
    """The NAIVE and HYBRID transfer schedules, pinned on the tiny chain.

    Per (policy, loop order): H2D copies, D2H copies, device allocations,
    H2D bytes, D2H bytes, and the modeled seconds of the two copy regions.
    The movement is the same on both accelerated backends; only the
    launch counts differ (the jaxshim port launches per traced kernel).
    """

    MOVEMENT = {
        (MovementPolicy.NAIVE, LoopOrder.OPERATOR_MAJOR): (
            36, 11, 36, 2004992, 729088, 0.00044019968, 0.00013916352,
        ),
        (MovementPolicy.NAIVE, LoopOrder.OBSERVATION_MAJOR): (
            38, 12, 38, 2152448, 802816, 0.00046609792, 0.00015211264,
        ),
        (MovementPolicy.HYBRID, LoopOrder.OPERATOR_MAJOR): (
            16, 9, 16, 821248, 663552, 0.00019284992, 0.00011654208,
        ),
        (MovementPolicy.HYBRID, LoopOrder.OBSERVATION_MAJOR): (
            18, 10, 18, 968704, 737280, 0.00021874816, 0.0001294912,
        ),
    }
    LAUNCHES = {ImplementationType.OMP_TARGET: 12, ImplementationType.JAX: 126}

    @pytest.mark.parametrize(
        "impl", [ImplementationType.OMP_TARGET, ImplementationType.JAX]
    )
    @pytest.mark.parametrize("policy", [MovementPolicy.NAIVE, MovementPolicy.HYBRID])
    @pytest.mark.parametrize(
        "order", [LoopOrder.OPERATOR_MAJOR, LoopOrder.OBSERVATION_MAJOR]
    )
    def test_counts_bytes_and_copy_seconds(self, impl, policy, order):
        size = SIZES["tiny"]
        rt = OmpTargetRuntime()
        data = make_satellite_data(size, realization=0)
        pipe = Pipeline(
            satellite_processing_pipeline(size.nside).operators,
            implementation=impl,
            accel=rt,
            policy=policy,
            order=order,
        )
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            pipe.exec(data, use_accel=True, accel=rt)
        h2d, d2h, allocs, h2d_bytes, d2h_bytes, h2d_s, d2h_s = self.MOVEMENT[
            (policy, order)
        ]
        assert len(tracer.events_of(EventType.H2D)) == h2d
        assert len(tracer.events_of(EventType.D2H)) == d2h
        assert len(tracer.events_of(EventType.ALLOC)) == allocs
        assert rt.device.kernels_launched == self.LAUNCHES[impl]
        m = tracer.metrics
        assert m.counter("transfer.h2d_bytes").value == h2d_bytes
        assert m.counter("transfer.d2h_bytes").value == d2h_bytes
        clock = rt.device.clock
        assert clock.region_time("accel_data_update_device") == pytest.approx(
            h2d_s, rel=1e-12
        )
        assert clock.region_time("accel_data_update_host") == pytest.approx(
            d2h_s, rel=1e-12
        )
        assert rt.device.allocated_bytes == 0
