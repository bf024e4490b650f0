"""Tests for the satellite workflow assembly and figure reports."""

from pathlib import Path

import numpy as np
import pytest

from repro.accel import SimulatedDevice
from repro.core import ImplementationType, MovementPolicy
from repro.kernels import BENCHMARK_KERNELS, KERNEL_NAMES
from repro.ompshim import OmpTargetRuntime
from repro.perfmodel import Backend
from repro.workflows.report import (
    fig2_loc_total,
    fig3_loc_per_kernel,
    fig4_process_sweep,
    fig5_full_benchmark,
    fig6_per_kernel,
    loc_per_kernel,
    loc_totals,
)
from repro.workflows.satellite import (
    SIZES,
    make_satellite_data,
    run_satellite_benchmark,
    satellite_processing_pipeline,
)


REPORTS = Path(__file__).resolve().parent.parent / "benchmarks" / "reports"


class TestSizes:
    def test_paper_medium_matches_5e9_samples(self):
        # §4: medium uses 5e9 samples (~1 TB).
        size = SIZES["paper_medium"]
        assert size.total_samples == pytest.approx(5.0e9, rel=0.01)
        assert size.total_bytes == pytest.approx(1.0e12, rel=0.01)

    def test_paper_large_is_10x_medium(self):
        assert SIZES["paper_large"].total_samples == pytest.approx(
            10 * SIZES["paper_medium"].total_samples, rel=0.01
        )

    def test_detector_count_couple_thousand(self):
        # "a typical instrument configuration with a couple thousand
        # detectors".
        assert 1000 <= SIZES["paper_medium"].n_detectors <= 4000

    def test_live_sizes_are_small(self):
        for name in ("tiny", "small", "medium_scaled"):
            assert SIZES[name].total_samples < 10_000_000


class TestMakeData:
    def test_contents(self):
        data = make_satellite_data(SIZES["tiny"])
        assert len(data.obs) == SIZES["tiny"].n_observations
        assert "sky_map" in data
        ob = data.obs[0]
        assert "boresight" in ob.shared
        assert "signal" in ob.detdata
        assert ob.detdata["signal"].std() > 0  # noise present

    def test_realizations_differ(self):
        a = make_satellite_data(SIZES["tiny"], realization=0)
        b = make_satellite_data(SIZES["tiny"], realization=1)
        assert not np.array_equal(
            a.obs[0].detdata["signal"], b.obs[0].detdata["signal"]
        )

    def test_deterministic(self):
        a = make_satellite_data(SIZES["tiny"])
        b = make_satellite_data(SIZES["tiny"])
        np.testing.assert_array_equal(
            a.obs[0].detdata["signal"], b.obs[0].detdata["signal"]
        )


class TestPipelineAssembly:
    def test_operator_order(self):
        pipe = satellite_processing_pipeline(nside=16)
        names = [op.name for op in pipe.operators]
        assert names.index("pointing_detector") < names.index("pixels_healpix")
        assert names.index("pixels_healpix") < names.index("scan_map")
        assert names.index("noise_weight") < names.index("build_noise_weighted")

    def test_all_gpu_capable(self):
        pipe = satellite_processing_pipeline(nside=16)
        assert all(op.supports_accel() for op in pipe.operators)


class TestRunBenchmark:
    def test_result_keys(self):
        res = run_satellite_benchmark(SIZES["tiny"], ImplementationType.NUMPY)
        for key in ("zmap", "destriped_map", "wall_seconds", "mapmaker_iterations"):
            assert key in res

    def test_accel_adds_accounting(self):
        rt = OmpTargetRuntime(SimulatedDevice(memory_bytes=1 << 28))
        res = run_satellite_benchmark(
            SIZES["tiny"], ImplementationType.OMP_TARGET, accel=rt
        )
        assert res["virtual_seconds"] > 0
        assert "pixels_healpix" in res["virtual_regions"]
        assert res["kernels_launched"] > 0

    def test_policies_agree(self):
        rt1 = OmpTargetRuntime(SimulatedDevice(memory_bytes=1 << 28))
        a = run_satellite_benchmark(
            SIZES["tiny"],
            ImplementationType.OMP_TARGET,
            accel=rt1,
            policy=MovementPolicy.HYBRID,
        )
        rt2 = OmpTargetRuntime(SimulatedDevice(memory_bytes=1 << 28))
        b = run_satellite_benchmark(
            SIZES["tiny"],
            ImplementationType.OMP_TARGET,
            accel=rt2,
            policy=MovementPolicy.NAIVE,
        )
        np.testing.assert_allclose(a["zmap"], b["zmap"], atol=1e-12)

    def test_no_mapmaking_mode(self):
        res = run_satellite_benchmark(
            SIZES["tiny"], ImplementationType.NUMPY, mapmaking=False
        )
        assert "destriped_map" not in res
        assert np.any(res["zmap"] != 0)


class TestLocReports:
    def test_loc_per_kernel_covers_everything(self):
        for impl in ("cpu_baseline", "jax", "omp_target"):
            per = loc_per_kernel(impl)
            assert set(per) == set(KERNEL_NAMES)
            assert all(v > 0 for v in per.values())

    def test_loc_totals_consistent(self):
        for impl in ("cpu_baseline", "jax", "omp_target"):
            kernel, total = loc_totals(impl)
            assert total > kernel > 0
            assert kernel == sum(loc_per_kernel(impl).values())

    def test_host_ports_count_the_same_healpix_files(self):
        """The numpy kernel and the OMP loop body both call ``healpix.ang2pix``,
        so Fig 2 counts the same HEALPix files as dependencies of both."""
        from repro.workflows.report import _IMPLEMENTATIONS

        def healpix_deps(impl):
            return sorted(p.name for p in _IMPLEMENTATIONS[impl][1] if p.parent.name == "healpix")

        assert healpix_deps("cpu_baseline") == ["bits.py", "core.py", "nest.py", "ring.py"]
        assert healpix_deps("omp_target") == healpix_deps("cpu_baseline")

    def test_fig2_rows(self):
        text, rows = fig2_loc_total()
        assert set(rows) == {"cpu_baseline", "jax", "omp_target"}
        assert "Fig 2" in text

    def test_fig3_table(self):
        text, per = fig3_loc_per_kernel()
        assert "pixels_healpix" in text
        assert per["omp_target"]["scan_map"] > 0

    @pytest.mark.parametrize(
        "name, report",
        [("fig2_loc_total", fig2_loc_total), ("fig3_loc_per_kernel", fig3_loc_per_kernel)],
    )
    def test_committed_report_is_fresh(self, name, report):
        """A kernel edit must regenerate Figs 2/3: ``pytest benchmarks/bench_fig2_loc_total.py
        benchmarks/bench_fig3_loc_kernel.py`` rewrites the committed tables."""
        committed = REPORTS / f"{name}.txt"
        assert committed.read_text() == report()[0] + "\n", f"{committed} is stale"


class TestFigureReports:
    def test_fig4_text_marks_oom(self):
        text, sweep = fig4_process_sweep()
        assert "OOM" in text
        assert len(sweep) == 21

    def test_fig4_no_mps_variant(self):
        text, _ = fig4_process_sweep(mps_enabled=False)
        assert "MPS OFF" in text

    def test_fig5_contains_backends(self):
        text, times = fig5_full_benchmark()
        assert "JAX (GPU)" in text
        assert "Amdahl" in text
        assert times[Backend.OMP] < times[Backend.JAX]

    def test_fig6_rows(self):
        text, times = fig6_per_kernel()
        for name in BENCHMARK_KERNELS:
            assert name in text
        assert "accel_data_update_device" in text
        assert set(times) == {"cpu", "jax", "omp"}
