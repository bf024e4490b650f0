"""Tests for the core framework: observation model, dispatch, timing."""

import dataclasses
import io

import numpy as np
import pytest

from repro import obs
from repro.core import (
    Data,
    Focalplane,
    GlobalTimers,
    ImplementationType,
    Observation,
    Timer,
    default_implementation,
    fake_hexagon_focalplane,
    function_timer,
    kernel_registry,
    use_implementation,
)
from repro.core.dispatch import KernelRegistry
from repro.core.timing import merge_timing_csv
from repro.math.intervals import IntervalList


@pytest.fixture
def fp():
    return fake_hexagon_focalplane(n_pixels=3, sample_rate=10.0)


class TestFocalplane:
    def test_detector_count(self, fp):
        assert fp.n_detectors == 6  # dual-polarization pixels

    def test_detector_names_unique(self, fp):
        assert len(set(fp.detectors)) == 6

    def test_quat_array_shape_and_norm(self, fp):
        q = fp.quat_array()
        assert q.shape == (6, 4)
        assert np.allclose(np.linalg.norm(q, axis=1), 1.0)

    def test_ab_detectors_orthogonal_pol(self, fp):
        # A and B of the same pixel differ by 90 degrees in psi.
        psi_a = fp.psi_pol["D000A"]
        psi_b = fp.psi_pol["D000B"]
        assert np.isclose(abs(psi_b - psi_a), np.pi / 2)

    def test_detector_weights_positive(self, fp):
        w = fp.detector_weights()
        assert w.shape == (6,)
        assert np.all(w > 0)

    def test_detector_weights_computed_once_and_copied(self, fp):
        first = fp.detector_weights()
        nm = fp.noise_model(n_freq=64)
        formula = np.array([nm.detector_weight(d) for d in fp.detectors])
        assert first.tobytes() == formula.tobytes()
        first[:] = -1.0
        again = fp.detector_weights()
        assert again.tobytes() == formula.tobytes()
        with pytest.raises(dataclasses.FrozenInstanceError):
            fp.sample_rate = 20.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            fp.net = {}

    def test_noise_model_detectors(self, fp):
        nm = fp.noise_model(n_freq=32)
        assert set(nm.detectors) == set(fp.detectors)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            fake_hexagon_focalplane(n_pixels=0)
        with pytest.raises(ValueError):
            Focalplane(sample_rate=0.0)
        with pytest.raises(ValueError):
            Focalplane(sample_rate=1.0, detectors=["x"], detector_quats={})


class TestObservation:
    def test_create_shared_and_detdata(self, fp):
        ob = Observation(fp, 100, name="t")
        times = ob.create_shared("times", (100,))
        assert times.shape == (100,)
        sig = ob.create_detdata("signal")
        assert sig.shape == (6, 100)
        q = ob.create_detdata("quats", sample_shape=(4,))
        assert q.shape == (6, 100, 4)

    def test_duplicate_keys_raise(self, fp):
        ob = Observation(fp, 10)
        ob.create_shared("x", (10,))
        with pytest.raises(KeyError):
            ob.create_shared("x", (10,))
        ob.create_detdata("y")
        with pytest.raises(KeyError):
            ob.create_detdata("y")

    def test_shared_shape_checked(self, fp):
        ob = Observation(fp, 10)
        with pytest.raises(ValueError):
            ob.create_shared("x", (5,))
        with pytest.raises(ValueError):
            ob.set_shared("x", np.zeros(5))

    def test_ensure_detdata_idempotent(self, fp):
        ob = Observation(fp, 10)
        a = ob.ensure_detdata("sig")
        a[:] = 3.0
        b = ob.ensure_detdata("sig")
        assert b is a
        with pytest.raises(ValueError):
            ob.ensure_detdata("sig", sample_shape=(4,))

    def test_intervals_bounds_checked(self, fp):
        ob = Observation(fp, 10)
        with pytest.raises(ValueError):
            ob.set_intervals("bad", IntervalList([(0, 20)]))
        ob.set_intervals("ok", IntervalList([(0, 10)]))
        starts, stops = ob.interval_arrays("ok")
        assert starts.tolist() == [0]

    def test_interval_arrays_none_is_full_span(self, fp):
        ob = Observation(fp, 42)
        starts, stops = ob.interval_arrays(None)
        assert (starts[0], stops[0]) == (0, 42)

    def test_memory_bytes(self, fp):
        ob = Observation(fp, 100)
        ob.create_detdata("signal")
        assert ob.memory_bytes() == 6 * 100 * 8

    def test_uid_stable(self, fp):
        assert Observation(fp, 1, name="a").uid == Observation(fp, 1, name="a").uid

    def test_bad_samples(self, fp):
        with pytest.raises(ValueError):
            Observation(fp, 0)


class TestData:
    def test_meta_mapping(self):
        d = Data()
        d["map"] = np.zeros(4)
        assert "map" in d
        assert d["map"].shape == (4,)

    def test_totals(self, fp):
        d = Data()
        d.obs.append(Observation(fp, 10))
        d.obs.append(Observation(fp, 20))
        assert d.n_samples_total == 30
        assert len(d) == 2


class TestDispatch:
    def test_default_is_numpy(self):
        assert default_implementation() is ImplementationType.NUMPY

    def test_nesting(self):
        with use_implementation(ImplementationType.JAX):
            assert default_implementation() is ImplementationType.JAX
            with use_implementation(ImplementationType.PYTHON):
                assert default_implementation() is ImplementationType.PYTHON
            assert default_implementation() is ImplementationType.JAX
        assert default_implementation() is ImplementationType.NUMPY

    def test_registry_duplicate_rejected(self):
        reg = KernelRegistry(require_specs=False)
        reg.register("k", ImplementationType.NUMPY, lambda: None)
        with pytest.raises(ValueError):
            reg.register("k", ImplementationType.NUMPY, lambda: None)

    def test_fallback_to_numpy(self):
        reg = KernelRegistry(require_specs=False)
        fn = lambda: "cpu"  # noqa: E731
        reg.register("k", ImplementationType.NUMPY, fn)
        assert reg.get("k", ImplementationType.JAX) is fn
        with pytest.raises(KeyError):
            reg.get("k", ImplementationType.JAX, allow_fallback=False)

    def test_unknown_kernel(self):
        with pytest.raises(KeyError):
            KernelRegistry().get("nope", ImplementationType.NUMPY)

    def test_strict_registry_requires_spec(self):
        reg = KernelRegistry()  # require_specs is the default
        with pytest.raises(ValueError, match="KernelSpec"):
            reg.register("k", ImplementationType.NUMPY, lambda: None)

    def test_real_registry_fully_specced(self):
        from repro.kernels import kernel_registry as reg

        assert all(reg.spec(name) is not None for name in reg.kernels())

    def test_real_registry_complete(self):
        from repro.kernels import KERNEL_NAMES

        assert set(kernel_registry.kernels()) >= set(KERNEL_NAMES)


class TestTiming:
    def test_timer_context(self):
        with Timer() as t:
            sum(range(1000))
        assert t.elapsed > 0

    def test_timer_not_started(self):
        with pytest.raises(RuntimeError):
            Timer().stop()

    def test_timer_double_start(self):
        t = Timer().start()
        with pytest.raises(RuntimeError, match="already running"):
            t.start()
        # The original interval survives the failed start.
        assert t.stop() >= 0

    def test_timer_restart_after_stop(self):
        t = Timer().start()
        t.stop()
        t.start()  # legal: accumulates a second interval
        assert t.stop() >= 0

    def test_function_timer_records(self):
        @function_timer
        def snoozer():
            return 42

        name = "TestTiming.test_function_timer_records.<locals>.snoozer"
        assert snoozer() == 42  # untraced: a plain call, recorded nowhere
        with obs.tracing() as tracer:
            assert snoozer() == 42
        assert [e.name for e in tracer.events_of(obs.EventType.SPAN)] == [name]
        assert GlobalTimers.from_tracer(tracer).records[name].calls == 1

    def test_dump_and_merge_csv(self, tmp_path):
        t1 = GlobalTimers()
        t1.record("kernel_a", 1.0)
        t1.record("kernel_b", 2.0)
        t2 = GlobalTimers()
        t2.record("kernel_a", 0.5)
        p1, p2 = tmp_path / "cpu.csv", tmp_path / "gpu.csv"
        t1.dump_csv(p1)
        t2.dump_csv(p2)
        merged = merge_timing_csv([p1, p2], labels=["cpu", "gpu"])
        assert "kernel_a" in merged
        assert "gpu/cpu" in merged
        assert "0.5" in merged

    def test_dump_to_stream(self):
        t = GlobalTimers()
        t.record("x", 1.5)
        buf = io.StringIO()
        t.dump_csv(buf)
        assert "x,1.5" in buf.getvalue()

    def test_merge_requires_paths(self):
        with pytest.raises(ValueError):
            merge_timing_csv([])

    def test_merge_disjoint_timer_sets(self, tmp_path):
        """Files with disjoint timer names merge with blank cells."""
        t1 = GlobalTimers()
        t1.record("only_in_first", 1.0)
        t1.record("in_both", 2.0)
        t2 = GlobalTimers()
        t2.record("in_both", 1.0)
        t2.record("only_in_second", 3.0)
        p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
        t1.dump_csv(p1)
        t2.dump_csv(p2)
        merged = merge_timing_csv([p1, p2])
        lines = {ln.split()[0]: ln for ln in merged.splitlines() if ln.strip()}
        assert "only_in_first" in lines and "only_in_second" in lines
        # Missing totals (and their ratios) render as blank "-" cells.
        assert lines["only_in_first"].split()[2] == "-"
        assert lines["only_in_second"].split()[1] == "-"
        assert lines["only_in_second"].split()[3] == "-"

    def test_merge_tolerates_blank_cells(self, tmp_path):
        p1 = tmp_path / "partial.csv"
        p1.write_text(
            "name,total_seconds,calls\nkernel_a,1.5,3\nkernel_b,,1\n,2.0,1\n"
        )
        p2 = tmp_path / "full.csv"
        t2 = GlobalTimers()
        t2.record("kernel_a", 3.0)
        t2.dump_csv(p2)
        merged = merge_timing_csv([p1, p2])
        assert "kernel_a" in merged
        # The blank-total row and the nameless row are skipped, not fatal.
        assert "kernel_b" not in merged

    def test_render(self):
        t = GlobalTimers()
        t.record("abc", 1.0)
        assert "abc" in t.render()
