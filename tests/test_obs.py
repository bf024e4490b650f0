"""Tests for the repro.obs tracing & metrics subsystem."""

import csv
import io
import json
import sys
from collections import Counter

import pytest

from repro import obs
from repro.accel import SimulatedDevice
from repro.core import ImplementationType, LoopOrder, Pipeline
from repro.core.timing import GlobalTimers
from repro.obs import ClockDomain, Event, EventType, Tracer
from repro.ompshim import OmpTargetRuntime
from repro.workflows.satellite import (
    SIZES,
    make_satellite_data,
    run_satellite_benchmark,
    satellite_processing_pipeline,
)

ACCEL_BACKENDS = [ImplementationType.JAX, ImplementationType.OMP_TARGET]


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    """Every test must leave tracing disabled (the process default)."""
    yield
    assert obs.active_tracer() is None, "a test leaked an active tracer"
    obs.set_tracer(None)


def run_traced(backend, size="tiny", mapmaking=False):
    """The satellite workflow under tracing; returns (tracer, runtime)."""
    accel = OmpTargetRuntime(SimulatedDevice())
    with obs.tracing() as tracer:
        run_satellite_benchmark(
            SIZES[size], backend, accel=accel, mapmaking=mapmaking
        )
    return tracer, accel


class TestTracerCore:
    def test_disabled_by_default(self):
        assert obs.active_tracer() is None

    def test_tracing_installs_and_restores(self):
        outer = Tracer()
        with obs.tracing(outer) as t:
            assert t is outer
            assert obs.active_tracer() is outer
            with obs.tracing() as inner:
                assert inner is not outer
                assert obs.active_tracer() is inner
            assert obs.active_tracer() is outer
        assert obs.active_tracer() is None

    def test_span_nesting_and_event(self):
        t = Tracer()
        with t.span("outer"):
            assert t.current_span.name == "outer"
            with t.span("inner", tag="x") as sp:
                assert sp.depth == 1
        spans = t.events_of(EventType.SPAN)
        assert [e.name for e in spans] == ["inner", "outer"]  # closed inner-first
        inner = spans[0]
        assert inner.clock is ClockDomain.HOST
        assert inner.attrs["parent"] == "outer"
        assert inner.attrs["tag"] == "x"
        assert inner.dur >= 0

    def test_bounded_buffer_drops_oldest(self):
        t = Tracer(max_events=100)
        for i in range(250):
            t.emit(Event(EventType.ALLOC, f"e{i}", ts=float(i)))
        assert len(t.events) <= 100
        assert t.dropped > 0
        # Metrics survive buffer drops: aggregate independently of events.
        t2 = Tracer(max_events=10)
        for i in range(50):
            t2.device_event(EventType.KERNEL_LAUNCH, "k", ts=float(i), dur=1.0)
        assert t2.metrics.kernels["k"].calls == 50

    def test_event_validation(self):
        with pytest.raises(ValueError):
            Event(EventType.ALLOC, "bad", ts=-1.0)
        with pytest.raises(ValueError):
            Event(EventType.ALLOC, "bad", ts=0.0, dur=-1.0)

    def test_counters_and_gauges(self):
        t = Tracer()
        t.metrics.count("bytes", 10)
        t.metrics.count("bytes", 5)
        t.metrics.gauge_set("level", 3.0)
        t.metrics.gauge_set("level", 1.0)
        assert t.metrics.counters["bytes"].value == 15
        assert t.metrics.counters["bytes"].samples == 2
        assert t.metrics.gauges["level"].value == 1.0
        assert t.metrics.gauges["level"].peak == 3.0


class TestDeviceEventStream:
    """One test per required event type, for both accelerated backends."""

    @pytest.mark.parametrize("backend", ACCEL_BACKENDS, ids=lambda b: b.value)
    def test_kernel_launch_events(self, backend):
        tracer, accel = run_traced(backend)
        launches = tracer.events_of(EventType.KERNEL_LAUNCH)
        assert launches
        assert all(e.clock is ClockDomain.DEVICE for e in launches)
        assert sum(e.attrs.get("n_launches", 1) for e in launches) == (
            accel.device.kernels_launched
        )

    @pytest.mark.parametrize("backend", ACCEL_BACKENDS, ids=lambda b: b.value)
    def test_h2d_events(self, backend):
        tracer, _ = run_traced(backend)
        h2d = tracer.events_of(EventType.H2D)
        assert h2d
        assert all(e.attrs["nbytes"] > 0 and e.dur > 0 for e in h2d)

    @pytest.mark.parametrize("backend", ACCEL_BACKENDS, ids=lambda b: b.value)
    def test_d2h_events(self, backend):
        tracer, _ = run_traced(backend)
        d2h = tracer.events_of(EventType.D2H)
        assert d2h
        assert all(e.attrs["nbytes"] > 0 and e.dur > 0 for e in d2h)

    @pytest.mark.parametrize("backend", ACCEL_BACKENDS, ids=lambda b: b.value)
    def test_alloc_events(self, backend):
        tracer, _ = run_traced(backend)
        allocs = tracer.events_of(EventType.ALLOC)
        assert allocs
        assert all(e.attrs["nbytes"] > 0 for e in allocs)
        assert all("pool_allocated_bytes" in e.attrs for e in allocs)

    @pytest.mark.parametrize("backend", ACCEL_BACKENDS, ids=lambda b: b.value)
    def test_free_events(self, backend):
        tracer, _ = run_traced(backend)
        frees = tracer.events_of(EventType.FREE)
        assert frees
        # The hybrid pipeline releases everything it mapped at the end.
        assert len(frees) == len(tracer.events_of(EventType.ALLOC))

    @pytest.mark.parametrize("backend", ACCEL_BACKENDS, ids=lambda b: b.value)
    def test_virtual_timestamps_monotone(self, backend):
        """The five required types arrive in non-decreasing virtual time."""
        tracer, _ = run_traced(backend)
        required = {
            EventType.KERNEL_LAUNCH,
            EventType.H2D,
            EventType.D2H,
            EventType.ALLOC,
            EventType.FREE,
        }
        seen = set()
        last = -1.0
        for e in tracer.events:
            if e.clock is ClockDomain.DEVICE and e.type in required:
                assert e.ts >= last, f"{e} went backwards past {last}"
                last = e.ts
                seen.add(e.type)
        assert seen == required

    @pytest.mark.parametrize("backend", ACCEL_BACKENDS, ids=lambda b: b.value)
    def test_pipeline_stage_events(self, backend):
        tracer, _ = run_traced(backend)
        stages = tracer.events_of(EventType.PIPELINE_STAGE)
        # Six operators in the satellite processing pipeline.
        assert len(stages) == 6
        assert all(e.clock is ClockDomain.DEVICE for e in stages)

    def test_jit_compile_cache_events(self):
        import numpy as np

        from repro.jaxshim import jit

        with obs.tracing() as tracer:
            fn = jit(lambda x: x * 2.0 + 1.0)
            fn(np.ones(8))
            fn(np.ones(8))  # same signature: cache hit
            fn(np.ones(16))  # new shape: second miss
        compiles = tracer.events_of(EventType.COMPILE)
        assert [e.attrs["cache_hit"] for e in compiles] == [False, True, False]
        miss = compiles[0]
        assert miss.attrs["n_eqns"] > 0 and miss.dur >= 0
        assert tracer.metrics.counters["jit.cache_misses"].value == 2
        assert tracer.metrics.counters["jit.cache_hits"].value == 1

    def test_omp_target_region_events(self):
        tracer, _ = run_traced(ImplementationType.OMP_TARGET)
        regions = tracer.events_of(EventType.TARGET_REGION)
        names = {e.name for e in regions}
        assert "target_enter_data" in names
        assert any(n.startswith("target_teams.") for n in names)
        assert "datamap.enter" in names and "datamap.exit" in names

    def test_kernel_resolve_events(self):
        tracer, _ = run_traced(ImplementationType.OMP_TARGET)
        resolves = tracer.events_of(EventType.KERNEL_RESOLVE)
        assert resolves
        assert all(e.attrs["requested"] == "omp_target" for e in resolves)


class TestMetricsAgreement:
    @pytest.mark.parametrize("backend", ACCEL_BACKENDS, ids=lambda b: b.value)
    def test_kernel_seconds_match_clock_accounting(self, backend):
        """Per-kernel virtual-second totals agree with the device clock."""
        tracer, accel = run_traced(backend)
        clock = accel.device.clock
        assert tracer.metrics.kernels, "no kernels aggregated"
        for name, stats in tracer.metrics.kernels.items():
            assert stats.virtual_seconds == pytest.approx(
                clock.region_time(name), abs=1e-9
            )
            assert stats.calls == clock.region_count(name)

    @pytest.mark.parametrize("backend", ACCEL_BACKENDS, ids=lambda b: b.value)
    def test_transfer_bytes_match_events(self, backend):
        tracer, _ = run_traced(backend)
        h2d_total = sum(e.attrs["nbytes"] for e in tracer.events_of(EventType.H2D))
        assert tracer.metrics.counters["transfer.h2d_bytes"].value == h2d_total

    def test_pool_peak_gauge(self):
        tracer, accel = run_traced(ImplementationType.OMP_TARGET)
        peak = tracer.metrics.gauges["pool.allocated_bytes"].peak
        assert 0 < peak <= accel.device.pool.capacity


class TestExporters:
    def test_chrome_trace_is_valid_json(self, tmp_path):
        tracer, _ = run_traced(ImplementationType.JAX)
        path = obs.write_chrome_trace(tracer, tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert events
        for ev in events:
            assert {"name", "ph", "ts", "pid"} <= set(ev)
            # M = process/thread-name metadata (worker tracks)
            assert ev["ph"] in ("X", "i", "C", "M")
            if ev["ph"] == "X":
                assert ev["dur"] >= 0
        cats = {e.get("cat") for e in events}
        for wanted in ("kernel_launch", "h2d", "d2h", "alloc", "free"):
            assert wanted in cats

    def test_kernel_csv_matches_device_accounting(self, tmp_path):
        tracer, accel = run_traced(ImplementationType.OMP_TARGET)
        path = tmp_path / "kernels.csv"
        obs.write_kernel_metrics_csv(tracer, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        clock = accel.device.clock
        for row in rows:
            assert float(row["total_seconds"]) == pytest.approx(
                clock.region_time(row["name"]), abs=1e-9
            )

    def test_kernel_csv_merges_with_timing_csv(self, tmp_path):
        from repro.core.timing import GlobalTimers, merge_timing_csv

        tracer, _ = run_traced(ImplementationType.OMP_TARGET)
        p1 = tmp_path / "device.csv"
        obs.write_kernel_metrics_csv(tracer, p1)
        host = GlobalTimers()
        host.record("host_only_timer", 1.0)
        p2 = tmp_path / "host.csv"
        host.dump_csv(p2)
        merged = merge_timing_csv([p1, p2], labels=["device", "host"])
        assert "host_only_timer" in merged

    def test_render_summary(self):
        tracer, _ = run_traced(ImplementationType.JAX)
        text = obs.render_summary(tracer)
        assert "kernels (virtual device time)" in text
        assert "H2D moved" in text
        assert "event census" in text

    def test_csv_to_stream(self):
        tracer, _ = run_traced(ImplementationType.OMP_TARGET)
        buf = io.StringIO()
        obs.write_kernel_metrics_csv(tracer, buf)
        header = buf.getvalue().splitlines()[0]
        assert header.startswith("name,total_seconds,calls,mean_seconds,max_seconds")


class TestTraceIds:
    """Request-scoped trace ids: ambient stamping and exporter columns."""

    def test_trace_context_stamps_emitted_events(self):
        t = Tracer()
        t.emit(Event(EventType.ALLOC, "before", ts=0.0))
        with t.trace_context("req-1"):
            t.emit(Event(EventType.ALLOC, "during", ts=1.0))
            with t.span("inner"):
                pass
        t.emit(Event(EventType.ALLOC, "after", ts=2.0))
        by_name = {e.name: e.trace_id for e in t.events}
        assert by_name == {
            "before": None,
            "during": "req-1",
            "inner": "req-1",
            "after": None,
        }

    def test_explicit_trace_id_is_not_overwritten(self):
        t = Tracer()
        with t.trace_context("ambient"):
            t.emit(Event(EventType.ALLOC, "e", ts=0.0, trace_id="explicit"))
        assert t.events[0].trace_id == "explicit"

    def test_contexts_nest_and_restore(self):
        t = Tracer()
        with t.trace_context("outer"):
            assert t.current_trace_id == "outer"
            with t.trace_context("inner"):
                assert t.current_trace_id == "inner"
            assert t.current_trace_id == "outer"
        assert t.current_trace_id is None

    def test_default_is_none_and_costs_nothing(self):
        t = Tracer()
        assert t.current_trace_id is None
        t.emit(Event(EventType.ALLOC, "e", ts=0.0))
        assert t.events[0].trace_id is None

    def test_chrome_trace_carries_trace_id_args(self, tmp_path):
        t = Tracer()
        with t.trace_context("req-9"):
            t.emit(Event(EventType.ALLOC, "tagged", ts=0.0))
        t.emit(Event(EventType.ALLOC, "untagged", ts=1.0))
        path = obs.write_chrome_trace(t, tmp_path / "trace.json")
        events = {
            e["name"]: e
            for e in json.loads(path.read_text())["traceEvents"]
            if e["ph"] != "M"
        }
        assert events["tagged"]["args"]["trace_id"] == "req-9"
        assert "trace_id" not in events["untagged"].get("args", {})

    def test_events_csv_has_trace_id_column(self, tmp_path):
        t = Tracer()
        with t.trace_context("req-3"):
            t.emit(Event(EventType.ALLOC, "tagged", ts=0.0, attrs={"k": 1}))
        t.emit(Event(EventType.ALLOC, "untagged", ts=1.0))
        path = tmp_path / "events.csv"
        obs.write_events_csv(t, path)
        with open(path, newline="") as fh:
            rows = {r["name"]: r for r in csv.DictReader(fh)}
        assert rows["tagged"]["trace_id"] == "req-3"
        assert rows["untagged"]["trace_id"] == ""
        assert "k=1" in rows["tagged"]["attrs"]


class TestCliTrace:
    def test_trace_subcommand(self, capsys, tmp_path):
        from repro.workflows.cli import main

        out = tmp_path / "traces"
        assert main(["trace", "tiny", "jax", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "chrome trace" in stdout
        trace_files = list(out.glob("trace_*.json"))
        csv_files = list(out.glob("kernels_*.csv"))
        assert len(trace_files) == 1 and len(csv_files) == 1
        doc = json.loads(trace_files[0].read_text())
        assert doc["traceEvents"]
        # Tracing must not stay enabled after the command returns.
        assert obs.active_tracer() is None

    def test_trace_subcommand_numpy_backend(self, capsys, tmp_path):
        from repro.workflows.cli import main

        out = tmp_path / "traces"
        assert main(
            ["trace", "tiny", "numpy", "--out", str(out), "--no-mapmaking"]
        ) == 0
        # No device: still a valid (host-only) trace.
        doc = json.loads(next(out.glob("trace_*.json")).read_text())
        assert doc["traceEvents"]


class TestZeroCostWhenDisabled:
    def test_no_events_without_tracer(self):
        accel = OmpTargetRuntime(SimulatedDevice())
        run_satellite_benchmark(SIZES["tiny"], ImplementationType.OMP_TARGET,
                                accel=accel, mapmaking=False)
        # Nothing to assert on a tracer -- the invariant is that no global
        # tracer exists and nothing crashed with hooks compiled in.
        assert obs.active_tracer() is None

    def test_get_kernel_has_no_tracing_closure_when_disabled(self):
        from repro.core.dispatch import get_kernel, kernel_registry

        fn = get_kernel("scan_map", ImplementationType.NUMPY)
        # The BoundKernel wraps the raw implementation with no tracer
        # attached -- calls go straight through.
        assert fn.fn is kernel_registry.get("scan_map", ImplementationType.NUMPY)
        assert fn._tracer is None


class TestFunctionTimerSpans:
    """``function_timer`` is the one timing decorator: one span per call
    under a tracer, nothing at all without one."""

    @pytest.mark.parametrize("on_device", [False, True], ids=["host", "device"])
    def test_untraced_run_writes_no_timing_state(self, monkeypatch, on_device):
        touched = []
        monkeypatch.setattr(Tracer, "span", lambda self, name, *a, **k: touched.append(name))
        monkeypatch.setattr(GlobalTimers, "record", lambda self, name, *a: touched.append(name))
        size = SIZES["tiny"]
        impl = ImplementationType.OMP_TARGET if on_device else ImplementationType.NUMPY
        accel = OmpTargetRuntime(SimulatedDevice()) if on_device else None
        data = make_satellite_data(size)
        satellite_processing_pipeline(size.nside, implementation=impl, accel=accel).apply(
            data, use_accel=on_device, accel=accel
        )
        assert data["zmap"].any()
        assert touched == []
        tables = [
            f"{name}.{attr}"
            for name, mod in list(sys.modules.items())
            if name.split(".")[0] == "repro" and mod is not None
            for attr, value in vars(mod).items()
            if isinstance(value, GlobalTimers)
        ]
        assert tables == []  # no process-global timer table

    def test_from_tracer_rows_are_the_span_counters(self):
        size = SIZES["tiny"]
        data = make_satellite_data(size)
        pipe = satellite_processing_pipeline(size.nside, implementation=ImplementationType.NUMPY)
        with obs.tracing() as tracer:
            pipe.apply(data)
        timers = GlobalTimers.from_tracer(tracer)
        assert set(timers.records) == {e.name for e in tracer.events_of(EventType.SPAN)}
        assert {"Pipeline.exec", "Pipeline.finalize", "PointingDetector.exec"} <= set(
            timers.records
        )
        for name, row in timers.records.items():
            counter = tracer.metrics.counters[f"span.{name}_seconds"]
            assert row.total_seconds == counter.value
            assert row.calls == counter.samples
            assert row.max_seconds == counter.max_sample

    @pytest.mark.parametrize(
        "order, plan, on_device",
        [
            (LoopOrder.OPERATOR_MAJOR, "eager", False),
            (LoopOrder.OBSERVATION_MAJOR, "eager", False),
            (LoopOrder.OPERATOR_MAJOR, "megabatch", False),
            (LoopOrder.OBSERVATION_MAJOR, "eager", True),
        ],
        ids=["host-operator-major", "host-observation-major", "host-megabatch", "device"],
    )
    def test_one_span_per_operator_exec(self, order, plan, on_device):
        size = SIZES["tiny"]
        data = make_satellite_data(size)
        ops = satellite_processing_pipeline(size.nside).operators
        impl = ImplementationType.OMP_TARGET if on_device else ImplementationType.NUMPY
        accel = OmpTargetRuntime(SimulatedDevice()) if on_device else None
        pipe = Pipeline(ops, implementation=impl, order=order, plan=plan)
        n_units = len(pipe.work_units(data))
        with obs.tracing() as tracer:
            pipe.exec(data, use_accel=on_device, accel=accel)
        spans = tracer.events_of(EventType.SPAN)
        op_spans = [e for e in spans if e.name.endswith(".exec") and e.name != "Pipeline.exec"]
        assert Counter(e.name for e in op_spans) == {
            f"{type(op).__name__}.exec": n_units for op in ops
        }
        assert all(e.clock is ClockDomain.HOST for e in spans)
        assert all(e.attrs["parent"] == "Pipeline.exec" for e in op_spans)
        stages = tracer.events_of(EventType.PIPELINE_STAGE)
        assert all(e.clock is ClockDomain.DEVICE for e in stages)
        assert len(stages) == (len(op_spans) if on_device else 0)
