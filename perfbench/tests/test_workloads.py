"""Short runs of the real workloads: correctness gate, exact counts, seeds."""

import json
from pathlib import Path

import numpy as np
import pytest

from perfbench.harness import measure, run_units
from perfbench.workloads import WORKLOADS, setup

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def _values(record):
    return {k: v["value"] for k, v in record["metrics"].items()}


def _counts(record):
    return {k: v for k, v in _values(record).items() if not k.endswith(("_s", "_ratio"))}


@pytest.fixture(scope="module")
def omp_traced(tmp_path_factory):
    scratch = tmp_path_factory.mktemp("omp")
    return [measure(WORKLOADS["omp-hybrid"], seed, 0.3, True, scratch)[0] for seed in (1, 1, 2)]


def test_omp_hybrid_counts_match_the_hybrid_gate(omp_traced):
    record = omp_traced[0]
    assert record["failed"] == 0 and record["error_rate"] == 0.0
    assert record["detail"]["counts_repeat"]
    m = _values(record)
    assert (m["accel.h2d_copies"], m["accel.d2h_copies"], m["accel.allocs"]) == (30, 17, 30)
    assert m["ompshim.launches"] == m["accel.launches"] == 24
    assert m["kernels.calls"] == 24 and m["kernels.bytes_moved"] > 0
    # Layers this workload leaves idle.
    assert m["jaxshim.execute_s"] == m["megabatch.offers"] == m["store.windows"] == 0


def test_traced_counts_repeat_across_runs_and_seeds(omp_traced):
    first, again, other_seed = omp_traced
    assert _counts(first) == _counts(again) == _counts(other_seed)
    assert first["oracle"]["crc32"] == again["oracle"]["crc32"]
    assert first["oracle"]["crc32"] != other_seed["oracle"]["crc32"]


def test_jax_megabatch_hits_the_jit_cache_in_timed_units(tmp_path):
    record, spans = measure(WORKLOADS["jax-megabatch"], 3, 0.3, True, tmp_path)
    m = _values(record)
    assert record["failed"] == 0
    assert m["jaxshim.cache_hit_ratio"] == 1.0
    assert m["jaxshim.traces"] > 0 and m["jaxshim.trace_s"] > 0  # all during set-up
    assert m["megabatch.stacked_launches"] == 6
    assert m["megabatch.offers"] == 6 * WORKLOADS["jax-megabatch"].size.n_observations
    assert m["compilepipe.transfers_elided"] > 0 and m["ompshim.launches"] == 0
    dumped = spans.as_json()
    assert len(dumped["spans"]) == len(spans) and "bench.unit" in dumped["names"]


def test_stream_windows_reads_every_window_and_writes_only_in_setup(tmp_path):
    config = WORKLOADS["stream-windows"]
    record, _ = measure(config, 4, 0.3, True, tmp_path)
    m = _values(record)
    windows = config.size.n_observations * config.size.n_samples // config.window_samples
    assert record["failed"] == 0
    assert m["store.windows"] == windows == 64
    assert m["dispatch.kernel_calls"] == 6 * windows
    assert m["store.chunks_written"] > 0 and m["store.write_s"] > 0
    assert m["accel.h2d_copies"] == m["ompshim.launches"] == 0
    assert not list(tmp_path.iterdir()), "the store must be removed after the run"


def test_records_report_every_metric_the_benchmark_names(tmp_path):
    config = WORKLOADS["omp-hybrid"]
    plain, _ = measure(config, 5, 0.1, False, tmp_path)
    traced, _ = measure(config, 5, 0.1, True, tmp_path)
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert all(v["value"] > 0 for v in plain["metrics"].values())
    detail = plain["detail"]
    assert detail["peak_rss_scope"] == "timed units"
    assert plain["metrics"]["peak_rss_mb"]["value"] >= detail["rss_before_units_mb"]
    shares = traced["detail"]["self_share"]
    assert sum(shares.values()) == pytest.approx(1.0, abs=0.02) and "bench.unit" in shares
    assert detail["units"] == plain["attempted"] >= 1
    assert detail["tail_percentile"] == 100.0 or detail["tail_units_beyond"] == 10
    assert plain["config"]["policy"] == "hybrid" and plain["seed"] == 5
    assert {"cpus", "cpu_model", "python", "numpy"} <= set(plain["host"])


def test_gate_counts_a_perturbed_unit_of_a_real_workload(tmp_path):
    prepared = setup(WORKLOADS["omp-hybrid"], 6, tmp_path)
    run_unit, calls = prepared.run_unit, []

    def perturbed(data):
        zmap = run_unit(data)
        calls.append(None)
        if len(calls) == 2:
            zmap = zmap.copy()
            zmap.reshape(-1)[7] = np.nextafter(zmap.reshape(-1)[7], np.inf)
        return zmap

    prepared.run_unit = perturbed
    try:
        units = run_units(prepared, 1.0)
    finally:
        prepared.close()
    assert units.attempted >= 3 and units.failed == 1 and not units.errors


def test_workload_names_agree():
    from perfbench.run import WORKLOAD_NAMES

    assert set(WORKLOAD_NAMES) == set(WORKLOADS) == {w["name"] for w in SPEC["workloads"]}
