"""Tests for the repro-bench command-line interface."""

import contextlib
import io

import pytest

from repro.workflows.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_args(self):
        args = build_parser().parse_args(["run", "tiny", "numpy", "--naive"])
        assert args.size == "tiny"
        assert args.backend == "numpy"
        assert args.naive

    def test_paper_sizes_not_runnable(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "paper_medium", "numpy"])

    def test_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "tiny", "cuda"])

    def test_seed_flag_on_run_and_trace_and_faults(self):
        assert build_parser().parse_args(["run", "tiny", "numpy", "--seed", "3"]).seed == 3
        assert build_parser().parse_args(["trace", "tiny", "jax", "--seed", "4"]).seed == 4
        args = build_parser().parse_args(
            ["faults", "tiny", "jax", "--plan", "transient-transfer", "--seed", "5"]
        )
        assert args.seed == 5
        assert args.plan == "transient-transfer"

    def test_unknown_fault_plan_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults", "tiny", "jax", "--plan", "nope"])

    def test_ingest_args(self):
        args = build_parser().parse_args(
            ["ingest", "--smoke", "--procs", "1,4", "--budget", "4096"]
        )
        assert args.smoke
        assert args.procs == "1,4"
        assert args.budget == 4096
        assert args.size == "tiny"
        assert args.backend == "numpy"


@pytest.fixture(scope="module")
def sweep_run():
    """One ``sweep --no-mps --live`` run shared by the sweep tests.

    Returns ``(exit code, stdout)``.
    """
    argv = [
        "sweep", "--no-mps", "--live", "--live-size", "tiny", "--live-procs", "1"
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, out.getvalue()


@pytest.fixture(scope="module")
def tiny_comparison():
    """One tiny omp_target plan comparison shared by the ``plan`` output
    tests, which feed it to the command in place of a fresh run."""
    from repro.workflows.satellite import SIZES, run_movement_comparison

    return run_movement_comparison(SIZES["tiny"])


def _json_keys(node):
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from _json_keys(value)
    elif isinstance(node, list):
        for value in node:
            yield from _json_keys(value)


@pytest.fixture(scope="module")
def figures_run(tmp_path_factory):
    """One ``figures --out DIR`` run shared by the figure tests.

    Returns ``(exit code, stdout, output directory)``.
    """
    out_dir = tmp_path_factory.mktemp("figures")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["figures", "--out", str(out_dir)])
    return rc, out.getvalue(), out_dir


class TestCommands:
    def test_figures(self, figures_run):
        rc, out, out_dir = figures_run
        assert rc == 0
        assert "Fig 4" in out and "Fig 6" in out
        assert (out_dir / "fig5_full_benchmark.txt").exists()

    def test_loc(self, figures_run):
        # The line-count tables (Fig 2, Fig 3) are printed by ``figures``.
        rc, out, out_dir = figures_run
        assert rc == 0
        assert "Fig 2" in out and "Fig 3" in out
        for name in ("fig2_loc_total", "fig3_loc_per_kernel"):
            assert (out_dir / f"{name}.txt").read_text().strip() in out

    def test_run_numpy(self, capsys):
        assert main(["run", "tiny", "numpy", "--no-mapmaking"]) == 0
        out = capsys.readouterr().out
        assert "wall time" in out

    def test_run_accel(self, capsys):
        assert main(["run", "tiny", "omp_target", "--no-mapmaking"]) == 0
        out = capsys.readouterr().out
        assert "virtual device time" in out
        assert "kernel launches" in out

    def test_sweep(self, sweep_run):
        rc, out = sweep_run
        assert rc == 0
        assert "Fig 4 - runtime vs process count" in out and "OOM" in out
        assert "Fig 4, measured: tiny / numpy" in out

    def test_sweep_no_mps(self, sweep_run):
        rc, out = sweep_run
        assert rc == 0
        assert "MPS OFF" in out

    def test_kernels(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "pixels_healpix" in out
        assert "omp_target" in out
        assert "cov_accum_diag_hits" in out
        assert "MISSING" not in out
        assert "no spec" not in out

    def test_kernels_json(self, capsys):
        import json

        assert main(["kernels", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-kernels/1"
        by_name = {k["name"]: k for k in doc["kernels"]}
        # The 12 paper + extension kernels are all spec'd and complete;
        # synthetic kernels registered by other tests may add more rows.
        assert len(by_name) >= 12
        for name in ("scan_map", "build_noise_weighted", "cov_accum_diag_hits"):
            rec = by_name[name]
            assert rec["complete"]
            assert rec["spec"] is not None
            assert rec["missing"] == []
            assert set(rec["implementations"]) == {
                "python", "numpy", "jax", "omp_target"
            }
            assert rec["fallback_order"][0] == "jax"
        assert by_name["scan_map"]["spec"]["outputs"] == ["tod"]

    def test_run_with_seed_changes_realization(self, capsys):
        assert main(["run", "tiny", "numpy", "--no-mapmaking", "--seed", "2"]) == 0
        assert "wall time" in capsys.readouterr().out

    def test_kernels_reports_batching_coverage(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "megabatch" in out
        assert "batching rules:" in out
        assert "UNWAIVED" not in out

    def test_kernels_json_batching_rules(self, capsys):
        import json

        assert main(["kernels", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        br = doc["batching_rules"]
        assert len(br["primitives"]) >= 60
        assert all(br["primitives"].values())
        assert br["holes"] == []
        by_name = {k["name"]: k for k in doc["kernels"]}
        assert "omp_target" in by_name["pointing_detector"]["megabatch"]
        assert "jax" in by_name["build_noise_weighted"]["megabatch"]
        assert by_name["pointing_detector"]["spec"]["megabatch"] is True

    @pytest.mark.parametrize("backend", ["omp_target", "jax"])
    def test_plan_json(self, capsys, backend):
        import json

        assert main(["plan", "tiny", backend, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-plan/1"
        assert doc["backend"] == backend
        assert doc["parity"] == {"identical": True, "mismatches": []}
        assert doc["totals"]["transfers_elided"] > 0
        assert doc["launch_reduction"] > 1.0
        launches = {mode: e["kernels_launched"] for mode, e in doc["policies"].items()}
        assert launches["megabatch"] < launches["compiled"]
        assert launches["megabatch"] < launches["hybrid"]
        modes = {"naive", "hybrid", "compiled", "megabatch"}
        assert set(doc["policies"]) == set(doc["modeled_launch_seconds"]) == modes
        # Virtual-clock and perf-model seconds are modeled, not wall time.
        assert not any(k.startswith("wall") for k in _json_keys(doc))

    def test_plan_text(self, capsys, monkeypatch, tiny_comparison):
        from repro.workflows import satellite

        monkeypatch.setattr(
            satellite, "run_movement_comparison", lambda *a, **kw: tiny_comparison
        )
        assert main(["plan", "tiny", "omp_target"]) == 0
        out = capsys.readouterr().out
        assert "stage schedule:" in out
        assert "naive vs hybrid vs compiled vs megabatch" in out
        assert "6.0x fewer launches than per-observation dispatch" in out
        assert "products bitwise identical across plans: yes" in out

    def test_plan_gate_exits_nonzero(self, capsys, monkeypatch, tiny_comparison):
        from repro.workflows import satellite

        policies = dict(tiny_comparison["policies"])
        policies["megabatch"] = dict(policies["megabatch"], launch_reduction=1.0)
        bad = dict(tiny_comparison, policies=policies, mismatches=["zmap"])
        monkeypatch.setattr(satellite, "run_movement_comparison", lambda *a, **kw: bad)
        assert main(["plan", "tiny", "omp_target"]) == 1
        captured = capsys.readouterr()
        assert "products bitwise identical across plans: NO" in captured.out
        assert "the plans disagree on: zmap" in captured.err
        assert "no launch reduction (1.00x)" in captured.err


class TestFaultsCommand:
    def test_faults_recovers_and_exits_zero(self, capsys):
        rc = main(
            ["faults", "tiny", "jax", "--plan", "oom-then-recover", "--no-mapmaking"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "bitwise identical" in out
        assert "oom at pool.allocate" in out
        assert "crc32" in out

    def test_faults_exports_trace(self, capsys, tmp_path):
        rc = main(
            [
                "faults",
                "tiny",
                "omp_target",
                "--plan",
                "transient-transfer",
                "--no-mapmaking",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        traces = list(tmp_path.glob("trace_*transient-transfer.json"))
        assert len(traces) == 1
        assert "retries" in capsys.readouterr().out


class TestFailureExitCode:
    def test_workflow_failure_exits_nonzero_with_stderr(self, capsys, monkeypatch):
        from repro.workflows import cli as cli_mod

        def boom(*args, **kwargs):
            raise RuntimeError("simulated workflow failure")

        monkeypatch.setattr(cli_mod, "run_satellite_benchmark", boom)
        rc = main(["run", "tiny", "numpy"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "simulated workflow failure" in captured.err

    def test_faults_failure_exits_nonzero(self, capsys, monkeypatch):
        from repro.workflows import cli as cli_mod

        def boom(*args, **kwargs):
            raise RuntimeError("injection gone wrong")

        monkeypatch.setattr(cli_mod, "run_fault_injection_benchmark", boom)
        rc = main(["faults", "tiny", "jax"])
        assert rc == 1
        assert "injection gone wrong" in capsys.readouterr().err

    def test_ingest_bad_procs_rejected(self, capsys):
        rc = main(["ingest", "--smoke", "--procs", "zero"])
        assert rc == 1
        assert "--procs" in capsys.readouterr().err

    def test_ingest_parity_mismatch_exits_nonzero(self, capsys, monkeypatch):
        from repro.workflows import ingest as ingest_mod

        fake = {
            "chunk_samples": 128,
            "host_budget_bytes": 4096,
            "stream_windows": 8,
            "scrub": {"chunks_checked": 10, "in_flight": [], "quarantined": []},
            "eager_identical": False,
            "elastic": {},
            "identical": False,
        }
        monkeypatch.setattr(
            ingest_mod, "run_ingest_benchmark", lambda **kw: fake
        )
        rc = main(["ingest", "--smoke"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "DIFFERS" in captured.out
        assert "diverged" in captured.err
