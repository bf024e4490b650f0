"""Command-line interface: ``repro-bench``.

Subcommands::

    repro-bench figures [--out DIR]     regenerate every paper figure table
    repro-bench run SIZE BACKEND        run the live benchmark
    repro-bench trace SIZE BACKEND      run it traced; export timeline + metrics
    repro-bench faults SIZE BACKEND     run under an injected fault plan and
                                        verify recovery reproduces the maps
    repro-bench perf SIZE BACKEND       measured wall-clock benchmark: the
                                        multiprocess workflow vs its 1-proc
                                        baseline, per-kernel python-vs-numpy
                                        microbenchmarks, and the modeled
                                        runtime, appended to BENCH_<date>.json
    repro-bench sweep [--no-mps]        the Fig 4 process sweep (modeled);
                                        --live adds measured wall-clock points
    repro-bench plan SIZE BACKEND       compare the plans: print the compiled
                                        pipeline plan (elided transfers, fused
                                        groups, overlap windows) and the
                                        naive/hybrid/compiled/megabatch
                                        movement table; exits nonzero unless
                                        every product is bitwise identical
                                        across the plans and megabatching
                                        reduces launches
    repro-bench kernels                 list kernels and implementations;
                                        exits nonzero on a missing
                                        implementation or vmap batching rule
    repro-bench serve --smoke           end-to-end serving-plane drill:
                                        broker + 2 node processes + 4
                                        concurrent clients, one injected
                                        node crash; exits nonzero on any
                                        byte mismatch, missed coalesce,
                                        or leaked process/shm segment
    repro-bench chaos [--smoke]         seeded chaos soak: randomized
                                        fault schedules across registered
                                        sites; asserts bitwise map parity,
                                        zero leaks, bounded recovery
                                        counters
    repro-bench ingest --smoke          out-of-core ingest drill: spill to
                                        a crash-consistent store under a
                                        torn-write plan, stream back
                                        window-by-window under a per-window
                                        read budget (eager, compiled,
                                        elastic), replay bit rot; exits
                                        nonzero unless every leg is
                                        bitwise identical to its
                                        in-memory oracle

Any unexpected failure exits nonzero with the error on stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .. import obs
from ..accel import SimulatedDevice
from ..core import ImplementationType, MovementPolicy
from ..core.dispatch import kernel_registry
from ..ompshim import OmpTargetRuntime
from ..utils.table import Table, format_seconds
from .report import (
    fig2_loc_total,
    fig3_loc_per_kernel,
    fig4_process_sweep,
    fig5_full_benchmark,
    fig6_per_kernel,
)
from ..resilience.plans import plan_names
from .satellite import SIZES, run_fault_injection_benchmark, run_satellite_benchmark

__all__ = ["main", "build_parser"]

_BACKENDS = {
    "python": ImplementationType.PYTHON,
    "numpy": ImplementationType.NUMPY,
    "jax": ImplementationType.JAX,
    "omp_target": ImplementationType.OMP_TARGET,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Reproduction of 'High-level GPU code: a case study "
        "examining JAX and OpenMP' (SC-W 2023).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figures", help="regenerate every paper figure table")
    p_fig.add_argument("--out", type=Path, default=None, help="also write tables here")

    p_run = sub.add_parser("run", help="run the live benchmark")
    p_run.add_argument(
        "size", choices=[s for s in SIZES if not s.startswith("paper")]
    )
    p_run.add_argument("backend", choices=sorted(_BACKENDS))
    p_run.add_argument(
        "--naive", action="store_true", help="per-kernel transfers instead of residency"
    )
    p_run.add_argument("--no-mapmaking", action="store_true")
    p_run.add_argument(
        "--seed", type=int, default=0, help="simulation realization seed"
    )

    p_trace = sub.add_parser(
        "trace",
        help="run the benchmark with structured tracing; write a Chrome "
        "trace-event JSON (chrome://tracing / Perfetto) and a per-kernel "
        "metrics CSV",
    )
    p_trace.add_argument(
        "size", choices=[s for s in SIZES if not s.startswith("paper")]
    )
    p_trace.add_argument("backend", choices=sorted(_BACKENDS))
    p_trace.add_argument(
        "--out", type=Path, default=Path("trace_out"), help="output directory"
    )
    p_trace.add_argument(
        "--naive", action="store_true", help="per-kernel transfers instead of residency"
    )
    p_trace.add_argument("--no-mapmaking", action="store_true")
    p_trace.add_argument(
        "--seed", type=int, default=0, help="simulation realization seed"
    )

    p_faults = sub.add_parser(
        "faults",
        help="run fault-free then under an injected fault plan; print a "
        "recovery report and verify the maps are bitwise identical "
        "(exits nonzero when they are not)",
    )
    p_faults.add_argument(
        "size", choices=[s for s in SIZES if not s.startswith("paper")]
    )
    p_faults.add_argument("backend", choices=sorted(_BACKENDS))
    p_faults.add_argument(
        "--plan",
        default="oom-then-recover",
        choices=plan_names(),
        help="named fault plan to inject",
    )
    p_faults.add_argument(
        "--seed", type=int, default=0, help="fault-plan seed (exact replay)"
    )
    p_faults.add_argument(
        "--out",
        type=Path,
        default=None,
        help="also export the faulted run's trace + metrics here",
    )
    p_faults.add_argument("--no-mapmaking", action="store_true")

    p_perf = sub.add_parser(
        "perf",
        help="measured wall-clock benchmark: multiprocess workflow speedup "
        "+ per-kernel batching speedup + modeled runtime, recorded as JSON",
    )
    p_perf.add_argument(
        "size", choices=[s for s in SIZES if not s.startswith("paper")]
    )
    p_perf.add_argument("backend", choices=["python", "numpy"])
    p_perf.add_argument(
        "--procs", type=int, default=1, help="live worker processes"
    )
    p_perf.add_argument(
        "--json",
        type=Path,
        default=None,
        help="record results here (default BENCH_<date>.json; appends)",
    )
    p_perf.add_argument(
        "--seed", type=int, default=0, help="simulation realization seed"
    )
    p_perf.add_argument(
        "--no-baseline",
        action="store_true",
        help="skip the 1-process baseline run",
    )
    p_perf.add_argument(
        "--no-kernels",
        action="store_true",
        help="skip the per-kernel python-vs-numpy microbenchmarks",
    )

    p_plan = sub.add_parser(
        "plan",
        help="compare the plans: print the compiled pipeline plan "
        "(residency, elisions, fused groups, prefetch/drain windows) and "
        "the naive/hybrid/compiled/megabatch movement table, each plan "
        "run on a fresh device; exits nonzero unless every product is "
        "bitwise identical across the plans and megabatching reduces "
        "launches",
    )
    p_plan.add_argument(
        "size", choices=[s for s in SIZES if not s.startswith("paper")]
    )
    p_plan.add_argument("backend", choices=["jax", "omp_target"])
    p_plan.add_argument(
        "--json",
        action="store_true",
        help="emit the repro-plan/1 document instead of the tables",
    )
    p_plan.add_argument(
        "--seed", type=int, default=0, help="simulation realization seed"
    )

    p_sweep = sub.add_parser("sweep", help="the Fig 4 process sweep (modeled)")
    p_sweep.add_argument("--no-mps", action="store_true")
    p_sweep.add_argument(
        "--live",
        action="store_true",
        help="also measure wall-clock points with live worker processes",
    )
    p_sweep.add_argument(
        "--live-size",
        default="medium",
        choices=[s for s in SIZES if not s.startswith("paper")],
        help="problem size for the live points",
    )
    p_sweep.add_argument(
        "--live-procs",
        default="1,2,4,8",
        help="comma-separated process counts for the live points",
    )

    p_serve = sub.add_parser(
        "serve",
        help="the serving-plane smoke drill: broker + node processes + "
        "concurrent clients with coalescing, failover, and leak gates",
    )
    p_serve.add_argument(
        "--smoke",
        action="store_true",
        help="run the full multi-process drill (currently the only mode)",
    )
    p_serve.add_argument(
        "--size",
        default="tiny",
        choices=[s for s in SIZES if not s.startswith("paper")],
        help="problem size each pipeline run materialises",
    )
    p_serve.add_argument(
        "--clients", type=int, default=4, help="concurrent clients (>= 4)"
    )
    p_serve.add_argument(
        "--seed", type=int, default=0, help="fault-plan seed (exact replay)"
    )
    p_serve.add_argument(
        "--quiet", action="store_true", help="suppress per-round progress lines"
    )

    p_chaos = sub.add_parser(
        "chaos",
        help="seeded chaos soak: randomized fault schedules across the "
        "registered sites, asserting bitwise map parity vs the "
        "fault-free oracle, zero leaked processes/shm segments, and "
        "bounded recovery counters; exits nonzero on any violation",
    )
    p_chaos.add_argument(
        "--smoke",
        action="store_true",
        help="short CI soak (seeds 0-2 unless --seeds is given)",
    )
    p_chaos.add_argument(
        "--seeds",
        default=None,
        help="comma-separated seed list (default: 0-2 with --smoke, 0-9 "
        "otherwise); a failing CI seed replays with --seeds <seed>",
    )
    p_chaos.add_argument(
        "--json",
        type=Path,
        default=None,
        help="write the repro-chaos/1 report JSON here (the CI artifact)",
    )
    p_chaos.add_argument(
        "--quiet", action="store_true", help="suppress per-seed progress lines"
    )

    p_ingest = sub.add_parser(
        "ingest",
        help="the out-of-core ingest drill: spill the dataset into a "
        "crash-consistent chunked store under an injected torn-write "
        "plan, scrub, then stream the pipeline window-by-window under "
        "a per-window read budget (eager + compiled plans, elastic workers) "
        "with a bit-rot replay; every leg is parity-gated bitwise "
        "against its in-memory oracle and any mismatch exits nonzero",
    )
    p_ingest.add_argument(
        "--smoke",
        action="store_true",
        help="run the full parity-gated drill (currently the only mode)",
    )
    p_ingest.add_argument(
        "--size",
        default="tiny",
        choices=[s for s in SIZES if not s.startswith("paper")],
        help="problem size to spill and stream",
    )
    p_ingest.add_argument(
        "--backend",
        default="numpy",
        choices=sorted(_BACKENDS),
        help="implementation for the eager and elastic legs",
    )
    p_ingest.add_argument(
        "--budget",
        type=int,
        default=None,
        help="stored bytes each streamed window may read (default: a "
        "quarter of one observation's stored bytes)",
    )
    p_ingest.add_argument(
        "--procs",
        default="1,2",
        help="comma-separated elastic worker counts (default 1,2)",
    )
    p_ingest.add_argument(
        "--no-compiled", action="store_true", help="skip the compiled-plan leg"
    )
    p_ingest.add_argument(
        "--no-faults",
        action="store_true",
        help="skip the torn-write and bit-rot fault replays",
    )
    p_ingest.add_argument(
        "--seed", type=int, default=0, help="fault-plan seed (exact replay)"
    )
    p_ingest.add_argument(
        "--json",
        type=Path,
        default=None,
        help="write the repro-ingest/1 report JSON here (the CI artifact)",
    )

    p_kernels = sub.add_parser(
        "kernels",
        help="kernel coverage table: implementations, specs, fallback order; "
        "exits nonzero when a kernel is missing an implementation without "
        "a spec-level waiver",
    )
    p_kernels.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable coverage document instead of a table",
    )

    return parser


def _cmd_figures(out: Optional[Path]) -> int:
    figures = {
        "fig2_loc_total": fig2_loc_total,
        "fig3_loc_per_kernel": fig3_loc_per_kernel,
        "fig4_process_sweep": fig4_process_sweep,
        "fig5_full_benchmark": fig5_full_benchmark,
        "fig6_per_kernel": fig6_per_kernel,
    }
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    for name, fn in figures.items():
        text = fn()[0]
        print(text)
        print()
        if out is not None:
            (out / f"{name}.txt").write_text(text + "\n")
    return 0


def _cmd_run(
    size_name: str,
    backend_name: str,
    naive: bool,
    no_mapmaking: bool,
    seed: int = 0,
) -> int:
    size = SIZES[size_name]
    impl = _BACKENDS[backend_name]
    accel = None
    if impl in (ImplementationType.JAX, ImplementationType.OMP_TARGET):
        accel = OmpTargetRuntime(SimulatedDevice())
    policy = MovementPolicy.NAIVE if naive else MovementPolicy.HYBRID

    result = run_satellite_benchmark(
        size,
        impl,
        accel=accel,
        policy=policy,
        mapmaking=not no_mapmaking,
        realization=seed,
    )
    table = Table(["measure", "value"], title=f"{size_name} / {backend_name}")
    table.add_row(["wall time", format_seconds(result["wall_seconds"])])
    if not no_mapmaking:
        table.add_row(["map-maker iterations", result["mapmaker_iterations"]])
    if accel is not None:
        table.add_row(["virtual device time", format_seconds(result["virtual_seconds"])])
        table.add_row(["kernel launches", result["kernels_launched"]])
    print(table.render())
    return 0


def _cmd_trace(
    size_name: str,
    backend_name: str,
    out: Path,
    naive: bool,
    no_mapmaking: bool,
    seed: int = 0,
) -> int:
    size = SIZES[size_name]
    impl = _BACKENDS[backend_name]
    accel = None
    if impl in (ImplementationType.JAX, ImplementationType.OMP_TARGET):
        accel = OmpTargetRuntime(SimulatedDevice())
    policy = MovementPolicy.NAIVE if naive else MovementPolicy.HYBRID

    tracer = obs.Tracer()
    with obs.tracing(tracer):
        result = run_satellite_benchmark(
            size,
            impl,
            accel=accel,
            policy=policy,
            mapmaking=not no_mapmaking,
            realization=seed,
        )

    out.mkdir(parents=True, exist_ok=True)
    stem = f"{size_name}_{backend_name}"
    trace_path = obs.write_chrome_trace(tracer, out / f"trace_{stem}.json")
    csv_path = out / f"kernels_{stem}.csv"
    obs.write_kernel_metrics_csv(tracer, csv_path)

    print(obs.render_summary(tracer, title=f"{size_name} / {backend_name}"))
    print()
    table = Table(["measure", "value"], title="run")
    table.add_row(["wall time", format_seconds(result["wall_seconds"])])
    if accel is not None:
        table.add_row(["virtual device time", format_seconds(result["virtual_seconds"])])
        table.add_row(["kernel launches", result["kernels_launched"]])
    print(table.render())
    print()
    print(f"chrome trace:   {trace_path}  (load in chrome://tracing or Perfetto)")
    print(f"kernel metrics: {csv_path}  (merge with merge_timing_csv)")
    return 0


def _cmd_faults(
    size_name: str,
    backend_name: str,
    plan_name: str,
    seed: int,
    out: Optional[Path],
    no_mapmaking: bool,
) -> int:
    size = SIZES[size_name]
    impl = _BACKENDS[backend_name]

    tracer = obs.Tracer() if out is not None else None
    report = run_fault_injection_benchmark(
        size,
        impl,
        plan_name=plan_name,
        seed=seed,
        mapmaking=not no_mapmaking,
        tracer=tracer,
    )

    table = Table(
        ["measure", "value"],
        title=f"recovery report: {size_name} / {backend_name} / {plan_name}",
    )
    table.add_row(["fault plan", f"{report['plan']} (seed {report['seed']})"])
    counters = report["counters"]
    table.add_row(["faults injected", counters.get("faults_injected", 0)])
    # The fired-fault timeline, in global firing order: with it, a failed
    # CI plan run is replayable (plan + seed) and diagnosable (which kind
    # fired at which site call) from the report alone.
    for fired in report["faults"]:
        table.add_row(
            [
                f"  fault #{fired.get('seq', '?')}",
                f"{fired['kind']} at {fired['site']} call #{fired['call']}",
            ]
        )
    for label, key in [
        ("retries", "retries"),
        ("fallbacks", "fallbacks"),
        ("evictions", "evictions"),
        ("host syncs", "host_syncs"),
        ("device recoveries", "device_recoveries"),
        ("worker recoveries", "worker_recoveries"),
        ("worker respawns", "worker_respawns"),
        ("steals", "steals"),
        ("hedges", "hedges"),
        ("lease expiries", "lease_expiries"),
        ("checkpoints", "checkpoints"),
    ]:
        if counters.get(key):
            table.add_row([label, counters[key]])
    for name, state in report["breakers"].items():
        table.add_row([f"breaker {name}", state])
    if report.get("error"):
        table.add_row(["faulted run", f"FAILED: {report['error']}"])
    for name, cmp in report["maps"].items():
        table.add_row(
            [
                f"{name} vs fault-free",
                "bitwise identical"
                if cmp["identical"]
                else f"DIFFERS (max abs diff {cmp['max_abs_diff']:.3e})",
            ]
        )
        table.add_row([f"{name} crc32", f"{cmp['crc32_faulted']:#010x}"])
    print(table.render())

    if tracer is not None:
        out.mkdir(parents=True, exist_ok=True)
        stem = f"{size_name}_{backend_name}_{plan_name}"
        trace_path = obs.write_chrome_trace(tracer, out / f"trace_{stem}.json")
        print()
        print(f"faulted-run trace: {trace_path}")

    if not report["all_identical"]:
        print(
            "error: recovery did not reproduce the fault-free maps",
            file=sys.stderr,
        )
        return 1
    return 0


def _host_info() -> dict:
    import os
    import platform

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return {
        "cpus": cpus,
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def _cmd_perf(
    size_name: str,
    backend_name: str,
    procs: int,
    json_path: Optional[Path],
    seed: int,
    no_baseline: bool,
    no_kernels: bool,
) -> int:
    import datetime
    import json

    from ..parallel import run_parallel_satellite
    from ..perfmodel import cpu_runtime
    from .microbench import microbench_kernels

    if procs < 1:
        print("repro-bench: error: --procs must be >= 1", file=sys.stderr)
        return 1
    size = SIZES[size_name]
    impl = _BACKENDS[backend_name]
    host = _host_info()

    run = run_parallel_satellite(
        size, impl, n_procs=procs, realization=seed
    )
    baseline_seconds = None
    if procs > 1 and not no_baseline:
        baseline = run_parallel_satellite(
            size, impl, n_procs=1, realization=seed
        )
        baseline_seconds = baseline["wall_seconds"]
    elif procs == 1:
        baseline_seconds = run["wall_seconds"]
    measured_speedup = (
        baseline_seconds / run["wall_seconds"] if baseline_seconds else None
    )
    modeled_seconds = cpu_runtime(procs, size.total_bytes / 1e12)

    workflow = {
        "wall_seconds": run["wall_seconds"],
        "baseline_1proc_seconds": baseline_seconds,
        "measured_speedup": measured_speedup,
        "modeled_seconds": modeled_seconds,
        "n_workers": run["n_workers"],
        "world": run["world"],
        "start_method": run["start_method"],
        "worker_seconds": {str(k): v for k, v in run["worker_seconds"].items()},
    }

    kernels = []
    if not no_kernels:
        kernels = microbench_kernels(
            n_det=size.n_detectors, n_samp=min(size.n_samples, 4096)
        )

    table = Table(
        ["measure", "value"], title=f"perf: {size_name} / {backend_name} x{procs}"
    )
    table.add_row(["host CPUs", host["cpus"]])
    table.add_row(["measured wall", format_seconds(run["wall_seconds"])])
    if baseline_seconds is not None and procs > 1:
        table.add_row(["1-process baseline", format_seconds(baseline_seconds)])
        table.add_row(["measured speedup", f"{measured_speedup:.2f}x"])
    table.add_row(["modeled (perfmodel)", format_seconds(modeled_seconds)])
    table.add_row(["workers", f"{run['n_workers']} ({run['start_method']})"])
    print(table.render())

    if kernels:
        ktable = Table(
            ["kernel", "python [s]", "numpy [s]", "speedup"],
            title="per-kernel batching speedup (python -> numpy)",
        )
        for row in kernels:
            ktable.add_row(
                [
                    row["kernel"],
                    f"{row['python_seconds']:.4g}",
                    f"{row['numpy_seconds']:.4g}",
                    f"{row['speedup']:.1f}x",
                ]
            )
        print()
        print(ktable.render())
        worst = min(row["speedup"] for row in kernels)
        print(f"\nminimum kernel speedup: {worst:.1f}x")

    today = datetime.date.today().isoformat()
    path = json_path if json_path is not None else Path(f"BENCH_{today}.json")
    doc = {"schema": "repro-perf/1", "host": host, "runs": []}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
            if existing.get("schema") == "repro-perf/1":
                doc = existing
                doc["host"] = host
        except (ValueError, OSError):
            pass
    doc["runs"].append(
        {
            "date": today,
            "size": size_name,
            "backend": backend_name,
            "procs": procs,
            "seed": seed,
            "workflow": workflow,
            "kernels": kernels,
        }
    )
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"\nrecorded: {path}")
    return 0


def _cmd_plan(size_name: str, backend_name: str, as_json: bool, seed: int) -> int:
    from ..accel.transfer import TransferModel
    from ..compilepipe import plan_report, render_plan
    from ..core.dispatch import use_implementation
    from ..perfmodel import estimate_movement
    from .satellite import run_movement_comparison

    impl = _BACKENDS[backend_name]
    # Every plan on a fresh device; every product must agree bit for bit.
    movement = run_movement_comparison(
        SIZES[size_name], implementation=impl, realization=seed
    )
    plan = movement["plan"]
    policies = movement["policies"]
    mismatches = movement["mismatches"]
    reduction = policies["megabatch"]["launch_reduction"]
    with use_implementation(impl):
        modeled = estimate_movement(plan, TransferModel())

    if as_json:
        import json

        doc = plan_report(plan)
        doc["schema"] = "repro-plan/1"
        doc["size"] = size_name
        doc["backend"] = backend_name
        doc["parity"] = {"identical": not mismatches, "mismatches": mismatches}
        # Virtual-clock and perf-model numbers only: no wall-clock time.
        doc["policies"] = policies
        doc["launch_reduction"] = reduction
        doc["modeled_launch_seconds"] = {
            mode: est.launch_seconds for mode, est in modeled.items()
        }
        print(json.dumps(doc, indent=1))
    else:
        table = Table(
            [
                "policy",
                "exposed transfer [s]",
                "saving vs naive",
                "H2D",
                "D2H",
                "launches",
                "virtual [s]",
            ],
            title=f"data movement: {size_name} / {backend_name} "
            "(naive vs hybrid vs compiled vs megabatch)",
        )
        for mode, e in policies.items():
            saving = e.get("transfer_saving")
            table.add_row(
                [
                    mode,
                    f"{e['transfer_exposed_seconds']:.6f}",
                    "-" if saving is None else f"{saving * 100:.1f}%",
                    e["h2d_copies"],
                    e["d2h_copies"],
                    e["kernels_launched"],
                    f"{e['virtual_seconds']:.6f}",
                ]
            )
        comp, mb = policies["compiled"], policies["megabatch"]
        print(render_plan(plan))
        print()
        print(table.render())
        print(
            f"compiled plan: {comp['transfers_elided']:.0f} transfers elided, "
            f"{comp['fused_groups']:.0f} fused group(s) "
            f"({comp['launches_elided']:.0f} launches elided), "
            f"{comp['overlap_seconds'] * 1e3:.2f} ms of copies overlapped with "
            "compute"
        )
        print(
            f"megabatch plan: {mb['launches_elided']:.0f} launches elided, "
            f"{reduction:.1f}x fewer launches than per-observation dispatch"
        )
        print(
            "products bitwise identical across plans: "
            + ("yes" if not mismatches else "NO")
        )
    failed = False
    if mismatches:
        print(
            "error: the plans disagree on: " + ", ".join(mismatches),
            file=sys.stderr,
        )
        failed = True
    if reduction <= 1.0:
        print(f"error: no launch reduction ({reduction:.2f}x)", file=sys.stderr)
        failed = True
    return 1 if failed else 0


def _cmd_sweep(
    no_mps: bool,
    live: bool = False,
    live_size: str = "medium",
    live_procs: str = "1,2,4,8",
) -> int:
    print(fig4_process_sweep(mps_enabled=not no_mps)[0])
    if not live:
        return 0

    from ..parallel import run_parallel_satellite
    from ..perfmodel import cpu_runtime

    size = SIZES[live_size]
    counts = sorted({int(p) for p in live_procs.split(",") if p.strip()})
    table = Table(
        ["processes", "measured [s]", "speedup vs 1", "modeled [s]"],
        title=f"Fig 4, measured: {live_size} / numpy on {_host_info()['cpus']} CPU(s)",
    )
    base = None
    for p in counts:
        run = run_parallel_satellite(
            size, ImplementationType.NUMPY, n_procs=p
        )
        wall = run["wall_seconds"]
        if base is None:
            base = wall
        table.add_row(
            [
                p,
                f"{wall:.3f}",
                f"{base / wall:.2f}x",
                f"{cpu_runtime(p, size.total_bytes / 1e12):.3f}",
            ]
        )
    print()
    print(table.render())
    return 0


def _kernel_inventory() -> list:
    """One coverage record per registered kernel, spec-aware."""
    from ..core.dispatch import fallback_chain
    from .. import kernels as _k  # noqa: F401  (populate the registry)

    records = []
    for name in kernel_registry.kernels():
        impls = [i.value for i in kernel_registry.implementations(name)]
        spec = kernel_registry.spec(name)
        waived = sorted(spec.waive_impls) if spec is not None else []
        missing = sorted(
            {i.value for i in ImplementationType} - set(impls) - set(waived)
        )
        chain = [
            i.value for i in fallback_chain(name, ImplementationType.JAX)
        ]
        mb_impls = [
            i.value for i in kernel_registry.megabatch_implementations(name)
        ]
        records.append(
            {
                "name": name,
                "implementations": impls,
                "spec": None
                if spec is None
                else {
                    "args": spec.arg_names(),
                    "outputs": spec.output_names(),
                    "interval_batched": spec.interval_batched,
                    "fallback_eligible": spec.fallback_eligible,
                    "parity": spec.parity,
                    "megabatch": spec.megabatch,
                },
                "waived": waived,
                "missing": missing,
                "fallback_order": chain,
                "megabatch": mb_impls,
                "complete": spec is not None and not missing,
            }
        )
    return records


def _batching_rule_coverage() -> dict:
    """jaxshim primitive -> has-vmap-rule map, with unwaived holes."""
    from ..jaxshim.primitives import BATCHING_WAIVERS, batching_coverage

    coverage = batching_coverage()
    return {
        "primitives": coverage,
        "waived": sorted(BATCHING_WAIVERS),
        "holes": sorted(
            n for n, ok in coverage.items() if not ok and n not in BATCHING_WAIVERS
        ),
    }


def _cmd_kernels(as_json: bool = False) -> int:
    records = _kernel_inventory()
    incomplete = [r["name"] for r in records if not r["complete"]]
    batching = _batching_rule_coverage()

    if as_json:
        import json

        doc = {
            "schema": "repro-kernels/1",
            "kernels": records,
            "batching_rules": batching,
        }
        print(json.dumps(doc, indent=1))
        return 1 if incomplete or batching["holes"] else 0

    impl_order = [i.value for i in ImplementationType]
    table = Table(
        ["kernel"]
        + impl_order
        + ["args", "batched", "megabatch", "fallback (from jax)"],
        title="kernel coverage (registry vs specs)",
    )
    for r in records:
        cells = [r["name"]]
        for impl in impl_order:
            if impl in r["implementations"]:
                cells.append("yes")
            elif impl in r["waived"]:
                cells.append("waived")
            else:
                cells.append("MISSING")
        spec = r["spec"]
        cells.append(len(spec["args"]) if spec else "no spec")
        cells.append("yes" if spec and spec["interval_batched"] else "no")
        cells.append("+".join(r["megabatch"]) or "-")
        cells.append(" -> ".join(r["fallback_order"]) or "-")
        table.add_row(cells)
    print(table.render())
    n_cov = sum(1 for ok in batching["primitives"].values() if ok)
    print(
        f"\n{len(records)} kernels, "
        f"{sum(1 for r in records if r['complete'])} complete; "
        f"vmap batching rules: {n_cov}/{len(batching['primitives'])} "
        f"primitives"
        + (f" ({len(batching['waived'])} waived)" if batching["waived"] else "")
    )
    failed = False
    if incomplete:
        print(
            "error: kernels missing implementations without a spec waiver: "
            + ", ".join(incomplete),
            file=sys.stderr,
        )
        failed = True
    if batching["holes"]:
        print(
            "error: primitives without vmap batching rules (unwaived): "
            + ", ".join(batching["holes"]),
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


def _cmd_chaos(
    smoke: bool, seeds_arg: Optional[str], json_path: Optional[Path], quiet: bool
) -> int:
    import json

    from .chaos import run_chaos_soak

    if seeds_arg:
        try:
            seeds = [int(s) for s in seeds_arg.split(",") if s.strip()]
        except ValueError:
            print(
                f"repro-bench: error: bad --seeds {seeds_arg!r} "
                "(want e.g. 0,1,2)",
                file=sys.stderr,
            )
            return 1
    else:
        seeds = list(range(3)) if smoke else list(range(10))
    if not seeds:
        print("repro-bench: error: no seeds to run", file=sys.stderr)
        return 1

    report = run_chaos_soak(seeds, verbose=not quiet)
    report["host"] = _host_info()
    report["mode"] = "smoke" if smoke else "soak"
    if json_path is not None:
        json_path.parent.mkdir(parents=True, exist_ok=True)
        json_path.write_text(json.dumps(report, indent=1) + "\n")

    table = Table(
        ["seed", "legs", "faults fired", "verdict"],
        title=f"chaos {'smoke' if smoke else 'soak'}: {len(seeds)} seed(s)",
    )
    for result in report["results"]:
        fired = sum(len(leg["fired"]) for leg in result["legs"])
        table.add_row(
            [
                result["seed"],
                "+".join(sorted(result["plan"])),
                fired,
                "ok" if result["ok"] else "; ".join(result["problems"]),
            ]
        )
    print(table.render())
    print(
        f"\n{sum(1 for r in report['results'] if r['ok'])}/{len(seeds)} seeds ok "
        f"in {report['seconds']:.1f}s"
        + (f"; report: {json_path}" if json_path is not None else "")
    )
    if not report["ok"]:
        bad = [str(r["seed"]) for r in report["results"] if not r["ok"]]
        print(
            "error: chaos invariants violated; replay with "
            f"`repro-bench chaos --seeds {','.join(bad)}`",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_ingest(
    size_name: str,
    backend_name: str,
    budget: Optional[int],
    procs_arg: str,
    no_compiled: bool,
    no_faults: bool,
    seed: int,
    json_path: Optional[Path],
) -> int:
    import json

    from .ingest import run_ingest_benchmark

    try:
        procs = sorted({int(p) for p in procs_arg.split(",") if p.strip()})
    except ValueError:
        print(
            f"repro-bench: error: bad --procs {procs_arg!r} (want e.g. 1,2)",
            file=sys.stderr,
        )
        return 1
    if not procs or any(p < 1 for p in procs):
        print("repro-bench: error: --procs wants counts >= 1", file=sys.stderr)
        return 1

    report = run_ingest_benchmark(
        size=size_name,
        implementation=_BACKENDS[backend_name],
        host_budget_bytes=budget,
        elastic_procs=procs,
        compiled=not no_compiled,
        faults=not no_faults,
        seed=seed,
    )
    if json_path is not None:
        doc = dict(report)
        doc["schema"] = "repro-ingest/1"
        doc["host"] = _host_info()
        json_path.parent.mkdir(parents=True, exist_ok=True)
        json_path.write_text(json.dumps(doc, indent=1) + "\n")

    def _verdict(ok: bool) -> str:
        return "bitwise identical" if ok else "DIFFERS"

    table = Table(
        ["measure", "value"],
        title=f"ingest smoke: {size_name} / {backend_name}",
    )
    table.add_row(["chunk samples", report["chunk_samples"]])
    table.add_row(["host budget", f"{report['host_budget_bytes']} bytes"])
    table.add_row(["stream windows", report["stream_windows"]])
    scrub = report["scrub"]
    table.add_row(
        [
            "open-time scrub",
            f"{scrub['chunks_checked']} chunk(s) checked, "
            f"{len(scrub['in_flight'])} in-flight, "
            f"{len(scrub['quarantined'])} quarantined",
        ]
    )
    if "torn_write" in report:
        tw = report["torn_write"]
        table.add_row(
            [
                "torn write during spill",
                f"{tw['faults_injected']} injected, "
                f"{tw['commit_retries']} commit retr"
                + ("y" if tw["commit_retries"] == 1 else "ies"),
            ]
        )
    table.add_row(["eager streamed vs in-memory", _verdict(report["eager_identical"])])
    if "bitrot" in report:
        br = report["bitrot"]
        table.add_row(
            [
                "bit-rot replay",
                f"{br['quarantined']} quarantined, {br['regenerated']} "
                f"regenerated; {_verdict(br['identical'])}",
            ]
        )
    if "compiled_identical" in report:
        table.add_row(
            ["compiled streamed vs in-memory", _verdict(report["compiled_identical"])]
        )
    for n_procs, leg in report["elastic"].items():
        table.add_row(
            [
                f"elastic x{n_procs} ({leg['stream_windows']} windows)",
                _verdict(leg["identical"]),
            ]
        )
    print(table.render())
    if json_path is not None:
        print(f"\nreport: {json_path}")
    if not report["identical"]:
        print(
            "error: a streamed run diverged from its in-memory oracle",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_serve(
    size_name: str, n_clients: int, seed: int, quiet: bool
) -> int:
    from ..serve import SmokeFailure, run_serve_smoke

    try:
        report = run_serve_smoke(
            size=size_name, n_clients=n_clients, seed=seed, verbose=not quiet
        )
    except SmokeFailure as exc:
        print(f"serve smoke FAILED: {exc}", file=sys.stderr)
        return 1

    broker = report["broker"]
    table = Table(
        ["measure", "value"], title=f"serve smoke: {size_name} x{n_clients} clients"
    )
    for nid, node in broker["nodes"].items():
        table.add_row(
            [
                f"node {nid}",
                f"breaker {node['breaker']}, {node['produces']} produce(s), "
                f"{node['failures']} failure(s)",
            ]
        )
    counters = broker["counters"]
    for label, key in [
        ("resolves", "resolves"),
        ("coalesced resolves", "coalesced_resolves"),
        ("node failures", "node_failures"),
        ("rejections", "rejections"),
    ]:
        if counters.get(key):
            table.add_row([label, counters[key]])
    table.add_row(["trace events", report["trace_events"]])
    table.add_row(["leaks", "none (processes + /dev/shm clean)"])
    print(table.render())
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "figures":
        return _cmd_figures(args.out)
    if args.command == "run":
        return _cmd_run(
            args.size, args.backend, args.naive, args.no_mapmaking, args.seed
        )
    if args.command == "trace":
        return _cmd_trace(
            args.size, args.backend, args.out, args.naive, args.no_mapmaking, args.seed
        )
    if args.command == "faults":
        return _cmd_faults(
            args.size, args.backend, args.plan, args.seed, args.out, args.no_mapmaking
        )
    if args.command == "perf":
        return _cmd_perf(
            args.size,
            args.backend,
            args.procs,
            args.json,
            args.seed,
            args.no_baseline,
            args.no_kernels,
        )
    if args.command == "plan":
        return _cmd_plan(args.size, args.backend, args.json, args.seed)
    if args.command == "sweep":
        return _cmd_sweep(args.no_mps, args.live, args.live_size, args.live_procs)
    if args.command == "serve":
        return _cmd_serve(args.size, args.clients, args.seed, args.quiet)
    if args.command == "chaos":
        return _cmd_chaos(args.smoke, args.seeds, args.json, args.quiet)
    if args.command == "ingest":
        return _cmd_ingest(
            args.size,
            args.backend,
            args.budget,
            args.procs,
            args.no_compiled,
            args.no_faults,
            args.seed,
            args.json,
        )
    if args.command == "kernels":
        return _cmd_kernels(args.json)
    raise AssertionError("unreachable")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except Exception as exc:  # argparse exits via SystemExit before this
        print(f"repro-bench: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
