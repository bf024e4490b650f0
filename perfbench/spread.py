"""Run-to-run spread of the end-to-end metrics, for checking the bounds.

    python3 perfbench/spread.py --workload omp-hybrid --seeds 1-10 --seconds 20

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints for
each end-to-end metric the median of the runs, the distance between their
first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of that median, and the metric's bound from ``BENCHMARK.json``.  A
bound holds when that share stays below it; the benchmark aims for a third
of it.  Next to each calibrated time it prints the median and spread of
the same time in raw wall seconds (``detail.wall`` of the run record), so
a shift of the calibration divisor shows as the two medians moving apart.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> List[int]:
    """``"1-5"`` -> ``[1, 2, 3, 4, 5]``."""
    lo, hi = (int(x) for x in text.split("-", 1))
    return list(range(lo, hi + 1))


def one_run(workload: str, seed: int, seconds: int) -> Tuple[Dict[str, float], Dict[str, float]]:
    """One run's metrics, and its raw-wall counterparts of the calibrated times."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    record, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed units")
    return {k: v["value"] for k, v in result["metrics"].items()}, record["detail"]["wall"]


def iqr_share(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs, walls = [], []
    for seed in args.seeds:
        metrics, wall = one_run(args.workload, seed, args.seconds)
        runs.append(metrics)
        walls.append(wall)
        print(f"seed {seed}: " + ", ".join(f"{k}={v:.6g}" for k, v in metrics.items()),
              flush=True)
    print(f"{'metric':<16}{'median':>14}{'iqr/median':>12}{'bound':>8}"
          f"{'raw median':>14}{'raw iqr/med':>13}")
    for name, bound in bounds.items():
        values = [r[name] for r in runs]
        share = iqr_share(values)
        flag = "" if share < bound / 3 else ("  over 1/3 bound" if share < bound else "  OVER BOUND")
        raw = ""
        if name in walls[0]:
            raw_values = [w[name] for w in walls]
            raw = f"{statistics.median(raw_values):>14.6g}{iqr_share(raw_values):>13.4f}"
        print(f"{name:<16}{statistics.median(values):>14.6g}{share:>12.4f}{bound:>8}{raw}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
