"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload omp-hybrid --seed 1 --seconds 20 --trace 0

Run from the repository root; the program under test is imported from
``src/`` next to this directory.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the full run record, which is also
written, with the spans of a traced run, under ``.perfbench_out/``.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("omp-hybrid", "jax-megabatch", "stream-windows")


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` or exit non-zero."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import repro from {src}: {exc}")
    where = Path(repro.__file__).resolve().parent.parent
    if where != src:
        sys.exit(f"perfbench: imported repro from {where}, expected {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_program()
    from perfbench.harness import measure
    from perfbench.workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    record, spans = measure(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), OUT_DIR
    )
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"record-{stem}.json").write_text(json.dumps(record, indent=1))
    if spans is not None:
        (OUT_DIR / f"spans-{stem}.json").write_text(json.dumps(spans.as_json()))
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
