"""Smoke tests: every example script runs to completion.

Examples are part of the public deliverable; these tests keep them from
rotting as the library evolves.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def run_example(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_examples_discovered():
    assert len(EXAMPLES) >= 5
    assert "quickstart.py" in EXAMPLES


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name):
    args = ("tiny", "omp_target") if name == "satellite_benchmark.py" else ()
    result = run_example(name, *args)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "examples must produce output"


def test_satellite_benchmark_rejects_bad_backend():
    result = run_example("satellite_benchmark.py", "tiny", "cuda")
    assert result.returncode != 0


def test_package_quickstart_runs():
    """The ``Quickstart::`` block of the package docstring runs as written."""
    lines = []
    for line in repro.__doc__.split("Quickstart::", 1)[1].splitlines()[1:]:
        if line.strip() and not line.startswith("    "):
            break
        lines.append(line)
    namespace = {}
    exec(compile(textwrap.dedent("\n".join(lines)), "repro.__doc__", "exec"), namespace)
    assert namespace["zmap"].shape == (12 * namespace["size"].nside ** 2, 3)
    assert namespace["zmap"].any()
