"""Figure report generators: the tables behind Figs 2-6.

Each ``fig*`` function returns a rendered ASCII table (and the underlying
rows) matching one figure of the paper; the benchmark harness prints them.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..kernels import BENCHMARK_KERNELS, KERNEL_NAMES
from ..perfmodel import (
    Backend,
    full_benchmark_runtimes,
    per_kernel_times,
    process_sweep,
)
from ..perfmodel.calibration import CPU_MODEL, FULL_BENCHMARK, KERNEL_CALIBRATION
from ..utils.cloc import LineCount, count_file
from ..utils.table import Table, format_seconds

__all__ = [
    "loc_per_kernel",
    "loc_totals",
    "fig2_loc_total",
    "fig3_loc_per_kernel",
    "fig4_process_sweep",
    "fig5_full_benchmark",
    "fig6_per_kernel",
]

_KERNELS_ROOT = Path(__file__).resolve().parent.parent / "kernels"

#: The HEALPix substrate both host-side ports map pixels through
#: (``healpix.ang2pix`` in the numpy kernel and in the OMP loop body).
_HEALPIX_DEPS = [
    _KERNELS_ROOT.parent / "healpix" / name for name in ("ring.py", "nest.py", "bits.py", "core.py")
]

#: The segment descriptor every port walks its intervals through: the
#: numpy flat lanes, the JAX padded lanes, and the OMP launcher's
#: in-loop guard, written once.
_SEGMENTS = _KERNELS_ROOT.parent / "math" / "segments.py"

#: Implementation label -> (kernel directory, dependency files).  The
#: dependency lists mirror the paper's Fig 2 definition: code the port
#: authors wrote beyond the kernel bodies (shared math, data movement,
#: GPU-related types) -- not the underlying framework libraries.
_IMPLEMENTATIONS: Dict[str, Tuple[str, List[Path]]] = {
    "cpu_baseline": (
        "numpy_cpu",
        [
            _KERNELS_ROOT.parent / "math" / "quaternion.py",
            # The gather/scatter substrate both host-side ports index through.
            _KERNELS_ROOT.parent / "math" / "rows.py",
            _SEGMENTS,
            *_HEALPIX_DEPS,
        ],
    ),
    "jax": (
        "jax",
        [
            _KERNELS_ROOT / "jax" / "qarray.py",
            _KERNELS_ROOT / "jax" / "healpix_jax.py",
            # The port's shared pad/compile/write-back steps.
            _KERNELS_ROOT / "jax" / "kernel.py",
            _KERNELS_ROOT / "common.py",
            _SEGMENTS,
        ],
    ),
    "omp_target": (
        "omp",
        [
            _KERNELS_ROOT / "common.py",
            _KERNELS_ROOT.parent / "math" / "rows.py",
            _SEGMENTS,
            *_HEALPIX_DEPS,
            # The OMP port's hand-written accelerator machinery (paper
            # §3.1.2): the device memory pool and the host<->device
            # association/data-movement layer.
            _KERNELS_ROOT.parent / "accel" / "pool.py",
            _KERNELS_ROOT.parent / "ompshim" / "datamap.py",
        ],
    ),
}


def loc_per_kernel(impl: str) -> Dict[str, int]:
    """Code lines of each kernel module for one implementation."""
    directory, _ = _IMPLEMENTATIONS[impl]
    out: Dict[str, int] = {}
    for name in KERNEL_NAMES:
        path = _KERNELS_ROOT / directory / f"{name}.py"
        out[name] = count_file(path).code
    return out


def loc_totals(impl: str) -> Tuple[int, int]:
    """(kernel-only code lines, with-dependencies code lines)."""
    directory, deps = _IMPLEMENTATIONS[impl]
    kernel_lines = sum(loc_per_kernel(impl).values())
    dep_lines = 0
    for path in deps:
        dep_lines += count_file(path).code
    return kernel_lines, kernel_lines + dep_lines


def fig2_loc_total() -> Tuple[str, Dict[str, Tuple[int, int]]]:
    """Fig 2: total lines per implementation, kernel-only and with deps."""
    rows: Dict[str, Tuple[int, int]] = {}
    table = Table(
        ["implementation", "kernel LoC", "LoC incl. deps", "kernel ratio vs CPU"],
        title="Fig 2 - lines of code per implementation",
    )
    base = None
    for impl in _IMPLEMENTATIONS:
        k, total = loc_totals(impl)
        rows[impl] = (k, total)
        if impl == "cpu_baseline":
            base = k
    for impl, (k, total) in rows.items():
        table.add_row([impl, k, total, k / base])
    note = (
        "paper: JAX ~1.2x shorter than the C++ CPU baseline, OMP ~1.8x longer.\n"
        "Here the OMP port is longer too, ~1.6x: its pragma/mapping overhead\n"
        "is intrinsic, while the in-loop interval guard is written once, in\n"
        "the segment descriptor the launcher reads, and counts as a\n"
        "dependency.  The JAX ratio inverts: the paper's baseline is\n"
        "verbose C++, while this reproduction's 'compiled CPU' stand-in is\n"
        "already NumPy -- the very high-level style that made the paper's\n"
        "JAX port short (their port went C++ -> NumPy -> JAX, and the\n"
        "brevity is credited to the NumPy-like syntax, 3.3)."
    )
    return table.render() + "\n" + note, rows


def fig3_loc_per_kernel() -> Tuple[str, Dict[str, Dict[str, int]]]:
    """Fig 3: lines of code per kernel per implementation."""
    per = {impl: loc_per_kernel(impl) for impl in _IMPLEMENTATIONS}
    table = Table(
        ["kernel"] + list(_IMPLEMENTATIONS),
        title="Fig 3 - lines of code per kernel",
    )
    for name in KERNEL_NAMES:
        table.add_row([name] + [per[impl][name] for impl in _IMPLEMENTATIONS])
    return table.render(), per


def fig4_process_sweep(mps_enabled: bool = True) -> Tuple[str, list]:
    """Fig 4: runtime vs process count (medium problem, one node)."""
    sweep = process_sweep(mps_enabled=mps_enabled)
    by_backend: Dict[Backend, Dict[int, Optional[float]]] = {}
    for pt in sweep:
        by_backend.setdefault(pt.backend, {})[pt.n_procs] = pt.runtime_s
    table = Table(
        ["processes", "CPU", "JAX", "JAX speedup", "OMP target", "OMP speedup"],
        title="Fig 4 - runtime vs process count (medium, 1 node)"
        + ("" if mps_enabled else " [MPS OFF]"),
    )
    procs = sorted(by_backend[Backend.CPU])
    for p in procs:
        cpu = by_backend[Backend.CPU][p]
        jax = by_backend[Backend.JAX][p]
        omp = by_backend[Backend.OMP][p]
        table.add_row(
            [
                p,
                format_seconds(cpu),
                "OOM" if jax is None else format_seconds(jax),
                None if jax is None else cpu / jax,
                "OOM" if omp is None else format_seconds(omp),
                None if omp is None else cpu / omp,
            ]
        )
    return table.render(), sweep


def fig5_full_benchmark() -> Tuple[str, Dict[Backend, float]]:
    """Fig 5: the large problem on 8 nodes, plus the Amdahl decomposition."""
    times = full_benchmark_runtimes()
    table = Table(
        ["implementation", "runtime", "speedup vs CPU"],
        title="Fig 5 - full benchmark (large, 8 nodes x 16 procs x 4 threads)",
    )
    cpu = times[Backend.CPU]
    labels = {
        Backend.CPU: "OpenMP CPU (baseline)",
        Backend.JAX: "JAX (GPU)",
        Backend.OMP: "OpenMP Target Offload (GPU)",
        Backend.JAX_CPU_BACKEND: "JAX forced CPU backend (text, not plotted)",
    }
    for backend in (Backend.CPU, Backend.JAX, Backend.OMP, Backend.JAX_CPU_BACKEND):
        t = times[backend]
        table.add_row([labels[backend], format_seconds(t), cpu / t])
    ported = CPU_MODEL["ported_seconds"]
    decomposition = (
        f"Amdahl decomposition at the reference configuration: ported kernels "
        f"{format_seconds(ported)} of {format_seconds(cpu / 1.25)} per medium-"
        f"node-volume -> ideal-GPU ceiling ~{cpu / 1.25 / (cpu / 1.25 - ported):.1f}x "
        f"(paper: 'bounded by Amdahl's law to about 3x')"
    )
    return table.render() + "\n" + decomposition, times


def fig6_per_kernel() -> Tuple[str, Dict[str, Dict[str, float]]]:
    """Fig 6: per-kernel totals (medium, 16 procs) for the 3 backends."""
    cpu = per_kernel_times(Backend.CPU)
    jax = per_kernel_times(Backend.JAX)
    omp = per_kernel_times(Backend.OMP)
    table = Table(
        ["operation", "CPU", "JAX", "JAX speedup", "OMP", "OMP speedup"],
        title="Fig 6 - total runtime per kernel (medium, 16 procs)",
    )
    for name in BENCHMARK_KERNELS:
        table.add_row(
            [
                name,
                format_seconds(cpu[name]),
                format_seconds(jax[name]),
                cpu[name] / jax[name],
                format_seconds(omp[name]),
                cpu[name] / omp[name],
            ]
        )
    for op in sorted(k for k in jax if k.startswith("accel_data")):
        table.add_row([op, None, format_seconds(jax[op]), None, format_seconds(omp[op]), None])
    return table.render(), {"cpu": cpu, "jax": jax, "omp": omp}
