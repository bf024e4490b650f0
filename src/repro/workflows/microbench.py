"""Per-kernel microbenchmarks and shared argument factories.

One place builds realistic kernel arguments at any problem size; two
places consume it:

* the bitwise parity suite (``tests/test_kernel_parity.py``) runs every
  batched ``numpy`` kernel against the ``python`` oracle over detector
  counts, flag masks, and degenerate interval lists;
* ``repro-bench perf`` times ``python`` vs ``numpy`` per kernel and
  reports the measured batching speedup.

The kernel set is not enumerated here: :func:`kernel_cases` iterates the
kernel registry and pairs every parity-eligible :class:`KernelSpec` with
its argument builder.  Output keys come from the spec's ``OUT``/``INOUT``
intents, and each builder's kwargs are checked against the spec's
argument names -- a kernel registered without coverage here, or a
builder drifting from its spec, fails loudly.

Factories return ``(kwargs, output_keys)`` with freshly allocated arrays
on every call, so in-place kernels cannot leak state between runs.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.dispatch import ImplementationType, KernelRegistry, kernel_registry
from ..math import qa

__all__ = ["kernel_cases", "run_kernel_case", "microbench_kernels"]

ArgsFactory = Callable[[], Tuple[Dict[str, object], List[str]]]


def make_intervals(n_samp: int, kind: str = "irregular") -> Tuple[np.ndarray, np.ndarray]:
    """Interval lists exercising the flattening logic.

    ``irregular``: uneven spans with gaps (the realistic case);
    ``full``: one span covering everything; ``empty``: no spans at all;
    ``degenerate``: the irregular spans plus three that hold no sample --
    an empty span inside a gap, an inverted span starting in a gap, and
    the empty span ``[n_samp, n_samp)`` -- so every kernel must give the
    irregular list's result.
    """
    if kind == "degenerate":
        starts, stops = make_intervals(n_samp, "irregular")
        if len(starts) < 3:
            raise ValueError("degenerate intervals need n_samp >= 8")
        gap = (stops[0] + starts[1]) // 2
        starts = np.append(starts, [gap, stops[2], n_samp])
        stops = np.append(stops, [gap, starts[2], n_samp])
        order = np.argsort(starts, kind="stable")
        return starts[order], stops[order]
    if kind == "empty":
        e = np.zeros(0, dtype=np.int64)
        return e, e
    if kind == "full":
        return np.array([0], dtype=np.int64), np.array([n_samp], dtype=np.int64)
    if n_samp < 8:
        return np.array([0], dtype=np.int64), np.array([n_samp], dtype=np.int64)
    q = n_samp // 8
    starts = np.array([0, 2 * q, 5 * q, n_samp - q // 2 - 1], dtype=np.int64)
    stops = np.array([q + q // 2, 4 * q, 6 * q + q // 2, n_samp], dtype=np.int64)
    return starts, stops


def _arg_builders(
    n_det: int,
    n_samp: int,
    nside: int,
    nnz: int,
    seed: int,
    intervals: str,
    with_flags: bool,
) -> Dict[str, Callable[[], Dict[str, object]]]:
    """kwargs builders per kernel name (outputs derive from the spec)."""
    starts, stops = make_intervals(n_samp, intervals)
    npix = 12 * nside * nside
    step = max(4, n_samp // 8)
    n_amp_det = (n_samp + step - 1) // step

    def rng(salt: int) -> np.random.Generator:
        return np.random.default_rng(seed + salt)

    def shared_flags(salt: int) -> Optional[np.ndarray]:
        if not with_flags:
            return None
        flags = np.zeros(n_samp, dtype=np.uint8)
        r = rng(salt)
        flags[r.choice(n_samp, max(1, n_samp // 8), replace=False)] |= 1
        flags[r.choice(n_samp, max(1, n_samp // 12), replace=False)] |= 2
        return flags

    def det_flags(salt: int) -> Optional[np.ndarray]:
        if not with_flags:
            return None
        flags = np.zeros((n_det, n_samp), dtype=np.uint8)
        r = rng(salt)
        flags[r.random((n_det, n_samp)) < 0.1] |= 1
        flags[r.random((n_det, n_samp)) < 0.1] |= 2
        return flags

    def det_quats(salt: int) -> np.ndarray:
        r = rng(salt)
        return qa.from_angles(
            r.uniform(0.01, np.pi - 0.01, (n_det, n_samp)),
            r.uniform(-np.pi, np.pi, (n_det, n_samp)),
            r.uniform(-np.pi, np.pi, (n_det, n_samp)),
        )

    def pointing_detector() -> Dict[str, object]:
        r = rng(1)
        fp = qa.from_angles(
            r.uniform(0.0, 0.1, n_det),
            r.uniform(0, 1, n_det),
            r.uniform(0, 1, n_det),
        )
        bore = qa.from_angles(
            r.uniform(0.1, np.pi - 0.1, n_samp),
            r.uniform(-np.pi, np.pi, n_samp),
            np.zeros(n_samp),
        )
        return dict(
            fp_quats=fp,
            boresight=bore,
            quats_out=np.zeros((n_det, n_samp, 4)),
            starts=starts,
            stops=stops,
            shared_flags=shared_flags(2),
            mask=1 if with_flags else 0,
        )

    def stokes_weights_I() -> Dict[str, object]:
        return dict(
            weights_out=np.zeros((n_det, n_samp)),
            cal=1.25,
            starts=starts,
            stops=stops,
        )

    def stokes_weights_IQU() -> Dict[str, object]:
        r = rng(3)
        return dict(
            quats=det_quats(3),
            weights_out=np.zeros((n_det, n_samp, nnz)),
            hwp_angle=r.uniform(0, 2 * np.pi, n_samp),
            epsilon=r.uniform(0.0, 0.2, n_det),
            cal=1.1,
            starts=starts,
            stops=stops,
        )

    def pixels_healpix() -> Dict[str, object]:
        return dict(
            quats=det_quats(4),
            pixels_out=np.zeros((n_det, n_samp), dtype=np.int64),
            nside=nside,
            nest=True,
            starts=starts,
            stops=stops,
            shared_flags=shared_flags(5),
            mask=2 if with_flags else 0,
        )

    def pixels(salt: int) -> np.ndarray:
        r = rng(salt)
        # Few distinct pixels -> guaranteed scatter collisions.
        pix = r.integers(0, max(2, npix // 100), (n_det, n_samp))
        pix[r.random((n_det, n_samp)) < 0.02] = -1
        return pix

    def scan_map() -> Dict[str, object]:
        r = rng(6)
        return dict(
            map_data=r.normal(size=(npix, nnz)),
            pixels=pixels(6),
            weights=r.normal(size=(n_det, n_samp, nnz)),
            tod=r.normal(size=(n_det, n_samp)),
            starts=starts,
            stops=stops,
            data_scale=0.5,
            should_zero=False,
            should_subtract=False,
        )

    def noise_weight() -> Dict[str, object]:
        r = rng(7)
        return dict(
            tod=r.normal(size=(n_det, n_samp)),
            det_weights=r.uniform(0.5, 2.0, n_det),
            starts=starts,
            stops=stops,
        )

    def build_noise_weighted() -> Dict[str, object]:
        r = rng(8)
        return dict(
            zmap=np.zeros((npix, nnz)),
            pixels=pixels(8),
            weights=r.normal(size=(n_det, n_samp, nnz)),
            tod=r.normal(size=(n_det, n_samp)),
            det_scale=r.uniform(0.5, 1.5, n_det),
            starts=starts,
            stops=stops,
            shared_flags=shared_flags(9),
            mask=1 if with_flags else 0,
            det_flags=det_flags(15),
            det_mask=2 if with_flags else 0,
        )

    def template_offset_add_to_signal() -> Dict[str, object]:
        r = rng(10)
        return dict(
            step_length=step,
            amplitudes=r.normal(size=n_det * n_amp_det),
            amp_offsets=np.arange(n_det, dtype=np.int64) * n_amp_det,
            tod=r.normal(size=(n_det, n_samp)),
            starts=starts,
            stops=stops,
        )

    def template_offset_project_signal() -> Dict[str, object]:
        r = rng(11)
        return dict(
            step_length=step,
            tod=r.normal(size=(n_det, n_samp)),
            amplitudes=np.zeros(n_det * n_amp_det),
            amp_offsets=np.arange(n_det, dtype=np.int64) * n_amp_det,
            starts=starts,
            stops=stops,
        )

    def template_offset_apply_diag_precond() -> Dict[str, object]:
        r = rng(12)
        n = n_det * n_amp_det
        return dict(
            offset_var=r.uniform(0.5, 2.0, n),
            amp_in=r.normal(size=n),
            amp_out=np.zeros(n),
        )

    def cov_accum_diag_hits() -> Dict[str, object]:
        return dict(
            hits=np.zeros(npix, dtype=np.int64),
            pixels=pixels(13),
            starts=starts,
            stops=stops,
        )

    def cov_accum_diag_invnpp() -> Dict[str, object]:
        r = rng(14)
        n_block = nnz * (nnz + 1) // 2
        return dict(
            invnpp=np.zeros((npix, n_block)),
            pixels=pixels(14),
            weights=r.normal(size=(n_det, n_samp, nnz)),
            det_scale=r.uniform(0.5, 1.5, n_det),
            starts=starts,
            stops=stops,
        )

    return {
        fn.__name__: fn
        for fn in (
            pointing_detector,
            stokes_weights_I,
            stokes_weights_IQU,
            pixels_healpix,
            scan_map,
            noise_weight,
            build_noise_weighted,
            template_offset_add_to_signal,
            template_offset_project_signal,
            template_offset_apply_diag_precond,
            cov_accum_diag_hits,
            cov_accum_diag_invnpp,
        )
    }


def kernel_cases(
    n_det: int = 3,
    n_samp: int = 120,
    nside: int = 16,
    nnz: int = 3,
    seed: int = 314159,
    intervals: str = "irregular",
    with_flags: bool = True,
    registry: Optional[KernelRegistry] = None,
) -> Dict[str, ArgsFactory]:
    """Argument factories for every parity-eligible registered kernel.

    The kernel list comes from the registry's specs, not a hand-written
    table: a registered kernel with ``spec.parity`` but no builder here
    raises (no silent coverage gaps), as does a builder for a kernel
    that is no longer registered, or a builder whose kwargs disagree
    with the spec's argument names.
    """
    reg = registry if registry is not None else kernel_registry
    if reg is kernel_registry and not reg.kernels():
        from .. import kernels as _kernels  # noqa: F401
    specs = {
        name: spec
        for name in reg.kernels()
        if (spec := reg.spec(name)) is not None and spec.parity
    }
    builders = _arg_builders(n_det, n_samp, nside, nnz, seed, intervals, with_flags)

    uncovered = sorted(set(specs) - set(builders))
    if uncovered:
        raise RuntimeError(
            f"kernels registered without parity/microbench coverage: "
            f"{uncovered}; add argument builders in "
            f"repro/workflows/microbench.py (or declare the spec with "
            f"parity=False)"
        )
    stale = sorted(set(builders) - set(specs))
    if stale:
        raise RuntimeError(
            f"argument builders for unregistered (or parity-waived) "
            f"kernels: {stale}; remove them from repro/workflows/microbench.py"
        )

    def spec_factory(name: str) -> ArgsFactory:
        spec = specs[name]
        build = builders[name]
        outputs = list(spec.output_names())

        def factory() -> Tuple[Dict[str, object], List[str]]:
            kwargs = build()
            known = set(spec.arg_names())
            got = set(kwargs)
            # Builders may lean on kernel defaults for optional inputs, but
            # may not invent arguments or omit the spec's outputs.
            if not got <= known or not set(outputs) <= got:
                raise RuntimeError(
                    f"argument builder for kernel {name!r} drifted from its "
                    f"spec: unknown args {sorted(got - known)}, "
                    f"missing outputs {sorted(set(outputs) - got)}"
                )
            return kwargs, outputs

        return factory

    return {name: spec_factory(name) for name in sorted(specs)}


def run_kernel_case(
    name: str, impl: ImplementationType, factory: ArgsFactory
) -> List[np.ndarray]:
    """Run one kernel on fresh arguments; return its output arrays."""
    fn = kernel_registry.get(name, impl, allow_fallback=False)
    args, outputs = factory()
    fn(**args, accel=None, use_accel=False)
    return [args[k] for k in outputs]


def microbench_kernels(
    n_det: int = 32,
    n_samp: int = 4096,
    nside: int = 32,
    repeats: int = 3,
    kernels: Optional[List[str]] = None,
) -> List[Dict[str, object]]:
    """Time ``python`` vs ``numpy`` per kernel; best-of-``repeats``.

    Returns one row per kernel with the measured seconds and the batching
    speedup (the quantity the paper's "compiled CPU vs interpreted
    Python" comparisons turn on).
    """
    cases = kernel_cases(n_det=n_det, n_samp=n_samp, nside=nside)
    if kernels is not None:
        cases = {k: cases[k] for k in kernels}
    rows: List[Dict[str, object]] = []
    for name, factory in cases.items():
        times: Dict[ImplementationType, float] = {}
        for impl in (ImplementationType.PYTHON, ImplementationType.NUMPY):
            fn = kernel_registry.get(name, impl, allow_fallback=False)
            best = float("inf")
            for _ in range(repeats):
                args, _outs = factory()
                t0 = time.perf_counter()
                fn(**args, accel=None, use_accel=False)
                best = min(best, time.perf_counter() - t0)
            times[impl] = best
        py = times[ImplementationType.PYTHON]
        np_t = times[ImplementationType.NUMPY]
        rows.append(
            {
                "kernel": name,
                "n_det": n_det,
                "n_samp": n_samp,
                "python_seconds": py,
                "numpy_seconds": np_t,
                "speedup": (py / np_t) if np_t > 0 else float("inf"),
            }
        )
    return rows
