"""Cross-implementation kernel consistency.

Every kernel must produce identical results (to float tolerance) in all
four implementations, on irregular intervals, with flags, against the
pure-Python oracle.  Inputs come from the registry-driven argument
builders of :func:`repro.workflows.microbench.kernel_cases`, the ones the
bitwise parity suite uses; the cases here vary them with
:func:`with_args`.
"""

import numpy as np
import pytest

from repro.accel import SimulatedDevice
from repro.core.dispatch import ImplementationType, kernel_registry
from repro.kernels import EXTENSION_KERNELS  # noqa: F401  (registers kernels)
from repro.ompshim import OmpTargetRuntime
from repro.workflows.microbench import kernel_cases, make_intervals

IMPLS = [
    ImplementationType.PYTHON,
    ImplementationType.NUMPY,
    ImplementationType.JAX,
    ImplementationType.OMP_TARGET,
]

# Registry-driven, not hand-enumerated: every registered kernel whose spec
# opts into parity testing is swept.  Computed at collection time, before
# any test registers synthetic kernels.
KERNEL_NAMES = sorted(
    name for name in kernel_registry.kernels() if kernel_registry.spec(name).parity
)

N_DET = 3
N_SAMP = 120

# Irregular intervals, shared flags on the pointing kernels and
# build_noise_weighted, detector flags on build_noise_weighted, few
# distinct pixels (scatter collisions) with some invalid ones.
CASES = kernel_cases(n_det=N_DET, n_samp=N_SAMP)


def run_impl(name, impl, args_factory, use_accel=False):
    """Run one kernel implementation on freshly-built arguments."""
    fn = kernel_registry.get(name, impl, allow_fallback=False)
    args, outputs = args_factory()
    accel = None
    if use_accel:
        accel = OmpTargetRuntime(SimulatedDevice(memory_bytes=1 << 26))
        mapped = [a for a in args.values() if isinstance(a, np.ndarray)]
        accel.target_enter_data(to=mapped)
        fn(**args, accel=accel, use_accel=True)
        for arr in mapped:
            accel.target_update_from(arr)
        accel.target_exit_data(release=mapped)
    else:
        fn(**args, accel=None, use_accel=False)
    return [args[k] for k in outputs]


def with_args(factory, **changes):
    """``factory`` with some of its arguments replaced."""

    def build():
        args, outputs = factory()
        return dict(args, **changes), outputs

    return build


class TestRegistryCompleteness:
    def test_all_kernels_have_all_impls(self):
        for name in KERNEL_NAMES:
            impls = kernel_registry.implementations(name)
            spec = kernel_registry.spec(name)
            waived = {ImplementationType(w) for w in spec.waive_impls}
            missing = (set(IMPLS) - set(impls)) - waived
            assert not missing, f"{name} missing implementations: {sorted(missing)}"

    def test_every_kernel_has_a_spec(self):
        for name in kernel_registry.kernels():
            assert kernel_registry.spec(name) is not None, f"{name} has no spec"

    def test_case_table_covers_all_kernels(self):
        assert set(CASES) == set(KERNEL_NAMES)


@pytest.mark.parametrize("name", KERNEL_NAMES)
@pytest.mark.parametrize(
    "impl", [ImplementationType.NUMPY, ImplementationType.JAX, ImplementationType.OMP_TARGET]
)
def test_impl_matches_python_oracle(name, impl):
    reference = run_impl(name, ImplementationType.PYTHON, CASES[name])
    candidate = run_impl(name, impl, CASES[name])
    for ref, out in zip(reference, candidate):
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("name", KERNEL_NAMES)
@pytest.mark.parametrize("impl", [ImplementationType.JAX, ImplementationType.OMP_TARGET])
def test_accel_path_matches_oracle(name, impl):
    """The device path (mapped arrays, device views) agrees too."""
    reference = run_impl(name, ImplementationType.PYTHON, CASES[name])
    candidate = run_impl(name, impl, CASES[name], use_accel=True)
    for ref, out in zip(reference, candidate):
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)


# OpenMP kernels that reproduce the pure-Python oracle bit for bit -- every
# scatter kernel among them, so an OMP accumulation that adds in another
# order than the oracle's nested loop fails here, where the 1e-12 checks
# above would pass it.  Two kernels only agree to rounding and are left
# out: scan_map sums the nnz products with einsum where the oracle adds
# them one by one, and stokes_weights_IQU computes the position angle with
# its own formula where the oracle calls qa.to_angles.
OMP_BITWISE_KERNELS = sorted(set(KERNEL_NAMES) - {"scan_map", "stokes_weights_IQU"})


@pytest.mark.parametrize("name", OMP_BITWISE_KERNELS)
@pytest.mark.parametrize("use_accel", [False, True], ids=["host", "device"])
def test_omp_matches_python_oracle_bitwise(name, use_accel):
    reference = run_impl(name, ImplementationType.PYTHON, CASES[name])
    candidate = run_impl(
        name, ImplementationType.OMP_TARGET, CASES[name], use_accel=use_accel
    )
    for ref, out in zip(reference, candidate):
        np.testing.assert_array_equal(out, ref)


def test_pixels_nest_consistency():
    for nest in (True, False):
        factory = with_args(CASES["pixels_healpix"], nest=nest)
        reference = run_impl("pixels_healpix", ImplementationType.PYTHON, factory)
        for impl in IMPLS[1:]:
            out = run_impl("pixels_healpix", impl, factory)
            np.testing.assert_array_equal(out[0], reference[0])


def test_scan_map_zero_subtract_modes():
    factory = with_args(CASES["scan_map"], should_zero=True, should_subtract=True)
    reference = run_impl("scan_map", ImplementationType.PYTHON, factory)
    for impl in (ImplementationType.NUMPY, ImplementationType.JAX, ImplementationType.OMP_TARGET):
        out = run_impl("scan_map", impl, factory)
        np.testing.assert_allclose(out[0], reference[0], rtol=1e-12)


def test_outside_intervals_untouched():
    """Samples outside every interval must never be written."""
    for impl in IMPLS:
        args, _ = CASES["noise_weight"]()
        gap_mask = np.ones(N_SAMP, dtype=bool)
        for a, b in zip(args["starts"], args["stops"]):
            gap_mask[a:b] = False
        assert gap_mask.any()
        before = args["tod"].copy()
        fn = kernel_registry.get("noise_weight", impl, allow_fallback=False)
        fn(**args)
        np.testing.assert_array_equal(args["tod"][:, gap_mask], before[:, gap_mask])


INTERVAL_KERNELS = [name for name in KERNEL_NAMES if kernel_registry.spec(name).has_arg("starts")]
DEGENERATE = make_intervals(N_SAMP, "degenerate")
INVERTED = (np.array([5, 40], dtype=np.int64), np.array([2, 30], dtype=np.int64))
ACCEL_IMPLS = [ImplementationType.JAX, ImplementationType.OMP_TARGET]


@pytest.mark.parametrize("name", INTERVAL_KERNELS)
@pytest.mark.parametrize("impl", ACCEL_IMPLS, ids=lambda impl: impl.value)
@pytest.mark.parametrize("use_accel", [False, True], ids=["host", "device"])
def test_degenerate_spans_change_nothing(name, impl, use_accel):
    """Empty and inverted spans -- one in a gap, one at ``[n, n)`` -- add no
    samples on either accelerated port: bitwise the call without them."""
    starts, stops = DEGENERATE
    keep = stops > starts
    plain = run_impl(
        name, impl, with_args(CASES[name], starts=starts[keep], stops=stops[keep]), use_accel
    )
    degenerate = run_impl(name, impl, with_args(CASES[name], starts=starts, stops=stops), use_accel)
    for a, b in zip(plain, degenerate):
        assert a.tobytes() == b.tobytes(), f"{name}: degenerate spans changed the result"


@pytest.mark.parametrize("name", INTERVAL_KERNELS)
@pytest.mark.parametrize("impl", ACCEL_IMPLS, ids=lambda impl: impl.value)
@pytest.mark.parametrize("use_accel", [False, True], ids=["host", "device"])
def test_all_inverted_intervals_no_op(name, impl, use_accel):
    starts, stops = INVERTED
    factory = with_args(CASES[name], starts=starts, stops=stops)
    args, outputs = factory()
    before = [args[k] for k in outputs]
    for old, out in zip(before, run_impl(name, impl, factory, use_accel)):
        assert out.tobytes() == old.tobytes(), f"{name}: wrote with only inverted intervals"


def test_empty_intervals_no_op():
    empty = np.array([], dtype=np.int64)
    for impl in IMPLS:
        args, _ = with_args(CASES["noise_weight"], starts=empty, stops=empty)()
        before = args["tod"].copy()
        fn = kernel_registry.get("noise_weight", impl, allow_fallback=False)
        fn(**args)
        np.testing.assert_array_equal(args["tod"], before)


class TestDetectorFlags:
    """TOAST's kernels also honour per-detector flags; all four
    implementations must apply them identically."""

    @pytest.mark.parametrize(
        "impl",
        [ImplementationType.NUMPY, ImplementationType.JAX, ImplementationType.OMP_TARGET],
    )
    def test_det_flags_match_oracle(self, impl):
        factory = CASES["build_noise_weighted"]
        args, _ = factory()
        assert args["det_flags"] is not None and args["det_mask"]
        ref = run_impl("build_noise_weighted", ImplementationType.PYTHON, factory)
        out = run_impl("build_noise_weighted", impl, factory)
        np.testing.assert_allclose(out[0], ref[0], rtol=1e-12, atol=1e-12)

    def test_det_flags_change_result(self):
        factory = CASES["build_noise_weighted"]
        flagged = run_impl("build_noise_weighted", ImplementationType.NUMPY, factory)
        unflagged = with_args(factory, det_flags=None, det_mask=0)
        plain = run_impl("build_noise_weighted", ImplementationType.NUMPY, unflagged)
        assert not np.allclose(flagged[0], plain[0])
