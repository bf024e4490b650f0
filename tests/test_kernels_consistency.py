"""Cross-implementation kernel consistency.

Every kernel must produce identical results (to float tolerance) in all
four implementations, on irregular intervals, with flags, against the
pure-Python oracle.
"""

import numpy as np
import pytest

from repro.accel import SimulatedDevice
from repro.core.dispatch import ImplementationType, kernel_registry
from repro.kernels import EXTENSION_KERNELS  # noqa: F401  (registers kernels)
from repro.math import qa
from repro.ompshim import OmpTargetRuntime
from repro.workflows.microbench import make_intervals

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
NNZ = 3
NSIDE = 16

# Irregular interval pattern exercising the padding/guard logic.
STARTS = np.array([0, 25, 60, 110], dtype=np.int64)
STOPS = np.array([20, 55, 100, 120], dtype=np.int64)

RNG = np.random.default_rng(314159)


def make_quats():
    theta = RNG.uniform(0.1, np.pi - 0.1, (N_DET, N_SAMP))
    phi = RNG.uniform(-np.pi, np.pi, (N_DET, N_SAMP))
    pa = RNG.uniform(-np.pi, np.pi, (N_DET, N_SAMP))
    return qa.from_angles(theta, phi, pa)


def make_flags():
    flags = np.zeros(N_SAMP, dtype=np.uint8)
    flags[RNG.choice(N_SAMP, 15, replace=False)] |= 1
    flags[RNG.choice(N_SAMP, 10, replace=False)] |= 2
    return flags


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


# Argument factories build fresh inputs/outputs per call so in-place
# mutation cannot leak between implementations.

def pointing_detector_args():
    rng1 = np.random.default_rng(6)
    fp = qa.from_angles(
        rng1.uniform(0.0, 0.1, N_DET),
        rng1.uniform(0, 1, N_DET),
        rng1.uniform(0, 1, N_DET),
    )
    rng2 = np.random.default_rng(7)
    bore = qa.from_angles(
        rng2.uniform(0.1, np.pi - 0.1, N_SAMP),
        rng2.uniform(-np.pi, np.pi, N_SAMP),
        np.zeros(N_SAMP),
    )
    flags = np.zeros(N_SAMP, dtype=np.uint8)
    flags[::7] = 1
    return (
        dict(
            fp_quats=fp,
            boresight=bore,
            quats_out=np.zeros((N_DET, N_SAMP, 4)),
            starts=STARTS,
            stops=STOPS,
            shared_flags=flags,
            mask=1,
        ),
        ["quats_out"],
    )


def stokes_I_args():
    return (
        dict(
            weights_out=np.zeros((N_DET, N_SAMP)),
            cal=1.25,
            starts=STARTS,
            stops=STOPS,
        ),
        ["weights_out"],
    )


def stokes_IQU_args():
    rng2 = np.random.default_rng(8)
    quats = qa.from_angles(
        rng2.uniform(0.1, np.pi - 0.1, (N_DET, N_SAMP)),
        rng2.uniform(-np.pi, np.pi, (N_DET, N_SAMP)),
        rng2.uniform(-np.pi, np.pi, (N_DET, N_SAMP)),
    )
    return (
        dict(
            quats=quats,
            weights_out=np.zeros((N_DET, N_SAMP, 3)),
            hwp_angle=rng2.uniform(0, 2 * np.pi, N_SAMP),
            epsilon=np.array([0.0, 0.05, 0.1]),
            cal=1.1,
            starts=STARTS,
            stops=STOPS,
        ),
        ["weights_out"],
    )


def pixels_args(nest):
    rng2 = np.random.default_rng(9)
    quats = qa.from_angles(
        rng2.uniform(0.01, np.pi - 0.01, (N_DET, N_SAMP)),
        rng2.uniform(-np.pi, np.pi, (N_DET, N_SAMP)),
        np.zeros((N_DET, N_SAMP)),
    )
    flags = np.zeros(N_SAMP, dtype=np.uint8)
    flags[::11] = 2
    return (
        dict(
            quats=quats,
            pixels_out=np.zeros((N_DET, N_SAMP), dtype=np.int64),
            nside=NSIDE,
            nest=nest,
            starts=STARTS,
            stops=STOPS,
            shared_flags=flags,
            mask=2,
        ),
        ["pixels_out"],
    )


def scan_map_args():
    rng2 = np.random.default_rng(10)
    npix = 12 * NSIDE * NSIDE
    pixels = rng2.integers(0, npix, (N_DET, N_SAMP))
    pixels[0, 5] = -1  # flagged pointing
    return (
        dict(
            map_data=rng2.normal(size=(npix, NNZ)),
            pixels=pixels,
            weights=rng2.normal(size=(N_DET, N_SAMP, NNZ)),
            tod=np.ones((N_DET, N_SAMP)),
            starts=STARTS,
            stops=STOPS,
            data_scale=0.5,
            should_zero=False,
            should_subtract=False,
        ),
        ["tod"],
    )


def scan_map_zero_subtract_args():
    args, outs = scan_map_args()
    args["should_zero"] = True
    args["should_subtract"] = True
    return args, outs


def noise_weight_args():
    rng2 = np.random.default_rng(11)
    return (
        dict(
            tod=rng2.normal(size=(N_DET, N_SAMP)),
            det_weights=np.array([0.5, 1.0, 2.0]),
            starts=STARTS,
            stops=STOPS,
        ),
        ["tod"],
    )


def build_noise_weighted_args():
    rng2 = np.random.default_rng(12)
    npix = 12 * NSIDE * NSIDE
    pixels = rng2.integers(0, 50, (N_DET, N_SAMP))  # few pixels: duplicates
    pixels[1, 30] = -1
    flags = np.zeros(N_SAMP, dtype=np.uint8)
    flags[::13] = 1
    return (
        dict(
            zmap=np.zeros((npix, NNZ)),
            pixels=pixels,
            weights=rng2.normal(size=(N_DET, N_SAMP, NNZ)),
            tod=rng2.normal(size=(N_DET, N_SAMP)),
            det_scale=np.array([1.0, 0.7, 1.3]),
            starts=STARTS,
            stops=STOPS,
            shared_flags=flags,
            mask=1,
        ),
        ["zmap"],
    )


STEP = 16
N_AMP_DET = (N_SAMP + STEP - 1) // STEP


def offset_add_args():
    rng2 = np.random.default_rng(13)
    return (
        dict(
            step_length=STEP,
            amplitudes=rng2.normal(size=N_DET * N_AMP_DET),
            amp_offsets=np.arange(N_DET, dtype=np.int64) * N_AMP_DET,
            tod=rng2.normal(size=(N_DET, N_SAMP)),
            starts=STARTS,
            stops=STOPS,
        ),
        ["tod"],
    )


def offset_project_args():
    rng2 = np.random.default_rng(14)
    return (
        dict(
            step_length=STEP,
            tod=rng2.normal(size=(N_DET, N_SAMP)),
            amplitudes=np.zeros(N_DET * N_AMP_DET),
            amp_offsets=np.arange(N_DET, dtype=np.int64) * N_AMP_DET,
            starts=STARTS,
            stops=STOPS,
        ),
        ["amplitudes"],
    )


def precond_args():
    rng2 = np.random.default_rng(15)
    n = N_DET * N_AMP_DET
    return (
        dict(
            offset_var=rng2.uniform(0.5, 2.0, n),
            amp_in=rng2.normal(size=n),
            amp_out=np.zeros(n),
        ),
        ["amp_out"],
    )


def cov_hits_args():
    rng2 = np.random.default_rng(16)
    npix = 12 * NSIDE * NSIDE
    pixels = rng2.integers(0, 50, (N_DET, N_SAMP))
    pixels[2, 12] = -1
    return (
        dict(
            hits=np.zeros(npix, dtype=np.int64),
            pixels=pixels,
            starts=STARTS,
            stops=STOPS,
        ),
        ["hits"],
    )


def cov_invnpp_args():
    rng2 = np.random.default_rng(17)
    npix = 12 * NSIDE * NSIDE
    pixels = rng2.integers(0, 50, (N_DET, N_SAMP))
    pixels[0, 44] = -1
    nblock = NNZ * (NNZ + 1) // 2
    return (
        dict(
            invnpp=np.zeros((npix, nblock)),
            pixels=pixels,
            weights=rng2.normal(size=(N_DET, N_SAMP, NNZ)),
            det_scale=np.array([1.0, 0.8, 1.2]),
            starts=STARTS,
            stops=STOPS,
        ),
        ["invnpp"],
    )


CASES = {
    "pointing_detector": pointing_detector_args,
    "stokes_weights_I": stokes_I_args,
    "stokes_weights_IQU": stokes_IQU_args,
    "pixels_healpix": lambda: pixels_args(nest=False),
    "scan_map": scan_map_args,
    "noise_weight": noise_weight_args,
    "build_noise_weighted": build_noise_weighted_args,
    "template_offset_add_to_signal": offset_add_args,
    "template_offset_project_signal": offset_project_args,
    "template_offset_apply_diag_precond": precond_args,
    "cov_accum_diag_hits": cov_hits_args,
    "cov_accum_diag_invnpp": cov_invnpp_args,
}


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
    reference = run_impl(
        "pixels_healpix", ImplementationType.PYTHON, lambda: pixels_args(nest=True)
    )
    for impl in (ImplementationType.NUMPY, ImplementationType.JAX, ImplementationType.OMP_TARGET):
        out = run_impl("pixels_healpix", impl, lambda: pixels_args(nest=True))
        np.testing.assert_array_equal(out[0], reference[0])


def test_scan_map_zero_subtract_modes():
    reference = run_impl(
        "scan_map", ImplementationType.PYTHON, scan_map_zero_subtract_args
    )
    for impl in (ImplementationType.NUMPY, ImplementationType.JAX, ImplementationType.OMP_TARGET):
        out = run_impl("scan_map", impl, scan_map_zero_subtract_args)
        np.testing.assert_allclose(out[0], reference[0], rtol=1e-12)


def test_outside_intervals_untouched():
    """Samples outside every interval must never be written."""
    sentinel_args, _ = noise_weight_args()
    gap_mask = np.ones(N_SAMP, dtype=bool)
    for a, b in zip(STARTS, STOPS):
        gap_mask[a:b] = False
    for impl in IMPLS:
        args, _ = noise_weight_args()
        before = args["tod"].copy()
        fn = kernel_registry.get("noise_weight", impl, allow_fallback=False)
        fn(**args)
        np.testing.assert_array_equal(args["tod"][:, gap_mask], before[:, gap_mask])


def with_intervals(factory, starts, stops):
    """``factory`` with its interval list replaced."""

    def build():
        args, outputs = factory()
        return dict(args, starts=starts, stops=stops), outputs

    return build


INTERVAL_KERNELS = [name for name in KERNEL_NAMES if "starts" in CASES[name]()[0]]
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
    plain = run_impl(name, impl, with_intervals(CASES[name], starts[keep], stops[keep]), use_accel)
    degenerate = run_impl(name, impl, with_intervals(CASES[name], starts, stops), use_accel)
    for a, b in zip(plain, degenerate):
        assert a.tobytes() == b.tobytes(), f"{name}: degenerate spans changed the result"


@pytest.mark.parametrize("name", INTERVAL_KERNELS)
@pytest.mark.parametrize("impl", ACCEL_IMPLS, ids=lambda impl: impl.value)
@pytest.mark.parametrize("use_accel", [False, True], ids=["host", "device"])
def test_all_inverted_intervals_no_op(name, impl, use_accel):
    factory = with_intervals(CASES[name], *INVERTED)
    args, outputs = factory()
    before = [args[k] for k in outputs]
    for old, out in zip(before, run_impl(name, impl, factory, use_accel)):
        assert out.tobytes() == old.tobytes(), f"{name}: wrote with only inverted intervals"


def test_empty_intervals_no_op():
    empty = np.array([], dtype=np.int64)
    for impl in IMPLS:
        args, _ = noise_weight_args()
        args["starts"] = empty
        args["stops"] = empty
        before = args["tod"].copy()
        fn = kernel_registry.get("noise_weight", impl, allow_fallback=False)
        fn(**args)
        np.testing.assert_array_equal(args["tod"], before)


def build_noise_weighted_detflags_args():
    rng2 = np.random.default_rng(42)
    npix = 12 * NSIDE * NSIDE
    pixels = rng2.integers(0, 50, (N_DET, N_SAMP))
    det_flags = np.zeros((N_DET, N_SAMP), dtype=np.uint8)
    det_flags[0, ::5] = 1
    det_flags[2, 40:60] = 2
    flags = np.zeros(N_SAMP, dtype=np.uint8)
    flags[::17] = 1
    return (
        dict(
            zmap=np.zeros((npix, NNZ)),
            pixels=pixels,
            weights=rng2.normal(size=(N_DET, N_SAMP, NNZ)),
            tod=rng2.normal(size=(N_DET, N_SAMP)),
            det_scale=np.array([1.0, 0.7, 1.3]),
            starts=STARTS,
            stops=STOPS,
            shared_flags=flags,
            mask=1,
            det_flags=det_flags,
            det_mask=3,
        ),
        ["zmap"],
    )


class TestDetectorFlags:
    """TOAST's kernels also honour per-detector flags; all four
    implementations must apply them identically."""

    @pytest.mark.parametrize(
        "impl",
        [ImplementationType.NUMPY, ImplementationType.JAX, ImplementationType.OMP_TARGET],
    )
    def test_det_flags_match_oracle(self, impl):
        ref = run_impl(
            "build_noise_weighted",
            ImplementationType.PYTHON,
            build_noise_weighted_detflags_args,
        )
        out = run_impl("build_noise_weighted", impl, build_noise_weighted_detflags_args)
        np.testing.assert_allclose(out[0], ref[0], rtol=1e-12, atol=1e-12)

    def test_det_flags_change_result(self):
        flagged = run_impl(
            "build_noise_weighted",
            ImplementationType.NUMPY,
            build_noise_weighted_detflags_args,
        )

        def unflagged_args():
            args, outs = build_noise_weighted_detflags_args()
            args["det_flags"] = None
            args["det_mask"] = 0
            return args, outs

        plain = run_impl("build_noise_weighted", ImplementationType.NUMPY, unflagged_args)
        assert not np.allclose(flagged[0], plain[0])
