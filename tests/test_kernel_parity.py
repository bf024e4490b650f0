"""Bitwise parity: batched ``numpy`` kernels vs the ``python`` oracle.

The numpy backend rewrites every per-detector/per-interval Python loop as
one batched pass over flattened interval samples.  The contract is not
"numerically close" -- it is **bit-identical**: same operation order on the
same lanes, so ``tobytes()`` matches.  The suite sweeps detector counts
(including 1 and a prime), interval shapes (irregular, one full span, no
spans at all, and irregular spans mixed with empty and inverted ones), and
flag masks on/off.  Degenerate spans are empty on every backend: adding
them, or passing only inverted spans, changes no output bit.
"""

import numpy as np
import pytest

from repro.core.dispatch import ImplementationType
from repro.kernels import kernel_registry
from repro.math import qa
from repro.math.segments import segments
from repro.workflows.microbench import kernel_cases, make_intervals, run_kernel_case

# Registry-driven, not hand-enumerated: every registered kernel whose spec
# opts into parity is swept.  Computed at collection time, before any test
# can register synthetic kernels.
KERNELS = [
    name for name in kernel_registry.kernels() if kernel_registry.spec(name).parity
]

# The kernels that loop over intervals (all but the amplitude-only one).
INTERVAL_KERNELS = [name for name in KERNELS if kernel_registry.spec(name).has_arg("starts")]

DET_COUNTS = [1, 3, 17]
INTERVAL_KINDS = ["irregular", "full", "empty", "degenerate"]
BACKENDS = [
    ImplementationType.PYTHON,
    ImplementationType.NUMPY,
    ImplementationType.JAX,
    ImplementationType.OMP_TARGET,
]


def _assert_bitwise(name, py_outs, np_outs):
    assert len(py_outs) == len(np_outs)
    for a, b in zip(py_outs, np_outs):
        assert a.shape == b.shape, f"{name}: shape {a.shape} != {b.shape}"
        assert a.dtype == b.dtype, f"{name}: dtype {a.dtype} != {b.dtype}"
        if not np.array_equal(a, b):
            bad = np.flatnonzero(a.ravel() != b.ravel())
            raise AssertionError(
                f"{name}: {bad.size} of {a.size} elements differ "
                f"(first at flat index {bad[0]})"
            )
        # array_equal treats -0.0 == 0.0; the real contract is the bytes.
        assert a.tobytes() == b.tobytes(), f"{name}: bit pattern differs"


@pytest.mark.parametrize("intervals", INTERVAL_KINDS)
@pytest.mark.parametrize("n_det", DET_COUNTS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_numpy_matches_python_bitwise(kernel, n_det, intervals):
    factory = kernel_cases(n_det=n_det, n_samp=120, intervals=intervals)[kernel]
    py = run_kernel_case(kernel, ImplementationType.PYTHON, factory)
    npy = run_kernel_case(kernel, ImplementationType.NUMPY, factory)
    _assert_bitwise(kernel, py, npy)


@pytest.mark.parametrize("kernel", KERNELS)
def test_numpy_matches_python_without_flags(kernel):
    factory = kernel_cases(n_det=3, n_samp=96, with_flags=False)[kernel]
    py = run_kernel_case(kernel, ImplementationType.PYTHON, factory)
    npy = run_kernel_case(kernel, ImplementationType.NUMPY, factory)
    _assert_bitwise(kernel, py, npy)


@pytest.mark.parametrize(
    "kernel, impl",
    [
        ("pixels_healpix", ImplementationType.NUMPY),
        ("stokes_weights_IQU", ImplementationType.NUMPY),
        # The OMP body maps through the same healpix.ang2pix.  Its
        # stokes_weights_IQU does not normalize the quaternions, so it
        # matches the oracle only to rounding.
        ("pixels_healpix", ImplementationType.OMP_TARGET),
    ],
    ids=lambda p: getattr(p, "value", p),
)
def test_pole_lanes_match_python_bitwise(kernel, impl):
    """Exact-pole pointing on some lanes of a batch: the position angle's
    polar fallback and HEALPix's polar caps run on a subset of the lanes."""
    factory = kernel_cases(n_det=3, n_samp=120)[kernel]

    def with_poles():
        args, outputs = factory()
        lanes = segments(args["starts"], args["stops"]).flat[::5]
        rng = np.random.default_rng(17)
        theta = np.where(np.arange(lanes.size) % 2, np.pi, 0.0)
        phi, pa = rng.uniform(-np.pi, np.pi, (2, args["quats"].shape[0], lanes.size))
        args["quats"][:, lanes] = qa.from_angles(theta, phi, pa)
        return args, outputs

    args, _ = with_poles()
    if kernel == "pixels_healpix":
        assert args["mask"] and args["shared_flags"] is not None
    py = run_kernel_case(kernel, ImplementationType.PYTHON, with_poles)
    _assert_bitwise(kernel, py, run_kernel_case(kernel, impl, with_poles))


def test_empty_intervals_leave_outputs_untouched():
    """With no intervals every in-place kernel must be a strict no-op."""
    cases = kernel_cases(n_det=2, n_samp=64, intervals="empty")
    for name, factory in cases.items():
        if name == "template_offset_apply_diag_precond":
            continue  # operates on amplitudes, not on interval samples
        args, outputs = factory()
        before = {k: np.copy(args[k]) for k in outputs}
        out_arrays = run_kernel_case(name, ImplementationType.NUMPY, factory)
        for key, arr in zip(outputs, out_arrays):
            assert arr.tobytes() == before[key].tobytes(), (
                f"{name}: wrote to {key} despite empty interval list"
            )


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda impl: impl.value)
@pytest.mark.parametrize("kernel", INTERVAL_KERNELS)
def test_degenerate_spans_change_nothing(kernel, impl):
    """Empty and inverted spans add no samples: the result is the call's
    without them, bit for bit (including ``[n, n)`` at the end)."""
    factory = kernel_cases(n_det=3, n_samp=120, intervals="degenerate")[kernel]

    def without_degenerate():
        args, outputs = factory()
        keep = args["stops"] > args["starts"]
        return dict(args, starts=args["starts"][keep], stops=args["stops"][keep]), outputs

    plain = run_kernel_case(kernel, impl, without_degenerate)
    _assert_bitwise(kernel, plain, run_kernel_case(kernel, impl, factory))


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda impl: impl.value)
def test_all_inverted_intervals_are_a_noop(impl):
    cases = kernel_cases(n_det=2, n_samp=64)
    for name in INTERVAL_KERNELS:
        args, outputs = cases[name]()
        args["starts"] = np.array([5, 40], dtype=np.int64)
        args["stops"] = np.array([2, 30], dtype=np.int64)
        before = {k: np.copy(args[k]) for k in outputs}
        kernel_registry.get(name, impl, allow_fallback=False)(**args)
        for key in outputs:
            assert args[key].tobytes() == before[key].tobytes(), (
                f"{name}/{impl.value}: wrote to {key} with only inverted intervals"
            )


def test_segments_flat_orders_samples():
    starts = np.array([0, 10, 20], dtype=np.int64)
    stops = np.array([3, 12, 21], dtype=np.int64)
    seg = segments(starts, stops)
    assert seg.flat.tolist() == [0, 1, 2, 10, 11, 20]
    assert seg.runs == ((0, 3, 0), (10, 12, 3), (20, 21, 5))
    e = np.zeros(0, dtype=np.int64)
    assert segments(e, e).flat.size == 0


def test_segments_flat_degenerate_spans():
    """Zero-length and inverted spans hold no sample, like range()."""
    from repro.kernels.common import pad_intervals

    starts = np.array([5, 10, 30, 40], dtype=np.int64)
    stops = np.array([5, 13, 25, 40], dtype=np.int64)  # empty, ok, inverted, empty
    assert segments(starts, stops).flat.tolist() == [10, 11, 12]
    assert segments(starts, stops).runs == ((10, 13, 0),)
    # All-degenerate lists produce an empty flat index, not an error.
    assert segments(starts, starts).flat.size == 0
    idx, valid, max_len = pad_intervals(starts, starts)
    assert not valid.any() and max_len == 0


@pytest.mark.parametrize(
    "kernel", ["build_noise_weighted", "cov_accum_diag_hits", "cov_accum_diag_invnpp", "scan_map"]
)
def test_fully_masked_observation_is_parity_noop(kernel):
    """Every sample flagged/invalid: no scatter work, outputs match oracle.

    Regression for the batched kernels allocating full contribution
    arrays (and issuing zero-length scatters) when an observation is
    fully flag-masked.
    """
    factory = kernel_cases(n_det=3, n_samp=64)[kernel]

    def masked_factory():
        args, outputs = factory()
        if "shared_flags" in args and args["shared_flags"] is not None:
            args["shared_flags"][:] = 0xFF
            args["mask"] = 0xFF
        # Invalidate every pixel as well: covers kernels without flags.
        if "pixels" in args:
            args["pixels"][:] = -1
        return args, outputs

    py = run_kernel_case(kernel, ImplementationType.PYTHON, masked_factory)
    npy = run_kernel_case(kernel, ImplementationType.NUMPY, masked_factory)
    _assert_bitwise(kernel, py, npy)
    # Accumulating outputs stay exactly zero.
    args, outputs = masked_factory()
    for key, arr in zip(outputs, run_kernel_case(kernel, ImplementationType.NUMPY, masked_factory)):
        if key in ("zmap", "hits", "invnpp"):
            assert not arr.any(), f"{kernel}: accumulated into {key} despite full mask"


def test_make_intervals_kinds():
    starts, stops = make_intervals(128, "full")
    assert starts.tolist() == [0] and stops.tolist() == [128]
    starts, stops = make_intervals(128, "irregular")
    assert np.all(stops > starts) and np.all(stops <= 128)
    starts, stops = make_intervals(128, "empty")
    assert starts.size == 0 and stops.size == 0
    starts, stops = make_intervals(128, "degenerate")
    keep = stops > starts
    plain = make_intervals(128, "irregular")
    assert starts[keep].tolist() == plain[0].tolist() and stops[keep].tolist() == plain[1].tolist()
    assert (~keep).sum() == 3 and np.all(np.diff(starts) >= 0)
    assert [128, 128] in np.stack((starts, stops), axis=1).tolist()
