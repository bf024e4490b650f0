"""The satellite telescope benchmark (paper §4).

Assembles the full workflow: simulate the scan and the sky/noise signal,
expand pointing, compute pixels and Stokes weights, scan the sky map,
noise-weight, accumulate the noise-weighted map, and run the
template-offset map-maker.  Problem sizes are scaled-down live versions of
the paper's *medium* (5e9 samples) and *large* (5e10 samples)
configurations; the analytic performance model extrapolates to the paper's
scales (see :mod:`repro.perfmodel`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core import (
    Data,
    ImplementationType,
    MovementPolicy,
    Pipeline,
    fake_hexagon_focalplane,
)
from ..core.timing import Timer
from ..healpix import npix as healpix_npix
from ..ompshim import OmpTargetRuntime
from ..ops import (
    BuildNoiseWeighted,
    DefaultNoiseModel,
    MapMaker,
    NoiseWeight,
    PixelsHealpix,
    PointingDetector,
    ScanMap,
    SimNoise,
    SimSatellite,
    StokesWeights,
    create_fake_sky,
)

__all__ = [
    "SizeSpec",
    "SIZES",
    "NNZ",
    "satellite_sky",
    "make_satellite_data",
    "same_bits",
    "satellite_processing_pipeline",
    "run_satellite_benchmark",
    "run_fault_injection_benchmark",
    "run_movement_comparison",
]


@dataclass(frozen=True)
class SizeSpec:
    """One benchmark problem size."""

    name: str
    n_observations: int
    n_pixels: int  # focalplane pixels (2 detectors each)
    n_samples: int  # per observation
    nside: int

    @property
    def n_detectors(self) -> int:
        return 2 * self.n_pixels

    @property
    def total_samples(self) -> int:
        return self.n_observations * self.n_detectors * self.n_samples

    @property
    def total_bytes(self) -> int:
        # TOAST's sizing rule of thumb: the paper equates 5e9 detector
        # samples with ~1 TB of data (~200 bytes/sample across all
        # timestream products).
        return 200 * self.total_samples


#: Live (scaled) sizes plus the paper's modeled sizes.  The *paper_**
#: entries are never executed directly; the performance model uses their
#: sample counts.
SIZES: Dict[str, SizeSpec] = {
    "tiny": SizeSpec("tiny", 2, 2, 1024, 16),
    "small": SizeSpec("small", 2, 7, 8192, 32),
    "medium_scaled": SizeSpec("medium_scaled", 4, 19, 16384, 64),
    # Enough observations to shard across several live workers (the
    # measured Figure 4 sweep); same per-observation cost as medium_scaled.
    "medium": SizeSpec("medium", 8, 19, 16384, 64),
    # Paper sizes: 5e9 and 5e10 total samples ("a couple thousand
    # detectors"); 2048 detectors x 26 observations x ~94k samples = 5e9.
    "paper_medium": SizeSpec("paper_medium", 26, 1024, 93912, 1024),
    "paper_large": SizeSpec("paper_large", 260, 1024, 93912, 1024),
}


#: Stokes components (I, Q, U) of every satellite map.
NNZ = 3


def satellite_sky(size: SizeSpec, realization: int = 0) -> np.ndarray:
    """The input sky map (I/Q/U) of the benchmark's ``realization``."""
    return create_fake_sky(size.nside, nnz=NNZ, seed=realization + 11)


def make_satellite_data(
    size: SizeSpec,
    obs_indices: Optional[Sequence[int]] = None,
    realization: int = 0,
    sky: Optional[np.ndarray] = None,
) -> Data:
    """Simulate the benchmark dataset: scan, noise model, sky map, signal.

    ``obs_indices`` restricts the dataset to those observations (pinned
    by a :class:`~repro.parallel.sharding.SubsetComm`); ``None`` means
    every observation.  Simulation is counter-based and layout-independent,
    so a shard holds exactly the bytes of the same observations in a full
    run.  ``sky`` passes in an already built :func:`satellite_sky` of the
    same ``realization``, so many shards need not rebuild it.
    """
    comm = None
    if obs_indices is not None:
        from ..parallel.sharding import SubsetComm

        comm = SubsetComm(obs_indices)
    focalplane = fake_hexagon_focalplane(
        n_pixels=size.n_pixels,
        sample_rate=50.0,
        net=1.0,
        fknee=0.05,
    )
    data = Data(comm=comm)
    sim = SimSatellite(
        focalplane,
        n_observations=size.n_observations,
        n_samples=size.n_samples,
        scan_samples=max(128, size.n_samples // 8),
        gap_samples=max(8, size.n_samples // 128),
    )
    sim.apply(data)
    DefaultNoiseModel().apply(data)
    data["sky_map"] = satellite_sky(size, realization) if sky is None else sky
    SimNoise(realization=realization).apply(data)
    return data


def same_bits(a, b) -> bool:
    """Byte-exact equality: same dtype, same shape, same bytes.

    The parity gates' one comparison.  Unlike ``np.array_equal`` it tells
    -0.0 from +0.0, and it compares NaNs by payload instead of failing
    on any NaN.
    """
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def satellite_processing_pipeline(
    nside: int,
    implementation: Optional[ImplementationType] = None,
    accel: Optional[OmpTargetRuntime] = None,
    policy: MovementPolicy = MovementPolicy.HYBRID,
    plan: str = "eager",
) -> Pipeline:
    """The GPU-portable section of the benchmark.

    Pointing expansion, pixelization, Stokes weights, sky-signal scan,
    noise weighting, and noise-weighted map accumulation -- the chain of
    lightweight kernels the hybrid pipeline keeps resident on the device.
    """
    n_pix = healpix_npix(nside)
    return Pipeline(
        [
            PointingDetector(),
            PixelsHealpix(nside=nside, nest=True),
            StokesWeights(mode="IQU"),
            ScanMap(),
            NoiseWeight(),
            # The NoiseWeight op already applied N^-1 to the timestream.
            BuildNoiseWeighted(n_pix=n_pix, nnz=NNZ, use_det_weights=False),
        ],
        name="satellite_processing",
        implementation=implementation,
        accel=accel,
        policy=policy,
        plan=plan,
    )


def run_satellite_benchmark(
    size: SizeSpec,
    implementation: ImplementationType = ImplementationType.NUMPY,
    accel: Optional[OmpTargetRuntime] = None,
    policy: MovementPolicy = MovementPolicy.HYBRID,
    mapmaking: bool = True,
    realization: int = 0,
    export_dir=None,
) -> Dict[str, object]:
    """Run the live benchmark end to end; returns outputs and timings.

    The returned dict holds the destriped map, the accumulated
    noise-weighted map, wall-clock seconds, and (when an accelerator is
    used) the virtual-clock accounting per kernel.  With ``export_dir``
    the output maps are written to disk inside the timed region -- the
    paper's runtimes include export time.
    """
    wall = Timer().start()
    data = make_satellite_data(size, realization=realization)
    pipe = satellite_processing_pipeline(
        size.nside, implementation=implementation, accel=accel, policy=policy
    )
    pipe.apply(data)

    result: Dict[str, object] = {}
    if mapmaking:
        mapper = MapMaker(
            n_pix=healpix_npix(size.nside),
            nnz=NNZ,
            step_length=max(64, size.n_samples // 64),
            max_iterations=10,
        )
        # Map-making reuses the raw signal; run with the same dispatch.
        from ..core.dispatch import use_implementation

        with use_implementation(implementation):
            mapper.apply(data)
        result["destriped_map"] = data["destriped_map"]
        result["mapmaker_iterations"] = mapper.n_iterations_run

    if export_dir is not None:
        from ..io import save_map

        save_map(data["zmap"], f"{export_dir}/zmap", nside=size.nside, nest=True)
        if mapmaking:
            save_map(
                data["destriped_map"],
                f"{export_dir}/destriped_map",
                nside=size.nside,
                nest=True,
            )
    wall.stop()

    result["zmap"] = data["zmap"]
    result["wall_seconds"] = wall.elapsed
    result["n_samples"] = data.n_samples_total * data.obs[0].n_detectors if data.obs else 0
    if accel is not None:
        result["virtual_regions"] = accel.device.clock.regions()
        result["virtual_seconds"] = accel.device.clock.now
        result["kernels_launched"] = accel.device.kernels_launched
    return result


def run_movement_comparison(
    size: SizeSpec,
    implementation: ImplementationType = ImplementationType.OMP_TARGET,
    realization: int = 0,
) -> Dict[str, object]:
    """The chain under NAIVE, HYBRID, COMPILED, and MEGABATCH movement.

    Runs the same problem four times on fresh devices and reports, per
    policy, the *exposed* transfer seconds (synchronous copies plus
    waited-out async tails), copy counts, launch counts, and — for the
    compiled/megabatch plans — the elision/fusion/overlap numbers.  The
    megabatch entry also records ``launch_reduction``: eager per-
    observation dispatch launches divided by its own.  Every product
    (the noise-weighted map and each observation's detdata) must be
    bitwise identical across the four runs: ``mismatches`` names the
    products that differ from the NAIVE run's.

    Every plan is reported at one jit-cache state: a run that traced a
    new executable was charged the modeled ``jit_compile`` (which also
    hides copy tails behind it), so it is rerun warm and the rerun is
    reported.
    """
    from .. import obs as _obs
    from ..compilepipe import transfer_seconds
    from ..obs.events import EventType

    runs = [
        ("naive", MovementPolicy.NAIVE, "eager"),
        ("hybrid", MovementPolicy.HYBRID, "eager"),
        ("compiled", MovementPolicy.HYBRID, "compiled"),
        ("megabatch", MovementPolicy.HYBRID, "megabatch"),
    ]

    def measure(policy: MovementPolicy, plan: str):
        accel = OmpTargetRuntime()
        data = make_satellite_data(size, realization=realization)
        pipe = satellite_processing_pipeline(
            size.nside,
            implementation=implementation,
            accel=accel,
            policy=policy,
            plan=plan,
        )
        tracer = _obs.Tracer()
        with _obs.tracing(tracer):
            pipe.exec(data, use_accel=True, accel=accel)
        return accel, data, pipe, tracer

    def products(data: Data) -> Dict[str, np.ndarray]:
        out = {"zmap": data["zmap"]}
        for ob in data.obs:
            for key, value in ob.detdata.items():
                out[f"{ob.name}.{key}"] = value
        return out

    out: Dict[str, object] = {"policies": {}}
    mismatches: List[str] = []
    reference = None
    for mode, policy, plan in runs:
        accel, data, pipe, tracer = measure(policy, plan)
        if accel.device.clock.region_time("jit_compile") > 0:
            accel, data, pipe, tracer = measure(policy, plan)
        clock = accel.device.clock
        m = tracer.metrics
        entry: Dict[str, object] = {
            "transfer_exposed_seconds": transfer_seconds(clock),
            "h2d_copies": len(tracer.events_of(EventType.H2D)),
            "d2h_copies": len(tracer.events_of(EventType.D2H)),
            "h2d_bytes": m.counter("transfer.h2d_bytes").value,
            "d2h_bytes": m.counter("transfer.d2h_bytes").value,
            "kernels_launched": accel.device.kernels_launched,
            "virtual_seconds": clock.now,
        }
        if plan in ("compiled", "megabatch"):
            entry["transfers_elided"] = m.counter("pipeline.transfers_elided").value
            entry["fused_groups"] = m.counter("pipeline.fused_groups").value
            entry["launches_elided"] = m.counter("pipeline.launches_elided").value
            entry["overlap_seconds"] = m.counter("pipeline.overlap_seconds").value
            if plan == "compiled":
                out["plan"] = pipe.last_plan
        got = products(data)
        if reference is None:
            reference = got
        else:
            mismatches += [
                name
                for name, value in reference.items()
                if name not in mismatches
                and not (name in got and same_bits(value, got[name]))
            ]
        out["policies"][mode] = entry

    naive_s = out["policies"]["naive"]["transfer_exposed_seconds"]
    for mode in ("hybrid", "compiled", "megabatch"):
        e = out["policies"][mode]
        e["transfer_saving"] = (
            1.0 - e["transfer_exposed_seconds"] / naive_s if naive_s > 0 else 0.0
        )
    # Launch reduction vs per-observation dispatch (eager hybrid is the
    # per-observation baseline the paper's launch-overhead argument uses).
    hybrid_l = out["policies"]["hybrid"]["kernels_launched"]
    mb_l = out["policies"]["megabatch"]["kernels_launched"]
    out["policies"]["megabatch"]["launch_reduction"] = (
        hybrid_l / mb_l if mb_l > 0 else 0.0
    )
    out["mismatches"] = mismatches
    return out


def run_fault_injection_benchmark(
    size: SizeSpec,
    implementation: ImplementationType = ImplementationType.JAX,
    plan_name: str = "oom-then-recover",
    seed: int = 0,
    policy: MovementPolicy = MovementPolicy.HYBRID,
    mapmaking: bool = True,
    realization: int = 0,
    tracer=None,
) -> Dict[str, object]:
    """Run the benchmark fault-free, then again under an injected fault
    plan, and compare the output maps bit for bit.

    The faulted run executes with a :class:`~repro.resilience.controller.
    ResilienceController` installed: injected faults fire per the named
    plan (re-seeded with ``seed`` for exact replay) and the recovery plane
    handles them.  A ``tracer`` captures the faulted run's events so every
    recovery decision is visible in the exported trace.  Returns the
    recovery report plus per-map comparisons (max abs diff and a CRC32 of
    the raw bytes -- when recovery keeps execution on the device the maps
    must be bitwise identical).
    """
    import zlib

    from .. import obs as _obs
    from .. import resilience
    from ..parallel import run_parallel_satellite
    from ..resilience.plans import named_plan

    plan = named_plan(plan_name, seed=seed)
    # Plans whose every site lives in the worker pool exercise the
    # multiprocess path (the elastic scheduler); device-site plans run the
    # in-process device benchmark.  Either way: clean run, faulted run,
    # bitwise comparison.
    parallel_mode = all(s.site.startswith("parallel.") for s in plan.specs)

    def _accel() -> Optional[OmpTargetRuntime]:
        if implementation in (ImplementationType.JAX, ImplementationType.OMP_TARGET):
            return OmpTargetRuntime()
        return None

    def _run_once(accel) -> Dict[str, object]:
        if parallel_mode:
            return run_parallel_satellite(
                size, implementation, n_procs=2, realization=realization
            )
        return run_satellite_benchmark(
            size,
            implementation,
            accel=accel,
            policy=policy,
            mapmaking=mapmaking,
            realization=realization,
        )

    clean = _run_once(_accel())

    accel = _accel()
    faulted: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    with resilience.resilient(plan) as ctrl:
        if accel is not None and not parallel_mode:
            ctrl.bind_clock(accel.device.clock)
        try:
            if tracer is not None:
                with _obs.tracing(tracer):
                    faulted = _run_once(accel)
            else:
                faulted = _run_once(accel)
        except Exception as exc:  # recovery failed: report, don't mask
            error = f"{type(exc).__name__}: {exc}"

    def _crc(arr: np.ndarray) -> int:
        return zlib.crc32(np.ascontiguousarray(arr).tobytes())

    maps: Dict[str, Dict[str, object]] = {}
    if parallel_mode or not mapmaking:
        names = ["zmap"]
    else:
        names = ["zmap", "destriped_map"]
    if faulted is not None:
        for name in names:
            a, b = np.asarray(clean[name]), np.asarray(faulted[name])
            maps[name] = {
                "max_abs_diff": float(np.max(np.abs(a - b))) if a.size else 0.0,
                "identical": same_bits(a, b),
                "crc32_clean": _crc(a),
                "crc32_faulted": _crc(b),
            }

    report = ctrl.report()
    report["mode"] = "parallel" if parallel_mode else "device"
    report["maps"] = maps
    report["error"] = error
    report["all_identical"] = error is None and all(
        m["identical"] for m in maps.values()
    )
    report["clean_virtual_seconds"] = clean.get("virtual_seconds")
    if faulted is not None:
        report["faulted_virtual_seconds"] = faulted.get("virtual_seconds")
        if parallel_mode:
            report["elastic"] = faulted.get("elastic")
            report["recovered_ranks"] = faulted.get("recovered_ranks")
            report["crash_injected_ranks"] = faulted.get("crash_injected_ranks")
    return report
