"""Ablation: the fixed cost of one streamed window.

The stream-windows dataset (perfbench's size: 16 observations of 4
detectors x 4096 samples, nside 32) streams out of an ObservationStore at
512, 1024, 2048 and 4096-sample windows: the same samples in 128, 64, 32
and 16 windows.  Each window length gets its own store, chunked at that
length, so every window reads one chunk per array, as perfbench's
stream-windows workload does.

Every map must be bitwise equal to the others and to the in-memory numpy
host map; that is the gate.  The unit times (median of alternating
rounds) are printed, not gated, with the per-window fixed cost two ways:
the least-squares slope of unit time against window count, and
``(unit at 64 windows - unit at 16 windows) / 48``.
"""

import statistics
import time

import numpy as np

from repro.core import ImplementationType
from repro.store import ObservationStore, StreamConfig, stream_pipeline
from repro.workflows.satellite import (
    SizeSpec,
    make_satellite_data,
    same_bits,
    satellite_processing_pipeline,
)

SIZE = SizeSpec("stream-windows", 16, 2, 4096, 32)
WINDOWS = (512, 1024, 2048, 4096)
ROUNDS = 5
NUMPY = ImplementationType.NUMPY


def test_window_length_ablation(benchmark, publish, tmp_path):
    data = make_satellite_data(SIZE, realization=1)
    sky = data["sky_map"]
    stores = {}
    for w in WINDOWS:
        root = tmp_path / f"w{w}"
        store = ObservationStore.create(root, chunk_samples=w)
        for ob in data.obs:
            store.spill_observation(ob)
        stores[w] = ObservationStore.open(root)
    # The in-memory host map (this writes the noise weighting into data).
    satellite_processing_pipeline(SIZE.nside, implementation=NUMPY).apply(data)
    oracle = data["zmap"]

    pipe = satellite_processing_pipeline(SIZE.nside, implementation=NUMPY)

    def unit(w):
        return stream_pipeline(
            stores[w], pipe, meta={"sky_map": sky}, config=StreamConfig(window_samples=w)
        )

    n_windows = {}
    for w in WINDOWS:  # warm-up: every header parsed, every map checked
        out = unit(w)
        n_windows[w] = out.stream_windows
        assert same_bits(out["zmap"], oracle), f"{w}-sample windows differ from the host map"
    times = {w: [] for w in WINDOWS}
    for r in range(ROUNDS):
        for w in WINDOWS if r % 2 == 0 else WINDOWS[::-1]:
            t0 = time.perf_counter()
            out = unit(w)
            times[w].append(time.perf_counter() - t0)
            assert same_bits(out["zmap"], oracle), f"{w}-sample windows differ from the host map"
    benchmark(lambda: unit(1024))

    unit_ms = {w: statistics.median(times[w]) * 1e3 for w in WINDOWS}
    counts = [n_windows[w] for w in WINDOWS]
    slope, intercept = np.polyfit(counts, [unit_ms[w] for w in WINDOWS], 1)
    by_count = {n_windows[w]: unit_ms[w] for w in WINDOWS}
    lines = [
        "ablation: window length (stream-windows dataset, numpy host kernels)",
        f"  samples per unit        : {SIZE.total_samples}",
        "  window  windows  unit [ms]",
    ]
    lines += [f"  {w:6d}  {n_windows[w]:7d}  {unit_ms[w]:9.2f}" for w in WINDOWS]
    lines += [
        f"  fitted fixed cost       : {slope:.3f} ms per window "
        f"(+ {intercept:.1f} ms per unit)",
        f"  (t64 - t16) / 48        : {(by_count[64] - by_count[16]) / 48:.3f} ms per window",
        "  results                 : every map bit-identical to the host map",
    ]
    publish("ablation_window", "\n".join(lines))
