"""Host memory: freed pages stay mapped, and out-of-core runs stay flat.

Importing :mod:`repro` pins glibc's mmap and trim thresholds
(:mod:`repro.utils.hostmem`).  Without that, every NumPy temporary of
128 KiB or more in the OpenMP loop bodies is a fresh mapping, and each
unit faults thousands of pages in again even when the inputs are the same
size as the last unit's.

Ingest spills one observation at a time and a streamed run holds one
window at a time, so their peak resident set must not grow with the
number of observations.

Both are measured in a fresh interpreter: glibc adapts its default
thresholds to the largest mapping freed so far, and the peak resident set
is a high-water mark, so a process that has already run other tests says
little about what a new one does.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.utils.hostmem import retain_freed_memory

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the host allocator policy is glibc's mallopt; needs Linux with glibc",
)

#: A warm unit may still touch a few new pages; a unit on fresh mappings
#: makes thousands of faults.
MAX_WARM_FAULTS = 64

# Runs three units of a one-observation OMP pipeline on fresh copies of
# the same inputs and prints each unit's minor page faults as JSON.
_UNIT_FAULTS = r"""
import copy, gc, json, resource, sys

from repro.core import Data, ImplementationType, MovementPolicy
from repro.ompshim import OmpTargetRuntime
from repro.parallel.satellite import make_satellite_data_shard
from repro.workflows.satellite import SizeSpec, satellite_processing_pipeline

size = SizeSpec("hostmem", 1, 2, 4096, 32)
base = make_satellite_data_shard(size, [0], realization=0)


def fresh_inputs():
    out = Data(comm=base.comm)
    out.meta = dict(base.meta)
    for ob in base.obs:
        c = copy.copy(ob)
        c.shared = {k: v.copy() for k, v in ob.shared.items()}
        c.detdata = {k: v.copy() for k, v in ob.detdata.items()}
        c.intervals = dict(ob.intervals)
        out.obs.append(c)
    return out


impl = ImplementationType.OMP_TARGET
if sys.argv[1] == "host":
    pipe = satellite_processing_pipeline(size.nside, implementation=impl)
    run = pipe.apply
else:
    runtime = OmpTargetRuntime()
    pipe = satellite_processing_pipeline(
        size.nside, implementation=impl, accel=runtime, policy=MovementPolicy.HYBRID
    )

    def run(data):
        pipe.exec(data, use_accel=True, accel=runtime)
        pipe.finalize(data)

faults = []
for _ in range(3):
    data = fresh_inputs()
    gc.collect()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run(data)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    del data
print(json.dumps(faults))
"""


# Ingests SizeSpec(n, 4, 16384, 32) into a fresh store in 4096-sample
# chunks and streams it once in 4096-sample windows, for each n given in
# turn; after each, prints the process's peak resident set so far and one
# window's stored bytes.  The last line is the JSON list of those records.
_INGEST_PEAK = r"""
import json, sys, tempfile

from repro.store import StreamConfig, stream_pipeline
from repro.workflows.ingest import ingest_satellite_store
from repro.workflows.satellite import SizeSpec, satellite_processing_pipeline

WINDOW = 4096


def peak_bytes():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:")) * 1024


records = []
for n_obs in map(int, sys.argv[1].split(",")):
    size = SizeSpec("ingest-rss", n_obs, 4, 16384, 32)
    with tempfile.TemporaryDirectory() as tmp:
        store = ingest_satellite_store(tmp, size, realization=0, chunk_samples=WINDOW)
        stream_pipeline(
            store,
            satellite_processing_pipeline(size.nside),
            meta={"sky_map": store.load_meta("sky_map")},
            config=StreamConfig(window_samples=WINDOW),
        )
        window_bytes = store.bytes_per_sample(0) * WINDOW
    records.append({"peak_bytes": peak_bytes(), "window_bytes": window_bytes})
print(json.dumps(records))
"""

# Ingests SizeSpec(n, 4, 16384, 32) in 4096-sample chunks and streams it
# once in 4096-sample windows, for each n given in turn, under tracemalloc;
# prints the bytes the store object holds afterwards (traced bytes with the
# store alive, minus the traced bytes once it is dropped).
_STORE_HELD = r"""
import gc, json, sys, tempfile, tracemalloc

from repro.store import StreamConfig, stream_pipeline
from repro.workflows.ingest import ingest_satellite_store
from repro.workflows.satellite import SizeSpec, satellite_processing_pipeline

WINDOW = 4096

held = []
for n_obs in map(int, sys.argv[1].split(",")):
    size = SizeSpec("store-held", n_obs, 4, 16384, 32)
    with tempfile.TemporaryDirectory() as tmp:
        tracemalloc.start()
        store = ingest_satellite_store(tmp, size, realization=0, chunk_samples=WINDOW)
        stream_pipeline(
            store,
            satellite_processing_pipeline(size.nside),
            meta={"sky_map": store.load_meta("sky_map")},
            config=StreamConfig(window_samples=WINDOW),
        )
        gc.collect()
        alive = tracemalloc.get_traced_memory()[0]
        del store
        gc.collect()
        held.append(alive - tracemalloc.get_traced_memory()[0])
        tracemalloc.stop()
print(json.dumps(held))
"""

#: Bytes an open store may hold per observation after a streamed run: its
#: manifest and its read plan (chunk paths and header frames, interval
#: lists, focalplane), ~34.6 kB here.  Parsed headers cached per ``Path``
#: beside a focalplane table held 52.8 kB.
MAX_HELD_BYTES_PER_OBSERVATION = 40_000

#: How far the 8x run may lift the peak set by the 1x run, in windows of
#: stored bytes.  One observation is four windows, so holding the dataset
#: overshoots by four windows per extra observation (56 at 8x).  What does
#: grow with the observation count -- manifests and read plans --
#: measured under two windows at 8x.
MAX_GROWTH_WINDOWS = 8


def _fresh(script: str, arg: str):
    """Run ``script`` in a fresh interpreter; its last line of output, as JSON."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", script, arg],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": src, "OMP_NUM_THREADS": "1"},
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout.splitlines()[-1])


def test_retain_freed_memory_is_active_and_repeatable():
    assert retain_freed_memory() is True
    assert retain_freed_memory() is True


@pytest.mark.parametrize("path", ["host", "device"])
def test_warm_unit_faults_in_no_fresh_pages(path):
    faults = _fresh(_UNIT_FAULTS, path)
    assert faults[2] < MAX_WARM_FAULTS, (
        f"third {path} unit made {faults[2]} minor page faults "
        f"(all units: {faults}); freed temporaries are not being reused"
    )


def test_ingest_and_stream_peak_does_not_grow_with_the_dataset():
    # 1x, then 8x the observations in the same fresh interpreter: the 8x
    # run starts from the heap the 1x run left, so only growth shows.
    one, eight = _fresh(_INGEST_PEAK, "2,16")
    growth = eight["peak_bytes"] - one["peak_bytes"]
    bound = MAX_GROWTH_WINDOWS * one["window_bytes"]
    assert growth < bound, (
        f"ingest + stream of 16 observations peaked {growth / 2**20:.1f} MiB above "
        f"2 observations (bound {bound / 2**20:.1f} MiB, {MAX_GROWTH_WINDOWS} windows "
        f"of {one['window_bytes']} stored bytes): memory grows with the dataset"
    )


def test_store_holds_flat_state_per_observation():
    # The first n pays one-off costs (imports, first-use caches) outside
    # the store; the slope from the second on is what each observation adds.
    _, two, sixteen = _fresh(_STORE_HELD, "2,2,16")
    per_observation = (sixteen - two) / 14
    assert per_observation <= MAX_HELD_BYTES_PER_OBSERVATION, (
        f"the store holds {per_observation / 1e3:.1f} kB per observation after a "
        f"streamed run (2 observations: {two} B, 16: {sixteen} B; bound "
        f"{MAX_HELD_BYTES_PER_OBSERVATION / 1e3:.1f} kB)"
    )
