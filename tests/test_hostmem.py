"""Freed host memory stays mapped: a warm unit faults in no fresh pages.

Importing :mod:`repro` pins glibc's mmap and trim thresholds
(:mod:`repro.utils.hostmem`).  Without that, every NumPy temporary of
128 KiB or more in the OpenMP loop bodies is a fresh mapping, and each
unit faults thousands of pages in again even when the inputs are the same
size as the last unit's.

The faults are counted in a fresh interpreter: glibc adapts its default
thresholds to the largest mapping freed so far, so a process that has
already run other tests says little about what a new one does.
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


def _unit_faults(path: str) -> list:
    src = str(Path(repro.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", _UNIT_FAULTS, path],
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
    faults = _unit_faults(path)
    assert faults[2] < MAX_WARM_FAULTS, (
        f"third {path} unit made {faults[2]} minor page faults "
        f"(all units: {faults}); freed temporaries are not being reused"
    )
