"""ompshim -- a miniature OpenMP Target Offload runtime.

The paper's second porting route keeps the C++ kernels and annotates them
with ``#pragma omp target teams distribute parallel for collapse(3)``,
managing device memory manually through ``omp_target_alloc`` and a
hand-written pool.  This package reproduces that programming model over the
simulated device:

* :class:`~repro.ompshim.runtime.OmpTargetRuntime` -- ``omp_target_alloc``/
  ``omp_target_free``/``omp_target_memcpy`` over the device memory pool;
* :mod:`~repro.ompshim.datamap` -- the present table and ``map(to/from/
  tofrom/alloc)`` clause semantics with OpenMP reference counting;
* ``OmpTargetRuntime.target_teams_distribute_parallel_for`` -- the
  collapsed triple-loop launcher: team blocks over (detector, interval),
  SIMD lanes over samples.  Like a GPU running the whole region at once,
  it calls the loop body once, with index arrays of a
  :class:`~repro.ompshim.runtime.LoopNest` that broadcast to its
  iterations in loop order.  Over an interval list the nest applies the
  in-loop guard the paper uses for variable-length intervals: the body
  sees only the in-interval iterations, as an open grid of detectors by
  samples, while the device is charged for the padded grid.

Kernels written against this API mutate device views in place (the OpenMP
style), in contrast to jaxshim's pure-functional model -- the exact
contrast the paper studies.
"""

from .errors import OmpError, NotPresentError, MappingError
from .runtime import LoopNest, OmpTargetRuntime
from .datamap import MapClause

__all__ = [
    "OmpError",
    "NotPresentError",
    "MappingError",
    "OmpTargetRuntime",
    "LoopNest",
    "MapClause",
]
