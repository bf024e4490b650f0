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
  it calls the loop body once, with the collapsed index vectors of
  :func:`~repro.ompshim.runtime.collapse3` in loop order; the body
  applies the in-loop guard the paper uses for variable-length intervals
  as a mask over them.

Kernels written against this API mutate device views in place (the OpenMP
style), in contrast to jaxshim's pure-functional model -- the exact
contrast the paper studies.
"""

from .errors import OmpError, NotPresentError, MappingError
from .runtime import OmpTargetRuntime, collapse3
from .datamap import MapClause

__all__ = [
    "OmpError",
    "NotPresentError",
    "MappingError",
    "OmpTargetRuntime",
    "collapse3",
    "MapClause",
]
