"""The map-product registry: what the serving plane can serve.

A *product* is a named, deterministic map artifact the stack can
materialise for a ``(size, backend, realization)`` request: same inputs,
same bytes, on any node.  The registry keeps the request surface
declarative -- a serving node advertises product names and looks up the
producer here, so the backend behind a name (numpy today, jaxshim or
ompshim tomorrow) stays swappable without touching the broker/client
protocol.

Determinism is load-bearing: the serving plane coalesces overlapping
requests into one pipeline run and fails requests over to other nodes, and
both moves are only sound because ``produce(key)`` is a pure function.
Every producer here therefore simulates from counter-based seeds and
reduces in fixed observation order, exactly like :mod:`repro.parallel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core import ImplementationType
from ..healpix import npix as healpix_npix
from .satellite import NNZ, SizeSpec, satellite_sky

__all__ = [
    "ProductSpec",
    "register_product",
    "get_product",
    "product_names",
    "namespaces",
    "produce_zmap",
    "produce_zmap_elastic",
    "produce_sky",
]


@dataclass(frozen=True)
class ProductSpec:
    """One servable product: a name, a producer, and its output geometry.

    ``name`` is ``namespace/product`` (the broker routes on the namespace
    part).  ``producer(size, implementation, realization)`` must be pure;
    ``shape``/``dtype`` let a node size its shared-memory result slab --
    and a handle describe itself to clients -- without running anything.
    """

    name: str
    producer: Callable[[SizeSpec, ImplementationType, int], np.ndarray]
    shape: Callable[[SizeSpec], Tuple[int, ...]]
    dtype: str = "<f8"
    description: str = ""
    #: Optional multiprocess path: ``elastic_producer(size, impl,
    #: realization, n_workers)`` must return the *same bytes* as
    #: ``producer`` -- a node with elastic workers configured routes
    #: through it, and failover correctness rests on that bitwise parity.
    elastic_producer: Optional[
        Callable[[SizeSpec, ImplementationType, int, int], np.ndarray]
    ] = None

    def __post_init__(self) -> None:
        if "/" not in self.name:
            raise ValueError(
                f"product name {self.name!r} must be 'namespace/product'"
            )

    @property
    def namespace(self) -> str:
        return self.name.split("/", 1)[0]


_REGISTRY: Dict[str, ProductSpec] = {}


def register_product(spec: ProductSpec) -> ProductSpec:
    """Add a product to the registry (name collisions are an error)."""
    if spec.name in _REGISTRY:
        raise ValueError(f"product {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_product(name: str) -> ProductSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown product {name!r}; registered: {', '.join(product_names())}"
        ) from None


def product_names() -> List[str]:
    return sorted(_REGISTRY)


def namespaces() -> List[str]:
    return sorted({spec.namespace for spec in _REGISTRY.values()})


def _map_shape(size: SizeSpec) -> Tuple[int, ...]:
    return (healpix_npix(size.nside), NNZ)


def produce_zmap(
    size: SizeSpec,
    implementation: ImplementationType = ImplementationType.NUMPY,
    realization: int = 0,
) -> np.ndarray:
    """The noise-weighted map, accumulated in fixed observation order.

    Each observation is simulated and processed independently (the same
    per-observation function the sharded workers run), then summed in
    global observation order -- so this serverless path is bitwise
    identical to :func:`repro.parallel.run_parallel_satellite` for any
    worker count, and to any node that serves the same request.
    """
    from ..parallel.satellite import _process_one_observation

    sky = satellite_sky(size, realization)
    zmap = np.zeros(_map_shape(size), dtype=np.float64)
    for iobs in range(size.n_observations):
        zmap += _process_one_observation(iobs, size, implementation, realization, sky)
    return zmap


def produce_zmap_elastic(
    size: SizeSpec,
    implementation: ImplementationType = ImplementationType.NUMPY,
    realization: int = 0,
    n_workers: int = 1,
) -> np.ndarray:
    """:func:`produce_zmap` across the elastic work-stealing pool.

    Same bytes as the serial oracle above for any worker count or fault
    schedule (the pool's first-writer-wins commits land per-observation
    partials that are reduced in fixed observation order), so a serving
    node can switch between the serial and elastic paths -- or two nodes
    can disagree about it -- without clients seeing a byte of difference.
    ``parallel.*`` faults injected while a node produces compose with the
    serving plane's own ``serve.node`` crashes.
    """
    from ..parallel import run_parallel_satellite

    out = run_parallel_satellite(
        size,
        implementation=implementation,
        n_procs=n_workers,
        realization=realization,
    )
    return out["zmap"]


def produce_sky(
    size: SizeSpec,
    implementation: ImplementationType = ImplementationType.NUMPY,
    realization: int = 0,
) -> np.ndarray:
    """The simulated input sky itself (cheap; exercises routing/quotas)."""
    return satellite_sky(size, realization)


register_product(
    ProductSpec(
        name="satellite/zmap",
        producer=produce_zmap,
        shape=_map_shape,
        description="noise-weighted map from the satellite processing pipeline",
        elastic_producer=produce_zmap_elastic,
    )
)
register_product(
    ProductSpec(
        name="satellite/sky",
        producer=produce_sky,
        shape=_map_shape,
        description="the simulated input sky map (I/Q/U)",
    )
)
