"""Global configuration switches.

The paper's only two changes to JAX defaults (§3.1.3): enabling 64-bit
floating point and disabling device memory preallocation.  Both exist here
with JAX's defaults (x64 off, preallocation on).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np

__all__ = ["config", "next_batch_bucket"]


def next_batch_bucket(n: int) -> int:
    """The power-of-two shape bucket ``n`` pads up to.

    The jit signature cache keys on exact argument shapes, so a megabatch
    whose observation count varies run-to-run would retrace (and, past
    ``jit_cache_max_size``, *evict*) per distinct count.  Padding the
    stacked batch axis to the next power of two makes nearby group sizes
    hash to the same (padded-shape, dtype) signature: at most
    ``log2(n_obs_max)`` traces ever exist per kernel.
    """
    if n <= 1:
        return 1
    return 1 << (int(n - 1).bit_length())


class _Config:
    """Mutable global configuration (mirrors ``jax.config``)."""

    def __init__(self) -> None:
        self.enable_x64 = False
        #: Fraction of device memory grabbed up front when a device is
        #: attached with preallocation on (the real default is 0.75).
        self.preallocate_memory = True
        self.preallocate_fraction = 0.75
        #: Per-function bound on the jit signature cache.  Long-running
        #: pipelines that sweep shapes (interval padding, detector counts)
        #: would otherwise grow every JitFunction's cache without limit;
        #: beyond the bound the least-recently-used signature is evicted
        #: and recompiles on next use.  ``None`` disables the bound.
        self.jit_cache_max_size = 256

    def update(self, name: str, value) -> None:
        if not hasattr(self, name):
            raise AttributeError(f"unknown config flag {name!r}")
        setattr(self, name, value)

    @contextmanager
    def temporarily(self, **flags) -> Iterator[None]:
        """Set flags inside a block, restoring previous values after."""
        saved = {k: getattr(self, k) for k in flags}
        for k, v in flags.items():
            self.update(k, v)
        try:
            yield
        finally:
            for k, v in saved.items():
                setattr(self, k, v)

    # -- dtype canonicalization ------------------------------------------------

    def canonical_dtype(self, dtype: np.dtype) -> np.dtype:
        """The dtype arrays take at the jit boundary.

        Without x64, JAX demotes 64-bit types to 32-bit; with x64 enabled
        (as the paper's port runs) dtypes pass through unchanged.
        """
        dtype = np.dtype(dtype)
        if self.enable_x64:
            return dtype
        demotions = {
            np.dtype(np.float64): np.dtype(np.float32),
            np.dtype(np.int64): np.dtype(np.int32),
            np.dtype(np.uint64): np.dtype(np.uint32),
            np.dtype(np.complex128): np.dtype(np.complex64),
        }
        return demotions.get(dtype, dtype)

    def default_float(self) -> np.dtype:
        return np.dtype(np.float64) if self.enable_x64 else np.dtype(np.float32)


config = _Config()
