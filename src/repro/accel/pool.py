"""First-fit device memory pool with free-list coalescing.

The paper (§3.1.2): "All data movement was handled manually using a C++
singleton class managing device memory buffers allocated with
``omp_target_alloc()``, which uses a manually implemented memory pool."
This is that pool.  Offsets play the role of device pointers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..obs import state as obs_state
from ..resilience import state as res_state
from .errors import InvalidFreeError, OutOfDeviceMemoryError

__all__ = ["MemoryPool", "PoolStats"]

#: Device allocations are aligned as cudaMalloc aligns them.
DEFAULT_ALIGNMENT = 256


@dataclass
class PoolStats:
    """Aggregate pool statistics."""

    capacity: int
    allocated: int
    high_water: int
    n_allocs: int
    n_frees: int
    n_blocks_free: int

    @property
    def free(self) -> int:
        return self.capacity - self.allocated


@dataclass
class _FreeBlock:
    offset: int
    size: int


class MemoryPool:
    """A free-list allocator over a contiguous device arena.

    Allocation returns an integer offset (the "device pointer").  Freeing
    coalesces with adjacent free blocks.  The pool never moves live
    allocations (device pointers must stay stable, as real GPU pointers do).

    ``policy`` selects the free-block search: ``"first_fit"`` (fast, the
    default, what the paper's hand-written pool used) or ``"best_fit"``
    (scans for the tightest block; trades search time for fragmentation).
    """

    POLICIES = ("first_fit", "best_fit")

    def __init__(
        self,
        capacity: int,
        alignment: int = DEFAULT_ALIGNMENT,
        policy: str = "first_fit",
    ):
        if capacity <= 0:
            raise ValueError("pool capacity must be positive")
        if alignment <= 0 or (alignment & (alignment - 1)):
            raise ValueError("alignment must be a positive power of two")
        if policy not in self.POLICIES:
            raise ValueError(f"policy must be one of {self.POLICIES}, got {policy!r}")
        self.capacity = int(capacity)
        self.alignment = int(alignment)
        self.policy = policy
        self._free: List[_FreeBlock] = [_FreeBlock(0, self.capacity)]
        self._live: Dict[int, int] = {}  # offset -> size
        self._allocated = 0
        self._high_water = 0
        self._n_allocs = 0
        self._n_frees = 0

    def _round_up(self, nbytes: int) -> int:
        a = self.alignment
        return (nbytes + a - 1) & ~(a - 1)

    def _find_block(self, size: int) -> int:
        """Index of the free block to split, per the configured policy."""
        if self.policy == "first_fit":
            for i, block in enumerate(self._free):
                if block.size >= size:
                    return i
            return -1
        best = -1
        best_size = None
        for i, block in enumerate(self._free):
            if block.size >= size and (best_size is None or block.size < best_size):
                best, best_size = i, block.size
                if block.size == size:
                    break  # exact fit cannot be beaten
        return best

    def allocate(self, nbytes: int) -> int:
        """Allocate ``nbytes`` (rounded up to the alignment); returns offset."""
        if nbytes <= 0:
            raise ValueError("allocation size must be positive")
        ctrl = res_state.active
        if ctrl is not None:
            # May raise an injected OutOfDeviceMemoryError (external or
            # fragmentation pressure per the active fault plan).
            ctrl.check("pool.allocate", nbytes=nbytes)
        size = self._round_up(nbytes)
        i = self._find_block(size)
        if i >= 0:
            block = self._free[i]
            offset = block.offset
            if block.size == size:
                del self._free[i]
            else:
                block.offset += size
                block.size -= size
            self._live[offset] = size
            self._allocated += size
            self._high_water = max(self._high_water, self._allocated)
            self._n_allocs += 1
            tr = obs_state.active
            if tr is not None:
                tr.metrics.count("pool.alloc_bytes", size)
                tr.metrics.gauge_set("pool.fragmentation_blocks", len(self._free))
                tr.metrics.gauge_set("pool.peak_bytes", self._high_water)
            return offset
        raise OutOfDeviceMemoryError(
            f"cannot allocate {nbytes} bytes: {self.capacity - self._allocated} "
            f"free of {self.capacity} (fragmented into {len(self._free)} blocks)"
        )

    def _invalid_free_message(self, offset: int) -> str:
        """Diagnose a bad free: where the offset sits relative to live blocks."""
        stats = self.stats()
        context = (
            f"pool: {stats.allocated}/{stats.capacity} bytes allocated, "
            f"{stats.free} free in {stats.n_blocks_free} blocks, "
            f"{stats.n_allocs} allocs / {stats.n_frees} frees so far"
        )
        containing = None
        nearest = None
        for start in sorted(self._live):
            size = self._live[start]
            if start < offset < start + size:
                containing = (start, size)
                break
            if nearest is None or abs(start - offset) < abs(nearest[0] - offset):
                nearest = (start, size)
        if containing is not None:
            start, size = containing
            return (
                f"offset {offset} is inside the live block [{start}, {start + size})"
                f" ({size} bytes), not at its start; free() takes the offset "
                f"returned by allocate() ({start} for this block). {context}"
            )
        if nearest is not None:
            start, size = nearest
            return (
                f"offset {offset} is not an allocated block; nearest live block "
                f"is [{start}, {start + size}) ({size} bytes). Possible "
                f"double-free or stale device pointer. {context}"
            )
        return (
            f"offset {offset} is not an allocated block; the pool has no live "
            f"allocations (double-free after a reset?). {context}"
        )

    def free(self, offset: int) -> None:
        """Release an allocation, coalescing with free neighbours."""
        if offset not in self._live:
            raise InvalidFreeError(self._invalid_free_message(offset))
        size = self._live.pop(offset)
        self._allocated -= size
        self._n_frees += 1
        tr = obs_state.active
        if tr is not None:
            tr.metrics.count("pool.free_bytes", size)

        # Insert sorted by offset, then coalesce around the insertion point.
        lo, hi = 0, len(self._free)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._free[mid].offset < offset:
                lo = mid + 1
            else:
                hi = mid
        self._free.insert(lo, _FreeBlock(offset, size))
        # Coalesce with the next block.
        if lo + 1 < len(self._free):
            nxt = self._free[lo + 1]
            if self._free[lo].offset + self._free[lo].size == nxt.offset:
                self._free[lo].size += nxt.size
                del self._free[lo + 1]
        # Coalesce with the previous block.
        if lo > 0:
            prv = self._free[lo - 1]
            if prv.offset + prv.size == self._free[lo].offset:
                prv.size += self._free[lo].size
                del self._free[lo]

    def size_of(self, offset: int) -> int:
        """Size (after alignment rounding) of a live allocation."""
        try:
            return self._live[offset]
        except KeyError:
            raise InvalidFreeError(self._invalid_free_message(offset)) from None

    @property
    def allocated_bytes(self) -> int:
        return self._allocated

    @property
    def high_water_bytes(self) -> int:
        return self._high_water

    def stats(self) -> PoolStats:
        return PoolStats(
            capacity=self.capacity,
            allocated=self._allocated,
            high_water=self._high_water,
            n_allocs=self._n_allocs,
            n_frees=self._n_frees,
            n_blocks_free=len(self._free),
        )

    def verify(self) -> None:
        """Check structural invariants (used by property tests).

        Raises ``AssertionError`` if free blocks overlap, are unsorted,
        un-coalesced, or if live+free bytes do not tile the arena.
        """
        prev_end = None
        free_bytes = 0
        for block in self._free:
            assert block.size > 0, "empty free block"
            if prev_end is not None:
                assert block.offset > prev_end, "free blocks unsorted/overlapping/uncoalesced"
            prev_end = block.offset + block.size
            assert prev_end <= self.capacity, "free block beyond arena"
            free_bytes += block.size
        live = sorted(self._live.items())
        for (o1, s1), (o2, _) in zip(live, live[1:]):
            assert o1 + s1 <= o2, "live allocations overlap"
        assert free_bytes + self._allocated == self.capacity, "bytes do not tile the arena"
