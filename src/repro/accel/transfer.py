"""Host<->device transfer cost model.

A transfer costs a fixed launch/driver latency plus bytes over the link
bandwidth.  Defaults model one direction of the PCIe 4.0 x16 link that
connects a Perlmutter A100 to its host (about 25 GB/s sustained).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

__all__ = ["TransferModel", "transfer_checksum"]


def transfer_checksum(data: np.ndarray, nbytes: int = -1) -> int:
    """CRC32 over the first ``nbytes`` of an array's storage.

    The resilience plane checksums both ends of a copy to detect
    corruption in flight (the real-world failure the paper's scale makes
    plausible: ECC catches most, but staged copies through pinned host
    buffers have been observed to go wrong under memory pressure).
    """
    flat = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
    if nbytes >= 0:
        flat = flat[:nbytes]
    return zlib.crc32(flat.tobytes())


@dataclass(frozen=True)
class TransferModel:
    """Latency + bandwidth cost model for one copy direction."""

    latency_s: float = 10.0e-6
    bandwidth_bps: float = 25.0e9

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ValueError("latency must be non-negative")
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")

    def time(self, nbytes: int) -> float:
        """Modeled seconds to move ``nbytes``."""
        if nbytes < 0:
            raise ValueError("cannot transfer a negative byte count")
        return self.latency_s + nbytes / self.bandwidth_bps

    def batched_time(self, sizes: list[int]) -> float:
        """Seconds to move several buffers as separate copies."""
        return sum(self.time(s) for s in sizes)

    def attrs(self) -> dict:
        """Model constants as event attributes (for H2D/D2H trace events)."""
        return {
            "link_latency_s": self.latency_s,
            "link_bandwidth_bps": self.bandwidth_bps,
        }
