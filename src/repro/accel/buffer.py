"""Device-side buffers: pool-backed storage with typed views."""

from __future__ import annotations

import math

import numpy as np

from .errors import TransferError

__all__ = ["DeviceBuffer"]


class DeviceBuffer:
    """A block of simulated device memory.

    The storage is a real byte array (so kernels genuinely read and write
    it); ``offset`` is the stable "device pointer" inside the owning
    :class:`~repro.accel.pool.MemoryPool`.
    """

    def __init__(self, offset: int, nbytes: int, device_id: int = 0):
        if nbytes <= 0:
            raise ValueError("buffer size must be positive")
        self.offset = int(offset)
        self.nbytes = int(nbytes)
        self.device_id = int(device_id)
        self._storage = np.zeros(self.nbytes, dtype=np.uint8)
        self._freed = False

    @property
    def freed(self) -> bool:
        return self._freed

    def mark_freed(self) -> None:
        self._freed = True

    def _check_live(self) -> None:
        if self._freed:
            raise TransferError(
                f"use-after-free of device buffer at offset {self.offset}"
            )

    def array(self, dtype: np.dtype, shape: tuple[int, ...]) -> np.ndarray:
        """A typed view of the device storage (no copy).

        This is what a device kernel dereferencing the pointer sees.
        """
        self._check_live()
        dtype = np.dtype(dtype)
        needed = math.prod(shape) * dtype.itemsize
        if needed > self.nbytes:
            raise TransferError(
                f"view of {needed} bytes exceeds buffer of {self.nbytes} bytes"
            )
        flat = self._storage[:needed].view(dtype)
        return flat.reshape(shape)

    def write_from(self, host: np.ndarray) -> int:
        """Copy a host array into the buffer; returns bytes moved."""
        self._check_live()
        host = np.ascontiguousarray(host)
        if host.nbytes > self.nbytes:
            raise TransferError(
                f"host array of {host.nbytes} bytes exceeds buffer of {self.nbytes}"
            )
        self._storage[: host.nbytes] = host.view(np.uint8).reshape(-1)
        return host.nbytes

    def read_into(self, host: np.ndarray) -> int:
        """Copy the buffer back into a host array; returns bytes moved."""
        self._check_live()
        if not host.flags["C_CONTIGUOUS"]:
            raise TransferError("device-to-host copy needs a contiguous host array")
        if host.nbytes > self.nbytes:
            raise TransferError(
                f"host array of {host.nbytes} bytes exceeds buffer of {self.nbytes}"
            )
        host.view(np.uint8).reshape(-1)[:] = self._storage[: host.nbytes]
        return host.nbytes

    def zero(self) -> None:
        """Reset the storage to zero bytes (``accel_data_reset``)."""
        self._check_live()
        self._storage[:] = 0

    def checksum(self, nbytes: int = -1) -> int:
        """CRC32 over the first ``nbytes`` of the device storage."""
        from .transfer import transfer_checksum

        self._check_live()
        return transfer_checksum(self._storage, nbytes)

    def corrupt_byte(self, index: int) -> None:
        """Flip one byte of device storage (fault injection only)."""
        self._check_live()
        self._storage[index % self.nbytes] ^= 0xFF

    def scramble(self) -> None:
        """Overwrite the storage with a garbage pattern (device loss)."""
        self._storage[:] = 0xAB
