"""Bit interleaving for the HEALPix NESTED scheme.

NESTED pixel numbers are Morton (Z-order) codes of the in-face ``(x, y)``
coordinates.  The spread/compress operations below use the classic binary
magic-number sequence and are fully vectorized over uint64 arrays;
:func:`xyf2nest` spreads a byte at a time through a table of them.
"""

from __future__ import annotations

import numpy as np

_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_M8 = np.uint64(0x00FF00FF00FF00FF)
_M16 = np.uint64(0x0000FFFF0000FFFF)
_M32 = np.uint64(0x00000000FFFFFFFF)


def spread_bits(v: np.ndarray) -> np.ndarray:
    """Spread the low 32 bits of each value to the even bit positions.

    ``abcd -> 0a0b0c0d`` (bit-wise); the odd positions become zero.
    """
    x = np.asarray(v).astype(np.uint64) & _M32
    x = (x | (x << np.uint64(16))) & _M16
    x = (x | (x << np.uint64(8))) & _M8
    x = (x | (x << np.uint64(4))) & _M4
    x = (x | (x << np.uint64(2))) & _M2
    x = (x | (x << np.uint64(1))) & _M1
    return x


def compress_bits(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`spread_bits`: gather the even bit positions."""
    x = np.asarray(v).astype(np.uint64) & _M1
    x = (x | (x >> np.uint64(1))) & _M2
    x = (x | (x >> np.uint64(2))) & _M4
    x = (x | (x >> np.uint64(4))) & _M8
    x = (x | (x >> np.uint64(8))) & _M16
    x = (x | (x >> np.uint64(16))) & _M32
    return x


#: ``spread_bits`` of every byte, for ``x`` and (shifted to the odd bits) ``y``.
_SPREAD_X = spread_bits(np.arange(256)).astype(np.int64)
_SPREAD_Y = _SPREAD_X << 1


def xyf2nest(ix: np.ndarray, iy: np.ndarray, face: np.ndarray, order: int) -> np.ndarray:
    """Combine in-face coordinates and face number into a NESTED index.

    The Morton code is looked up a byte of ``order`` at a time, one
    ``np.take`` per coordinate: for ``0 <= ix, iy < 2**order`` it equals
    ``spread_bits(ix) | spread_bits(iy) << 1``.
    """
    ix = np.asarray(ix, dtype=np.int64)
    iy = np.asarray(iy, dtype=np.int64)
    pix = np.asarray(face, dtype=np.int64) << np.int64(2 * order)
    for shift in range(0, max(order, 1), 8):
        morton = np.take(_SPREAD_X, (ix >> shift) & 255) | np.take(_SPREAD_Y, (iy >> shift) & 255)
        pix = pix + (morton << np.int64(2 * shift))
    return pix


def nest2xyf(pix: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split a NESTED index into ``(ix, iy, face)``."""
    pix = np.asarray(pix, dtype=np.int64)
    npface = np.int64(1) << np.int64(2 * order)
    face = pix >> np.int64(2 * order)
    within = (pix & (npface - np.int64(1))).astype(np.uint64)
    ix = compress_bits(within).astype(np.int64)
    iy = compress_bits(within >> np.uint64(1)).astype(np.int64)
    return ix, iy, face
