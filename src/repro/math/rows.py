"""Ordered row gathers and scatters: one substrate for every kernel port.

The paper's OpenMP port addresses a sample as the flat offset
``idet * n_samp + isamp``.  These helpers take that view of an array --
its leading ``lead`` axes flattened into one row axis -- and move whole
rows through NumPy's fast paths (``ndarray.take``, ``ndarray.put``, and
``np.add.at`` on one column at a time) instead of multi-array advanced
indexing, which NumPy runs on its generic path.  Each helper equals the
form it replaces bit for bit: writes land in index order and the last
write to a row wins, and every accumulator element receives its additions
in index order.  They call the array methods and ufuncs directly, and
broadcast ``values`` only when its shape differs from the one needed:
NumPy's Python-level wrappers cost more than the move itself on the few
thousand rows of a streamed window.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["take_rows", "put_rows", "put_lanes", "add_rows"]


def _row_view(a: np.ndarray, lead: int) -> np.ndarray:
    """``a`` as ``(prod(shape[:lead]), *shape[lead:])``."""
    return a.reshape((math.prod(a.shape[:lead]),) + a.shape[lead:])


def _void_rows(a: np.ndarray, row_shape) -> np.ndarray:
    """C-contiguous ``a`` as a 1-D array of opaque ``row_shape`` rows."""
    return a.reshape(-1).view(np.dtype((np.void, a.itemsize * math.prod(row_shape))))


def take_rows(a: np.ndarray, rows, lead: int = 1) -> np.ndarray:
    """``a[np.unravel_index(rows, a.shape[:lead])]`` as one ``take``."""
    return (a if lead == 1 else _row_view(a, lead)).take(rows, axis=0)


def put_rows(a: np.ndarray, rows, values, lead: int = 1) -> None:
    """``a[np.unravel_index(rows, a.shape[:lead])] = values``, in place.

    Rows with trailing axes are written with one ``np.put`` of opaque
    rows; rows without are single elements, whose flat fancy write is
    NumPy's fast path already.  ``values`` are cast and broadcast as
    fancy assignment casts and broadcasts them.
    """
    if not a.flags.c_contiguous:
        raise ValueError("put_rows needs a C-contiguous target: a reshape would copy it")
    flat = _row_view(a, lead)
    if flat.ndim == 1:
        flat[rows] = values
        return
    rows = np.asarray(rows)
    row = flat.shape[1:]
    shape = rows.shape + row
    if type(values) is not np.ndarray or values.dtype != a.dtype or values.shape != shape:
        values = np.broadcast_to(np.asarray(values, dtype=a.dtype), shape)
    _void_rows(a, row).put(rows, _void_rows(np.ascontiguousarray(values), row))


def put_lanes(a: np.ndarray, lanes, values) -> None:
    """``a[:, lanes] = values``: the same lanes of every leading row."""
    n, m = a.shape[:2]
    put_rows(a, np.arange(n)[:, None] * m + lanes, values, lead=2)


def add_rows(acc: np.ndarray, rows, values) -> None:
    """``np.add.at(acc, rows, values)`` as one ``np.add.at`` per trailing column.

    Each accumulator element still receives its additions in index order,
    so the sums -- signed zeros and the payload of a NaN operand included
    -- are the same.  (Where both operands of one add are NaN, IEEE 754
    leaves the payload to the hardware loop, and NumPy's loops differ.)
    """
    rows = np.asarray(rows)
    width = math.prod(acc.shape[1:])
    cols = acc.reshape((acc.shape[0], width), copy=False)
    scalar = not np.ndim(values)
    if not scalar:
        shape = rows.shape + acc.shape[1:]
        if type(values) is not np.ndarray or values.shape != shape:
            values = np.broadcast_to(values, shape)
        values = values.reshape(rows.shape + (width,))
    for j in range(width):
        np.add.at(cols[:, j], rows, values if scalar else values[..., j])
