"""The row substrate equals the advanced-indexing forms it replaces, bit for bit.

``take_rows``/``put_rows`` are checked against ``a[np.unravel_index(...)]``
gathers and writes, ``put_lanes`` against ``a[:, lanes] = values`` and
``add_rows`` against ``np.add.at``, over 1-3 lead axes and 0-2 trailing
axes, with duplicate and negative rows, NaN payloads, signed zeros and
casting values.  Comparisons are on the bytes: ``-0.0 == 0.0`` and NaN
payloads would slip through a value comparison.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.math.rows import add_rows, put_lanes, put_rows, take_rows

# Quiet NaNs with distinct payloads, finite values with both signed zeros,
# and the infinities.
_PAYLOADS = np.array(
    [0x7FF8000000000001, 0x7FF80000DEADBEEF, 0xFFF8000000000002], dtype=np.uint64
).view(np.float64)
_FINITE = np.array([0.0, -0.0, 1.0, -2.5, 3e-300, 1e10])
_NO_PAYLOADS = np.concatenate((_FINITE, [np.inf, -np.inf]))
_FLOATS = np.concatenate((_PAYLOADS, _NO_PAYLOADS))

FLOAT_DTYPES = [np.float64, np.float32]
INT_DTYPES = [np.int64, np.int32, np.int16]


@st.composite
def layouts(draw, lead_axes=(1, 3)):
    """(lead shape, trailing shape, target dtype, value dtype)."""
    lead = tuple(draw(st.lists(st.integers(1, 4), min_size=lead_axes[0], max_size=lead_axes[1])))
    trailing = tuple(draw(st.lists(st.integers(1, 3), min_size=0, max_size=2)))
    if draw(st.booleans()):
        target = draw(st.sampled_from(FLOAT_DTYPES))
        value = draw(st.sampled_from(FLOAT_DTYPES + INT_DTYPES))
    else:
        target = draw(st.sampled_from(INT_DTYPES))
        value = draw(st.sampled_from(INT_DTYPES))
    return lead, trailing, np.dtype(target), np.dtype(value)


def _fill(draw, shape, dtype, pool=_FLOATS):
    size = int(np.prod(shape, dtype=np.int64))
    if dtype.kind == "f":
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=size, max_size=size))
        return pool[np.array(picks, dtype=np.int64)].astype(dtype).reshape(shape)
    vals = draw(st.lists(st.integers(-1000, 1000), min_size=size, max_size=size))
    return np.array(vals, dtype=dtype).reshape(shape)


def _rows(draw, n):
    count = draw(st.integers(0, 2 * n + 2))
    rows = np.array(draw(st.lists(st.integers(-n, n - 1), min_size=count, max_size=count)),
                    dtype=np.int64)
    if draw(st.booleans()) and count % 2 == 0 and count:
        rows = rows.reshape(2, -1)  # index arrays of any shape
    return rows


def _assert_same(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(data=st.data(), layout=layouts())
def test_take_rows_is_unravelled_gather(data, layout):
    lead, trailing, dtype, _ = layout
    a = _fill(data.draw, lead + trailing, dtype)
    n = int(np.prod(lead))
    rows = _rows(data.draw, n)
    want = a[np.unravel_index(rows % n, lead)]
    _assert_same(take_rows(a, rows, lead=len(lead)), want)
    _assert_same(take_rows(a, rows, lead=len(lead)), a.reshape((n,) + trailing)[rows])


@settings(max_examples=150, deadline=None)
@given(data=st.data(), layout=layouts())
def test_put_rows_is_unravelled_write(data, layout):
    lead, trailing, dtype, vdtype = layout
    a = _fill(data.draw, lead + trailing, dtype)
    n = int(np.prod(lead))
    rows = _rows(data.draw, n)
    # Full-shape values, or values broadcast over the rows.
    vshape = rows.shape + trailing if data.draw(st.booleans()) else trailing
    values = _fill(data.draw, vshape, vdtype)
    want = a.copy()
    want[np.unravel_index(rows % n, lead)] = values
    got = a.copy()
    put_rows(got, rows, values, lead=len(lead))
    _assert_same(got, want)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), layout=layouts(lead_axes=(2, 2)))
def test_put_lanes_is_column_write(data, layout):
    lead, trailing, dtype, vdtype = layout
    a = _fill(data.draw, lead + trailing, dtype)
    count = data.draw(st.integers(0, 2 * lead[1]))
    lanes = np.array(
        data.draw(st.lists(st.integers(0, lead[1] - 1), min_size=count, max_size=count)),
        dtype=np.int64,
    )
    values = _fill(data.draw, (lead[0], count) + trailing, vdtype)
    want = a.copy()
    want[:, lanes] = values
    got = a.copy()
    put_lanes(got, lanes, values)
    _assert_same(got, want)


def _add_case(data, layout, acc_pool, value_pool, unique_rows=False):
    lead, trailing, dtype, vdtype = layout
    if dtype.kind == "f":
        vdtype = data.draw(st.sampled_from([dtype, np.dtype(np.float32)]))
    acc = _fill(data.draw, lead + trailing, dtype, acc_pool)
    rows = _rows(data.draw, lead[0])
    if unique_rows:
        rows = np.unique(rows % lead[0])
    vshape = rows.shape + trailing if data.draw(st.booleans()) else trailing
    return acc, rows, _fill(data.draw, vshape, vdtype, value_pool)


def _assert_add_rows_is_add_at(acc, rows, values):
    want = acc.copy()
    np.add.at(want, rows, values)
    got = acc.copy()
    add_rows(got, rows, values)
    _assert_same(got, want)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), layout=layouts(lead_axes=(1, 1)))
def test_add_rows_is_add_at(data, layout):
    _assert_add_rows_is_add_at(*_add_case(data, layout, _NO_PAYLOADS, _NO_PAYLOADS))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), layout=layouts(lead_axes=(1, 1)))
def test_add_rows_propagates_nan_payloads(data, layout):
    """A NaN operand's payload reaches the sum, as under ``np.add.at``.

    Each accumulator element meets at most one NaN here: when both operands
    of an add are NaN, IEEE 754 leaves the payload to the hardware loop,
    and NumPy's scalar and SIMD loops pick different operands.
    """
    _assert_add_rows_is_add_at(*_add_case(data, layout, _FINITE, _FLOATS, unique_rows=True))


def test_add_rows_scalar_value_matches_add_at():
    acc = np.zeros((5, 2), dtype=np.float32)
    rows = np.array([0, 3, 3, -1])
    want = acc.copy()
    np.add.at(want, rows, 0.1)
    add_rows(acc, rows, 0.1)
    _assert_same(acc, want)


def test_writes_into_a_non_contiguous_target_raise():
    base = np.zeros((4, 6, 2))
    with pytest.raises(ValueError, match="C-contiguous"):
        put_rows(base[:, ::2], [0, 1], 1.0)
    with pytest.raises(ValueError, match="C-contiguous"):
        put_rows(base.transpose(1, 0, 2), [0], 1.0, lead=2)
    with pytest.raises(ValueError, match="C-contiguous"):
        put_lanes(base[:, :, 0], [0, 1], 1.0)
    with pytest.raises(ValueError):
        add_rows(base.transpose(0, 2, 1), [0], 1.0)
    assert not base.any()
