"""Tests for the segment descriptor (repro.math.segments) and its mover."""

import copy
import gc
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.common import pad_intervals
from repro.math import IntervalList
from repro.math.rows import put_lanes, put_rows, take_rows
from repro.math.segments import Segments, segments
from repro.ompshim import LoopNest
from repro.workflows.microbench import make_intervals

from tests.test_rows import _assert_same, _fill, layouts

spans_strategy = st.lists(
    st.tuples(st.integers(0, 200), st.integers(0, 60)).map(lambda t: (t[0], t[0] + t[1])),
    max_size=12,
)


def reference(starts, stops):
    """Per-sample (flat, ivl, lane) by the scalar loop over ``range()``."""
    rows = [(s, j, s - a) for j, (a, b) in enumerate(zip(starts, stops)) for s in range(a, b)]
    return np.array(rows, dtype=np.int64).reshape(-1, 3).T


def assert_fields(seg, starts, stops):
    """``seg``'s in-interval samples are the scalar loop's, in its order,
    each interval's run sitting at its ``offsets`` entry."""
    flat, ivl, lane = reference(starts, stops)
    np.testing.assert_array_equal(seg.flat, flat)
    np.testing.assert_array_equal(np.repeat(np.arange(len(seg)), seg.lengths), ivl)
    np.testing.assert_array_equal(np.arange(seg.n_samples) - seg.offsets[ivl], lane)


class TestOwnedPair:
    def test_as_arrays_is_one_read_only_pair(self):
        il = IntervalList([(0, 5), (10, 20)])
        starts, stops = il.as_arrays()
        assert il.as_arrays()[0] is starts and il.as_arrays()[1] is stops
        for a in (starts, stops):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1

    def test_pair_finds_the_list_descriptor(self):
        il = IntervalList([(0, 5), (10, 20)])
        assert segments(*il.as_arrays()) is il.segments
        assert il.max_length == il.segments.max_len == 10

    def test_descriptor_dies_with_its_list(self):
        il = IntervalList([(0, 5), (10, 20)])
        starts, stops = il.as_arrays()
        ref = weakref.ref(segments(starts, stops))
        flat_ref = weakref.ref(ref().flat)
        del il, starts, stops
        gc.collect()
        assert ref() is None and flat_ref() is None

    @pytest.mark.parametrize("kind", ["irregular", "degenerate", "empty"])
    def test_other_pairs_cache_nothing(self, kind):
        starts, stops = make_intervals(64, kind)
        first, second = segments(starts, stops), segments(starts, stops)
        assert first is not second
        np.testing.assert_array_equal(first.flat, reference(starts, stops)[0])
        # One owned array with a foreign partner is a foreign pair too.
        il = IntervalList([(0, 5), (10, 20)])
        own_starts, own_stops = il.as_arrays()
        assert segments(own_starts, own_stops.copy()) is not il.segments
        assert segments(own_starts.copy(), own_stops) is not il.segments

    def test_megabatch_slab_rows_are_uncached(self):
        """Rows of a writeable 2-D interval array are foreign pairs:
        uncached, and never frozen by a lookup."""
        slab_starts = np.array([[0, 10], [3, 0]])
        slab_stops = np.array([[5, 20], [9, 0]])
        for row in range(2):
            seg = segments(slab_starts[row], slab_stops[row])
            assert seg is not segments(slab_starts[row], slab_stops[row])
            assert_fields(seg, slab_starts[row], slab_stops[row])
        assert slab_starts.flags.writeable  # never frozen by a lookup

    def test_copies_and_pickles_get_their_own_pair(self):
        il = IntervalList([(0, 5), (10, 20)])
        il.segments.flat  # noqa: B018  (build the cache first)
        for other in (copy.copy(il), copy.deepcopy(il), pickle.loads(pickle.dumps(il))):
            assert other == il
            assert other.as_arrays()[0] is not il.as_arrays()[0]
            assert segments(*other.as_arrays()) is other.segments is not il.segments


class TestDescriptor:
    @settings(max_examples=60, deadline=None)
    @given(spans_strategy)
    def test_fields_match_the_scalar_loop(self, spans):
        il = IntervalList(spans)
        starts, stops = il.as_arrays()
        seg = il.segments
        assert_fields(seg, starts, stops)
        assert seg.n_samples == il.n_samples
        assert seg.max_len == max((len(iv) for iv in il), default=0)
        np.testing.assert_array_equal(seg.offsets, np.cumsum(stops - starts) - (stops - starts))

    def test_degenerate_spans_hold_no_sample(self):
        starts, stops = make_intervals(64, "degenerate")
        irregular = make_intervals(64, "irregular")
        np.testing.assert_array_equal(segments(starts, stops).flat, segments(*irregular).flat)
        seg = Segments(np.array([5, 40]), np.array([2, 30]))  # all inverted
        assert seg.max_len == 0 and seg.n_samples == 0 and seg.flat.size == 0

    def test_padded_lanes(self):
        starts, stops = np.array([2, 9, 9]), np.array([5, 9, 10])
        index, valid, max_len = pad_intervals(starts, stops)
        assert max_len == 3
        np.testing.assert_array_equal(index, [[2, 3, 4], [2, 2, 2], [9, 9, 9]])
        np.testing.assert_array_equal(valid, [[1, 1, 1], [0, 0, 0], [1, 0, 0]])
        e = np.zeros(0, dtype=np.int64)
        assert pad_intervals(e, e)[0].shape == (0, 0)

    def test_sweep_repeats_per_outer_index(self):
        """The launcher's sweep over a descriptor: the outer column by the
        descriptor's in-interval samples, which repeat once per outer
        index; nothing is built per sample."""
        nest = LoopNest((2, np.array([0, 6]), np.array([2, 9])))
        i, j, k = nest.iterations()
        np.testing.assert_array_equal(i, [[0], [1]])
        assert j is None and k is None
        outer, flat = np.broadcast_arrays(i, nest.segments.flat)
        np.testing.assert_array_equal(outer.ravel(), [0] * 5 + [1] * 5)
        np.testing.assert_array_equal(flat.ravel(), [0, 1, 6, 7, 8] * 2)

    def test_arrays_are_read_only(self):
        seg = IntervalList([(0, 5), (10, 20)]).segments
        for a in (seg.lengths, seg.offsets, seg.flat, *seg.padded):
            assert not a.flags.writeable


@st.composite
def span_pairs(draw, n_samp):
    """``(starts, stops)`` within ``[0, n_samp]``, in any order: spans may
    be empty, inverted (``stop < start``), sit at ``[n_samp, n_samp)`` or
    overlap one another."""
    spans = draw(
        st.lists(
            st.tuples(st.integers(0, n_samp), st.integers(-3, 12)),
            max_size=8,
        )
    )
    starts = np.array([a for a, _ in spans], dtype=np.int64)
    stops = np.array([min(max(a + d, 0), n_samp) for a, d in spans], dtype=np.int64)
    return starts, stops


@st.composite
def mover_cases(draw):
    """A descriptor, a ``(n_det, n_samp, *trailing)`` target, the same
    target shared (``(n_samp, *trailing)``), and the value dtype."""
    (n_det,), trailing, dtype, vdtype = draw(layouts(lead_axes=(1, 1)))
    n_samp = draw(st.integers(1, 40))
    seg = Segments(*draw(span_pairs(n_samp)))
    a = _fill(draw, (n_det, n_samp) + trailing, dtype)
    shared = _fill(draw, (n_samp,) + trailing, dtype)
    return seg, a, shared, vdtype


class TestMover:
    """``Segments.take``/``put`` move whole runs and equal the index forms
    they replace bit for bit -- overlapping spans included, where the last
    write wins."""

    @settings(max_examples=150, deadline=None)
    @given(case=mover_cases())
    def test_take_is_the_index_gather(self, case):
        seg, a, shared, _ = case
        n_det, n_samp = a.shape[:2]
        rows = np.arange(n_det)[:, None] * n_samp + seg.flat
        got = seg.take(a)
        _assert_same(got, np.take(a, seg.flat, axis=1))
        _assert_same(got, take_rows(a, rows, lead=2))
        _assert_same(seg.take(shared, axis=0), np.take(shared, seg.flat, axis=0))
        _assert_same(seg.take(shared, axis=0), take_rows(shared, seg.flat))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), case=mover_cases())
    def test_put_is_the_index_write(self, data, case):
        seg, a, shared, vdtype = case
        n_det, n_samp = a.shape[:2]
        trailing = a.shape[2:]
        rows = np.arange(n_det)[:, None] * n_samp + seg.flat
        # Full-shape values, values broadcast over the samples, or a scalar.
        vshape = data.draw(
            st.sampled_from([(n_det, seg.n_samples) + trailing, (n_det, 1) + trailing, ()])
        )
        values = _fill(data.draw, vshape, vdtype)
        got, lanes, by_rows = a.copy(), a.copy(), a.copy()
        seg.put(got, values)
        put_lanes(lanes, seg.flat, values)
        put_rows(by_rows, rows, values, lead=2)
        _assert_same(got, lanes)
        _assert_same(got, by_rows)

        svalues = _fill(data.draw, (seg.n_samples,) + trailing, vdtype)
        got, want = shared.copy(), shared.copy()
        seg.put(got, svalues, axis=0)
        put_rows(want, seg.flat, svalues)
        _assert_same(got, want)

    def test_overlapping_spans_last_write_wins(self):
        seg = Segments(np.array([4, 0, 2]), np.array([8, 6, 3]))
        a = np.zeros((1, 10), dtype=np.int64)
        seg.put(a, np.arange(1, seg.n_samples + 1)[None, :])
        # [4, 8) first, then [0, 6) overwrites 4 and 5, then [2, 3).
        np.testing.assert_array_equal(a[0], [5, 6, 11, 8, 9, 10, 3, 4, 0, 0])
        np.testing.assert_array_equal(seg.take(a)[0], [9, 10, 3, 4, 5, 6, 11, 8, 9, 10, 11])

    def test_runs_skip_spans_without_samples(self):
        starts, stops = make_intervals(64, "degenerate")
        seg = segments(starts, stops)
        keep = stops > starts
        assert seg.runs == tuple(
            zip(starts[keep].tolist(), stops[keep].tolist(), seg.offsets[keep].tolist())
        )
        empty = Segments(np.array([5, 40]), np.array([2, 30]))
        assert empty.runs == () and empty.take(np.ones((2, 64, 3))).shape == (2, 0, 3)
