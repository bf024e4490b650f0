"""Tests for the segment descriptor (repro.math.segments)."""

import copy
import gc
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.common import flatten_intervals, pad_intervals
from repro.math import IntervalList
from repro.math.segments import Segments, segments
from repro.ompshim import LoopNest
from repro.workflows.microbench import make_intervals

spans_strategy = st.lists(
    st.tuples(st.integers(0, 200), st.integers(0, 60)).map(lambda t: (t[0], t[0] + t[1])),
    max_size=12,
)


def reference(starts, stops):
    """Per-sample (flat, ivl, lane) by the scalar loop over ``range()``."""
    rows = [(s, j, s - a) for j, (a, b) in enumerate(zip(starts, stops)) for s in range(a, b)]
    return np.array(rows, dtype=np.int64).reshape(-1, 3).T


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
        slab_starts = np.array([[0, 10], [3, 0]])
        slab_stops = np.array([[5, 20], [9, 0]])
        for row in range(2):
            seg = segments(slab_starts[row], slab_stops[row])
            assert seg is not segments(slab_starts[row], slab_stops[row])
            np.testing.assert_array_equal(
                np.stack((seg.flat, seg.ivl, seg.lane)),
                reference(slab_starts[row], slab_stops[row]),
            )
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
        np.testing.assert_array_equal(np.stack((seg.flat, seg.ivl, seg.lane)), reference(starts, stops))
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
        """The launcher's sweep over a descriptor: an open grid whose
        broadcast, raveled in C order, repeats ``(ivl, lane)`` once per
        outer index."""
        nest = LoopNest((2, np.array([0, 6]), np.array([2, 9])))
        i, j, k = (a.ravel() for a in np.broadcast_arrays(*nest.iterations()))
        np.testing.assert_array_equal(i, [0] * 5 + [1] * 5)
        np.testing.assert_array_equal(j, [0, 0, 1, 1, 1] * 2)
        np.testing.assert_array_equal(k, [0, 1, 0, 1, 2] * 2)

    def test_arrays_are_read_only(self):
        seg = IntervalList([(0, 5), (10, 20)]).segments
        for a in (seg.lengths, seg.offsets, seg.flat, seg.ivl, seg.lane, *seg.padded):
            assert not a.flags.writeable

    def test_flatten_intervals_is_the_list_flat(self):
        il = IntervalList([(0, 5), (10, 20)])
        assert flatten_intervals(*il.as_arrays()) is il.segments.flat
