"""Unit and property tests for repro.math.intervals."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.math import Interval, IntervalList
from repro.math.intervals import regular_intervals
from repro.math.segments import segments


spans_strategy = st.lists(
    st.tuples(st.integers(0, 200), st.integers(0, 60)).map(lambda t: (t[0], t[0] + t[1])),
    max_size=12,
)


class TestInterval:
    def test_length(self):
        assert len(Interval(3, 10)) == 7

    def test_empty_ok(self):
        assert len(Interval(5, 5)) == 0

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            Interval(5, 3)
        with pytest.raises(ValueError):
            Interval(-1, 3)

    def test_overlaps(self):
        a = Interval(0, 10)
        assert a.overlaps(Interval(5, 15))
        assert not a.overlaps(Interval(10, 20))  # half-open: touching is disjoint

    def test_contains(self):
        iv = Interval(2, 5)
        assert iv.contains(2) and iv.contains(4)
        assert not iv.contains(5) and not iv.contains(1)


class TestIntervalListNormalization:
    def test_sorted_and_merged(self):
        il = IntervalList([(10, 20), (0, 5), (18, 25)])
        assert [(iv.first, iv.last) for iv in il] == [(0, 5), (10, 25)]

    def test_touching_merged(self):
        il = IntervalList([(0, 5), (5, 10)])
        assert len(il) == 1
        assert il[0] == Interval(0, 10)

    def test_empty_dropped(self):
        il = IntervalList([(3, 3), (7, 9)])
        assert len(il) == 1

    @settings(max_examples=100, deadline=None)
    @given(spans=spans_strategy)
    def test_normalized_invariants(self, spans):
        il = IntervalList(spans)
        for a, b in zip(il, list(il)[1:]):
            assert a.last < b.first  # disjoint and strictly ordered
        for iv in il:
            assert len(iv) > 0


class TestMaskRoundtrip:
    @settings(max_examples=100, deadline=None)
    @given(spans=spans_strategy)
    def test_mask_roundtrip(self, spans):
        il = IntervalList(spans)
        n = 300
        assert IntervalList.from_mask(il.mask(n)) == il

    def test_mask_counts(self):
        il = IntervalList([(0, 3), (10, 12)])
        m = il.mask(20)
        assert m.sum() == il.n_samples == 5

    def test_from_mask_rejects_2d(self):
        with pytest.raises(ValueError):
            IntervalList.from_mask(np.zeros((2, 2), dtype=bool))


class TestSetAlgebra:
    @settings(max_examples=100, deadline=None)
    @given(a=spans_strategy, b=spans_strategy)
    def test_union_matches_mask_or(self, a, b):
        n = 300
        ia, ib = IntervalList(a), IntervalList(b)
        assert ia.union(ib) == IntervalList.from_mask(ia.mask(n) | ib.mask(n))

    @settings(max_examples=100, deadline=None)
    @given(a=spans_strategy, b=spans_strategy)
    def test_intersection_matches_mask_and(self, a, b):
        n = 300
        ia, ib = IntervalList(a), IntervalList(b)
        assert ia.intersection(ib) == IntervalList.from_mask(ia.mask(n) & ib.mask(n))

    @settings(max_examples=100, deadline=None)
    @given(a=spans_strategy)
    def test_invert_matches_mask_not(self, a):
        n = 300
        ia = IntervalList(a)
        assert ia.invert(n) == IntervalList.from_mask(~ia.mask(n))

    @settings(max_examples=50, deadline=None)
    @given(a=spans_strategy)
    def test_double_invert_is_identity_within_range(self, a):
        n = 300
        ia = IntervalList(a)
        assert ia.invert(n).invert(n) == IntervalList.from_mask(ia.mask(n))

    def test_shift(self):
        il = IntervalList([(0, 3), (8, 10)]).shift(5)
        assert [(iv.first, iv.last) for iv in il] == [(5, 8), (13, 15)]


class TestArrays:
    def test_as_arrays_dtype_and_values(self):
        il = IntervalList([(0, 4), (9, 11)])
        starts, stops = il.as_arrays()
        assert starts.dtype == np.int64 and stops.dtype == np.int64
        assert starts.tolist() == [0, 9]
        assert stops.tolist() == [4, 11]

    def test_from_arrays_roundtrip(self):
        il = IntervalList([(2, 6), (10, 20)])
        assert IntervalList.from_arrays(*il.as_arrays()) == il

    def test_from_arrays_mismatched_raises(self):
        with pytest.raises(ValueError):
            IntervalList.from_arrays([0, 1], [2])

    def test_max_length(self):
        il = IntervalList([(0, 4), (9, 20)])
        assert il.max_length == 11
        assert IntervalList([]).max_length == 0


@st.composite
def windowed_lists(draw):
    """Raw spans (empty, touching, overlapping, unsorted) and a window
    whose edges often land on a span edge, inside a span or in a gap."""
    spans = draw(spans_strategy)
    edges = sorted({e for span in spans for e in span} | {0})
    edge = st.sampled_from(edges).flatmap(lambda e: st.integers(max(e - 1, 0), e + 1))
    start = draw(edge | st.integers(0, 280))
    stop = draw(edge | st.integers(0, 280))
    if stop < start:
        start, stop = stop, start
    return spans, start, stop


class TestWindow:
    """``window`` is the intersection with the window shifted to its
    origin, cut from the arrays: it builds no ``Interval`` and owns its pair."""

    @settings(max_examples=300, deadline=None)
    @given(case=windowed_lists())
    def test_window_is_the_shifted_intersection(self, case):
        spans, start, stop = case
        il = IntervalList(spans)
        starts, stops = il.as_arrays()
        want = IntervalList.from_arrays(starts, stops).intersection(
            IntervalList([(start, stop)])
        ).shift(-start)
        got = il.window(start, stop)
        got_starts, got_stops = got.as_arrays()
        want_starts, want_stops = want.as_arrays()
        assert got_starts.dtype == got_stops.dtype == np.int64
        assert got_starts.tolist() == want_starts.tolist()
        assert got_stops.tolist() == want_stops.tolist()
        assert got == want and len(got) == len(want) and list(got) == list(want)

    def test_windows_with_no_interval(self):
        il = IntervalList([(10, 20), (30, 40)])
        for start, stop in [(0, 10), (20, 30), (40, 90), (15, 15), (0, 0)]:
            got = il.window(start, stop)
            assert len(got) == 0 and got.as_arrays()[0].size == 0
        assert len(IntervalList().window(0, 50)) == 0

    def test_spans_straddling_both_edges_are_clipped(self):
        got = IntervalList([(0, 12), (14, 30)]).window(5, 20)
        assert [(iv.first, iv.last) for iv in got] == [(0, 7), (9, 15)]

    def test_window_owns_its_pair(self):
        got = IntervalList([(0, 12), (14, 30)]).window(5, 20)
        starts, stops = got.as_arrays()
        assert got.as_arrays()[0] is starts and got.as_arrays()[1] is stops
        assert not starts.flags.writeable and not stops.flags.writeable
        assert segments(starts, stops) is got.segments

    def test_invalid_window_raises_as_the_intersection_does(self):
        il = IntervalList([(0, 12)])
        for start, stop in [(5, 3), (-1, 4)]:
            with pytest.raises(ValueError, match="invalid interval") as want:
                il.intersection(IntervalList([(start, stop)]))
            with pytest.raises(ValueError, match="invalid interval") as got:
                il.window(start, stop)
            assert str(got.value) == str(want.value)

    def test_pickles_build_the_spans(self):
        got = IntervalList([(0, 12), (14, 30)]).window(5, 20)
        assert pickle.loads(pickle.dumps(got)) == got


class TestRegularIntervals:
    def test_no_gaps_covers_everything(self):
        il = regular_intervals(100, 10)
        assert il.n_samples == 100
        assert len(il) == 1  # touching intervals merge

    def test_with_gaps(self):
        il = regular_intervals(100, 10, gap_length=5)
        assert all(len(iv) <= 10 for iv in il)
        assert len(il) == 7
        assert il[0] == Interval(0, 10)
        assert il[1] == Interval(15, 25)

    def test_truncated_tail(self):
        il = regular_intervals(18, 10, gap_length=2)
        assert il[-1] == Interval(12, 18)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            regular_intervals(10, 0)
        with pytest.raises(ValueError):
            regular_intervals(10, 5, gap_length=-1)
