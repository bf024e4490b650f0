"""The arithmetic behind the reported numbers, and the correctness gate."""

from types import SimpleNamespace

import numpy as np
import pytest

from perfbench.harness import run_units
from perfbench.metrics import error_rate, span_table, tail_percentile, unit_summary


def test_tail_percentile_leaves_ten_units_beyond():
    values = [float(v) for v in range(1, 101)]  # 1..100
    pct, value, beyond = tail_percentile(values)
    assert (pct, value, beyond) == (90.0, 90.0, 10)
    assert sum(v > value for v in values) == 10


def test_tail_percentile_is_order_independent_and_counts_ties_by_rank():
    values = [5.0] * 15 + [1.0] * 5
    pct, value, beyond = tail_percentile(list(reversed(values)))
    assert pct == 50.0 and value == 5.0 and beyond == 10


def test_tail_percentile_with_too_few_units_reports_the_maximum():
    assert tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0, 0)
    assert tail_percentile([1.0] * 10) == (100.0, 1.0, 0)
    assert tail_percentile([1.0] * 10 + [2.0]) == (100.0 / 11, 1.0, 10)
    with pytest.raises(ValueError):
        tail_percentile([])


def test_unit_summary():
    s = unit_summary([0.1] * 20 + [0.3], samples_per_unit=1000)
    assert s["units"] == 21
    assert s["unit_p50_ms"] == pytest.approx(100.0)
    assert s["unit_tail_ms"] == pytest.approx(100.0)
    assert s["tail_units_beyond"] == 10
    assert s["samples_per_s"] == pytest.approx(21 * 1000 / 2.3)


def test_self_time_subtracts_nested_and_sibling_children():
    # root [0, 10] with children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # b has child a [6, 8] (recursion: a under a's sibling, not under a).
    names = ["root", "a", "c", "b", "a"]
    starts = [0.0, 1.0, 2.0, 5.0, 6.0]
    ends = [10.0, 4.0, 3.0, 9.0, 8.0]
    parents = [-1, 0, 1, 0, 3]
    t = span_table(names, starts, ends, parents)
    assert t["root"] == {"count": 1, "busy_s": 10.0, "self_s": 10.0 - 3.0 - 4.0}
    assert t["a"] == {"count": 2, "busy_s": 3.0 + 2.0, "self_s": (3.0 - 1.0) + 2.0}
    assert t["c"] == {"count": 1, "busy_s": 1.0, "self_s": 1.0}
    assert t["b"] == {"count": 1, "busy_s": 4.0, "self_s": 4.0 - 2.0}
    total_self = sum(row["self_s"] for row in t.values())
    assert total_self == pytest.approx(10.0)


def test_busy_time_does_not_count_recursion_twice():
    # a [0, 10] > a [2, 6] > a [3, 4]
    t = span_table(["a", "a", "a"], [0.0, 2.0, 3.0], [10.0, 6.0, 4.0], [-1, 0, 1])
    assert t["a"] == {"count": 3, "busy_s": 10.0, "self_s": 10.0}


def test_span_range_treats_parents_outside_it_as_roots():
    names = ["unit", "x", "unit", "x"]
    starts, ends, parents = [0.0, 1.0, 10.0, 11.0], [5.0, 2.0, 15.0, 13.0], [-1, 0, -1, 2]
    t = span_table(names, starts, ends, parents, lo=3, hi=4)
    assert t == {"x": {"count": 1, "busy_s": 2.0, "self_s": 2.0}}


def test_error_rate():
    assert error_rate(0, 7) == 0.0
    assert error_rate(2, 8) == 0.25
    for failed, attempted in ((1, 0), (-1, 3), (4, 3)):
        with pytest.raises(ValueError):
            error_rate(failed, attempted)


def _fake_prepared(run_unit):
    oracle = np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0
    return SimpleNamespace(
        oracle=oracle, make_inputs=lambda: oracle.copy(), run_unit=run_unit, runtime=None
    )


def test_gate_counts_a_unit_whose_map_differs_in_one_bit():
    calls = []

    def run_unit(zmap):
        calls.append(None)
        if len(calls) == 2:
            flat = zmap.view(np.uint64).reshape(-1)
            flat[5] ^= np.uint64(1)  # last mantissa bit of one pixel
        return zmap

    units = run_units(_fake_prepared(run_unit), seconds=0.5)
    assert units.attempted == len(calls) >= 3
    assert units.failed == 1
    assert error_rate(units.failed, units.attempted) == 1 / units.attempted


def test_gate_counts_units_that_raise_or_change_shape():
    calls = []

    def run_unit(zmap):
        calls.append(None)
        if len(calls) == 1:
            raise FloatingPointError("boom")
        if len(calls) == 2:
            return zmap[:2]
        if len(calls) == 3:
            return zmap.astype(np.float32)
        return zmap

    units = run_units(_fake_prepared(run_unit), seconds=0.5)
    assert units.attempted >= 4
    assert units.failed == 3
    assert units.errors == ["FloatingPointError: boom"]
