"""Percentile, geometric mean and spread against hand-computed data."""

import pytest

from ledger import stats
from ledger.harness import NOMINAL_KERNEL_S, Row, Samples, speed_factors
from ledger.ops import Op


def test_percentile_interpolates_between_ranks():
    values = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert stats.percentile(values, 0) == 10.0
    assert stats.percentile(values, 50) == 30.0
    assert stats.percentile(values, 100) == 50.0
    assert stats.percentile(values, 95) == pytest.approx(48.0)   # rank 3.8
    assert stats.percentile([1.0, 2.0], 50) == 1.5
    assert stats.percentile([4.0], 99) == 4.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_geomean():
    assert stats.geomean([1.0, 100.0]) == pytest.approx(10.0)
    assert stats.geomean([2.0, 4.0, 8.0]) == pytest.approx(4.0)


def test_spread_is_interquartile_distance_over_median():
    # statistics.quantiles(1..9, n=4) = [2.5, 5.0, 7.5]
    assert stats.spread([1, 2, 3, 4, 5, 6, 7, 8, 9]) == pytest.approx(1.0)


def test_engine_ms_weighs_classes_equally():
    samples = Samples()
    fast, slow = Op("count", "sql", "", ()), Op("bidder", "sql", "", ())
    for _ in range(99):
        samples.record(fast, 0.001, None)
    samples.record(slow, 0.100, None)
    samples.record(slow, 0.100, "wrong answer")          # no latency sample
    assert samples.engine_ms("sql") == pytest.approx(10.0)
    assert (samples.attempted, samples.failed) == (101, 1)
    assert samples.failed_by_class["bidder"] == 1


def test_tail_ratio_is_relative_to_the_ops_own_cell():
    samples = Samples()
    for cls, base in (("count", 0.001), ("bidder", 0.1)):
        for index in range(100):
            samples.record(Op(cls, "sql", "", ()), base * (3.0 if index >= 98 else 1.0), None)
    assert samples.tail_ratio(95.0) == pytest.approx(1.0)
    assert samples.tail_ratio(99.5) == pytest.approx(3.0)


def test_calibration_cancels_a_uniform_slowdown():
    op = Op("count", "sql", "", ())
    quiet, busy = Samples(), Samples()
    quiet.record_all([Row(op, 0.010, None, NOMINAL_KERNEL_S, 0.011)] * 30)
    busy.record_all([Row(op, 0.013, None, NOMINAL_KERNEL_S * 1.3, 0.0143)] * 30)
    assert busy.latencies["count", "sql"] == pytest.approx(quiet.latencies["count", "sql"])
    assert busy.ops_per_s == pytest.approx(quiet.ops_per_s)
    assert speed_factors([NOMINAL_KERNEL_S * 2] * 5) == pytest.approx([0.5] * 5)
