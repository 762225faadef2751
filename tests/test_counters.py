"""JoinStatistics bookkeeping and LatencyHistogram quantile tests."""

import threading

import pytest

from repro.counters import JoinStatistics, LatencyHistogram


class TestCounters:
    def test_fresh_statistics_are_zero(self):
        stats = JoinStatistics()
        assert all(v == 0 for v in stats.as_dict().values())

    def test_nodes_touched_sums_scanned_and_copied(self):
        stats = JoinStatistics(nodes_scanned=3, nodes_copied=4, nodes_skipped=100)
        assert stats.nodes_touched == 7  # skips are free by definition

    def test_reset(self):
        stats = JoinStatistics(nodes_scanned=5)
        stats.reset()
        assert stats.nodes_scanned == 0

    def test_merge_accumulates_and_returns_self(self):
        a = JoinStatistics(nodes_scanned=1, result_size=2)
        b = JoinStatistics(nodes_scanned=10, duplicates_generated=3)
        merged = a.merge(b)
        assert merged is a
        assert a.nodes_scanned == 11
        assert a.result_size == 2
        assert a.duplicates_generated == 3

    def test_as_dict_round_trip(self):
        stats = JoinStatistics(partitions=7)
        snapshot = stats.as_dict()
        assert snapshot["partitions"] == 7
        assert set(snapshot) == set(JoinStatistics().__dataclass_fields__)


class TestLatencyHistogram:
    def test_empty_histogram(self):
        histogram = LatencyHistogram()
        assert histogram.count == 0
        assert histogram.percentile(50) == 0.0
        snapshot = histogram.snapshot()
        assert snapshot == {
            "count": 0, "mean_ms": 0.0, "p50_ms": 0.0, "p99_ms": 0.0,
            "max_ms": 0.0,
        }

    def test_percentiles_never_underestimate(self):
        """Bucketed quantiles report a bucket's *upper* bound — a p99
        read off the histogram is always >= the exact p99."""
        histogram = LatencyHistogram()
        samples = [0.001 * (i + 1) for i in range(100)]  # 1ms .. 100ms
        for s in samples:
            histogram.observe(s)
        exact_p50 = sorted(samples)[49]
        exact_p99 = sorted(samples)[98]
        assert histogram.percentile(50) >= exact_p50
        assert histogram.percentile(99) >= exact_p99
        # ...but by at most the geometric bucket factor (2x), clamped
        # to the true maximum.
        assert histogram.percentile(50) <= 2 * exact_p50
        assert histogram.percentile(99) <= max(samples)

    def test_single_observation(self):
        histogram = LatencyHistogram()
        histogram.observe(0.005)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 1
        assert snapshot["max_ms"] == 5.0
        assert 5.0 <= snapshot["p50_ms"] <= 10.0
        assert snapshot["p50_ms"] == snapshot["p99_ms"]

    def test_extremes_clamp_to_bucket_range(self):
        histogram = LatencyHistogram()
        histogram.observe(-1.0)  # clamps to zero
        histogram.observe(0.0)
        histogram.observe(10_000.0)  # beyond the last bucket
        assert histogram.count == 3
        assert histogram.percentile(100) == 10_000.0

    def test_percentile_validates_range(self):
        with pytest.raises(ValueError, match="percentile"):
            LatencyHistogram().percentile(101)

    def test_merge_and_reset(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.observe(0.001)
        b.observe(0.1)
        b.observe(0.2)
        merged = a.merge(b)
        assert merged is a
        assert a.count == 3
        assert a.snapshot()["max_ms"] == 200.0
        assert b.count == 2  # the source is unchanged
        a.reset()
        assert a.count == 0 and a.snapshot()["max_ms"] == 0.0

    def test_thread_safety_no_lost_updates(self):
        histogram = LatencyHistogram()
        per_thread = 2000

        def observer():
            for _ in range(per_thread):
                histogram.observe(0.002)

        threads = [threading.Thread(target=observer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert histogram.count == 4 * per_thread
        assert histogram.snapshot()["count"] == 4 * per_thread
