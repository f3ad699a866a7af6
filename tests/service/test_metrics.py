"""Metrics registry: counters, series, quantiles, histograms, timers."""

import bisect
import random
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.sketch import QuantileSketch
from repro.service.metrics import DEFAULT_BUCKETS, MetricsRegistry, quantile


class TestQuantile:
    def test_median_interpolates(self):
        assert quantile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)

    def test_extremes(self):
        values = [5.0, 1.0, 3.0]
        assert quantile(values, 0.0) == 1.0
        assert quantile(values, 1.0) == 5.0

    def test_rejects_empty_and_bad_q(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)


class TestCounters:
    def test_incr(self):
        reg = MetricsRegistry()
        reg.incr("requests")
        reg.incr("requests", 4)
        assert reg.counter("requests") == 5
        assert reg.counter("absent") == 0

    def test_snapshot_contains_counters(self):
        reg = MetricsRegistry()
        reg.incr("a")
        snap = reg.snapshot()
        assert snap["counters"] == {"a": 1}
        assert snap["series"] == {}


class TestSeries:
    def test_observe_summary_lifetime_scope(self):
        reg = MetricsRegistry()
        for v in (1.0, 2.0, 3.0):
            reg.observe("lat", v)
        summary = reg.snapshot()["series"]["lat"]
        assert summary["count"] == 3
        assert summary["sum"] == pytest.approx(6.0)
        assert summary["mean"] == pytest.approx(2.0)
        assert summary["min"] == 1.0 and summary["max"] == 3.0

    def test_window_scope_is_labelled_explicitly(self):
        reg = MetricsRegistry()
        for v in (1.0, 2.0, 3.0):
            reg.observe("lat", v)
        summary = reg.snapshot()["series"]["lat"]
        assert summary["window_count"] == 3
        # Nearest rank on the α = 1 % sketch: the bucket midpoints of 2
        # and 3, not interpolated sample values.
        assert summary["window_p50"] == pytest.approx(1.9936617014173446)
        assert summary["window_p95"] == pytest.approx(2.9742334234767016)
        # Unlabelled quantile keys must not exist — scopes differ.
        assert "p50" not in summary and "p95" not in summary

    def test_timer_records_positive_duration(self):
        reg = MetricsRegistry()
        with reg.timer("block"):
            sum(range(1000))
        summary = reg.snapshot()["series"]["block"]
        assert summary["count"] == 1
        assert summary["min"] >= 0.0

    def test_reset(self):
        reg = MetricsRegistry()
        reg.incr("a")
        reg.observe("b", 1.0)
        reg.reset()
        snap = reg.snapshot()
        assert snap["counters"] == {} and snap["series"] == {}


class TestHistogramBuckets:
    def test_buckets_are_cumulative_with_inf(self):
        reg = MetricsRegistry(buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            reg.observe("lat", v)
        buckets = reg.snapshot()["series"]["lat"]["buckets"]
        assert buckets == {"0.1": 1, "1": 2, "10": 3, "+Inf": 4}

    def test_boundary_value_counts_in_its_bucket(self):
        # Prometheus `le` semantics: a sample equal to the bound is inside.
        reg = MetricsRegistry(buckets=(0.1, 1.0))
        reg.observe("lat", 0.1)
        buckets = reg.snapshot()["series"]["lat"]["buckets"]
        assert buckets["0.1"] == 1

    def test_default_buckets_applied(self):
        reg = MetricsRegistry()
        reg.observe("lat", 0.003)
        buckets = reg.snapshot()["series"]["lat"]["buckets"]
        assert len(buckets) == len(DEFAULT_BUCKETS) + 1
        assert buckets["0.005"] == 1 and buckets["0.001"] == 0

    def test_invalid_buckets_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry(buckets=(1.0, 0.5))      # not increasing
        with pytest.raises(ValueError):
            MetricsRegistry(buckets=(0.0, 1.0))      # non-positive
        with pytest.raises(ValueError):
            MetricsRegistry(buckets=(1.0, float("inf")))  # +Inf is implicit

    def test_window_rolls_but_lifetime_does_not(self):
        reg = MetricsRegistry(buckets=(10.0,))
        for _ in range(2000):
            reg.observe("lat", 1.0)
        summary = reg.snapshot()["series"]["lat"]
        assert summary["count"] == 2000
        # The first 1024 became the previous generation; both are still
        # in the window.
        assert summary["window_count"] == 2000
        assert summary["buckets"]["+Inf"] == 2000
        for _ in range(1000):
            reg.observe("lat", 1.0)
        summary = reg.snapshot()["series"]["lat"]
        assert summary["count"] == 3000
        # The first generation is gone: 1024 previous + 952 current.
        assert summary["window_count"] == 1976
        assert summary["buckets"]["+Inf"] == 3000


def expected_window_count(n):
    """Samples in a window that has seen ``n`` since its last drain."""
    return n if n <= 2048 else 1025 + (n - 1) % 1024


class TestWindowProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(0, 3000),
        seed=st.integers(0, 2**32 - 1),
        drains=st.sets(st.integers(0, 3000), max_size=3),
    )
    # Random drains rarely leave more than 2048 samples standing, so
    # pin the rolled-twice window and the boundaries around it.
    @example(n=3000, seed=1, drains=set())
    @example(n=3000, seed=2, drains={1024})
    @example(n=2900, seed=3, drains={851})
    @example(n=2048, seed=4, drains=set())
    @example(n=2049, seed=5, drains=set())
    def test_window_is_a_sketch_of_the_recent_samples(self, n, seed, drains):
        rng = random.Random(seed)
        samples = [10.0 ** rng.uniform(-4.0, 2.0) for _ in range(n)]
        reg = MetricsRegistry()
        since_drain = []

        def check(summary, seen):
            window = since_drain[len(since_drain)
                                 - expected_window_count(len(since_drain)):]
            assert summary["window_count"] == len(window)
            sketch = QuantileSketch()
            sketch.extend(window)
            assert {key: summary[f"window_{key}"]
                    for key in ("p50", "p95", "p99")
                    if f"window_{key}" in summary} == sketch.percentiles()
            # lifetime scope ignores windows and drains
            assert summary["count"] == len(seen)
            assert summary["sum"] == sum(seen)
            assert summary["min"] == min(seen)
            assert summary["max"] == max(seen)
            ordered = sorted(seen)
            for bound in DEFAULT_BUCKETS:
                assert (summary["buckets"][f"{bound:g}"]
                        == bisect.bisect_right(ordered, bound))
            assert summary["buckets"]["+Inf"] == len(seen)

        for i, value in enumerate(samples):
            if i in drains and i > 0:
                check(reg.snapshot(reset_windows=True)["series"]["lat"],
                      samples[:i])
                since_drain = []
            reg.observe("lat", value)
            since_drain.append(value)
        if samples:
            check(reg.snapshot()["series"]["lat"], samples)


class TestThreadSafety:
    def test_concurrent_incr_is_exact(self):
        reg = MetricsRegistry()

        def worker():
            for _ in range(1000):
                reg.incr("n")
                reg.observe("v", 1.0)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("n") == 8000
        assert reg.snapshot()["series"]["v"]["count"] == 8000
