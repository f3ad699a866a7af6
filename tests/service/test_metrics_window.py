"""Window-scoped snapshot fields: atomic reset under concurrent observers."""

import threading

import pytest

from repro.service.metrics import MetricsRegistry


class TestResetWindows:
    def test_reset_drains_window_but_keeps_lifetime(self):
        reg = MetricsRegistry()
        for v in (0.1, 0.2, 0.3):
            reg.observe("lat", v)
        first = reg.snapshot(reset_windows=True)["series"]["lat"]
        assert first["window_count"] == 3
        assert first["window_p50"] == pytest.approx(0.1998668923232057)
        assert first["count"] == 3  # lifetime untouched

        second = reg.snapshot()["series"]["lat"]
        assert second["window_count"] == 0
        assert "window_p50" not in second  # empty window: no quantiles
        assert second["count"] == 3
        assert second["sum"] == pytest.approx(0.6)
        assert second["buckets"]["+Inf"] == 3

    def test_default_snapshot_does_not_reset(self):
        reg = MetricsRegistry()
        reg.observe("lat", 1.0)
        reg.snapshot()
        assert reg.snapshot()["series"]["lat"]["window_count"] == 1

    def test_samples_after_reset_land_in_next_window(self):
        reg = MetricsRegistry()
        reg.observe("lat", 1.0)
        reg.snapshot(reset_windows=True)
        reg.observe("lat", 2.0)
        summary = reg.snapshot()["series"]["lat"]
        assert summary["window_count"] == 1
        assert summary["window_p50"] == pytest.approx(2.0)

    def test_every_sample_lands_in_exactly_one_window(self):
        """Concurrent observers vs resetting scrapers: no loss, no double.

        Each scrape computes its summary and clears the window under the
        same lock ``observe`` takes, so summing ``window_count`` over all
        scrapes plus the final drain must equal the number of samples —
        a sample counted twice or dropped breaks the equality. Total
        samples stay under one window generation (1024) so the rolling
        window can never drop unsampled entries between scrapes.
        """
        reg = MetricsRegistry()
        n_threads, per_thread = 4, 250
        scraped = []
        done = threading.Event()

        def observer():
            for i in range(per_thread):
                reg.observe("lat", 0.001 * (i + 1))

        def scraper():
            while not done.is_set():
                snap = reg.snapshot(reset_windows=True)
                series = snap["series"].get("lat")
                if series:
                    scraped.append(series["window_count"])

        threads = [threading.Thread(target=observer)
                   for _ in range(n_threads)]
        scrape = threading.Thread(target=scraper)
        scrape.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        done.set()
        scrape.join()

        final = reg.snapshot(reset_windows=True)["series"]["lat"]
        total_windowed = sum(scraped) + final["window_count"]
        assert total_windowed == n_threads * per_thread
        assert final["count"] == n_threads * per_thread

    def test_window_quantiles_reflect_only_current_window(self):
        reg = MetricsRegistry()
        for _ in range(10):
            reg.observe("lat", 100.0)
        reg.snapshot(reset_windows=True)
        reg.observe("lat", 1.0)
        summary = reg.snapshot()["series"]["lat"]
        # old 100s are gone from the window (still in lifetime min/max)
        assert summary["window_p99"] == pytest.approx(1.0)
        assert summary["max"] == 100.0
