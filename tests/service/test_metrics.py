"""Unit tests for service metrics."""

from __future__ import annotations

import threading

import pytest

from repro.obs import Counter, Histogram, Instrumentation
from repro.service.metrics import render_snapshot


class TestCounter:
    def test_increment(self):
        counter = Counter()
        counter.increment()
        counter.increment(4)
        assert counter.value == 5

    def test_thread_safety(self):
        counter = Counter()

        def bump():
            for _ in range(1000):
                counter.increment()

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8000


class TestHistogram:
    def test_empty_summary(self):
        assert Histogram().summary() == {"count": 0}

    def test_percentiles(self):
        histogram = Histogram()
        for ms in range(1, 101):  # 1..100 ms
            histogram.observe(ms / 1000.0)
        summary = histogram.summary()
        assert summary["count"] == 100
        assert 45 <= summary["p50_ms"] <= 55
        assert 90 <= summary["p95_ms"] <= 99
        assert 95 <= summary["p99_ms"] <= 100
        assert summary["min_ms"] == 1.0
        assert summary["max_ms"] == 100.0
        assert summary["mean_ms"] == pytest.approx(50.5)

    def test_window_bounds_memory(self):
        histogram = Histogram(window=10)
        for value in range(100):
            histogram.observe(value)
        assert histogram.count == 100
        assert len(histogram._samples) == 10


class TestRegistry:
    def test_render_snapshot(self):
        obs = Instrumentation()
        obs.counters.increment("requests")
        obs.histograms.observe("latency", 0.002)
        text = render_snapshot(obs.snapshot())
        assert "requests" in text
        assert "p99_ms" in text

    def test_render_empty_snapshot(self):
        assert "no metrics" in render_snapshot(Instrumentation().snapshot())

    def test_render_cache_section(self):
        snapshot = {"cache": {"hits": 1, "hit_rate": 0.5}}
        text = render_snapshot(snapshot)
        assert "plan cache" in text
        assert "0.500" in text
