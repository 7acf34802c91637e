"""Latency histograms over a sliding sample window.

Exact count/mean/min/max over *all* observations, percentiles over a
bounded reservoir of the most recent ones. Durations are recorded in
seconds and reported in milliseconds — the natural unit for optimizer
latencies.
"""

from __future__ import annotations

import math
import threading
from collections import deque

__all__ = ["DEFAULT_WINDOW", "Histogram", "HistogramRegistry"]

#: Samples retained per histogram. Percentiles are computed over a
#: sliding window of the most recent observations; 8192 samples bound
#: both memory and snapshot sort cost while keeping tail estimates
#: stable for the workloads the CLI generates.
DEFAULT_WINDOW = 8192


class Histogram:
    """Thread-safe duration summary over a sliding window of observations."""

    __slots__ = ("_lock", "_samples", "_count", "_sum", "_min", "_max")

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        self._lock = threading.Lock()
        self._samples: deque[float] = deque(maxlen=window)
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = 0.0

    def observe(self, seconds: float) -> None:
        """Record one duration (in seconds)."""
        with self._lock:
            self._samples.append(seconds)
            self._count += 1
            self._sum += seconds
            self._min = min(self._min, seconds)
            self._max = max(self._max, seconds)

    @property
    def count(self) -> int:
        """Total number of observations ever recorded."""
        with self._lock:
            return self._count

    def summary(self) -> dict[str, float | int]:
        """Point-in-time summary with p50/p95/p99 in milliseconds."""
        with self._lock:
            count = self._count
            if count == 0:
                return {"count": 0}
            ordered = sorted(self._samples)
            mean = self._sum / count
            minimum, maximum = self._min, self._max
        return {
            "count": count,
            "mean_ms": mean * 1000.0,
            "min_ms": minimum * 1000.0,
            "p50_ms": _percentile(ordered, 0.50) * 1000.0,
            "p95_ms": _percentile(ordered, 0.95) * 1000.0,
            "p99_ms": _percentile(ordered, 0.99) * 1000.0,
            "max_ms": maximum * 1000.0,
        }


def _percentile(ordered: list[float], fraction: float) -> float:
    """Ceil-based nearest-rank percentile over an ascending sample list.

    ``ceil`` (not ``round``) resolves mid-window ranks *upward*: the
    p50 of ``[1, 2]`` is 2. ``round()`` would pick the lower neighbor
    — and being banker's rounding, do so dependent on rank parity —
    which systematically understated tail latencies on even windows.
    """
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, math.ceil(fraction * (len(ordered) - 1))))
    return ordered[rank]


class HistogramRegistry:
    """Named histograms, created on first use."""

    __slots__ = ("_lock", "_histograms", "_window")

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        self._lock = threading.Lock()
        self._histograms: dict[str, Histogram] = {}
        self._window = window

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name``, created if needed."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram(self._window)
            return histogram

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration into the histogram called ``name``."""
        self.histogram(name).observe(seconds)

    def snapshot(self) -> dict[str, dict]:
        """All histogram summaries as a name → summary dict (sorted)."""
        with self._lock:
            histograms = sorted(self._histograms.items())
        return {name: histogram.summary() for name, histogram in histograms}

    def __len__(self) -> int:
        with self._lock:
            return len(self._histograms)

    def __repr__(self) -> str:
        return f"HistogramRegistry({len(self)} histograms)"
