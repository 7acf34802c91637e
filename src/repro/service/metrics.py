"""Service metrics, backed by the unified :mod:`repro.obs` layer.

:class:`MetricsRegistry` is a thin view over an obs
:class:`~repro.obs.CounterRegistry` and
:class:`~repro.obs.HistogramRegistry` — pass the registries of a shared
:class:`~repro.obs.Instrumentation` and service counters, enumerator
counters and span timings all land in the same snapshot.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from repro.obs.counters import Counter, CounterRegistry
from repro.obs.histogram import Histogram, HistogramRegistry

__all__ = ["MetricsRegistry", "render_snapshot"]


class MetricsRegistry:
    """Named counters and histograms with snapshot rendering.

    Instruments are created on first use, so call sites read as
    ``metrics.counter("requests").increment()``.

    Args:
        counters / histograms: the obs registries the instruments live
            in, usually those of a shared
            :class:`~repro.obs.Instrumentation`.
    """

    def __init__(
        self, counters: CounterRegistry, histograms: HistogramRegistry
    ) -> None:
        self._counters = counters
        self._histograms = histograms

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created if needed."""
        return self._counters.counter(name)

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name``, created if needed."""
        return self._histograms.histogram(name)

    def snapshot(self) -> dict[str, dict[str, object]]:
        """All instruments as a plain, JSON-serializable dict."""
        return {
            "counters": self._counters.snapshot(),
            "histograms": self._histograms.snapshot(),
        }

    def to_json(self, indent: int | None = 2) -> str:
        """The snapshot as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


def render_snapshot(snapshot: Mapping[str, Any]) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` dict as monospace tables."""
    from repro.bench.reporting import render_table

    sections: list[str] = []
    cache: Mapping[str, Any] = snapshot.get("cache", {})
    if cache:
        sections.append(
            "plan cache\n"
            + render_table(
                ["stat", "value"],
                [
                    [
                        name,
                        f"{value:.3f}" if name == "hit_rate" else value,
                    ]
                    for name, value in cache.items()
                ],
            )
        )
    counters: Mapping[str, int] = snapshot.get("counters", {})
    if counters:
        sections.append(
            "counters\n"
            + render_table(
                ["name", "value"], [[name, value] for name, value in counters.items()]
            )
        )
    histograms: Mapping[str, Mapping[str, Any]] = snapshot.get("histograms", {})
    populated = {
        name: summary for name, summary in histograms.items() if summary.get("count")
    }
    if populated:
        columns = ("count", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms")
        sections.append(
            "latency histograms\n"
            + render_table(
                ["name", *columns],
                [
                    [name, *(summary.get(column) for column in columns)]
                    for name, summary in populated.items()
                ],
            )
        )
    return "\n\n".join(sections) if sections else "no metrics recorded"
