"""Rendering of :meth:`PlanService.snapshot` dicts.

The service counts and times through its
:class:`~repro.obs.Instrumentation` registries; its
:meth:`~repro.service.optimizer_service.PlanService.snapshot` gathers
them with the cache stats, and :func:`render_snapshot` prints that
snapshot as monospace tables.
"""

from __future__ import annotations

from typing import Any, Mapping

__all__ = ["render_snapshot"]


def render_snapshot(snapshot: Mapping[str, Any]) -> str:
    """Render a :meth:`PlanService.snapshot` dict as monospace tables."""
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
