"""ASCII rendering of experiment results, and the bench JSON writer.

Plain monospace tables, no third-party dependencies; used by the CLI,
the standalone harness (``benchmarks/run_experiments.py``) and the
EXPERIMENTS.md generator. :func:`host_facts` and :func:`write_json`
are what every ``BENCH_*.json`` producer records and writes with.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.tables import Figure3Row
from repro.bench.experiments import AbsoluteCell, RelativeSeries

__all__ = [
    "render_table",
    "render_figure3",
    "render_relative_series",
    "render_figure12",
    "host_facts",
    "write_json",
]


def host_facts() -> dict:
    """The host a bench ran on: CPU count, platform and Python version."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "platform": platform.platform(),
        "python": sys.version.split()[0],
    }


def write_json(path: str | Path, results: dict) -> Path:
    """Write a bench's results dict as JSON; returns the path written."""
    path = Path(path)
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    return path


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Render rows as a fixed-width table with right-aligned columns."""
    text_rows = [[_cell_text(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in text_rows:
        for column, text in enumerate(row):
            widths[column] = max(widths[column], len(text))
    lines = [
        "  ".join(header.rjust(width) for header, width in zip(headers, widths)),
        "  ".join("-" * width for width in widths),
    ]
    for row in text_rows:
        lines.append(
            "  ".join(text.rjust(width) for text, width in zip(row, widths))
        )
    return "\n".join(lines)


def _cell_text(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) < 0.001 or abs(value) >= 1e7:
            return f"{value:.2e}"
        return f"{value:.4g}"
    return str(value)


def render_figure3(rows: Sequence[Figure3Row]) -> str:
    """Figure 3 layout: one line per (topology, n)."""
    return render_table(
        ["graph", "n", "#ccp", "DPsub", "DPsize"],
        [[row.topology, row.n, row.ccp, row.dpsub, row.dpsize] for row in rows],
    )


def render_relative_series(series: RelativeSeries) -> str:
    """Figures 8-11 layout: per size, time of each algorithm / DPccp."""
    algorithms = ["DPsize", "DPsub", "DPccp"]
    headers = ["n"] + [f"{name}/DPccp" for name in algorithms] + ["DPccp (s)"]
    by_size: dict[int, dict[str, object]] = {}
    baseline_seconds: dict[int, float | None] = {}
    for cell in series.cells:
        by_size.setdefault(cell.n, {})[cell.algorithm] = cell.relative_to_dpccp
        if cell.algorithm == "DPccp":
            baseline_seconds[cell.n] = cell.seconds
    rows = [
        [n]
        + [by_size[n].get(name) for name in algorithms]
        + [baseline_seconds.get(n)]
        for n in sorted(by_size)
    ]
    title = f"Figure {series.figure}: {series.topology} queries, time relative to DPccp"
    return title + "\n" + render_table(headers, rows)


def render_figure12(cells: Sequence[AbsoluteCell]) -> str:
    """Figure 12 layout: absolute seconds, paper value alongside."""
    headers = ["graph", "n", "algorithm", "measured (s)", "paper C++ (s)"]
    rows = [
        [cell.topology, cell.n, cell.algorithm, cell.seconds, cell.paper_seconds]
        for cell in cells
    ]
    return "Figure 12: absolute running time\n" + render_table(headers, rows)
