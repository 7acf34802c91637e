"""Compare two sets of run records: ``python -m replaybench compare BASE HEAD``.

BASE and HEAD are each a run-record JSON file or a directory of them.
For every (metric, workload) pair both sides measured, this prints each
side's median and quartiles and a verdict:

* ``worse``: HEAD's median is worse than BASE's by more than the bound;
* ``improved``: at least ten runs are paired in order, HEAD wins at
  least 9 in 10 of the pairs, and the medians differ by more than
  BASE's interquartile range. With five runs a side, HEAD wins all
  five by chance for one (metric, workload) pair in 32, about once per
  comparison;
* ``unresolved``: the run-to-run spread of either side is wider than
  the bound, unless every HEAD run beats every BASE run;
* ``no change`` otherwise.

End-to-end bounds come from ``BENCHMARK.json`` (a share of BASE's
median); the informational metrics use ``common.INFORMATIONAL``.
"""

from __future__ import annotations

import json
from pathlib import Path

from replaybench.common import INFORMATIONAL, benchmark_spec, median, quantile

MIN_PAIRS = 10


def load_records(path: Path) -> list[dict]:
    """Every workload record in a run file, or in every ``*.json`` under a directory."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = []
    for file in files:
        records.extend(json.loads(file.read_text())["workloads"])
    return records


def rules() -> dict:
    """metric name -> {better, bound, kind}."""
    table = dict(INFORMATIONAL)
    for metric in benchmark_spec()["end_to_end"]:
        table[metric["name"]] = {"better": metric["better"], "bound": metric["bound"], "kind": "relative"}
    return table


def _series(records: list[dict]) -> tuple[dict[tuple[str, str], list[float]], dict[str, str]]:
    """Values per (metric, workload), and each metric's unit."""
    series: dict[tuple[str, str], list[float]] = {}
    units: dict[str, str] = {}
    for record in records:
        for section in ("metrics", "info"):
            for name, entry in record.get(section, {}).items():
                series.setdefault((name, record["workload"]), []).append(entry["value"])
                units[name] = entry["unit"]
    return series, units


def verdict(base: list[float], head: list[float], better: str, bound: float, kind: str) -> str:
    sign = 1.0 if better == "higher" else -1.0
    base_median, head_median = median(base), median(head)
    gain = (head_median - base_median) * sign
    allowed = bound * abs(base_median) if kind == "relative" else bound
    tolerance = 1e-12 * max(1.0, abs(base_median))
    if gain < -allowed - tolerance:
        return "worse"
    pairs = list(zip(base, head))
    wins = sum((h - b) * sign > 0 for b, h in pairs)
    base_iqr = quantile(base, 0.75) - quantile(base, 0.25)
    if len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and gain > base_iqr:
        return "improved"
    if kind == "relative":
        spread = max(_spread(base), _spread(head))
        head_always_better = min(h * sign for h in head) > max(b * sign for b in base)
        if spread > bound and not head_always_better:
            return "unresolved"
    return "no change"


def _spread(values: list[float]) -> float:
    middle = abs(median(values))
    return (quantile(values, 0.75) - quantile(values, 0.25)) / middle if middle else 0.0


def compare(base_records: list[dict], head_records: list[dict]) -> list[dict]:
    """One row per (metric, workload) pair present on both sides."""
    table = rules()
    (base, units), (head, _) = _series(base_records), _series(head_records)
    rows = []
    for key in sorted(base.keys() & head.keys()):
        name, workload = key
        rule = table.get(name)
        if rule is None:
            continue
        b, h = base[key], head[key]
        rows.append({
            "metric": name, "workload": workload, "unit": units[name],
            "base": [quantile(b, 0.25), median(b), quantile(b, 0.75), len(b)],
            "head": [quantile(h, 0.25), median(h), quantile(h, 0.75), len(h)],
            "verdict": verdict(b, h, rule["better"], rule["bound"], rule["kind"]),
        })
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'metric':<18} {'workload':<14} {'base q1/median/q3 (n)':<34} {'head q1/median/q3 (n)':<34} verdict"]
    for row in rows:
        sides = []
        for side in (row["base"], row["head"]):
            q1, mid, q3, n = side
            sides.append(f"{q1:.4g}/{mid:.4g}/{q3:.4g} {row['unit']} ({n})")
        lines.append(f"{row['metric']:<18} {row['workload']:<14} {sides[0]:<34} {sides[1]:<34} {row['verdict']}")
    return "\n".join(lines)
