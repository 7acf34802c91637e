"""Shared pieces of the benchmark: paths, statistics, failure tally, records."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".replaybench"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"

WORKLOADS = ("hot_repeat", "cold_ladder", "deadline_http", "sql_exec")

#: Metrics every run records besides the end-to-end ones BENCHMARK.json
#: lists. They are not on every workload, can be 0, or spread wider
#: across seeds than 0.25, the largest bound BENCHMARK.json may give
#: (p90 and p99; see README), so ``compare`` alone judges them, with
#: these rules.
#: kind: "relative" (bound is a share of the base median), "absolute"
#: (bound in the metric's unit) or "exact" (any move is a change).
INFORMATIONAL = {
    "latency_p90_ms": {"better": "lower", "bound": 0.25, "kind": "relative"},
    "latency_p99_ms": {"better": "lower", "bound": 0.25, "kind": "relative"},
    "fail_share": {"better": "lower", "bound": 0.0, "kind": "absolute"},
    "slo_rate_rps": {"better": "higher", "bound": 0.0, "kind": "absolute"},
    "degraded_share": {"better": "lower", "bound": 0.01, "kind": "absolute"},
    "cost_ratio": {"better": "lower", "bound": 0.01, "kind": "absolute"},
    "q_error_median": {"better": "lower", "bound": 0.0, "kind": "exact"},
    "warmup_s": {"better": "lower", "bound": 0.25, "kind": "relative"},
    "repeat_share": {"better": "higher", "bound": 0.0, "kind": "exact"},
    "lateness_p99_ms": {"better": "lower", "bound": 5.0, "kind": "absolute"},
}


def ensure_repro() -> None:
    """Import the program from this checkout's ``src``, or exit nonzero.

    The benchmark must measure the source next to it, never an
    installed copy, so a checkout without ``src/repro`` is an error.
    """
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    location = Path(repro.__file__).resolve().parent
    if location != package.resolve():
        raise SystemExit(f"error: imported repro from {location}, not {package}")


def benchmark_spec() -> dict:
    """The parsed ``BENCHMARK.json`` at the checkout root."""
    return json.loads(BENCHMARK_FILE.read_text())


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def median(values) -> float:
    return quantile(values, 0.5)


class Tally:
    """Counts attempted and failed requests; keeps the first messages.

    A request is counted as failed once, however many of its checks
    fail, so ``failed <= attempted`` always holds.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed_ids: set = set()
        self.messages: list[str] = []

    def attempt(self) -> int:
        """Register one request; returns its id."""
        self.attempted += 1
        return self.attempted

    def fail(self, request_id: int, message: str) -> None:
        self.failed_ids.add(request_id)
        if len(self.messages) < 20:
            self.messages.append(message)

    @property
    def failed(self) -> int:
        return len(self.failed_ids)

    @property
    def fail_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def host_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()),
    }


def digest(parts) -> str:
    """SHA-256 over the ``repr`` of each part, in order."""
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(repr(part).encode())
        hasher.update(b"\0")
    return hasher.hexdigest()


def instance_key(graph, catalog) -> tuple:
    """What identifies a generated (graph, catalog) pair in a digest."""
    edges = tuple((e.left, e.right, e.selectivity) for e in graph.edges)
    cards = catalog.cardinalities() if catalog is not None else ()
    return (graph.n_relations, edges, cards)


def latency_metrics(latencies: list[float]) -> dict:
    """p50/p90/p95/p99 in ms (each with its sample count) from seconds."""
    n = len(latencies)
    return {
        f"latency_{name}_ms": {"value": quantile(latencies, q) * 1e3, "unit": "ms", "n": n}
        for name, q in (("p50", 0.5), ("p90", 0.9), ("p95", 0.95), ("p99", 0.99))
    }
