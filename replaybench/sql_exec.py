"""``sql_exec``: SQL text in, executed rows out, through ``run_pipeline``.

Closed loop, one client, whole passes. A round runs the four queries of
one TPC-H-shaped database under both estimators ("statistics" with a
catalog ANALYZEd before timing, and "independence"); a pass runs one
round on every database of a fixed corpus of 16, generated from seeds
0-15 at scales growing from 0.02 to 0.045. The seed draws the order of
the databases in each pass and of the requests in each round.

The corpus is fixed, as a TPC-H database is: one database's round time
depends on its skew by a factor of five, so runs that drew their own
databases differed by 13% (interquartile range over ten seeds) and
measured the draw, not the program. The sizes vary so that request
latencies spread evenly; at one scale the slowest six requests of a
pass stood apart and the 95th percentile fell in the gap below them.
Execution is most of each request and enumeration a small part; this
is the only workload where estimation quality changes wall time.
"""

from __future__ import annotations

import math
import random
import time

from repro.catalog.catalog import Catalog
from repro.errors import ReproError
from repro.frontend.parser import parse_query_detailed
from repro.pipeline import run_pipeline, tpch_workload
from repro.plans.visitors import validate_plan
from repro.stats import analyze_tables

from replaybench.common import Tally, digest, median

CORPUS = 16
SCALES = (0.02, 0.045)
SMOKE_CORPUS = 2
ESTIMATORS = ("statistics", "independence")
PAIRS = [(query, estimator) for query in range(4) for estimator in ESTIMATORS]


class Dataset:
    """Corpus database ``seed``, with per-query ANALYZE catalogs."""

    def __init__(self, seed: int) -> None:
        low, high = SCALES
        workload = tpch_workload(scale=low + (high - low) * seed / (CORPUS - 1), seed=seed)
        self.seed = seed
        self.tables = workload.tables
        self.queries = workload.queries
        self.catalogs: dict[str, Catalog] = {}

    def analyze(self) -> None:
        analyzed = analyze_tables(self.tables)
        for query in self.queries:
            names = parse_query_detailed(query.sql).graph.names
            self.catalogs[query.name] = Catalog(analyzed.by_name(name) for name in names)

    def run(self, query, estimator: str):
        return run_pipeline(
            query.sql,
            tables=self.tables,
            estimator=estimator,
            stats_catalog=self.catalogs[query.name] if estimator == "statistics" else None,
        )


class Inputs:
    def __init__(self, seed: int, seconds: float, smoke: bool = False) -> None:
        rng = random.Random(f"sql_exec/{seed}")
        self.datasets = [Dataset(index) for index in range(SMOKE_CORPUS if smoke else CORPUS)]
        # A pass takes ~3 s on a 2-core host; plan enough for a faster
        # one. Each pass is a list of (dataset, request order) rounds.
        self.passes = [
            [(dataset, rng.sample(PAIRS, len(PAIRS)))
             for dataset in rng.sample(range(len(self.datasets)), len(self.datasets))]
            for _ in range(math.ceil(seconds / (0.05 if smoke else 0.5)) + 2)
        ]

    def digest(self) -> str:
        return digest([(d.seed, sorted((k, len(v)) for k, v in d.tables.items())) for d in self.datasets]
                      + self.passes)

    def analyze(self) -> None:
        for dataset in self.datasets:
            dataset.analyze()


def setup_seconds() -> tuple[float, float]:
    """(input generation seconds, ANALYZE + first response seconds)."""
    started = time.perf_counter()
    dataset = Dataset(0)
    generated = time.perf_counter()
    dataset.analyze()
    result = dataset.run(dataset.queries[0], "statistics")
    if result.report is None:
        raise RuntimeError("the first pipeline run executed nothing")
    return generated - started, time.perf_counter() - generated


def replay(data: Inputs, tally: Tally, seconds: float, rows: dict, first_pass: int = 0, tracer=None):
    """Whole passes until ``seconds`` have passed; returns (latencies by
    (database, query, estimator), next pass, statistics q-errors, rows
    examined per row)."""
    latencies: dict[tuple, list[float]] = {}
    q_errors = []
    examined = []
    index = first_pass
    started_run = time.perf_counter()
    while index < len(data.passes) and (index == first_pass or time.perf_counter() - started_run < seconds):
        for dataset_index, order in data.passes[index]:
            dataset = data.datasets[dataset_index]
            for query_index, estimator in order:
                query = dataset.queries[query_index]
                request_id = tally.attempt()
                started = time.perf_counter()
                try:
                    if tracer is None:
                        result = dataset.run(query, estimator)
                    else:
                        with tracer.span("pipeline.request"):
                            result = dataset.run(query, estimator)
                except Exception as error:  # noqa: BLE001 - a failed request is counted, not fatal
                    tally.fail(request_id, f"{query.name}/{estimator} raised {type(error).__name__}: {error}")
                    continue
                latencies.setdefault((dataset.seed, query_index, estimator), []).append(
                    time.perf_counter() - started)
                report = result.report
                try:
                    validate_plan(result.physical_plan, result.prepared.graph)
                except ReproError as error:
                    tally.fail(request_id, f"{query.name}/{estimator} invalid plan: {error}")
                    continue
                if not math.isfinite(result.optimization.cost) or report is None:
                    tally.fail(request_id, f"{query.name}/{estimator}: no finite cost or no execution")
                    continue
                expected = rows.setdefault((dataset.seed, query.name), report.result_rows)
                if report.result_rows != expected:
                    tally.fail(request_id, f"{query.name}/{estimator} returned {report.result_rows} rows, "
                                           f"another run returned {expected}")
                if estimator == "statistics":
                    q_errors.extend(observation.q_error for observation in report.observations)
                scanned = sum(len(dataset.tables[name]) for name in result.prepared.graph.names)
                examined.append((scanned + report.total_intermediate_actual) / max(1, report.result_rows))
        index += 1
    return latencies, index, q_errors, examined


def typical(latencies: dict[tuple, list[float]]) -> list[float]:
    """Each distinct request's median latency over the passes.

    The host's speed on this allocation-heavy work drifts by up to 40%
    for seconds at a time (the same dict-building loop alternated
    between 76 and 105 ms), so a pooled percentile measured the drift.
    The median over passes sets those phases aside, and a change that
    slows a request in every pass still shows in full.
    """
    return [median(values) for values in latencies.values()]
