"""Estimation-accuracy benchmark: statistics vs independence estimation.

Runs every query of the skewed TPC-H-shaped workload
(:func:`repro.pipeline.tpch_workload`) through the full pipeline twice
— once per estimator — executes both physical plans, and scores each
estimator by its per-join q-errors against the actually observed
intermediate cardinalities. The machine-readable artifact
(``BENCH_pipeline.json``) records per-query and aggregate medians plus
the differential check that the independence pipeline reproduces the
direct optimizer output bit-identically (the stats layer must be
strictly opt-in).

Queries whose pipeline run fails are recorded as *skipped* with the
reason, so the artifact stays well-formed on any host.
"""

from __future__ import annotations

import time
from statistics import median

from repro.bench.reporting import host_facts
from repro.core import make_algorithm
from repro.frontend.parser import parse_query_detailed
from repro.io import plan_to_dict
from repro.pipeline import run_pipeline, tpch_workload

__all__ = [
    "DEFAULT_SCALE",
    "DEFAULT_SEED",
    "DEFAULT_QERROR_CEILING",
    "run_pipeline_bench",
    "render_pipeline_bench",
    "check_pipeline_gate",
]

#: Hard ceiling on the statistics estimator's aggregate median q-error
#: — generous against seed/host noise (typical values are < 1.1) while
#: still catching a broken estimator outright.
DEFAULT_QERROR_CEILING = 3.0

#: Default workload scale: ~28k rows total, seconds to execute.
DEFAULT_SCALE = 1.0

#: Default generator seed; the artifact records it for reproduction.
DEFAULT_SEED = 42

_ESTIMATORS = ("independence", "statistics")



def run_pipeline_bench(
    scale: float = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
    algorithm: str = "dpccp",
) -> dict:
    """Measure estimation accuracy on the skewed workload.

    Returns a JSON-ready dict with, per query and per estimator, the
    per-join q-errors (measured by executing the chosen physical plan),
    their median/max, plan cost and timing — plus the aggregate
    medians over all joins of all queries and the differential
    plan-identity check for the independence path.
    """
    workload = tpch_workload(scale=scale, seed=seed)
    entries: list[dict] = []
    pooled: dict[str, list[float]] = {name: [] for name in _ESTIMATORS}
    differential_ok = True

    for query in workload.queries:
        entry: dict = {"query": query.name, "sql": query.sql, "runs": {}}
        for estimator in _ESTIMATORS:
            try:
                started = time.perf_counter()
                result = run_pipeline(
                    query.sql,
                    tables=workload.tables,
                    estimator=estimator,
                    algorithm=algorithm,
                )
                elapsed = time.perf_counter() - started
            except Exception as error:  # pragma: no cover - robustness net
                entry["runs"][estimator] = {
                    "skipped": f"{type(error).__name__}: {error}"
                }
                continue
            assert result.report is not None
            q_errors = [
                observation.q_error
                for observation in result.report.observations
            ]
            pooled[estimator].extend(q_errors)
            entry["runs"][estimator] = {
                "plan_cost": result.optimization.cost,
                "operators": [
                    observation.operator
                    for observation in result.report.observations
                ],
                "q_errors": q_errors,
                "median_q_error": median(q_errors) if q_errors else 1.0,
                "max_q_error": result.report.max_q_error,
                "result_rows": result.report.result_rows,
                "seconds": elapsed,
            }
        # Differential: the independence pipeline must reproduce the
        # direct optimizer's plan bit-for-bit (stats strictly opt-in).
        # Only filter-free queries are expressible pre-pipeline, so
        # only they have a "current output" to compare against.
        parsed = parse_query_detailed(query.sql)
        if parsed.has_filters:
            entry["independence_plan_identical"] = "n/a (query has filters)"
        else:
            direct = make_algorithm(algorithm).optimize(
                parsed.graph, catalog=parsed.catalog
            )
            piped = run_pipeline(
                query.sql, estimator="independence", algorithm=algorithm,
                execute=False,
            )
            identical = plan_to_dict(direct.plan) == plan_to_dict(piped.plan)
            entry["independence_plan_identical"] = identical
            differential_ok = differential_ok and identical
        entries.append(entry)

    aggregate = {
        name: {
            "joins": len(values),
            "median_q_error": median(values) if values else None,
            "max_q_error": max(values) if values else None,
        }
        for name, values in pooled.items()
    }
    return {
        "benchmark": "pipeline_estimation_accuracy",
        "host": host_facts(),
        "scale": scale,
        "seed": seed,
        "algorithm": algorithm,
        "table_sizes": workload.table_sizes(),
        "entries": entries,
        "aggregate": aggregate,
        "differential_plan_identity": differential_ok,
    }


def render_pipeline_bench(results: dict) -> str:
    """Monospace table view of :func:`run_pipeline_bench` results."""
    from repro.bench.reporting import render_table

    header = ["query"]
    for estimator in _ESTIMATORS:
        header += [f"{estimator} med-q", f"{estimator} max-q"]
    header.append("plans identical")
    rows: list[list] = []
    for entry in results["entries"]:
        row: list = [entry["query"]]
        for estimator in _ESTIMATORS:
            run = entry["runs"].get(estimator, {})
            if "skipped" in run:
                row += ["skip", "-"]
            else:
                row += [
                    f"{run['median_q_error']:.2f}",
                    f"{run['max_q_error']:.2f}",
                ]
        identical = entry["independence_plan_identical"]
        if isinstance(identical, str):
            row.append("n/a")
        else:
            row.append("yes" if identical else "NO")
        rows.append(row)
    aggregate = results["aggregate"]
    lines = [
        f"pipeline estimation accuracy — scale {results['scale']}, "
        f"seed {results['seed']}, {results['algorithm']}",
        render_table(header, rows),
    ]
    for estimator in _ESTIMATORS:
        stats = aggregate[estimator]
        if stats["median_q_error"] is not None:
            lines.append(
                f"aggregate {estimator}: median q-error "
                f"{stats['median_q_error']:.3f} over {stats['joins']} joins "
                f"(max {stats['max_q_error']:.2f})"
            )
    skips = {
        run["skipped"]
        for entry in results["entries"]
        for run in entry["runs"].values()
        if "skipped" in run
    }
    for reason in sorted(skips):
        lines.append(f"skipped: {reason}")
    return "\n".join(lines)



def check_pipeline_gate(
    results: dict, ceiling: float = DEFAULT_QERROR_CEILING
) -> list[str]:
    """The CI acceptance gate; returns human-readable failures (empty = pass).

    Three conditions:

    1. the independence pipeline reproduced the direct optimizer's
       plans bit-identically on every query (stats strictly opt-in);
    2. the statistics estimator's aggregate median q-error is strictly
       lower than the independence estimator's;
    3. that median also stays under the hard ``ceiling``.
    """
    failures: list[str] = []
    if not results.get("differential_plan_identity", False):
        failures.append(
            "independence pipeline plans differ from direct optimizer output"
        )
    aggregate = results.get("aggregate", {})
    stats_median = aggregate.get("statistics", {}).get("median_q_error")
    indep_median = aggregate.get("independence", {}).get("median_q_error")
    if stats_median is None or indep_median is None:
        failures.append("missing aggregate q-error medians (skipped runs?)")
        return failures
    if not stats_median < indep_median:
        failures.append(
            f"statistics median q-error {stats_median:.3f} is not strictly "
            f"below independence {indep_median:.3f}"
        )
    if not stats_median <= ceiling:
        failures.append(
            f"statistics median q-error {stats_median:.3f} exceeds the "
            f"hard ceiling {ceiling}"
        )
    return failures
