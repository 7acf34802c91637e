"""Command-line interface.

::

    python -m repro optimize --topology star -n 8 --algorithm dpccp
    python -m repro plan     --topology clique -n 12 --algorithm dpconv --verify
    python -m repro count    --topology chain -n 12
    python -m repro table    --figure 3
    python -m repro bench    --figure 10 --budget 500000
    python -m repro serve-batch --topology star -n 10 --requests 200 --repeat-ratio 0.7
    python -m repro serve --port 8080 --cache-shards 8 --k-best 2
    python -m repro stats
    python -m repro obs-report --topology star -n 8
    python -m repro lint src/repro --format json

``optimize`` plans one query and prints the tree; ``plan`` does the
same with any registered engine and can ``--verify`` the result
against sequential DPsize; ``count`` prints the
analytical and measured counters; ``table`` regenerates Figure 3;
``bench`` runs the timing experiments of Figures 8-12; ``serve-batch``
replays a workload through the caching :class:`~repro.service.PlanService`
and reports hit rates and latency percentiles; ``serve`` exposes that
service over HTTP (:mod:`repro.server` — admission control, per-tenant
quotas, sharded cache, optional warm-start persistence) until
interrupted; ``stats`` renders a
metrics snapshot (from a ``--metrics`` JSON file or a built-in demo
workload); ``obs-report`` runs instrumented enumerations through the
unified :mod:`repro.obs` layer, prints counters/timings/span trees, and
cross-checks the observed ``InnerCounter``/``#ccp`` events against the
paper's closed forms; ``lint`` runs the domain-aware static analysis
suite (:mod:`repro.lint`) that the CI static-analysis job gates on.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Sequence

from repro.analysis.formulas import ccp_unordered, csg_count
from repro.analysis.validation import compare_counters
from repro.bench.experiments import run_figure3, run_figure12, run_relative_performance
from repro.bench.reporting import (
    render_figure3,
    render_figure12,
    render_relative_series,
)
from repro.bench.workloads import DEFAULT_BUDGET
from repro.catalog.synthetic import random_catalog
from repro.core import ALGORITHMS, make_algorithm
from repro.errors import OptimizerError, ReproError
from repro.graph.generators import PAPER_TOPOLOGIES, graph_for_topology
from repro.plans.visitors import render_indented

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-joinorder",
        description=(
            "Join-order optimization with DPsize, DPsub and DPccp "
            "(Moerkotte & Neumann, VLDB 2006)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    optimize = commands.add_parser("optimize", help="plan one query")
    optimize.add_argument(
        "--topology", choices=PAPER_TOPOLOGIES, default="chain"
    )
    optimize.add_argument("-n", "--relations", type=int, default=8)
    optimize.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS), default="dpccp"
    )
    optimize.add_argument(
        "--seed", type=int, default=7, help="seed for catalog and selectivities"
    )

    plan = commands.add_parser(
        "plan",
        help="plan one query with any registered engine (DPsize, "
        "the DPconv lattice sweep, LinDP, ...)",
    )
    plan.add_argument("--topology", choices=PAPER_TOPOLOGIES, default="clique")
    plan.add_argument("-n", "--relations", type=int, default=10)
    plan.add_argument(
        "--seed", type=int, default=7, help="seed for catalog and selectivities"
    )
    plan.add_argument(
        "--algorithm",
        choices=sorted(ALGORITHMS),
        default="dpsize",
        help="engine; 'dpconv' = subset-convolution lattice sweep "
        "(vectorized when numpy is available); every engine runs "
        "in-process",
    )
    plan.add_argument(
        "--backend",
        choices=("auto", "numpy", "python"),
        default="auto",
        help="DPconv sweep backend (dpconv only)",
    )
    plan.add_argument(
        "--verify",
        action="store_true",
        help="also run sequential DPsize and check the plans match "
        "(exact engines only)",
    )

    count = commands.add_parser(
        "count", help="analytical vs measured counters for one query graph"
    )
    count.add_argument("--topology", choices=PAPER_TOPOLOGIES, default="chain")
    count.add_argument("-n", "--relations", type=int, default=8)

    table = commands.add_parser("table", help="regenerate a paper table")
    table.add_argument("--figure", type=int, choices=[3], default=3)
    table.add_argument(
        "--sizes", type=int, nargs="+", default=[2, 5, 10, 15, 20]
    )

    bench = commands.add_parser("bench", help="run a timing experiment")
    bench.add_argument(
        "--figure", type=int, choices=[8, 9, 10, 11, 12], required=True
    )
    bench.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    bench.add_argument("--min-seconds", type=float, default=0.2)

    space = commands.add_parser(
        "space", help="search-space statistics for one query graph"
    )
    space.add_argument("--topology", choices=PAPER_TOPOLOGIES, default="chain")
    space.add_argument("-n", "--relations", type=int, default=8)

    parse = commands.add_parser(
        "parse", help="optimize a SQL-ish query given as text"
    )
    parse.add_argument(
        "query",
        help="query text, e.g. \"SELECT * FROM a (100), b (200) "
        "WHERE a.x = b.y [0.01]\"",
    )
    parse.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS), default="dpccp"
    )
    parse.add_argument(
        "--dot", action="store_true", help="emit the plan as graphviz DOT"
    )

    selfcheck = commands.add_parser(
        "selfcheck",
        help="fuzz the optimizers against their oracles on this machine",
    )
    selfcheck.add_argument("--instances", type=int, default=25)
    selfcheck.add_argument("--seed", type=int, default=None)
    selfcheck.add_argument("--max-relations", type=int, default=8)

    serve = commands.add_parser(
        "serve-batch",
        help="replay a workload through the caching plan service",
    )
    serve.add_argument(
        "--topology",
        choices=(*PAPER_TOPOLOGIES, "mixed"),
        default="star",
        help="query shape, or 'mixed' for a random shape per distinct query",
    )
    serve.add_argument("-n", "--relations", type=int, default=10)
    serve.add_argument(
        "--requests", type=int, default=200, help="total requests to submit"
    )
    serve.add_argument(
        "--repeat-ratio",
        type=float,
        default=0.7,
        help="fraction of requests repeating an earlier query "
        "(resubmitted under a random relabeling)",
    )
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS), default="adaptive"
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request deadline; expired requests degrade down "
        "the escalation ladder (LinDP where admissible, then GOO) "
        "instead of failing",
    )
    serve.add_argument("--workers", type=int, default=4)
    serve.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for enumeration; >= 2 plans distinct "
        "queries on a process pool (off the GIL)",
    )
    serve.add_argument("--cache-capacity", type=int, default=1024)
    serve.add_argument("--ttl-seconds", type=float, default=None)
    serve.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="re-submissions after a worker-process crash before a "
        "request degrades to in-process planning",
    )
    serve.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        help="consecutive pool faults that open the circuit breaker "
        "(planning then stays in-process until the cooldown probe)",
    )
    serve.add_argument(
        "--breaker-cooldown-seconds",
        type=float,
        default=30.0,
        help="open-breaker cooldown before a half-open probe retries "
        "the process pool",
    )
    serve.add_argument(
        "--workload",
        default=None,
        metavar="FILE",
        help="JSON workload: a list of {topology, n, seed[, count]} "
        "entries replayed instead of the generated mix",
    )
    serve.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the final metrics snapshot as JSON",
    )

    http_serve = commands.add_parser(
        "serve",
        help="serve the plan service over HTTP until interrupted "
        "(admission control, tenant quotas, sharded cache)",
    )
    http_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default loopback)"
    )
    http_serve.add_argument(
        "--port",
        type=int,
        default=8080,
        help="TCP port; 0 picks a free port and prints it",
    )
    http_serve.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS), default="adaptive"
    )
    http_serve.add_argument("--cache-capacity", type=int, default=1024)
    http_serve.add_argument(
        "--cache-shards",
        type=int,
        default=8,
        help="plan-cache lock domains (1 = the single-lock cache)",
    )
    http_serve.add_argument(
        "--k-best",
        type=int,
        default=2,
        help="plans retained per fingerprint; >= 2 lets degraded "
        "requests serve the cached rank-2 plan instead of a ladder rung "
        "(under --algorithm adaptive only queries routed to DPccp or "
        "DPsub keep more than one plan)",
    )
    http_serve.add_argument("--ttl-seconds", type=float, default=None)
    http_serve.add_argument(
        "--workers", type=int, default=4, help="planning threads"
    )
    http_serve.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="default per-request deadline (requests may override)",
    )
    http_serve.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="admission-control bound; excess requests get 429 + "
        "Retry-After",
    )
    http_serve.add_argument(
        "--tenant-rate",
        type=float,
        default=200.0,
        help="token-bucket refill per tenant (requests/second)",
    )
    http_serve.add_argument(
        "--tenant-burst",
        type=float,
        default=400.0,
        help="token-bucket capacity per tenant",
    )
    http_serve.add_argument(
        "--persist",
        default=None,
        metavar="FILE",
        help="cache snapshot file: warm-start from it on boot, write "
        "it back on shutdown",
    )

    stats = commands.add_parser(
        "stats", help="render a plan-service metrics snapshot"
    )
    stats.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help="snapshot JSON written by 'serve-batch --metrics-out'; "
        "without it a small demo workload is run first",
    )
    stats.add_argument(
        "--demo-requests", type=int, default=60, help="demo workload size"
    )
    stats.add_argument("--json", action="store_true", help="emit raw JSON")

    obs_report = commands.add_parser(
        "obs-report",
        help="instrumented enumeration report: counters, spans, and the "
        "InnerCounter/#ccp formula cross-check",
    )
    obs_report.add_argument(
        "--topology", choices=PAPER_TOPOLOGIES, default="star"
    )
    obs_report.add_argument("-n", "--relations", type=int, default=8)
    obs_report.add_argument(
        "--algorithms",
        nargs="+",
        choices=sorted(ALGORITHMS),
        default=["dpsize", "dpsub", "dpccp"],
        help="algorithms to run under one shared instrumentation context",
    )
    obs_report.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="also write the obs snapshot as JSON ('-' for stdout)",
    )
    obs_report.add_argument(
        "--prometheus",
        action="store_true",
        help="emit the snapshot in Prometheus text format instead of tables",
    )
    obs_report.add_argument(
        "--no-spans", action="store_true", help="omit span trees from the report"
    )

    pipeline = commands.add_parser(
        "pipeline",
        help="run the SQL→plan→execute pipeline: by default the "
        "estimation-accuracy battery on the skewed TPC-H-shaped "
        "workload, or one query via --query",
    )
    pipeline.add_argument(
        "--query",
        default=None,
        help="SQL-ish text (or the name of a workload query, e.g. "
        "orders_chain) to run instead of the battery; table names "
        "matching the synthetic workload (customer, orders, lineitem, "
        "supplier, part, nation) execute against its rows",
    )
    pipeline.add_argument(
        "--estimator",
        choices=("independence", "statistics", "both"),
        default="both",
        help="estimation strategy for --query runs (the battery always "
        "compares both)",
    )
    pipeline.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS), default="dpccp"
    )
    pipeline.add_argument(
        "--scale", type=float, default=1.0, help="workload scale factor"
    )
    pipeline.add_argument("--seed", type=int, default=42)
    pipeline.add_argument(
        "--json-out",
        default=None,
        metavar="FILE",
        help="write the battery results as JSON (the BENCH_pipeline "
        "artifact)",
    )
    pipeline.add_argument(
        "--no-execute",
        action="store_true",
        help="plan only; skip interpretation and the q-error report",
    )

    lint = commands.add_parser(
        "lint",
        help="run the domain-aware static analysis suite (repro.lint) "
        "over source trees",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        metavar="PATH",
        help="files or directories to check (default: src/repro)",
    )
    lint.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="report format (json is the CI artifact)",
    )
    lint.add_argument(
        "--baseline",
        default="LINT_BASELINE.json",
        metavar="FILE",
        help="baseline of grandfathered findings (default: "
        "LINT_BASELINE.json if it exists)",
    )
    lint.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline: report every finding",
    )
    lint.add_argument(
        "--write-baseline",
        default=None,
        metavar="FILE",
        help="write current findings as a fresh baseline (then edit "
        "the TODO justifications) and exit 0",
    )
    lint.add_argument(
        "--fail-on",
        choices=("advice", "warning", "error", "never"),
        default="warning",
        help="minimum severity that fails the run (default: warning)",
    )
    lint.add_argument(
        "--rules",
        nargs="+",
        default=None,
        metavar="CODE",
        help="run only these rule codes (e.g. DET001 CONC001)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog (code, severity, invariant) and exit",
    )
    lint.add_argument(
        "--verbose", action="store_true", help="include snippets and invariants"
    )
    return parser


def _command_optimize(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    graph = graph_for_topology(args.topology, args.relations, rng=rng)
    catalog = random_catalog(args.relations, rng)
    engine = make_algorithm(args.algorithm)
    result = engine.optimize(graph, catalog=catalog)
    print(f"algorithm : {result.algorithm}")
    if args.algorithm == "adaptive":
        from repro.core.adaptive import AdaptiveOptimizer

        assert isinstance(engine, AdaptiveOptimizer)
        decision = engine.route(graph)
        print(
            f"routing   : {decision.graph_class} query, "
            f"n={decision.n_relations} -> rung '{decision.rung}' "
            f"({decision.algorithm}): {decision.reason}"
        )
    print(f"cost      : {result.cost:g}")
    print(f"counters  : {result.counters.as_dict()}")
    print(f"elapsed   : {result.elapsed_seconds * 1000:.2f} ms")
    print(render_indented(result.plan))
    return 0


#: Engines whose optimal cost provably matches sequential DPsize on a
#: connected graph, so ``--verify`` is a meaningful cross-check (the
#: heuristics and bounded-space engines may legitimately cost more;
#: ``dpall`` and ``leftdeep`` search a different plan space).
_PLAN_VERIFY_ALGORITHMS = frozenset(
    {"dpsize", "dpsub", "dpccp", "dpconv", "dpsize-basic", "dpsub-basic",
     "exhaustive", "topdown"}
)


def _validate_plan_flags(args: argparse.Namespace) -> None:
    """Reject ``plan`` flag combinations that do not compose."""
    if args.backend != "auto" and args.algorithm != "dpconv":
        raise OptimizerError(
            f"--backend selects the DPconv sweep backend and does not "
            f"compose with --algorithm {args.algorithm}; drop the flag "
            f"or use --algorithm dpconv"
        )
    if args.verify and args.algorithm not in _PLAN_VERIFY_ALGORITHMS:
        supported = ", ".join(sorted(_PLAN_VERIFY_ALGORITHMS))
        raise OptimizerError(
            f"--verify cross-checks the plan against sequential DPsize "
            f"and only composes with the exact bushy enumerators "
            f"({supported}); {args.algorithm!r} may legitimately "
            f"return a costlier plan"
        )


def _command_plan(args: argparse.Namespace) -> int:
    _validate_plan_flags(args)
    rng = random.Random(args.seed)
    graph = graph_for_topology(args.topology, args.relations, rng=rng)
    catalog = random_catalog(args.relations, rng)
    if args.algorithm == "dpconv":
        return _plan_dpconv(args, graph, catalog)
    return _plan_generic(args, graph, catalog)


def _plan_dpconv(args: argparse.Namespace, graph, catalog) -> int:
    import math

    from repro.core.dpconv import DPconv
    from repro.obs import Instrumentation

    obs = Instrumentation()
    engine = DPconv(backend=args.backend)
    result = engine.optimize(graph, catalog=catalog, instrumentation=obs)
    backend = engine.resolved_backend(args.relations)
    extra = result.counters.extra
    print(f"algorithm : {result.algorithm} (backend={backend})")
    print(f"cost      : {result.cost:g}")
    print(f"counters  : {result.counters.as_dict()}")
    print(f"elapsed   : {result.elapsed_seconds * 1000:.2f} ms")
    print(
        f"lattice   : {extra.get('lattice_passes', 0)} passes, "
        f"{extra.get('convolution_pairs', 0)} convolution pairs, "
        f"{result.counters.create_join_tree_calls} joins priced"
    )
    print(render_indented(result.plan))
    if args.verify:
        reference = make_algorithm("dpsize").optimize(graph, catalog=catalog)
        # Equal optimal cost up to float association noise; the #ccp
        # counter is exactly shared by every correct algorithm.
        cost_ok = math.isclose(reference.cost, result.cost, rel_tol=1e-9)
        ccp_ok = (
            reference.counters.ono_lohman_counter
            == result.counters.ono_lohman_counter
        )
        if cost_ok and ccp_ok:
            print("verify    : matches sequential DPsize (cost and #ccp)")
        else:
            print(
                "verify    : MISMATCH — sequential DPsize cost "
                f"{reference.cost:g}, #ccp "
                f"{reference.counters.ono_lohman_counter}"
            )
            return 1
    return 0


def _plan_generic(args: argparse.Namespace, graph, catalog) -> int:
    """Run any registered in-process engine through ``plan``."""
    import math

    from repro.obs import Instrumentation

    obs = Instrumentation()
    engine = make_algorithm(args.algorithm)
    result = engine.optimize(graph, catalog=catalog, instrumentation=obs)
    print(f"algorithm : {result.algorithm}")
    print(f"cost      : {result.cost:g}")
    print(f"counters  : {result.counters.as_dict()}")
    print(f"elapsed   : {result.elapsed_seconds * 1000:.2f} ms")
    extra = result.counters.extra
    if "lindp_orderings" in extra:
        print(
            f"lindp     : {extra['lindp_orderings']} linearization(s), "
            f"{extra.get('lindp_splits', 0)} interval splits considered"
        )
    print(render_indented(result.plan))
    if args.verify:
        reference = make_algorithm("dpsize").optimize(graph, catalog=catalog)
        # Equal optimal cost up to float association noise (see the
        # dpconv verify path); counter profiles differ by design.
        if math.isclose(reference.cost, result.cost, rel_tol=1e-9):
            print("verify    : matches sequential DPsize (cost)")
        else:
            print(
                "verify    : MISMATCH — sequential DPsize cost "
                f"{reference.cost:g}"
            )
            return 1
    return 0


def _command_count(args: argparse.Namespace) -> int:
    comparison = compare_counters(args.topology, args.relations)
    print(
        f"{args.topology} query, n={args.relations}: "
        f"#csg={csg_count(args.relations, args.topology)} "
        f"#ccp={ccp_unordered(args.relations, args.topology)} (unordered)"
    )
    for line in (
        f"I_DPsize: formula {comparison.predicted_dpsize}, "
        f"measured {comparison.measured_dpsize}",
        f"I_DPsub : formula {comparison.predicted_dpsub}, "
        f"measured {comparison.measured_dpsub}",
        f"DPccp   : pairs {comparison.measured_ccp} "
        f"(lower bound {comparison.predicted_ccp})",
    ):
        print(line)
    print("all formulas match" if comparison.matches else "MISMATCH")
    return 0 if comparison.matches else 1


def _command_table(args: argparse.Namespace) -> int:
    rows, comparisons = run_figure3(sizes=tuple(args.sizes))
    print(render_figure3(rows))
    failures = [c for c in comparisons if not c.matches]
    print(
        f"\ninstrumented cross-check: {len(comparisons) - len(failures)}/"
        f"{len(comparisons)} cells match"
    )
    for comparison in failures:
        for line in comparison.mismatches():
            print("  " + line)
    return 0 if not failures else 1


def _command_bench(args: argparse.Namespace) -> int:
    if args.figure == 12:
        cells = run_figure12(budget=args.budget, min_total_seconds=args.min_seconds)
        print(render_figure12(cells))
    else:
        from repro.bench.charts import render_ascii_chart

        series = run_relative_performance(
            args.figure, budget=args.budget, min_total_seconds=args.min_seconds
        )
        print(render_relative_series(series))
        print()
        print(render_ascii_chart(series))
    print("\ncells shown as '-' exceeded the work budget "
          f"({args.budget} predicted inner iterations)")
    return 0


def _command_space(args: argparse.Namespace) -> int:
    from repro.analysis.searchspace import search_space_summary

    graph = graph_for_topology(args.topology, args.relations)
    summary = search_space_summary(graph)
    print(f"{args.topology} query, n={args.relations}:")
    print(f"  connected subsets (#csg)      : {summary.csg:,}")
    print(f"  csg-cmp-pairs (unordered)     : {summary.ccp_unordered:,}")
    print(f"  join trees (ordered)          : {summary.trees_ordered:,}")
    print(f"  join trees (unordered shapes) : {summary.trees_unordered:,}")
    print(f"  plans covered per pair        : {summary.pruning_power:,.1f}")
    return 0


def _command_parse(args: argparse.Namespace) -> int:
    from repro.frontend import parse_query
    from repro.plans.dot import plan_to_dot

    graph, catalog = parse_query(args.query)
    result = make_algorithm(args.algorithm).optimize(graph, catalog=catalog)
    if args.dot:
        print(plan_to_dot(result.plan, title=f"{result.algorithm}, cost {result.cost:g}"))
        return 0
    print(f"algorithm : {result.algorithm}")
    print(f"cost      : {result.cost:g}")
    print(render_indented(result.plan))
    return 0


def _command_selfcheck(args: argparse.Namespace) -> int:
    from repro.selfcheck import run_selfcheck

    report = run_selfcheck(
        instances=args.instances,
        seed=args.seed,
        max_relations=args.max_relations,
    )
    print(report.summary())
    return 0 if report.ok else 1


def _build_service_workload(args: argparse.Namespace) -> list:
    """Materialize the serve-batch workload as PlanRequest objects."""
    import json

    from repro.errors import WorkloadError
    from repro.service import PlanRequest

    rng = random.Random(args.seed)
    deadline = None if args.deadline_ms is None else args.deadline_ms / 1000.0

    def one_query(topology: str, n: int, seed: int):
        query_rng = random.Random(seed)
        if topology == "cycle" and n < 3:
            topology = "chain"
        graph = graph_for_topology(topology, n, rng=query_rng)
        catalog = random_catalog(n, query_rng)
        return graph, catalog

    base: list = []
    specs: list[int] = []
    if args.workload is not None:
        try:
            with open(args.workload, encoding="utf-8") as handle:
                entries = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise WorkloadError(
                f"cannot read workload file {args.workload!r}: {error}"
            ) from error
        if not isinstance(entries, list) or not entries:
            raise WorkloadError(
                f"workload file {args.workload!r} must hold a non-empty JSON list"
            )
        for entry in entries:
            base.append(
                one_query(
                    entry.get("topology", args.topology),
                    int(entry.get("n", args.relations)),
                    int(entry.get("seed", len(base))),
                )
            )
            specs.extend([len(base) - 1] * int(entry.get("count", 1)))
    else:
        if args.requests < 1:
            raise WorkloadError(f"need at least one request, got {args.requests}")
        if not 0.0 <= args.repeat_ratio < 1.0:
            raise WorkloadError(
                f"repeat-ratio must be in [0, 1), got {args.repeat_ratio}"
            )
        unique = max(1, round(args.requests * (1.0 - args.repeat_ratio)))
        for index in range(unique):
            topology = (
                rng.choice(PAPER_TOPOLOGIES)
                if args.topology == "mixed"
                else args.topology
            )
            base.append(one_query(topology, args.relations, args.seed + index))
        specs = list(range(unique)) + [
            rng.randrange(unique) for _ in range(args.requests - unique)
        ]
        rng.shuffle(specs)

    requests = []
    for index in specs:
        graph, catalog = base[index]
        # Resubmit under a random relabeling: repeats only hit the cache
        # through the canonical fingerprint, never by accident.
        permutation = list(range(graph.n_relations))
        rng.shuffle(permutation)
        requests.append(
            PlanRequest(
                graph=graph.relabelled(permutation),
                catalog=catalog.relabelled(permutation),
                deadline_seconds=deadline,
            )
        )
    return requests


def _command_serve_batch(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.service import PlanService, render_snapshot

    requests = _build_service_workload(args)
    with PlanService(
        algorithm=args.algorithm,
        cache_capacity=args.cache_capacity,
        ttl_seconds=args.ttl_seconds,
        workers=args.workers,
        jobs=args.jobs,
        max_retries=args.max_retries,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_seconds=args.breaker_cooldown_seconds,
    ) as service:
        started = time.perf_counter()
        responses = service.plan_batch(requests)
        elapsed = time.perf_counter() - started
        stats = service.cache_stats()
        snapshot = service.snapshot()

    degraded = sum(response.degraded for response in responses)
    throughput = len(responses) / elapsed if elapsed > 0 else float("inf")
    print(
        f"planned {len(responses)} requests "
        f"({stats.misses} optimized, {degraded} degraded) "
        f"in {elapsed:.3f}s — {throughput:,.0f} plans/sec"
    )
    print(
        f"cache hit-rate: {stats.hit_rate:.3f} "
        f"(hits={stats.hits}, misses={stats.misses}, "
        f"coalesced={stats.coalesced}, evictions={stats.evictions})"
    )
    resilience = snapshot.get("resilience", {})
    if resilience.get("pool_faults"):
        print(
            f"resilience: {resilience['pool_faults']} pool fault(s), "
            f"{resilience['pool_respawns']} respawn(s), "
            f"breaker {resilience['breaker_state']}"
        )
    print()
    print(render_snapshot(snapshot))
    if args.metrics_out is not None:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
        print(f"\nmetrics snapshot written to {args.metrics_out}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.server import PlanServer, ServerConfig
    from repro.service import PlanService

    deadline = None if args.deadline_ms is None else args.deadline_ms / 1000.0
    with PlanService(
        algorithm=args.algorithm,
        cache_capacity=args.cache_capacity,
        cache_shards=args.cache_shards,
        k_best=args.k_best,
        ttl_seconds=args.ttl_seconds,
        workers=args.workers,
        default_deadline_seconds=deadline,
    ) as service:
        server = PlanServer(
            service,
            ServerConfig(
                host=args.host,
                port=args.port,
                max_inflight=args.max_inflight,
                tenant_rate=args.tenant_rate,
                tenant_burst=args.tenant_burst,
                persist_path=args.persist,
            ),
        )

        def announce(started: PlanServer) -> None:
            print(
                f"serving on http://{args.host}:{started.port} — "
                f"algorithm={args.algorithm}, "
                f"cache_shards={args.cache_shards}, k_best={args.k_best}, "
                f"max_inflight={args.max_inflight}"
            )
            if args.persist is not None:
                print(
                    f"warm-start: {started.restored_entries} cache "
                    f"entr{'y' if started.restored_entries == 1 else 'ies'} "
                    f"restored from {args.persist}"
                )
            print("Ctrl-C to stop")

        server.run_until_interrupted(on_started=announce)
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    import json

    from repro.service import render_snapshot

    if args.metrics is not None:
        from repro.errors import ServiceError

        try:
            with open(args.metrics, encoding="utf-8") as handle:
                snapshot = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise ServiceError(
                f"cannot read metrics snapshot {args.metrics!r}: {error}"
            ) from error
        source = args.metrics
    else:
        from repro.service import PlanRequest, PlanService

        rng = random.Random(11)
        with PlanService(cache_capacity=256) as service:
            requests = []
            for _ in range(max(1, args.demo_requests)):
                seed = rng.randrange(8)  # small pool => plenty of repeats
                query_rng = random.Random(seed)
                graph = graph_for_topology("star", 8, rng=query_rng)
                catalog = random_catalog(8, query_rng)
                requests.append(PlanRequest(graph=graph, catalog=catalog))
            service.plan_batch(requests)
            snapshot = service.snapshot()
        source = f"built-in demo workload ({len(requests)} star queries)"

    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        print(f"metrics snapshot — {source}\n")
        print(render_snapshot(snapshot))
    return 0


def _command_obs_report(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.formulas import (
        inner_counter_dpsize,
        inner_counter_dpsub,
    )
    from repro.obs import Instrumentation, render_report, to_prometheus

    n = args.relations
    topology = args.topology
    if topology == "cycle" and n < 3:
        topology = "chain"  # a 2-cycle degenerates to a chain
    graph = graph_for_topology(topology, n)

    obs = Instrumentation()
    for name in args.algorithms:
        make_algorithm(name).optimize(graph, instrumentation=obs)

    if args.prometheus:
        print(to_prometheus(obs.snapshot(include_spans=False)), end="")
    else:
        print(f"obs report — {topology} query, n={n}\n")
        print(render_report(obs, include_spans=not args.no_spans))

    # Cross-check observed events against the paper's closed forms.
    expectations: list[tuple[str, int, int]] = []
    counters = obs.counters
    expected_ccp = ccp_unordered(n, topology) if n >= 2 else 0
    for name in args.algorithms:
        algorithm = make_algorithm(name).name
        if name == "dpsize":
            expectations.append(
                (
                    f"I_DPsize ({topology}, n={n})",
                    inner_counter_dpsize(n, topology),
                    counters.value(f"enumerator.{algorithm}.inner_loop_tests"),
                )
            )
        elif name == "dpsub":
            expectations.append(
                (
                    f"I_DPsub ({topology}, n={n})",
                    inner_counter_dpsub(n, topology),
                    counters.value(f"enumerator.{algorithm}.inner_loop_tests"),
                )
            )
        if name in ("dpsize", "dpsub", "dpccp"):
            expectations.append(
                (
                    f"#ccp via {algorithm}",
                    expected_ccp,
                    counters.value(f"enumerator.{algorithm}.ccp_emitted"),
                )
            )
    if not args.prometheus:
        print("\nformula cross-check")
        matches = True
        for label, predicted, observed in expectations:
            verdict = "ok" if predicted == observed else "MISMATCH"
            print(f"  {label}: formula {predicted}, observed {observed}  [{verdict}]")
            matches &= predicted == observed
        print("all formulas match" if matches else "MISMATCH")
    else:
        matches = all(
            predicted == observed for _, predicted, observed in expectations
        )

    if args.json is not None:
        snapshot = obs.snapshot()
        document = json.dumps(snapshot, indent=2, sort_keys=True)
        if args.json == "-":
            print(document)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(document + "\n")
            print(f"obs snapshot written to {args.json}")
    return 0 if matches else 1


def _command_pipeline(args: argparse.Namespace) -> int:
    from repro.bench.pipeline_bench import (
        check_pipeline_gate,
        render_pipeline_bench,
        run_pipeline_bench,
    )
    from repro.bench.reporting import write_json
    from repro.pipeline import run_pipeline, tpch_workload

    if args.query is None:
        results = run_pipeline_bench(
            scale=args.scale, seed=args.seed, algorithm=args.algorithm
        )
        print(render_pipeline_bench(results))
        if args.json_out is not None:
            path = write_json(args.json_out, results)
            print(f"\nresults written to {path}")
        failures = check_pipeline_gate(results)
        if failures:
            for failure in failures:
                print(f"GATE FAILURE: {failure}", file=sys.stderr)
            return 1
        print("\nestimation-accuracy gate: pass")
        return 0

    workload = tpch_workload(scale=args.scale, seed=args.seed)
    sql = next(
        (query.sql for query in workload.queries if query.name == args.query),
        args.query,
    )
    estimators = (
        ("independence", "statistics")
        if args.estimator == "both"
        else (args.estimator,)
    )
    for estimator in estimators:
        result = run_pipeline(
            sql,
            tables=workload.tables,
            estimator=estimator,
            algorithm=args.algorithm,
            execute=not args.no_execute,
        )
        print(f"estimator : {estimator}")
        print(f"algorithm : {result.optimization.algorithm}")
        print(f"cost      : {result.optimization.cost:g}")
        print(render_indented(result.physical_plan))
        if result.report is not None:
            report = result.report
            for observation in report.observations:
                print(
                    f"  {observation.operator:<16} est "
                    f"{observation.estimated:>12.1f}  actual "
                    f"{observation.actual:>10d}  q-error "
                    f"{observation.q_error:.2f}"
                )
            print(
                f"result rows {report.result_rows}, median q-error "
                f"{report.median_q_error:.2f}, max {report.max_q_error:.2f}"
            )
        print()
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.errors import LintError
    from repro.lint import (
        all_rules,
        load_baseline,
        registered_codes,
        render_findings,
        render_rules,
        result_to_json,
        run_lint,
        write_baseline,
    )

    rules = all_rules()
    if args.list_rules:
        print(render_rules(rules))
        return 0
    if args.rules is not None:
        known = set(registered_codes())
        unknown = sorted(set(args.rules) - known)
        if unknown:
            raise LintError(
                f"unknown rule code(s): {', '.join(unknown)}; "
                f"known: {', '.join(sorted(known))}"
            )
        rules = [rule for rule in rules if rule.code in args.rules]

    baseline = None
    if not args.no_baseline and args.write_baseline is None:
        baseline_path = Path(args.baseline)
        if baseline_path.exists():
            baseline = load_baseline(baseline_path)

    result = run_lint(
        [Path(path) for path in args.paths],
        rules=rules,
        baseline=baseline,
        root=Path.cwd(),
    )

    if args.write_baseline is not None:
        count = write_baseline(Path(args.write_baseline), result.findings)
        print(
            f"wrote {count} entr{'y' if count == 1 else 'ies'} to "
            f"{args.write_baseline}; edit the TODO justifications "
            "before committing"
        )
        return 0

    if args.format == "json":
        print(result_to_json(result))
    else:
        print(render_findings(result, verbose=args.verbose))
    return 0 if result.gate(args.fail_on) else 1


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "optimize": _command_optimize,
        "plan": _command_plan,
        "count": _command_count,
        "table": _command_table,
        "bench": _command_bench,
        "space": _command_space,
        "parse": _command_parse,
        "selfcheck": _command_selfcheck,
        "serve-batch": _command_serve_batch,
        "serve": _command_serve,
        "stats": _command_stats,
        "obs-report": _command_obs_report,
        "pipeline": _command_pipeline,
        "lint": _command_lint,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
