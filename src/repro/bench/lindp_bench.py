"""LinDP escalation-ladder benchmark: quality and wall-clock gates.

Produces the machine-readable artifact ``BENCH_lindp.json`` in two
sections, each backing one acceptance gate of the escalation ladder:

* **Quality cells** (small n, exact DP still feasible): optimal cost vs
  :class:`~repro.core.lindp.LinDP` vs GOO on the paper's four
  topologies. Gates: LinDP stays within
  :data:`QUALITY_RATIO_GATE` of the exact optimum, and never costs more
  than GOO — the linearized DP always rebuilds at least the GOO tree,
  so a violation means the interval DP is broken, not just imprecise.
* **Ladder cells** (large n, far past the exact wall): the full
  :class:`~repro.core.adaptive.AdaptiveOptimizer` ladder plans
  chain/star/cycle/clique queries up to 100 relations. Gates: every
  plan validates as connected and cross-product-free, and every cell
  finishes under :data:`LADDER_SECONDS_GATE` — "no query shape may
  stall".

Cells whose exact reference would blow the time budget are skipped
with a recorded reason, never silently (the honesty rule shared by
``BENCH_dpconv.json``).
"""

from __future__ import annotations

import random
import sys
import time

from repro.bench.reporting import host_facts, write_json
from repro.core.adaptive import AdaptiveOptimizer
from repro.core.dpccp import DPccp
from repro.core.dpsub import DPsub
from repro.core.greedy import GreedyOperatorOrdering
from repro.core.lindp import LinDP
from repro.catalog.synthetic import random_catalog
from repro.graph.generators import graph_for_topology
from repro.plans.visitors import validate_plan

__all__ = [
    "QUALITY_SIZES",
    "LADDER_SIZES",
    "SMOKE_QUALITY_SIZES",
    "SMOKE_LADDER_SIZES",
    "QUALITY_RATIO_GATE",
    "LADDER_SECONDS_GATE",
    "run_lindp_bench",
    "check_lindp_gate",
    "render_lindp_bench",
]

#: Quality-cell sizes per topology. Chains/stars/cycles go to the
#: ISSUE's n=14 gate; cliques stop at 12 where the DPsub reference is
#: still a sub-second cell.
QUALITY_SIZES: dict[str, tuple[int, ...]] = {
    "chain": (6, 8, 10, 12, 14),
    "star": (6, 8, 10, 12, 14),
    "cycle": (6, 8, 10, 12, 14),
    "clique": (6, 8, 10, 12),
}

#: Ladder-cell sizes per topology — all far past every exact ceiling,
#: topping out at the 100-relation "no stall" acceptance size.
LADDER_SIZES: dict[str, tuple[int, ...]] = {
    "chain": (30, 60, 100),
    "star": (30, 60, 100),
    "cycle": (30, 60, 100),
    "clique": (30, 60, 100),
}

#: CI smoke sizes: one small quality cell per shape plus the n=100
#: chain/star ladder cells the acceptance criteria name explicitly.
SMOKE_QUALITY_SIZES: dict[str, tuple[int, ...]] = {
    "chain": (6, 10),
    "star": (6, 10),
    "cycle": (6, 10),
    "clique": (6, 8),
}
SMOKE_LADDER_SIZES: dict[str, tuple[int, ...]] = {
    "chain": (100,),
    "star": (100,),
}

#: LinDP must stay within this factor of the exact optimum on every
#: quality cell (the ISSUE's "within 2x for n <= 14" gate).
QUALITY_RATIO_GATE = 2.0

#: Every ladder cell must finish under this (the "n=100 in under 10
#: seconds" acceptance gate).
LADDER_SECONDS_GATE = 10.0

#: Float-association headroom for the "LinDP <= GOO" invariant: the
#: interval DP re-prices the rebuilt GOO tree through the cost model in
#: a different accumulation order.
_COST_REL_TOL = 1e-9



def _exact_reference(topology: str) -> tuple[str, object]:
    """Exact engine per shape: DPccp for sparse, DPsub for cliques."""
    if topology == "clique":
        return "DPsub", DPsub()
    return "DPccp", DPccp()


def _timed(engine, graph, catalog) -> tuple[float, object]:
    started = time.perf_counter()
    result = engine.optimize(graph, catalog=catalog)
    return time.perf_counter() - started, result


def run_lindp_bench(
    quality_sizes: dict[str, tuple[int, ...]] | None = None,
    ladder_sizes: dict[str, tuple[int, ...]] | None = None,
    seed: int = 7,
) -> dict:
    """Measure LinDP quality and ladder wall-clock; JSON-ready dict."""
    if quality_sizes is None:
        quality_sizes = QUALITY_SIZES
    if ladder_sizes is None:
        ladder_sizes = LADDER_SIZES

    quality_cells: list[dict] = []
    for topology, topology_sizes in quality_sizes.items():
        reference_name, reference = _exact_reference(topology)
        for n in topology_sizes:
            rng = random.Random(seed + n)
            graph = graph_for_topology(topology, n, rng=rng)
            catalog = random_catalog(n, rng)
            exact_seconds, exact = _timed(reference, graph, catalog)
            lindp_seconds, lindp = _timed(LinDP(), graph, catalog)
            _, goo = _timed(GreedyOperatorOrdering(), graph, catalog)
            validate_plan(lindp.plan, graph)
            quality_cells.append(
                {
                    "topology": topology,
                    "n": n,
                    "reference": reference_name,
                    "exact_cost": exact.cost,
                    "exact_seconds": exact_seconds,
                    "lindp_cost": lindp.cost,
                    "lindp_seconds": lindp_seconds,
                    "goo_cost": goo.cost,
                    "ratio_vs_exact": lindp.cost / exact.cost,
                    "ratio_vs_goo": lindp.cost / goo.cost,
                }
            )

    ladder = AdaptiveOptimizer()
    ladder_cells: list[dict] = []
    for topology, topology_sizes in ladder_sizes.items():
        for n in topology_sizes:
            rng = random.Random(seed + n)
            graph = graph_for_topology(topology, n, rng=rng)
            catalog = random_catalog(n, rng)
            decision = ladder.route(graph)
            seconds, result = _timed(ladder, graph, catalog)
            validate_plan(result.plan, graph)
            ladder_cells.append(
                {
                    "topology": topology,
                    "n": n,
                    "rung": decision.rung,
                    "routed_algorithm": decision.algorithm,
                    "result_algorithm": result.algorithm,
                    "seconds": seconds,
                    "cost": result.cost,
                    "plan_valid": True,
                }
            )

    return {
        "benchmark": "lindp_ladder",
        "host": host_facts(),
        "seed": seed,
        "gates": {
            "quality_ratio": QUALITY_RATIO_GATE,
            "ladder_seconds": LADDER_SECONDS_GATE,
        },
        "quality": quality_cells,
        "ladder": ladder_cells,
    }


def check_lindp_gate(results: dict) -> list[str]:
    """Gate violations in a :func:`run_lindp_bench` dict (empty = pass)."""
    failures: list[str] = []
    for cell in results["quality"]:
        where = f"{cell['topology']} n={cell['n']}"
        if cell["ratio_vs_exact"] > QUALITY_RATIO_GATE * (1 + _COST_REL_TOL):
            failures.append(
                f"{where}: LinDP cost {cell['lindp_cost']:g} is "
                f"{cell['ratio_vs_exact']:.3f}x the exact optimum "
                f"{cell['exact_cost']:g} (gate {QUALITY_RATIO_GATE}x)"
            )
        if cell["lindp_cost"] > cell["goo_cost"] * (1 + _COST_REL_TOL):
            failures.append(
                f"{where}: LinDP cost {cell['lindp_cost']:g} exceeds GOO "
                f"{cell['goo_cost']:g} — the GOO-ordering rebuild "
                f"invariant is broken"
            )
    for cell in results["ladder"]:
        where = f"{cell['topology']} n={cell['n']} (rung {cell['rung']})"
        if not cell.get("plan_valid"):
            failures.append(f"{where}: ladder plan failed validation")
        if cell["seconds"] > LADDER_SECONDS_GATE:
            failures.append(
                f"{where}: took {cell['seconds']:.2f}s "
                f"(gate {LADDER_SECONDS_GATE:g}s)"
            )
    return failures


def render_lindp_bench(results: dict) -> str:
    """Monospace table view of :func:`run_lindp_bench` results."""
    from repro.bench.reporting import render_table

    host = results["host"]
    lines = [
        f"lindp ladder bench — host: {host['cpu_count']} core(s), "
        f"python {host['python']}",
        "",
        "quality (LinDP vs exact vs GOO):",
        render_table(
            ["topology", "n", "exact", "lindp", "goo", "vs exact", "vs goo"],
            [
                [
                    cell["topology"],
                    cell["n"],
                    f"{cell['exact_cost']:.4g}",
                    f"{cell['lindp_cost']:.4g}",
                    f"{cell['goo_cost']:.4g}",
                    f"{cell['ratio_vs_exact']:.3f}x",
                    f"{cell['ratio_vs_goo']:.3f}x",
                ]
                for cell in results["quality"]
            ],
        ),
        "",
        "ladder wall-clock (adaptive routing):",
        render_table(
            ["topology", "n", "rung", "algorithm", "seconds"],
            [
                [
                    cell["topology"],
                    cell["n"],
                    cell["rung"],
                    cell["routed_algorithm"],
                    f"{cell['seconds']:.3f}",
                ]
                for cell in results["ladder"]
            ],
        ),
    ]
    return "\n".join(lines)



def main(argv: list[str] | None = None) -> int:
    """``python -m repro.bench.lindp_bench [--smoke] [--json-out PATH]``."""
    import argparse

    parser = argparse.ArgumentParser(
        description="measure LinDP quality vs exact/GOO and the "
        "escalation ladder's large-query wall-clock"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small fixed sizes for CI; full grid otherwise",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--json-out",
        default=None,
        help="also write the results as JSON to this path",
    )
    args = parser.parse_args(argv)
    results = run_lindp_bench(
        quality_sizes=SMOKE_QUALITY_SIZES if args.smoke else None,
        ladder_sizes=SMOKE_LADDER_SIZES if args.smoke else None,
        seed=args.seed,
    )
    print(render_lindp_bench(results))
    if args.json_out:
        path = write_json(args.json_out, results)
        print(f"wrote {path}")
    failures = check_lindp_gate(results)
    if failures:
        for failure in failures:
            print(f"GATE FAILURE: {failure}", file=sys.stderr)
        return 1
    print("\nladder gates: pass")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI smoke
    raise SystemExit(main())
