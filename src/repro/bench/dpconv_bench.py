"""DPconv crossover benchmark: lattice sweep vs the paper's enumerators.

Produces the machine-readable artifact ``BENCH_dpconv.json``: wall-clock
trajectories of :class:`~repro.core.dpconv.DPconv` (both sweep backends)
against DPsize, DPsub and DPccp on the paper's clique/star/chain
workloads, so the size at which the subset-convolution enumerator
overtakes per-pair dynamic programming is a *measured crossover*, not a
claim. Every DPconv measurement is verified against the optimal cost
of every reference enumerator that ran on its cell (DPsize, DPsub and
DPccp are all exact) — a speedup over a wrong plan is not a speedup. A
cell where all three were skipped over budget records ``exact: null``:
it is unverified, and stays out of the crossover.

Reference enumerators whose previous cell already exceeded the
per-cell time budget are skipped with a reason; the numpy backend is
skipped with a reason when numpy is not importable, which keeps the
artifact meaningful on the stdlib-only CI hosts.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
import time
from pathlib import Path

from repro.catalog.synthetic import random_catalog
from repro.core.dpccp import DPccp
from repro.core.dpconv import DPconv
from repro.core.dpsize import DPsize
from repro.core.dpsub import DPsub
from repro.graph.generators import graph_for_topology

__all__ = [
    "DEFAULT_SIZES",
    "SMOKE_SIZES",
    "REFERENCE_ALGORITHMS",
    "run_dpconv_trajectory",
    "render_dpconv_bench",
    "write_dpconv_bench",
]

#: Sizes per topology for the full artifact. Cliques stop where the
#: pure-Python references take tens of seconds per cell; chains go
#: further because every enumerator is polynomial there.
DEFAULT_SIZES: dict[str, tuple[int, ...]] = {
    "clique": (6, 8, 10, 11, 12, 13),
    "star": (6, 8, 10, 12, 14),
    "chain": (6, 8, 10, 12, 14, 16),
}

#: Sizes for the CI smoke run: one small and one mid cell per topology,
#: fast enough for every backend on any host.
SMOKE_SIZES: dict[str, tuple[int, ...]] = {
    "clique": (6, 9),
    "star": (6, 9),
    "chain": (6, 10),
}

#: The paper's exact enumerators DPconv is racing.
REFERENCE_ALGORITHMS = ("DPsize", "DPsub", "DPccp")

#: A reference enumerator is dropped from *larger* sizes of a topology
#: once one of its cells exceeds this (seconds); its absence is
#: recorded, never silently.
DEFAULT_CELL_BUDGET_SECONDS = 30.0


def _host_facts() -> dict:
    return {
        "cpu_count": os.cpu_count() or 1,
        "platform": platform.platform(),
        "python": sys.version.split()[0],
    }


def _numpy_version() -> str | None:
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def _time_optimize(engine, graph, catalog, repeats: int) -> tuple[float, float]:
    """Best-of-``repeats`` wall time and the (stable) optimal cost."""
    best = math.inf
    cost = math.nan
    for _ in range(repeats):
        started = time.perf_counter()
        result = engine.optimize(graph, catalog=catalog)
        elapsed = time.perf_counter() - started
        best = min(best, elapsed)
        cost = result.cost
    return best, cost


def run_dpconv_trajectory(
    sizes: dict[str, tuple[int, ...]] | None = None,
    seed: int = 7,
    repeats: int = 1,
    cell_budget_seconds: float = DEFAULT_CELL_BUDGET_SECONDS,
) -> dict:
    """Measure DPconv vs the reference enumerators; JSON-ready dict.

    Args:
        sizes: per-topology relation counts (default
            :data:`DEFAULT_SIZES`; pass :data:`SMOKE_SIZES` for CI).
        seed: catalog/selectivity seed, one instance per cell.
        repeats: timed runs per cell; the minimum is recorded.
        cell_budget_seconds: once a reference exceeds this on a cell,
            its larger cells in that topology are skipped with a reason.
    """
    import random

    if sizes is None:
        sizes = DEFAULT_SIZES
    numpy_version = _numpy_version()
    references = {
        "DPsize": DPsize(),
        "DPsub": DPsub(),
        "DPccp": DPccp(),
    }
    contenders = {"dpconv-python": DPconv(backend="python")}
    if numpy_version is not None:
        contenders["dpconv-numpy"] = DPconv(
            backend="numpy", vector_min_relations=2
        )

    entries: list[dict] = []
    crossover: dict[str, dict] = {}
    for topology, topology_sizes in sizes.items():
        over_budget: set[str] = set()
        topology_entries: list[dict] = []
        for n in topology_sizes:
            rng = random.Random(seed + n)
            graph = graph_for_topology(topology, n, rng=rng)
            catalog = random_catalog(n, rng)

            runs: dict[str, dict] = {}
            reference_costs: list[float] = []
            for name, engine in references.items():
                if name in over_budget:
                    runs[name] = {
                        "skipped": f"{name} exceeded the "
                        f"{cell_budget_seconds:g}s cell budget at a "
                        f"smaller {topology} size"
                    }
                    continue
                seconds, cost = _time_optimize(engine, graph, catalog, repeats)
                runs[name] = {"seconds": seconds, "cost": cost}
                reference_costs.append(cost)
                if seconds > cell_budget_seconds:
                    over_budget.add(name)
            for name, engine in contenders.items():
                seconds, cost = _time_optimize(engine, graph, catalog, repeats)
                runs[name] = {
                    "seconds": seconds,
                    "cost": cost,
                    "exact": _verdict(cost, reference_costs),
                }
            if numpy_version is None:
                runs["dpconv-numpy"] = {
                    "skipped": "numpy is not importable on this host"
                }
            entry = {"topology": topology, "n": n, "runs": runs}
            entries.append(entry)
            topology_entries.append(entry)
        crossover[topology] = _crossover_finding(topology, topology_entries)

    return {
        "benchmark": "dpconv_trajectory",
        "host": _host_facts(),
        "numpy": numpy_version,
        "seed": seed,
        "repeats": repeats,
        "cell_budget_seconds": cell_budget_seconds,
        "sizes": {topology: list(counts) for topology, counts in sizes.items()},
        "entries": entries,
        "crossover": crossover,
    }


def _verdict(cost: float, reference_costs: list[float]) -> bool | None:
    """Whether ``cost`` matches every exact reference that ran.

    ``None`` when none ran (all over budget): the cell is unverified,
    not exact.
    """
    if not reference_costs:
        return None
    return all(
        math.isclose(cost, reference, rel_tol=1e-9)
        for reference in reference_costs
    )


def _best_dpconv_seconds(runs: dict) -> float | None:
    candidates = [
        run["seconds"]
        for name, run in runs.items()
        if name.startswith("dpconv") and "seconds" in run and run.get("exact")
    ]
    return min(candidates) if candidates else None


def _best_reference_seconds(runs: dict) -> float | None:
    candidates = [
        run["seconds"]
        for name, run in runs.items()
        if name in REFERENCE_ALGORITHMS and "seconds" in run
    ]
    return min(candidates) if candidates else None


def _crossover_finding(topology: str, entries: list[dict]) -> dict:
    """Smallest measured n from which DPconv stays ahead of every reference.

    "Ahead" compares DPconv's best verified backend against the
    *fastest* reference enumerator per cell — the hardest bar. When no
    such n exists the artifact records the honest negative finding.
    """
    wins: list[tuple[int, bool]] = []
    for entry in entries:
        dpconv = _best_dpconv_seconds(entry["runs"])
        reference = _best_reference_seconds(entry["runs"])
        if dpconv is None or reference is None:
            continue
        wins.append((entry["n"], dpconv < reference))
    crossover_n = None
    for index, (n, won) in enumerate(wins):
        if won and all(later_won for _, later_won in wins[index:]):
            crossover_n = n
            break
    if crossover_n is not None:
        finding = (
            f"dpconv overtakes the fastest of "
            f"{'/'.join(REFERENCE_ALGORITHMS)} on {topology} from "
            f"n={crossover_n} on (within the measured range)"
        )
    elif wins:
        finding = (
            f"no crossover below n={wins[-1][0]}: the fastest reference "
            f"enumerator still beats dpconv on every measured {topology} size"
        )
    else:
        finding = "no comparable measurements (all cells skipped)"
    return {"crossover_n": crossover_n, "finding": finding}


#: Table suffix per ``exact`` verdict (references carry none).
_MARKS = {True: "", False: " (INEXACT)", None: " (unverified)"}


def render_dpconv_bench(results: dict) -> str:
    """Monospace table view of :func:`run_dpconv_trajectory` results."""
    from repro.bench.reporting import render_table

    host = results["host"]
    columns = list(REFERENCE_ALGORITHMS) + ["dpconv-python", "dpconv-numpy"]
    header = ["topology", "n"] + [f"{name} [s]" for name in columns]
    rows: list[list] = []
    for entry in results["entries"]:
        row: list = [entry["topology"], entry["n"]]
        for name in columns:
            run = entry["runs"].get(name)
            if run is None or "skipped" in run:
                row.append("skip")
            else:
                mark = _MARKS[run.get("exact", True)]
                row.append(f"{run['seconds']:.4f}{mark}")
        rows.append(row)
    numpy_version = results.get("numpy") or "absent"
    lines = [
        f"dpconv trajectory — host: {host['cpu_count']} core(s), "
        f"python {host['python']}, numpy {numpy_version}",
        render_table(header, rows),
    ]
    for topology, finding in sorted(results["crossover"].items()):
        lines.append(f"{topology}: {finding['finding']}")
    skips = {
        run["skipped"]
        for entry in results["entries"]
        for run in entry["runs"].values()
        if "skipped" in run
    }
    for reason in sorted(skips):
        lines.append(f"skipped: {reason}")
    return "\n".join(lines)


def write_dpconv_bench(path: str | Path, results: dict) -> Path:
    """Write the results dict as JSON; returns the path written."""
    path = Path(path)
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    return path


def _cells_with_verdict(results: dict, verdict: bool | None) -> list[str]:
    return [
        f"{entry['topology']} n={entry['n']} {name}"
        for entry in results["entries"]
        for name, run in entry["runs"].items()
        if "seconds" in run and run.get("exact", True) is verdict
    ]


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.bench.dpconv_bench [--smoke] [--json-out PATH]``."""
    import argparse

    parser = argparse.ArgumentParser(
        description="measure DPconv vs DPsize/DPsub/DPccp trajectories"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small fixed sizes for CI; full trajectory otherwise",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--repeats", type=int, default=1, help="timed runs per cell (min kept)"
    )
    parser.add_argument(
        "--json-out",
        default=None,
        help="also write the results as JSON to this path",
    )
    args = parser.parse_args(argv)
    results = run_dpconv_trajectory(
        sizes=SMOKE_SIZES if args.smoke else None,
        seed=args.seed,
        repeats=args.repeats,
    )
    print(render_dpconv_bench(results))
    if args.json_out:
        path = write_dpconv_bench(args.json_out, results)
        print(f"wrote {path}")
    unverified = _cells_with_verdict(results, None)
    if unverified:
        print(
            "unverified dpconv results (no reference ran): "
            + "; ".join(unverified)
        )
    inexact = _cells_with_verdict(results, False)
    if inexact:
        print("INEXACT dpconv results: " + "; ".join(inexact))
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI smoke
    raise SystemExit(main())
