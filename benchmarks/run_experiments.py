#!/usr/bin/env python3
"""Regenerate every table and figure of the paper's evaluation.

Usage::

    python benchmarks/run_experiments.py            # everything
    python benchmarks/run_experiments.py fig3 fig10 # a subset
    python benchmarks/run_experiments.py --budget 8000000 fig12
    python benchmarks/run_experiments.py --write-experiments-md

Artifacts:
  fig3     — the search-space table (formulas, cross-checked by
             instrumented runs up to n=10)
  fig8-11  — relative optimization time (DPsize, DPsub / DPccp) over a
             size sweep per topology
  fig12    — absolute runtimes for n in {5, 10, 15, 20}

Cells whose predicted inner-counter work exceeds the budget are shown
as '-' (the paper's own C++ numbers reach 21294 s there; see
EXPERIMENTS.md). ``--write-experiments-md`` replaces the sections of
the artifacts this run regenerated in EXPERIMENTS.md and keeps the
rest of the file.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.bench.experiments import (
    run_figure3,
    run_figure12,
    run_relative_performance,
)
from repro.bench.reporting import (
    render_figure3,
    render_figure12,
    render_relative_series,
)
from repro.bench.workloads import DEFAULT_BUDGET

ALL_ARTIFACTS = (
    "fig3", "fig8", "fig9", "fig10", "fig11", "fig12", "quality", "model",
)


def run_fig3(budget: int, min_seconds: float) -> str:
    del budget, min_seconds
    rows, comparisons = run_figure3()
    failures = [c for c in comparisons if not c.matches]
    lines = [
        "Figure 3: search space (#ccp unordered, InnerCounter values)",
        render_figure3(rows),
        "",
        f"instrumented cross-check (n <= 10): "
        f"{len(comparisons) - len(failures)}/{len(comparisons)} cells match "
        "the closed-form values",
    ]
    for failure in failures:
        lines.extend("  " + text for text in failure.mismatches())
    return "\n".join(lines)


def run_relative(figure: int, budget: int, min_seconds: float) -> str:
    from repro.bench.charts import render_ascii_chart

    series = run_relative_performance(
        figure, budget=budget, min_total_seconds=min_seconds
    )
    return render_relative_series(series) + "\n\n" + render_ascii_chart(series)


def run_fig12(budget: int, min_seconds: float) -> str:
    cells = run_figure12(budget=budget, min_total_seconds=min_seconds)
    return render_figure12(cells)


def run_quality(budget: int, min_seconds: float) -> str:
    del budget, min_seconds
    from repro.bench.quality import render_quality, run_quality_comparison

    return render_quality(run_quality_comparison(instances_per_workload=10))


def run_model(budget: int, min_seconds: float) -> str:
    del budget
    from repro.bench.model_validation import counter_time_fit, render_fits

    return render_fits(counter_time_fit(min_total_seconds=min_seconds))


def produce(artifact: str, budget: int, min_seconds: float) -> str:
    if artifact == "fig3":
        return run_fig3(budget, min_seconds)
    if artifact == "fig12":
        return run_fig12(budget, min_seconds)
    if artifact == "quality":
        return run_quality(budget, min_seconds)
    if artifact == "model":
        return run_model(budget, min_seconds)
    return run_relative(int(artifact[3:]), budget, min_seconds)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "artifacts",
        nargs="*",
        default=[],
        metavar="ARTIFACT",
        help=f"which artifacts to regenerate (default: all of {', '.join(ALL_ARTIFACTS)})",
    )
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    parser.add_argument("--min-seconds", type=float, default=0.2)
    parser.add_argument(
        "--write-experiments-md",
        action="store_true",
        help="replace the regenerated artifacts' sections in EXPERIMENTS.md",
    )
    args = parser.parse_args(argv)
    artifacts = args.artifacts or list(ALL_ARTIFACTS)
    unknown = [name for name in artifacts if name not in ALL_ARTIFACTS]
    if unknown:
        parser.error(
            f"unknown artifact(s) {', '.join(unknown)}; "
            f"choose from {', '.join(ALL_ARTIFACTS)}"
        )

    sections: dict[str, str] = {}
    for artifact in artifacts:
        started = time.perf_counter()
        print(f"== {artifact} ==", flush=True)
        text = produce(artifact, args.budget, args.min_seconds)
        sections[artifact] = text
        print(text)
        print(f"[{artifact} took {time.perf_counter() - started:.1f}s]\n", flush=True)

    if args.write_experiments_md:
        root = Path(__file__).resolve().parent.parent
        write_experiments_md(root / "EXPERIMENTS.md", sections, args.budget)
        print(f"wrote {root / 'EXPERIMENTS.md'}")
    return 0


def write_experiments_md(path: Path, sections: dict[str, str], budget: int) -> None:
    """Write rendered artifact sections into EXPERIMENTS.md.

    A new file gets the preamble and the sections in artifact order. An
    existing file keeps everything but the ``## <artifact>`` sections
    regenerated here, which are replaced where they stand; hand-written
    sections and artifacts not rerun stay as they are. A regenerated
    artifact without a section yet goes after the nearest earlier
    artifact's section (else before the nearest later one, else last).
    """
    rendered = {
        key: f"## {key}\n\n**Note.** {NOTES[key]}\n\n"
        f"```\n{sections[key]}\n```\n"
        for key in ALL_ARTIFACTS
        if key in sections
    }
    if not path.exists():
        path.write_text("\n".join([_preamble(budget), *rendered.values()]))
        return
    chunks = _split_sections(path.read_text())
    for key, text in rendered.items():
        keys = [chunk_key for chunk_key, _ in chunks]
        if key in keys:
            chunks[keys.index(key)] = (key, text + "\n")
            continue
        rank = ALL_ARTIFACTS.index(key)
        earlier = [i for i, k in enumerate(keys) if k in ALL_ARTIFACTS[:rank]]
        later = [i for i, k in enumerate(keys) if k in ALL_ARTIFACTS[rank:]]
        if earlier:
            where = earlier[-1] + 1
        else:
            where = later[0] if later else len(chunks)
        chunks.insert(where, (key, text + "\n"))
    path.write_text("".join(text for _, text in chunks).rstrip("\n") + "\n")


def _split_sections(text: str) -> list[tuple[str | None, str]]:
    """``(heading, text)`` per ``## `` section; ``None`` for the preamble.

    Lines inside fenced code blocks never start a section.
    """
    chunks: list[tuple[str | None, str]] = []
    key: str | None = None
    lines: list[str] = []
    fenced = False
    for line in text.splitlines(keepends=True):
        if line.startswith("```"):
            fenced = not fenced
        elif not fenced and line.startswith("## "):
            chunks.append((key, "".join(lines)))
            key, lines = line[3:].strip(), []
        lines.append(line)
    chunks.append((key, "".join(lines)))
    return chunks


def _preamble(budget: int) -> str:
    return f"""\
# Experiments — paper vs. this reproduction

Regenerated by `python benchmarks/run_experiments.py --write-experiments-md`
(budget: {budget:,} predicted inner iterations per cell; cells beyond it
are shown as `-`).

**Reading guide.** The paper's counter table (Figure 3) is reproduced
*exactly* — machine-independent. The timing experiments (Figures 8-12)
ran C++ on 2006 hardware; this reproduction runs pure Python, so
absolute numbers differ by a large constant and per-iteration constants
shift the small-n crossovers. What reproduces is the *shape*: who wins
on which topology, and the growth separations. See the per-figure notes.

"""


NOTES = {
    "fig3": (
        "Every cell matches the paper digit-for-digit, from the "
        "corrected closed forms (see DESIGN.md for the two OCR fixes) "
        "and confirmed by instrumented runs of the actual algorithms "
        "for all cells with n <= 10. Counter-to-column mapping via "
        "`repro.obs`: `enumerator.DPsize.inner_loop_tests` is the "
        "`DPsize` (I_DPsize) column, `enumerator.DPsub"
        ".inner_loop_tests` the `DPsub` (I_DPsub) column, and "
        "`enumerator.<Alg>.ccp_emitted` the `#ccp` column (identical "
        "for all exact enumerators; for DPccp it also equals its "
        "`inner_loop_tests` — no wasted work). "
        "`python -m repro obs-report` prints these live and "
        "cross-checks them against the closed forms; "
        "`tests/test_counter_formulas.py` pins them in CI."
    ),
    "fig8": (
        "Paper: DPsize and DPccp nearly coincide; DPsub is worse by a "
        "factor growing past 4x by n=20 (2^n subset scan vs O(n^2) "
        "connected sets). Reproduced: DPsub's relative curve rises "
        "steeply with n (past 100x by n=17). DPsize and DPccp do not "
        "coincide: DPsize is ahead up to n=8, where each run's fixed "
        "costs dominate, and behind from n=9 (DPsize/DPccp 1.2-3.4). "
        "Every DP enumerator pays the same table step per csg-cmp "
        "pair, and DPsize inspects up to 13x more pairs than DPccp, "
        "most of them failing its disjointness test."
    ),
    "fig9": (
        "Paper: like chains, with DPsub worse (up to ~10x at n=20). "
        "Reproduced: DPsub worst from n=8 on. DPsize is ahead of DPccp "
        "up to n=11 and behind from n=12 (DPsize/DPccp 1.2-3.6)."
    ),
    "fig10": (
        "Paper: DPccp highly superior; DPsize and DPsub fall behind "
        "by orders of magnitude as n grows (Figure 12: 4791 s vs 1 s "
        "at n=20). Reproduced: DPccp wins from n=7 against DPsize and "
        "from n=6 against DPsub; the DPsize/DPccp ratio grows 1.3-2.7x "
        "per added relation from n=9 to 12. "
        "DPsize cells above the budget (n >= 13 at the default) are "
        "skipped — the paper's own C++ needed 0.71 s at n=15 and "
        "4791 s at n=20, i.e. ~10^8 and ~6*10^10 inner iterations."
    ),
    "fig11": (
        "Paper: DPsub fastest, DPccp within 30%, DPsize orders of "
        "magnitude worse at n=15+. Reproduced: DPsize slowest from "
        "n=8 on (its cells pass the budget at n=12). DPsub and DPccp "
        "run neck and neck (DPsub/DPccp 0.76-1.5, DPccp ahead from "
        "n=9): both pay the same table step per csg-cmp pair, DPsub "
        "takes it for both orientations of every pair and DPccp once "
        "under C_out, which offsets DPsub's cheaper enumeration. In "
        "the paper's C++, DPsub stays ahead."
    ),
    "fig12": (
        "Absolute times: pure Python is ~100-1000x slower per "
        "iteration than the paper's C++; compare *within* a column, "
        "not across to the paper's seconds. Cells above the budget "
        "are '-' (the paper reports up to 21294 s for them in C++)."
    ),
    "quality": (
        "Extension beyond the paper: plan-quality cost ratios of the "
        "restricted left-deep space and the heuristic baselines "
        "against the exact bushy optimum (DPccp), per workload "
        "family. Shows where bushy trees and exact enumeration pay "
        "(snowflake/TPC-H shapes) and where heuristics suffice."
    ),
    "model": (
        "Validation of the paper's implicit premise that InnerCounter "
        "predicts runtime per algorithm. High log-scale R^2 confirms "
        "it; the per-iteration constants differ per algorithm: DPccp "
        "pays 1.8 s per 10^6 counted steps, ~9x DPsize's 0.20 and ~5x "
        "DPsub's 0.34 (4.4, 0.50 and 0.54 before the set-level table "
        "step). Most of DPsize's and DPsub's counted steps are cheap "
        "failing tests, while each of DPccp's is a csg-cmp pair that "
        "takes the table step. That shifts the small-n crossovers "
        "relative to the paper's C++."
    ),
}


if __name__ == "__main__":
    sys.exit(main())
