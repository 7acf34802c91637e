"""Unit tests for the DPconv crossover bench harness.

Tiny sizes keep this fast; the full trajectory is the committed
``BENCH_dpconv.json`` artifact regenerated by CI's smoke step.
"""

from __future__ import annotations

import json

from repro.bench import dpconv_bench
from repro.bench.dpconv_bench import (
    REFERENCE_ALGORITHMS,
    render_dpconv_bench,
    run_dpconv_trajectory,
    write_dpconv_bench,
)

TINY_SIZES = {"clique": (4, 5), "chain": (4, 6)}


def run_tiny():
    return run_dpconv_trajectory(sizes=TINY_SIZES, seed=11, repeats=1)


class TestTrajectory:
    def test_structure_and_exactness(self):
        results = run_tiny()
        assert results["benchmark"] == "dpconv_trajectory"
        assert results["sizes"] == {
            "clique": [4, 5],
            "chain": [4, 6],
        }
        assert len(results["entries"]) == 4
        for entry in results["entries"]:
            runs = entry["runs"]
            for name in REFERENCE_ALGORITHMS:
                assert "seconds" in runs[name]
            python_run = runs["dpconv-python"]
            assert python_run["exact"], (
                "dpconv diverged from DPsub on "
                f"{entry['topology']} n={entry['n']}"
            )
            numpy_run = runs["dpconv-numpy"]
            assert ("seconds" in numpy_run) or ("skipped" in numpy_run)
            if "seconds" in numpy_run:
                assert numpy_run["exact"]

    def test_crossover_findings_present(self):
        results = run_tiny()
        assert set(results["crossover"]) == {"clique", "chain"}
        for finding in results["crossover"].values():
            assert "finding" in finding
            assert (
                finding["crossover_n"] is None
                or isinstance(finding["crossover_n"], int)
            )
            if finding["crossover_n"] is None:
                assert "no crossover" in finding["finding"]

    def test_render_mentions_every_cell(self):
        results = run_tiny()
        text = render_dpconv_bench(results)
        assert "dpconv trajectory" in text
        for name in REFERENCE_ALGORITHMS:
            assert name in text
        assert "clique" in text and "chain" in text

    def test_json_roundtrip(self, tmp_path):
        results = run_tiny()
        path = write_dpconv_bench(tmp_path / "BENCH_dpconv.json", results)
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(results)
        )


class TestUnverifiedCells:
    """With no reference left under budget, nothing checks DPconv's cost."""

    def test_cells_without_a_reference_are_unverified(self):
        results = run_dpconv_trajectory(
            sizes={"clique": (4, 5)}, seed=11, cell_budget_seconds=0
        )
        first, second = results["entries"]
        for name in REFERENCE_ALGORITHMS:
            assert "seconds" in first["runs"][name]
            assert "skipped" in second["runs"][name]
        for name, run in second["runs"].items():
            if name.startswith("dpconv") and "seconds" in run:
                assert run["exact"] is None
        assert first["runs"]["dpconv-python"]["exact"] is True
        assert "(unverified)" in render_dpconv_bench(results)
        assert "(INEXACT)" not in render_dpconv_bench(results)

    def test_main_reports_unverified_not_inexact(self, monkeypatch, capsys):
        def over_budget(sizes=None, seed=7, repeats=1):
            return run_dpconv_trajectory(
                sizes={"clique": (4, 5)}, seed=seed, cell_budget_seconds=0
            )

        monkeypatch.setattr(dpconv_bench, "run_dpconv_trajectory", over_budget)
        assert dpconv_bench.main([]) == 0
        out = capsys.readouterr().out
        assert "unverified dpconv results (no reference ran): clique n=5" in out
        assert "INEXACT" not in out

    def test_any_reference_that_ran_checks_the_cost(self):
        assert dpconv_bench._verdict(10.0, [10.0, 10.0]) is True
        assert dpconv_bench._verdict(10.0, [10.0, 11.0]) is False
        assert dpconv_bench._verdict(10.0, []) is None
