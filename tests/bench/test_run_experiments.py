"""Unit tests for the standalone experiment harness."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HARNESS_DIR = Path(__file__).resolve().parent.parent.parent / "benchmarks"
sys.path.insert(0, str(HARNESS_DIR.parent))

from benchmarks.run_experiments import (  # noqa: E402
    ALL_ARTIFACTS,
    produce,
    write_experiments_md,
)


class TestProduce:
    def test_fig3_contains_paper_values(self):
        text = produce("fig3", budget=10_000, min_seconds=0.001)
        assert "309338182241" in text  # clique n=20 DPsize
        assert "cells match" in text

    def test_relative_artifact_renders(self):
        text = produce("fig8", budget=500, min_seconds=0.001)
        assert "Figure 8" in text
        assert "DPsize/DPccp" in text
        assert "log scale" in text  # ASCII chart appended

    def test_fig12_renders(self):
        text = produce("fig12", budget=200, min_seconds=0.001)
        assert "Figure 12" in text
        assert "paper C++" in text

    def test_model_artifact(self):
        text = produce("model", budget=0, min_seconds=0.005)
        assert "R^2" in text

    def test_artifact_list_complete(self):
        assert set(ALL_ARTIFACTS) == {
            "fig3", "fig8", "fig9", "fig10", "fig11", "fig12",
            "quality", "model",
        }


class TestWriteExperimentsMd:
    def test_writes_sections_in_order(self, tmp_path):
        target = tmp_path / "EXPERIMENTS.md"
        write_experiments_md(
            target,
            {"fig3": "FIG3-CONTENT", "model": "MODEL-CONTENT"},
            budget=123,
        )
        text = target.read_text()
        assert "FIG3-CONTENT" in text
        assert "MODEL-CONTENT" in text
        assert text.index("FIG3-CONTENT") < text.index("MODEL-CONTENT")
        assert "123" in text

    def test_skips_missing_sections(self, tmp_path):
        target = tmp_path / "EXPERIMENTS.md"
        write_experiments_md(target, {"fig9": "ONLY"}, budget=1)
        text = target.read_text()
        assert "ONLY" in text
        assert "## fig8" not in text

    def test_existing_file_keeps_what_was_not_regenerated(self, tmp_path):
        target = tmp_path / "EXPERIMENTS.md"
        target.write_text(
            "# Experiments\n\nHand-written preamble.\n\n"
            "## fig3\n\n```\nFIG3-OLD\n```\n\n"
            "## fig8\n\n```\nFIG8-STALE\n## not a heading inside a fence\n```\n\n"
            "## hit path\n\nHand-written section.\n\n"
            "```\n## model\n```\n"
        )
        write_experiments_md(
            target, {"fig8": "FIG8-NEW", "fig9": "FIG9-NEW"}, budget=7
        )
        text = target.read_text()
        assert "FIG8-STALE" not in text
        assert "not a heading inside a fence" not in text
        assert text.startswith("# Experiments\n\nHand-written preamble.\n")
        assert "FIG3-OLD" in text
        assert "Hand-written section." in text
        assert text.count("## fig8") == 1
        # Replaced in place; the new fig9 follows fig8, before the
        # hand-written section that followed the stale fig8.
        assert (
            text.index("FIG3-OLD")
            < text.index("FIG8-NEW")
            < text.index("FIG9-NEW")
            < text.index("## hit path")
        )
        assert text.endswith("```\n## model\n```\n")
