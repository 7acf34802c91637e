"""Smoke-level checks of the server cache contention benchmark."""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench.server_bench import (
    main,
    render_server_bench,
    run_server_bench,
)
from repro.bench.reporting import write_json


def _tiny_results() -> dict:
    return run_server_bench(
        shard_counts=(1, 4),
        clients=2,
        ops_per_client=500,
        key_universe=32,
    )


def test_run_produces_complete_artifact_schema() -> None:
    results = _tiny_results()
    assert results["benchmark"] == "server_cache_contention"
    assert results["clients"] == 2
    assert {"cpu_count", "platform", "python"} <= set(results["host"])
    assert [entry["shards"] for entry in results["entries"]] == [1, 4]
    for entry in results["entries"]:
        assert entry["total_ops"] == 2 * 500
        assert entry["ops_per_second"] > 0
        latency = entry["latency_seconds"]
        assert 0 <= latency["p50"] <= latency["p90"] <= latency["p99"]
        assert latency["p99"] <= latency["max"]
        assert entry["speedup_vs_single_lock"] > 0
        # Keys are pre-populated and never evicted at this size, so
        # the workload is the hit-dominated regime the bench documents.
        assert entry["cache_hit_rate"] > 0.99
        assert entry["cache_misses"] == 0
    finding = results["finding"]
    assert finding["best_shards"] in (1, 4)
    assert isinstance(finding["sharded_beats_single_lock"], bool)
    # The baseline row defines speedup 1.0 by construction.
    assert results["entries"][0]["speedup_vs_single_lock"] == 1.0


def test_single_lock_baseline_always_measured() -> None:
    # Even when the caller omits shards=1 it is forced in: without the
    # baseline row the headline comparison is meaningless.
    results = run_server_bench(
        shard_counts=(4,), clients=2, ops_per_client=200, key_universe=16
    )
    assert [entry["shards"] for entry in results["entries"]] == [1, 4]


def test_render_and_write(tmp_path: Path) -> None:
    results = _tiny_results()
    report = render_server_bench(results)
    assert "server cache contention" in report
    assert "shards" in report and "p99 [us]" in report
    assert ("sharding wins" in report) or ("honest finding" in report)

    out = tmp_path / "BENCH_server.json"
    assert write_json(out, results) == out
    assert json.loads(out.read_text())["benchmark"] == "server_cache_contention"


def test_main_smoke_mode(tmp_path: Path, capsys) -> None:
    out = tmp_path / "BENCH_server.json"
    assert (
        main(
            [
                "--smoke",
                "--clients",
                "2",
                "--ops-per-client",
                "300",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    captured = capsys.readouterr().out
    assert "results written to" in captured
    document = json.loads(out.read_text())
    assert document["ops_per_client"] == 300
    assert document["entries"]
