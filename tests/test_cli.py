"""Unit tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_optimize_defaults(self):
        args = build_parser().parse_args(["optimize"])
        assert args.topology == "chain"
        assert args.algorithm == "dpccp"
        assert args.relations == 8

    def test_bench_requires_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])


class TestCommands:
    def test_optimize(self, capsys):
        assert main(["optimize", "--topology", "star", "-n", "6"]) == 0
        out = capsys.readouterr().out
        assert "algorithm : DPccp" in out
        assert "Scan" in out

    def test_optimize_each_algorithm(self, capsys):
        for algorithm in ("dpsize", "dpsub", "dpccp", "goo", "adaptive"):
            assert main(
                ["optimize", "-n", "5", "--algorithm", algorithm]
            ) == 0
        assert "cost" in capsys.readouterr().out

    def test_count_matches(self, capsys):
        assert main(["count", "--topology", "chain", "-n", "7"]) == 0
        out = capsys.readouterr().out
        assert "all formulas match" in out

    def test_table(self, capsys):
        assert main(["table", "--figure", "3", "--sizes", "2", "5"]) == 0
        out = capsys.readouterr().out
        assert "12/12" not in out  # only 8 cells for two sizes
        assert "8/8 cells match" in out

    def test_bench_small(self, capsys):
        assert main(
            ["bench", "--figure", "8", "--budget", "2000", "--min-seconds", "0.005"]
        ) == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out
        assert "budget" in out
        assert "log scale" in out  # ASCII chart included

    def test_bench_figure12(self, capsys):
        assert main(
            ["bench", "--figure", "12", "--budget", "300", "--min-seconds", "0.005"]
        ) == 0
        out = capsys.readouterr().out
        assert "Figure 12" in out
        assert "paper C++" in out

    def test_space(self, capsys):
        assert main(["space", "--topology", "clique", "-n", "5"]) == 0
        out = capsys.readouterr().out
        assert "csg-cmp-pairs (unordered)     : 90" in out
        assert "join trees (ordered)          : 1,680" in out

    def test_parse(self, capsys):
        query = (
            "SELECT * FROM a (100), b (200), c (50) "
            "WHERE a.x = b.y [0.01] AND b.z = c.w [0.1]"
        )
        assert main(["parse", query]) == 0
        out = capsys.readouterr().out
        assert "algorithm : DPccp" in out
        assert "Scan a" in out

    def test_parse_dot_output(self, capsys):
        query = "SELECT * FROM a (10), b (20) WHERE a.x = b.y [0.5]"
        assert main(["parse", query, "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph plan {")

    def test_parse_bad_query_reports_cleanly(self, capsys):
        assert main(["parse", "DELETE FROM a"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_error_path_reports_cleanly(self, capsys):
        # IKKBZ rejects cyclic graphs -> ReproError -> exit code 2.
        assert main(
            ["optimize", "--topology", "cycle", "-n", "5", "--algorithm", "ikkbz"]
        ) == 2
        assert "error:" in capsys.readouterr().err


class TestPlanCommand:
    def test_defaults(self):
        args = build_parser().parse_args(["plan"])
        assert args.topology == "clique"
        assert args.relations == 10
        assert args.algorithm == "dpsize"

    def test_jobs_one_runs_in_process(self, capsys):
        # DPsize plans in-process through the same path as every other
        # non-dpconv engine; there is no pool to spawn.
        assert main(
            ["plan", "--topology", "star", "-n", "7",
             "--algorithm", "dpsize", "--verify"]
        ) == 0
        out = capsys.readouterr().out
        assert "algorithm : DPsize\n" in out
        assert "pool spawned" not in out
        assert "verify    : matches sequential DPsize (cost)" in out

    def test_jobs_two_forced_dispatch(self, capsys):
        # The sharded dispatch these flags used to force is gone, so
        # argparse rejects the invocation outright.
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "plan",
                    "--topology", "chain",
                    "-n", "6",
                    "--jobs", "2",
                    "--min-shard-pairs", "1",
                    "--verify",
                ]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --jobs 2 --min-shard-pairs 1" in err

    def test_pool_flags_reject_non_dpsize(self, capsys):
        for algorithm in ("lindp", "dpsize"):
            for flag in ("--jobs", "--min-shard-pairs", "--max-retries"):
                with pytest.raises(SystemExit) as excinfo:
                    main(["plan", "-n", "6", "--algorithm", algorithm,
                          flag, "2"])
                assert excinfo.value.code == 2
                err = capsys.readouterr().err
                assert f"unrecognized arguments: {flag} 2" in err

    def test_any_registry_algorithm_accepted(self, capsys):
        # Regression: plan used to accept only dpsize/dpconv while every
        # other subcommand routed through the full registry.
        assert main(
            ["plan", "--topology", "chain", "-n", "30",
             "--algorithm", "lindp"]
        ) == 0
        out = capsys.readouterr().out
        assert "algorithm : LinDP" in out
        assert "linearization" in out

    def test_exact_engine_verifies(self, capsys):
        assert main(
            ["plan", "--topology", "star", "-n", "7",
             "--algorithm", "dpccp", "--verify"]
        ) == 0
        assert "verify    : matches" in capsys.readouterr().out

    def test_backend_rejects_non_dpconv(self, capsys):
        assert main(
            ["plan", "-n", "6", "--algorithm", "dpccp",
             "--backend", "python"]
        ) == 2
        assert "--backend" in capsys.readouterr().err

    def test_verify_rejects_heuristics(self, capsys):
        assert main(
            ["plan", "-n", "6", "--algorithm", "goo", "--verify"]
        ) == 2
        err = capsys.readouterr().err
        assert "--verify" in err
        assert "goo" in err


class TestOptimizeRouting:
    def test_adaptive_prints_routing_decision(self, capsys):
        assert main(
            ["optimize", "--topology", "chain", "-n", "30",
             "--algorithm", "adaptive"]
        ) == 0
        out = capsys.readouterr().out
        assert "routing   : chain query, n=30 -> rung 'lindp'" in out

    def test_non_adaptive_prints_no_routing(self, capsys):
        assert main(
            ["optimize", "--topology", "chain", "-n", "6",
             "--algorithm", "dpccp"]
        ) == 0
        assert "routing" not in capsys.readouterr().out


class TestServiceCommands:
    def test_serve_batch_defaults(self):
        args = build_parser().parse_args(["serve-batch"])
        assert args.topology == "star"
        assert args.requests == 200
        assert args.repeat_ratio == 0.7

    def test_fallback_choices(self):
        # Degradation has one policy, the escalation ladder, so
        # neither serving command takes --fallback; batch submission
        # always derives its width from --workers.
        for command in ("serve-batch", "serve"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--fallback", "goo"])
        with pytest.raises(SystemExit) as rejected:
            build_parser().parse_args(["serve-batch", "--concurrency", "4"])
        assert rejected.value.code == 2
        args = build_parser().parse_args(["serve-batch"])
        assert args.jobs is None
        assert not hasattr(args, "concurrency")

    def test_serve_batch_with_process_pool(self, capsys):
        assert main(
            [
                "serve-batch",
                "--topology", "star",
                "-n", "7",
                "--requests", "12",
                "--jobs", "2",
                "--workers", "2",
                "--seed", "5",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "planned 12 requests" in out
        assert "cache hit-rate:" in out

    def test_serve_batch(self, capsys):
        assert main(
            [
                "serve-batch",
                "--topology",
                "star",
                "-n",
                "8",
                "--requests",
                "60",
                "--repeat-ratio",
                "0.7",
                "--seed",
                "3",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "planned 60 requests" in out
        assert "cache hit-rate:" in out
        assert "p99_ms" in out

    def test_serve_batch_tiny_deadline_degrades_without_error(self, capsys):
        assert main(
            [
                "serve-batch",
                "--topology",
                "star",
                "-n",
                "13",
                "--requests",
                "6",
                "--repeat-ratio",
                "0.0",
                "--deadline-ms",
                "1",
                "--seed",
                "1",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "degraded" in out

    def test_serve_batch_metrics_out_feeds_stats(self, tmp_path, capsys):
        metrics_file = tmp_path / "metrics.json"
        assert main(
            [
                "serve-batch",
                "-n",
                "6",
                "--requests",
                "20",
                "--metrics-out",
                str(metrics_file),
            ]
        ) == 0
        assert metrics_file.exists()
        capsys.readouterr()
        assert main(["stats", "--metrics", str(metrics_file)]) == 0
        out = capsys.readouterr().out
        assert "plan cache" in out
        assert "hit_rate" in out

    def test_serve_batch_workload_file(self, tmp_path, capsys):
        import json

        workload = tmp_path / "workload.json"
        workload.write_text(
            json.dumps(
                [
                    {"topology": "chain", "n": 5, "seed": 1, "count": 3},
                    {"topology": "star", "n": 6, "seed": 2},
                ]
            )
        )
        assert main(["serve-batch", "--workload", str(workload)]) == 0
        assert "planned 4 requests" in capsys.readouterr().out

    def test_stats_missing_metrics_file_reports_cleanly(self, capsys):
        assert main(["stats", "--metrics", "/nonexistent/metrics.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_batch_malformed_workload_reports_cleanly(
        self, tmp_path, capsys
    ):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main(["serve-batch", "--workload", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_stats_demo_json(self, capsys):
        import json

        assert main(["stats", "--demo-requests", "12", "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["counters"]["requests"] == 12
        assert "cache" in snapshot


class TestServeCommand:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert args.algorithm == "adaptive"
        assert args.cache_shards == 8
        assert args.k_best == 2
        assert args.max_inflight == 64
        assert args.persist is None

    def test_flags_parse(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--port", "0",
                "--cache-shards", "4",
                "--k-best", "3",
                "--tenant-rate", "10",
                "--persist", "/tmp/snap.json",
            ]
        )
        assert args.port == 0
        assert args.cache_shards == 4
        assert args.k_best == 3
        assert args.tenant_rate == 10.0
        assert args.persist == "/tmp/snap.json"

    def test_invalid_configuration_reports_cleanly(self, capsys):
        # Bad service configuration dies on construction — before the
        # command ever binds a socket or blocks on the event loop.
        assert main(["serve", "--cache-shards", "0"]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["serve", "--k-best", "999"]) == 2
        assert "error:" in capsys.readouterr().err
