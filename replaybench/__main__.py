"""Command line: ``python -m replaybench run|compare``.

``run`` measures one workload (``--workload``) or all four, prints a
table of every metric with its unit and sample count, and ends with
one JSON line ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics of ``BENCHMARK.json``, or with ``--trace 1`` its
per-layer metrics. ``--out FILE`` also writes the full run record.
The exit code is 1 when any response failed a check.

``compare BASE HEAD`` prints medians, quartiles and a verdict for
every (metric, workload) pair; the exit code is 1 when any is worse.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from replaybench.common import WORKLOADS, benchmark_spec, ensure_repro, host_facts


def _selected(record: dict, spec: dict) -> dict:
    """The metrics BENCHMARK.json lists, in its units."""
    if record["trace"]:
        layers = record["layers"]
        return {m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]} for m in spec["per_layer"]}
    return {m["name"]: {"value": record["metrics"][m["name"]]["value"], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def _print_record(record: dict) -> None:
    flag = f"  INVALID: {record['invalid']}" if record.get("invalid") else ""
    print(f"== {record['workload']} seed={record['seed']} seconds={record['seconds']} "
          f"trace={int(record['trace'])} attempted={record['attempted']} failed={record['failed']}{flag}")
    for section in ("metrics", "info"):
        for name, entry in record.get(section, {}).items():
            n = f"n={entry['n']}" if "n" in entry else ""
            print(f"   {name:<28} {entry['value']:>14.6g} {entry['unit']:<6} {n}")
    for name, value in sorted(record.get("layers", {}).items()):
        print(f"   {name:<28} {value:>14.6g}")
    for message in record["failures"]:
        print(f"   FAIL {message}")


def cmd_run(args: argparse.Namespace) -> int:
    ensure_repro()
    from replaybench.runner import run_workload

    spec = benchmark_spec()
    seconds = args.seconds if args.seconds is not None else (2.0 if args.smoke else spec["run_seconds"])
    names = [args.workload] if args.workload else list(WORKLOADS)
    records = []
    for name in names:
        record = run_workload(name, args.seed, seconds, bool(args.trace), smoke=args.smoke)
        _print_record(record)
        records.append(record)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"host": host_facts(), "workloads": records}, indent=1) + "\n")
    failed = sum(r["failed"] for r in records)
    result = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": (_selected(records[0], spec) if len(records) == 1
                    else {r["workload"]: _selected(r, spec) for r in records}),
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def cmd_compare(args: argparse.Namespace) -> int:
    from replaybench.compare import compare, load_records, render

    rows = compare(load_records(args.base), load_records(args.head))
    print(render(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m replaybench")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure one or all workloads")
    run.add_argument("--workload", choices=WORKLOADS)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float)
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    run.add_argument("--smoke", action="store_true", help="tiny inputs for tests")
    run.add_argument("--out", type=Path, help="write the run record here")
    run.set_defaults(handler=cmd_run)
    comparison = commands.add_parser("compare", help="compare two sets of run records")
    comparison.add_argument("base", type=Path)
    comparison.add_argument("head", type=Path)
    comparison.set_defaults(handler=cmd_compare)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
