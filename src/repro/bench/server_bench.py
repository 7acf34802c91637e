"""Server cache contention benchmark: single-lock vs sharded.

Produces the ``BENCH_server.json`` artifact backing the
``ShardedPlanCache`` default of :data:`repro.service.sharding.DEFAULT_SHARDS`
shards: an 8-client hammer drives the same high-hit-rate lookup
workload the HTTP front door sees (service-shaped keys, occasional
refresh puts) against one :class:`~repro.service.sharding.ShardedPlanCache`
per shard count, and records throughput plus per-operation latency
percentiles. With one shard the facade degenerates to the historical
single-lock :class:`~repro.service.plancache.PlanCache`, so the
``shards=1`` row *is* the single-lock baseline and every other row
isolates the effect of adding lock domains — same ring, same code
path, only the lock count varies.

The workload is deliberately cache-friendly (keys pre-populated, ~10%
put churn): on a hit-dominated mix the hash map is nanoseconds and the
lock is the cost, which is exactly the regime the sharding targets.
A miss-dominated mix would hide contention behind planning time and
measure the optimizer instead.

Honesty notes recorded in the artifact: per-operation timing adds a
``perf_counter`` pair around every op (identical across configs, so
ratios stand); CPython's GIL caps the *aggregate* speedup well below
the shard count — the win shows up as reduced tail latency (p99 waits
behind one lock) and reduced lock-convoy throughput loss, not as an
8x scale-out.
"""

from __future__ import annotations

import random
import sys
import threading
import time

from repro.bench.reporting import host_facts, write_json
from repro.service.sharding import ShardedPlanCache

__all__ = [
    "DEFAULT_CLIENTS",
    "DEFAULT_OPS_PER_CLIENT",
    "DEFAULT_KEY_UNIVERSE",
    "DEFAULT_SHARD_COUNTS",
    "run_server_bench",
    "render_server_bench",
]

#: Hammer width: matches the service-layer concurrency battery and the
#: front door's default worker pool.
DEFAULT_CLIENTS = 8

#: Operations each client performs per configuration.
DEFAULT_OPS_PER_CLIENT = 40_000

#: Distinct cache keys in play. Small enough that clients collide on
#: hot keys (the contended regime), large enough that LRU never evicts.
DEFAULT_KEY_UNIVERSE = 512

#: Shard counts measured: 1 is the single-lock baseline, 8 the default
#: deployment, the rest show the shape of the curve.
DEFAULT_SHARD_COUNTS: tuple[int, ...] = (1, 2, 4, 8, 16)

#: Fraction of operations that refresh (put) instead of look up.
_PUT_RATIO = 0.1



def _service_shaped_keys(universe: int) -> list[str]:
    """Keys shaped like the service's ``algorithm:fingerprint`` keys."""
    algorithms = ("dpccp", "dpsize", "adaptive")
    return [
        f"{algorithms[index % len(algorithms)]}:fp{index:06d}"
        for index in range(universe)
    ]


def _percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[rank]


def _hammer_one_config(
    shards: int,
    clients: int,
    ops_per_client: int,
    keys: list[str],
    seed: int,
) -> dict:
    """Run the hammer against one shard count; returns the entry dict."""
    cache = ShardedPlanCache(shards=shards, capacity=4 * len(keys))
    for key in keys:
        cache.put(key, ("plan", key))

    barrier = threading.Barrier(clients + 1)
    latencies: list[list[float]] = [[] for _ in range(clients)]
    missed: list[int] = [0] * clients

    def client(index: int) -> None:
        rng = random.Random(seed * 1_000 + index)
        choose = rng.randrange
        chance = rng.random
        record = latencies[index].append
        universe = len(keys)
        clock = time.perf_counter
        barrier.wait()
        for _ in range(ops_per_client):
            key = keys[choose(universe)]
            if chance() < _PUT_RATIO:
                started = clock()
                cache.put(key, ("plan", key))
                record(clock() - started)
            else:
                started = clock()
                value = cache.get(key)
                record(clock() - started)
                if value is None:  # races with a concurrent put are fine
                    missed[index] += 1

    threads = [
        threading.Thread(target=client, args=(index,), daemon=True)
        for index in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started

    sample = sorted(value for bucket in latencies for value in bucket)
    total_ops = len(sample)
    stats = cache.stats()
    return {
        "shards": shards,
        "total_ops": total_ops,
        "elapsed_seconds": elapsed,
        "ops_per_second": total_ops / elapsed if elapsed > 0 else float("inf"),
        "latency_seconds": {
            "p50": _percentile(sample, 0.50),
            "p90": _percentile(sample, 0.90),
            "p99": _percentile(sample, 0.99),
            "max": sample[-1] if sample else 0.0,
        },
        "cache_misses": sum(missed),
        "cache_hit_rate": stats.hit_rate,
    }


def run_server_bench(
    shard_counts: tuple[int, ...] = DEFAULT_SHARD_COUNTS,
    clients: int = DEFAULT_CLIENTS,
    ops_per_client: int = DEFAULT_OPS_PER_CLIENT,
    key_universe: int = DEFAULT_KEY_UNIVERSE,
    seed: int = 7,
) -> dict:
    """Hammer each shard count; returns a JSON-ready results dict.

    Args:
        shard_counts: configurations to measure; must include 1 for
            the single-lock baseline row (enforced by sorting it in).
        clients: concurrent hammer threads.
        ops_per_client: operations per thread per configuration.
        key_universe: distinct keys (pre-populated; ~90% of ops hit).
        seed: client RNG seed base (keys and op sequences are then
            deterministic; wall-clock numbers of course are not).
    """
    counts = tuple(sorted(set(shard_counts) | {1}))
    entries = [
        _hammer_one_config(
            shards=shards,
            clients=clients,
            ops_per_client=ops_per_client,
            keys=_service_shaped_keys(key_universe),
            seed=seed,
        )
        for shards in counts
    ]
    baseline = entries[0]  # counts is sorted, so entries[0] is shards=1
    for entry in entries:
        entry["speedup_vs_single_lock"] = (
            entry["ops_per_second"] / baseline["ops_per_second"]
            if baseline["ops_per_second"] > 0
            else float("inf")
        )
    best = max(entries, key=lambda entry: entry["ops_per_second"])
    return {
        "benchmark": "server_cache_contention",
        "host": host_facts(),
        "clients": clients,
        "ops_per_client": ops_per_client,
        "key_universe": key_universe,
        "put_ratio": _PUT_RATIO,
        "entries": entries,
        "finding": {
            "best_shards": best["shards"],
            "best_speedup_vs_single_lock": best["speedup_vs_single_lock"],
            "sharded_beats_single_lock": best["shards"] > 1
            and best["speedup_vs_single_lock"] > 1.0,
        },
    }


def render_server_bench(results: dict) -> str:
    """Monospace table view of :func:`run_server_bench` results."""
    from repro.bench.reporting import render_table

    host = results["host"]
    header = [
        "shards",
        "ops/s",
        "speedup",
        "p50 [us]",
        "p90 [us]",
        "p99 [us]",
        "max [us]",
    ]
    rows: list[list] = []
    for entry in results["entries"]:
        latency = entry["latency_seconds"]
        rows.append(
            [
                entry["shards"],
                f"{entry['ops_per_second']:,.0f}",
                f"{entry['speedup_vs_single_lock']:.2f}x",
                f"{latency['p50'] * 1e6:.1f}",
                f"{latency['p90'] * 1e6:.1f}",
                f"{latency['p99'] * 1e6:.1f}",
                f"{latency['max'] * 1e6:.1f}",
            ]
        )
    finding = results["finding"]
    verdict = (
        f"sharding wins: {finding['best_shards']} shards at "
        f"{finding['best_speedup_vs_single_lock']:.2f}x the single lock"
        if finding["sharded_beats_single_lock"]
        else "honest finding: sharding did not beat the single lock "
        "on this host (GIL-bound; see the module docstring)"
    )
    return "\n".join(
        [
            f"server cache contention — {results['clients']} clients x "
            f"{results['ops_per_client']:,} ops, "
            f"{results['key_universe']} keys, host: "
            f"{host['cpu_count']} core(s), python {host['python']}",
            render_table(header, rows),
            verdict,
        ]
    )



def main(argv: list[str] | None = None) -> int:
    """Run the hammer and write ``BENCH_server.json``."""
    import argparse

    parser = argparse.ArgumentParser(
        description="server cache contention benchmark "
        "(single-lock vs sharded)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny configuration for CI/tests (seconds, not minutes)",
    )
    parser.add_argument("--clients", type=int, default=None)
    parser.add_argument("--ops-per-client", type=int, default=None)
    parser.add_argument(
        "--shards",
        type=int,
        nargs="+",
        default=None,
        help="shard counts to measure (1 is always added as baseline)",
    )
    parser.add_argument("--out", default="BENCH_server.json", metavar="FILE")
    args = parser.parse_args(argv)

    if args.smoke:
        clients = args.clients or 4
        ops = args.ops_per_client or 2_000
        counts = tuple(args.shards) if args.shards else (1, 4)
        universe = 64
    else:
        clients = args.clients or DEFAULT_CLIENTS
        ops = args.ops_per_client or DEFAULT_OPS_PER_CLIENT
        counts = tuple(args.shards) if args.shards else DEFAULT_SHARD_COUNTS
        universe = DEFAULT_KEY_UNIVERSE

    results = run_server_bench(
        shard_counts=counts,
        clients=clients,
        ops_per_client=ops,
        key_universe=universe,
    )
    print(render_server_bench(results))
    path = write_json(args.out, results)
    print(f"\nresults written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
