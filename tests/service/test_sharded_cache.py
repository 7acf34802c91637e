"""ShardedPlanCache and the consistent-hash ring.

The sharded facade must be observably identical to a single-lock
``PlanCache`` for every operation (the service swaps one in without
knowing), while the ring must place keys deterministically (persistence
and multi-process deployments agree), spread them evenly, and remap
only ``~1/n`` of the key space when the shard count changes.
"""

from __future__ import annotations

import threading
from collections import Counter

import pytest

from repro.errors import ServiceError
from repro.service.plancache import PlanCache
from repro.service.sharding import DEFAULT_SHARDS, HashRing, ShardedPlanCache

KEYS = [f"dpccp:fp{index:06d}" for index in range(4000)]


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# HashRing
# ----------------------------------------------------------------------


def test_ring_is_deterministic_across_instances() -> None:
    # No per-process salt: two independently built rings agree on every
    # key, which is what lets a persisted snapshot reload into the
    # shard that will serve it.
    first, second = HashRing(8), HashRing(8)
    assert [first.shard_of(key) for key in KEYS] == [
        second.shard_of(key) for key in KEYS
    ]


def test_ring_covers_and_balances_shards() -> None:
    ring = HashRing(8)
    placement = Counter(ring.shard_of(key) for key in KEYS)
    assert sorted(placement) == list(range(8))  # every shard owns keys
    # 64 vnodes/shard keeps the arcs tight; allow generous slack so the
    # test pins the mechanism, not one SHA-1 accident.
    expected = len(KEYS) / 8
    assert max(placement.values()) < 2.0 * expected
    assert min(placement.values()) > 0.35 * expected


def test_ring_resize_remaps_a_minority_of_keys() -> None:
    # Consistent hashing's defining property: growing 8 -> 9 shards
    # moves ~1/9 of keys, not ~8/9 like `hash(key) % n` would.
    before, after = HashRing(8), HashRing(9)
    moved = sum(
        before.shard_of(key) != after.shard_of(key) for key in KEYS
    )
    assert moved / len(KEYS) < 0.35


def test_ring_rejects_bad_configuration() -> None:
    with pytest.raises(ServiceError):
        HashRing(0)
    with pytest.raises(ServiceError):
        HashRing(4, vnodes=0)


# ----------------------------------------------------------------------
# PlanCache-compatible surface
# ----------------------------------------------------------------------


@pytest.mark.parametrize("shards", [1, 3, DEFAULT_SHARDS])
def test_put_get_contains_len_items(shards: int) -> None:
    cache = ShardedPlanCache(shards=shards, capacity=256)
    for key in KEYS[:100]:
        cache.put(key, ("plan", key))
    assert len(cache) == 100
    for key in KEYS[:100]:
        assert key in cache
        assert cache.get(key) == ("plan", key)
    assert cache.get("never:seen") is None
    assert sorted(cache.items()) == sorted(
        (key, ("plan", key)) for key in KEYS[:100]
    )
    cache.clear()
    assert len(cache) == 0


def test_routing_is_stable_and_shard_local() -> None:
    cache = ShardedPlanCache(shards=4, capacity=64)
    placement = {key: cache.shard_of(key) for key in KEYS[:200]}
    # Same facade, same answer every time.
    assert placement == {key: cache.shard_of(key) for key in KEYS[:200]}
    # And it matches a bare ring with the same shard count.
    ring = HashRing(4)
    assert placement == {key: ring.shard_of(key) for key in KEYS[:200]}


def test_stampede_guard_is_shard_local() -> None:
    cache = ShardedPlanCache(shards=4, capacity=64)
    status, future = cache.get_or_join("k1")
    assert status == "leader"
    status, joined = cache.get_or_join("k1")
    assert status == "follower" and joined is future
    cache.fulfill("k1", "v1")
    assert future.result(timeout=1) == "v1"
    assert cache.get_or_join("k1") == ("hit", "v1")

    status, future = cache.get_or_join("k2")
    assert status == "leader"
    cache.abandon("k2", RuntimeError("boom"))
    with pytest.raises(RuntimeError):
        future.result(timeout=1)


def test_get_or_compute_coalesces_within_a_shard() -> None:
    cache = ShardedPlanCache(shards=4, capacity=64)
    calls = Counter()
    gate = threading.Barrier(8)

    def compute() -> str:
        calls["factory"] += 1
        return "value"

    def worker() -> None:
        gate.wait()
        assert cache.get_or_compute("hot:key", compute) == "value"

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert calls["factory"] == 1
    stats = cache.stats()
    assert stats.misses == 1
    assert stats.hits + stats.coalesced == 7


def test_ttl_and_stale_tier_per_shard() -> None:
    def usable(value: object) -> bool:
        return True

    clock = FakeClock()
    cache = ShardedPlanCache(
        shards=4, capacity=64, ttl_seconds=10.0, clock=clock
    )
    for key in KEYS[:20]:
        cache.put(key, ("plan", key))
    clock.advance(11.0)
    # Expired entries are misses for normal lookups...
    assert cache.get(KEYS[0]) is None
    # ...a value the caller cannot use is not counted as served...
    assert cache.peek_stale(KEYS[1], lambda value: False) is None
    assert cache.stats().stale_served == 0
    # ...but the degraded path can still peek them, shard-locally.
    for key in KEYS[:20]:
        assert cache.peek_stale(key, usable) == ("stale", ("plan", key))
    stats = cache.stats()
    assert stats.stale_served == 20
    assert stats.stale_size == 20
    # A fresh put supersedes the parked copy.
    cache.put(KEYS[0], ("fresh", KEYS[0]))
    assert cache.peek_stale(KEYS[0], usable) == ("fresh", ("fresh", KEYS[0]))
    assert cache.peek_stale(KEYS[0], lambda value: False) is None


def test_capacity_is_divided_but_aggregate_bound_holds() -> None:
    cache = ShardedPlanCache(shards=4, capacity=100)
    for key in KEYS[:1000]:
        cache.put(key, key)
    # Per-shard bound is ceil(100/4)=25, so the facade holds at most
    # 4*25 entries no matter how skewed the ring placement is.
    assert len(cache) <= 100
    assert cache.stats().capacity == 100
    assert cache.stats().evictions >= 900


def test_rejects_bad_configuration() -> None:
    with pytest.raises(ServiceError):
        ShardedPlanCache(shards=0)
    with pytest.raises(ServiceError):
        ShardedPlanCache(shards=4, capacity=0)


def test_single_shard_matches_plain_plancache_counters() -> None:
    # shards=1 is the documented single-lock baseline: identical
    # stats trajectory to a bare PlanCache for the same op sequence.
    plain = PlanCache(capacity=8)
    facade = ShardedPlanCache(shards=1, capacity=8)
    for target in (plain, facade):
        for key in KEYS[:12]:  # forces 4 evictions
            target.put(key, key)
        for key in KEYS[:12]:
            target.get(key)
        target.get("missing")
    assert plain.stats() == facade.stats()


# ----------------------------------------------------------------------
# Aggregate stats
# ----------------------------------------------------------------------


def test_shard_stats_sum_to_aggregate() -> None:
    cache = ShardedPlanCache(shards=4, capacity=400)
    for key in KEYS[:300]:
        cache.put(key, key)
    for key in KEYS[:150]:
        cache.get(key)
    cache.get("missing:1"), cache.get("missing:2")
    per_shard = cache.shard_stats()
    total = cache.stats()
    assert len(per_shard) == 4
    for field in ("hits", "misses", "size", "evictions", "expirations"):
        assert getattr(total, field) == sum(
            getattr(stat, field) for stat in per_shard
        )
    assert total.hits == 150
    assert total.misses == 2
    assert total.size == 300


def test_aggregate_stats_quiescent_consistency_under_threads() -> None:
    # Weak consistency is the documented trade *during* concurrent
    # operation; once the hammer stops, the sums must be exact.
    cache = ShardedPlanCache(shards=4, capacity=1024)
    for key in KEYS[:256]:
        cache.put(key, key)
    gate = threading.Barrier(8)

    def worker(index: int) -> None:
        gate.wait()
        for step in range(2000):
            cache.get(KEYS[(index * 37 + step) % 256])

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    stats = cache.stats()
    assert stats.hits == 8 * 2000
    assert stats.misses == 0
    assert stats.size == 256
