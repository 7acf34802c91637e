"""Sharded plan cache: N independent lock domains behind one facade.

The single-lock :class:`~repro.service.plancache.PlanCache` serializes
every lookup. :class:`ShardedPlanCache` splits the key space over N
independent :class:`PlanCache` shards — each with its own lock, LRU
order, TTL sweep, stale tier and counters — so concurrent requests for
distinct fingerprints proceed without contending.

Shard selection uses a **consistent hash ring** (:class:`HashRing`,
SHA-1 over virtual nodes) rather than ``hash(key) % n``:

* python's string ``hash`` is salted per process, so ring placement is
  the only way warm-start persistence and multi-process deployments
  agree on where a key lives;
* changing the shard count remaps only ``~1/n`` of the key space, so a
  resized deployment reloading a persisted snapshot keeps most entries
  on the shard that will serve them.

Aggregate :meth:`ShardedPlanCache.stats` sums per-shard counters, each
snapshot taken under that shard's lock — exact per shard, **weakly
consistent across shards** (shard 3's counters may advance while shard
5's snapshot is being taken). That is the documented trade: a
strongly-consistent aggregate would reintroduce the global lock the
sharding exists to remove.
"""

from __future__ import annotations

import bisect
import hashlib
import time
from typing import Any, Callable, Literal

from repro.errors import ServiceError
from repro.obs.counters import CounterRegistry
from repro.service.plancache import CacheStats, PlanCache

__all__ = ["HashRing", "ShardedPlanCache", "DEFAULT_SHARDS"]

#: Default shard count for a :class:`ShardedPlanCache` built without
#: one (``serve --cache-shards`` also defaults to 8; ``PlanService``
#: to 1). No bench backs 8: the cache micro-bench that chose it timed
#: a 2 µs get/put and read within noise of a single lock. Whether
#: sharding pays on the real hit path, and so whether this class
#: stays, waits for the request replay (``replaybench``) to measure it.
DEFAULT_SHARDS = 8

#: Virtual nodes per shard on the ring. 64 points per shard keeps the
#: largest/smallest shard arc ratio tight (empirically < 1.4 at 8
#: shards) without making ring construction or bisect lookups slow.
_VNODES_PER_SHARD = 64


def _ring_hash(data: str) -> int:
    """Stable 64-bit ring position for ``data`` (process-salt-free)."""
    digest = hashlib.sha1(data.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Consistent-hash ring mapping string keys onto shard indices.

    Args:
        shards: number of shard slots (> 0).
        vnodes: virtual nodes per shard; more points smooth the
            key-space split at the cost of a larger sorted ring.
    """

    __slots__ = ("_points", "_owners", "_shards")

    def __init__(self, shards: int, vnodes: int = _VNODES_PER_SHARD) -> None:
        if shards <= 0:
            raise ServiceError(f"need at least one shard, got {shards}")
        if vnodes <= 0:
            raise ServiceError(f"vnodes must be positive, got {vnodes}")
        self._shards = shards
        points: list[tuple[int, int]] = []
        for shard in range(shards):
            for replica in range(vnodes):
                points.append((_ring_hash(f"shard{shard}#{replica}"), shard))
        points.sort()
        self._points = [position for position, _ in points]
        self._owners = [owner for _, owner in points]

    @property
    def shards(self) -> int:
        """Number of shard slots on the ring."""
        return self._shards

    def shard_of(self, key: str) -> int:
        """The shard index owning ``key`` (first point clockwise)."""
        position = _ring_hash(key)
        index = bisect.bisect_right(self._points, position)
        if index == len(self._points):
            index = 0  # wrap around the ring
        return self._owners[index]


class ShardedPlanCache:
    """A :class:`PlanCache`-compatible facade over N independent shards.

    Every operation routes to exactly one shard via the ring, so the
    full PlanCache contract — LRU + TTL per shard, stampede guard,
    stale tier — holds shard-locally. Capacity is divided across
    shards (rounded up, so the aggregate bound is ``>= capacity``).

    Args:
        shards: lock domains; 1 degenerates to a plain wrapped cache.
        capacity / ttl_seconds / clock: per the underlying caches.
        counters: shared obs registry. With one shard the historical
            ``cache.*`` counter names are kept; with more, each shard
            publishes under ``cache.shard<i>.*``.
    """

    def __init__(
        self,
        shards: int = DEFAULT_SHARDS,
        capacity: int = 1024,
        ttl_seconds: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        counters: CounterRegistry | None = None,
    ) -> None:
        if shards <= 0:
            raise ServiceError(f"need at least one shard, got {shards}")
        if capacity <= 0:
            raise ServiceError(f"cache capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._ring = HashRing(shards)
        per_shard = -(-capacity // shards)  # ceil division
        self._shards = tuple(
            PlanCache(
                capacity=per_shard,
                ttl_seconds=ttl_seconds,
                clock=clock,
                counters=counters,
                counter_prefix=(
                    "cache" if shards == 1 else f"cache.shard{index}"
                ),
            )
            for index in range(shards)
        )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    @property
    def shards(self) -> int:
        """Number of lock domains."""
        return len(self._shards)

    def shard_of(self, key: str) -> int:
        """Index of the shard that owns ``key``."""
        return self._ring.shard_of(key)

    def _shard(self, key: str) -> PlanCache:
        return self._shards[self._ring.shard_of(key)]

    # ------------------------------------------------------------------
    # PlanCache-compatible surface
    # ------------------------------------------------------------------

    def get(self, key: str) -> Any | None:
        """Live value for ``key`` or ``None``; counts on the owner shard."""
        return self._shard(key).get(key)

    def put(self, key: str, value: Any) -> None:
        """Insert/refresh ``key`` on its owner shard."""
        self._shard(key).put(key, value)

    def get_or_join(
        self, key: str
    ) -> tuple[Literal["hit", "leader", "follower"], Any]:
        """Shard-local stampede-guard classification (see PlanCache)."""
        return self._shard(key).get_or_join(key)

    def fulfill(self, key: str, value: Any) -> None:
        """Leader path: store and wake followers on the owner shard."""
        self._shard(key).fulfill(key, value)

    def abandon(self, key: str, error: BaseException | None = None) -> None:
        """Leader path: propagate failure to the owner shard's followers."""
        self._shard(key).abandon(key, error)

    def get_or_compute(self, key: str, factory: Callable[[], Any]) -> Any:
        """Hit or compute-once-per-key, shard-locally coalesced."""
        return self._shard(key).get_or_compute(key, factory)

    def peek_stale(
        self, key: str, usable: Callable[[Any], bool]
    ) -> tuple[Literal["fresh", "stale"], Any] | None:
        """Degraded-path probe on the owner shard (see PlanCache)."""
        return self._shard(key).peek_stale(key, usable)

    def __contains__(self, key: str) -> bool:
        return key in self._shard(key)

    def __len__(self) -> int:
        """Total live entries (each shard counted under its own lock)."""
        return sum(len(shard) for shard in self._shards)

    def items(self) -> list[tuple[str, Any]]:
        """Live entries of every shard, concatenated in shard order."""
        entries: list[tuple[str, Any]] = []
        for shard in self._shards:
            entries.extend(shard.items())
        return entries

    def clear(self) -> None:
        """Drop every shard's entries (counters preserved)."""
        for shard in self._shards:
            shard.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def shard_stats(self) -> list[CacheStats]:
        """Per-shard snapshots, each exact under its shard's lock."""
        return [shard.stats() for shard in self._shards]

    def stats(self) -> CacheStats:
        """Aggregate counters: per-shard sums, weakly consistent.

        Each term is a point-in-time snapshot taken under that shard's
        lock, so every per-shard contribution is internally consistent
        (its ``hits``/``misses``/``size`` agree with each other); the
        sum across shards is *weakly* consistent — shards snapshotted
        later may include operations that started after the first
        shard's snapshot. Capacity reports the configured aggregate
        bound, not the per-shard rounding.
        """
        snapshots = self.shard_stats()
        return CacheStats(
            hits=sum(stat.hits for stat in snapshots),
            misses=sum(stat.misses for stat in snapshots),
            coalesced=sum(stat.coalesced for stat in snapshots),
            evictions=sum(stat.evictions for stat in snapshots),
            expirations=sum(stat.expirations for stat in snapshots),
            size=sum(stat.size for stat in snapshots),
            capacity=self._capacity,
            stale_served=sum(stat.stale_served for stat in snapshots),
            stale_size=sum(stat.stale_size for stat in snapshots),
        )

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"ShardedPlanCache(shards={len(self._shards)}, "
            f"size={stats.size}/{stats.capacity}, hits={stats.hits}, "
            f"misses={stats.misses})"
        )
