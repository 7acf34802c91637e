"""A thread-safe LRU + TTL cache with an anti-stampede in-flight table.

Built for plan caching but value-agnostic. Three behaviors matter for
an optimizer front door:

* **LRU + TTL** — bounded memory under unbounded distinct queries,
  and bounded staleness when catalog statistics drift (entries expire
  ``ttl_seconds`` after insertion).
* **Stampede guard** — when N threads miss on the same key
  concurrently, exactly one (the *leader*) computes; the rest
  (*followers*) wait on a shared future. Without this, a cold cache
  under concurrent identical queries runs N identical ``O(3^n)``
  optimizations.
* **Observability** — hit/miss/eviction/expiration/coalesced counters,
  exposed as a :class:`CacheStats` snapshot.
* **Stale tier** — entries dropped by TTL or LRU pressure are retained
  in a bounded side table instead of vanishing. Normal lookups never
  see them (an expired entry is still a miss), but the service's
  degraded path may :meth:`~PlanCache.peek_stale` one to serve a
  previously-computed plan when the fresh recomputation cannot finish
  inside the request deadline.

The waiting protocol is deadline-friendly: :meth:`get_or_join` hands
followers the leader's future so they can bound their own wait and
degrade independently (see ``optimizer_service``), while
:meth:`get_or_compute` wraps the same machinery in a synchronous
convenience API.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Callable, Literal

from repro.errors import ServiceError
from repro.obs.counters import CounterRegistry

__all__ = ["CacheStats", "PlanCache"]


@dataclass(frozen=True, slots=True)
class CacheStats:
    """Point-in-time cache counters.

    Attributes:
        hits: lookups answered from a live entry.
        misses: lookups that started a computation (leader path).
        coalesced: lookups that joined an in-flight computation
            instead of starting their own (stampede guard savings).
        evictions: entries dropped by the LRU bound.
        expirations: entries dropped because their TTL lapsed.
        size: entries currently stored.
        capacity: the LRU bound.
        stale_served: degraded-path lookups answered from the stale
            tier (see :meth:`PlanCache.peek_stale`).
        stale_size: entries currently parked in the stale tier.
    """

    hits: int
    misses: int
    coalesced: int
    evictions: int
    expirations: int
    size: int
    capacity: int
    stale_served: int = 0
    stale_size: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups: hits + misses + coalesced."""
        return self.hits + self.misses + self.coalesced

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without a fresh computation.

        Coalesced lookups count as hits — the work was shared — so
        this is ``(hits + coalesced) / lookups``; 0.0 before any
        lookup.
        """
        lookups = self.lookups
        if lookups == 0:
            return 0.0
        return (self.hits + self.coalesced) / lookups


class PlanCache:
    """Thread-safe LRU + TTL cache with in-flight deduplication.

    Args:
        capacity: maximum number of stored entries (> 0).
        ttl_seconds: entry lifetime; ``None`` disables expiry.
        clock: monotonic time source, injectable for tests.
        counters: obs counter registry to publish ``cache.*`` counters
            into; the cache owns a private registry when not given.
            Passing a shared :class:`~repro.obs.Instrumentation`'s
            registry is how the plan service funnels cache hit-rates
            into the unified snapshot.
        counter_prefix: namespace of the published counters. The
            default keeps the historical ``cache.*`` names; the sharded
            cache gives each shard its own prefix
            (``cache.shard3.hits``) so per-shard pressure is visible in
            the unified obs snapshot.
    """

    def __init__(
        self,
        capacity: int = 1024,
        ttl_seconds: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        counters: CounterRegistry | None = None,
        counter_prefix: str = "cache",
    ) -> None:
        if capacity <= 0:
            raise ServiceError(f"cache capacity must be positive, got {capacity}")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ServiceError(f"ttl_seconds must be positive, got {ttl_seconds}")
        self._capacity = capacity
        self._ttl = ttl_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, tuple[Any, float | None]]" = OrderedDict()
        #: Dead entries (TTL lapse, LRU eviction) parked for degraded
        #: serving; bounded by the same capacity as the live table.
        self._stale: "OrderedDict[str, Any]" = OrderedDict()
        self._inflight: dict[str, Future] = {}
        registry = counters if counters is not None else CounterRegistry()
        self._counters = registry
        # One obs Counter per stat, hoisted so the hot path never does
        # a name lookup. Counter locks nest inside the cache lock and
        # acquire nothing else, so ordering is deadlock-free.
        self._hits = registry.counter(f"{counter_prefix}.hits")
        self._misses = registry.counter(f"{counter_prefix}.misses")
        self._coalesced = registry.counter(f"{counter_prefix}.coalesced")
        self._evictions = registry.counter(f"{counter_prefix}.evictions")
        self._expirations = registry.counter(f"{counter_prefix}.expirations")
        self._stale_served = registry.counter(f"{counter_prefix}.stale_served")

    # ------------------------------------------------------------------
    # Core dictionary operations
    # ------------------------------------------------------------------

    def get(self, key: str) -> Any | None:
        """Return the live value for ``key`` or ``None``; counts hit/miss."""
        with self._lock:
            value = self._lookup(key)
            if value is not None:
                self._hits.increment()
            else:
                self._misses.increment()
            return value

    def put(self, key: str, value: Any) -> None:
        """Insert/refresh ``key``, evicting LRU entries past capacity."""
        if value is None:
            raise ServiceError("cache values must not be None")
        with self._lock:
            self._store(key, value)

    def _lookup(self, key: str) -> Any | None:
        """Unlocked lookup: expire, then promote to most-recently-used."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        value, expires_at = entry
        if expires_at is not None and self._clock() >= expires_at:
            del self._entries[key]
            self._park_stale(key, value)
            self._expirations.increment()
            return None
        self._entries.move_to_end(key)
        return value

    def _park_stale(self, key: str, value: Any) -> None:
        """Unlocked: retain a dead entry for degraded serving."""
        self._stale[key] = value
        self._stale.move_to_end(key)
        while len(self._stale) > self._capacity:
            self._stale.popitem(last=False)

    def _store(self, key: str, value: Any) -> None:
        """Unlocked insert with expiry sweep, then LRU eviction.

        Dead entries are swept (and counted as *expirations*) before
        any live entry is evicted, so a TTL lapse never masquerades as
        LRU pressure in the counters and never costs a live entry its
        slot.
        """
        expires_at = None if self._ttl is None else self._clock() + self._ttl
        self._entries[key] = (value, expires_at)
        self._entries.move_to_end(key)
        # A fresh value supersedes any parked stale copy.
        self._stale.pop(key, None)
        if len(self._entries) > self._capacity:
            self._sweep_expired()
        while len(self._entries) > self._capacity:
            evicted_key, (evicted_value, _) = self._entries.popitem(last=False)
            self._park_stale(evicted_key, evicted_value)
            self._evictions.increment()

    def _sweep_expired(self) -> None:
        """Unlocked: drop every expired entry, counting expirations."""
        if self._ttl is None or not self._entries:
            return
        now = self._clock()
        expired = [
            key
            for key, (_, expires_at) in self._entries.items()
            if expires_at is not None and now >= expires_at
        ]
        for key in expired:
            value, _ = self._entries.pop(key)
            self._park_stale(key, value)
        if expired:
            self._expirations.increment(len(expired))

    def __contains__(self, key: str) -> bool:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return False
            value, expires_at = entry
            if expires_at is not None and self._clock() >= expires_at:
                # Sweep eagerly so the dead entry stops occupying a
                # slot; attributed as an expiration, like any TTL lapse.
                del self._entries[key]
                self._park_stale(key, value)
                self._expirations.increment()
                return False
            return True

    def __len__(self) -> int:
        """Live entries only — expired-but-unswept ones are dropped."""
        with self._lock:
            self._sweep_expired()
            return len(self._entries)

    def peek_stale(
        self, key: str, usable: Callable[[Any], bool]
    ) -> tuple[Literal["fresh", "stale"], Any] | None:
        """Read-only probe used by the service's degraded path.

        Returns ``("fresh", value)`` for a live entry (without
        promoting it or counting a hit), ``("stale", value)`` for an
        entry the TTL or LRU pressure already dropped (counted as
        ``stale_served``), and ``None`` when the key was never cached,
        its stale copy has itself been displaced, or ``usable(value)``
        is false: a value the caller cannot serve is not counted.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                value, expires_at = entry
                if expires_at is None or self._clock() < expires_at:
                    return ("fresh", value) if usable(value) else None
                # Expired but unswept: park it so the live slot frees
                # up, and account the TTL lapse.
                del self._entries[key]
                self._park_stale(key, value)
                self._expirations.increment()
            else:
                value = self._stale.get(key)
                if value is None:
                    return None
            if not usable(value):
                return None
            self._stale_served.increment()
            return "stale", value

    def items(self) -> list[tuple[str, Any]]:
        """Point-in-time snapshot of live entries (LRU → MRU order).

        Expired entries are swept first, so persistence never archives
        a value a lookup would refuse to serve.
        """
        with self._lock:
            self._sweep_expired()
            return [(key, value) for key, (value, _) in self._entries.items()]

    # ------------------------------------------------------------------
    # Stampede guard
    # ------------------------------------------------------------------

    def get_or_join(
        self, key: str
    ) -> tuple[Literal["hit", "leader", "follower"], Any]:
        """Classify a lookup for callers that manage their own waiting.

        Returns one of:

        * ``("hit", value)`` — a live entry existed.
        * ``("leader", future)`` — no entry and no computation in
          flight; the caller MUST compute the value and finish with
          :meth:`fulfill` (or :meth:`abandon` on failure), else
          followers wait forever.
        * ``("follower", future)`` — another thread is computing;
          wait on the future (with any timeout policy) for the value.
        """
        with self._lock:
            value = self._lookup(key)
            if value is not None:
                self._hits.increment()
                return "hit", value
            future = self._inflight.get(key)
            if future is not None:
                self._coalesced.increment()
                return "follower", future
            self._misses.increment()
            future = Future()
            self._inflight[key] = future
            return "leader", future

    def fulfill(self, key: str, value: Any) -> None:
        """Leader path: store the computed value and wake followers."""
        with self._lock:
            self._store(key, value)
            future = self._inflight.pop(key, None)
        if future is not None:
            future.set_result(value)

    def abandon(self, key: str, error: BaseException | None = None) -> None:
        """Leader path: computation failed; propagate to followers.

        Nothing is cached. Followers waiting on the future receive
        ``error`` (or a :class:`ServiceError` when none is given).
        """
        with self._lock:
            future = self._inflight.pop(key, None)
        if future is not None:
            future.set_exception(
                error
                if error is not None
                else ServiceError(f"computation for {key!r} was abandoned")
            )

    def get_or_compute(self, key: str, factory: Callable[[], Any]) -> Any:
        """Synchronous convenience: hit, or compute-once-per-key.

        Concurrent callers for the same key block until the single
        leader's ``factory()`` finishes; a failing factory propagates
        its exception to every waiter and caches nothing.
        """
        status, payload = self.get_or_join(key)
        if status == "hit":
            return payload
        if status == "follower":
            return payload.result()
        try:
            value = factory()
        except BaseException as error:
            self.abandon(key, error)
            raise
        self.fulfill(key, value)
        return value

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> CacheStats:
        """Current counters as an immutable snapshot (live size only)."""
        with self._lock:
            self._sweep_expired()
            return CacheStats(
                hits=self._hits.value,
                misses=self._misses.value,
                coalesced=self._coalesced.value,
                evictions=self._evictions.value,
                expirations=self._expirations.value,
                size=len(self._entries),
                capacity=self._capacity,
                stale_served=self._stale_served.value,
                stale_size=len(self._stale),
            )

    def clear(self) -> None:
        """Drop all entries, stale tier included (counters preserved)."""
        with self._lock:
            self._entries.clear()
            self._stale.clear()

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"PlanCache(size={stats.size}/{stats.capacity}, "
            f"hits={stats.hits}, misses={stats.misses})"
        )
