"""Fault-tolerance primitives for the planning pool and service.

The parallel stack runs exact DP enumeration on worker *processes*,
and processes die: the kernel OOM-kills a worker deep inside a
``O(3^n)`` clique, a segfault takes one down, an operator SIGKILLs a
runaway container. ``concurrent.futures`` answers every one of those
with :class:`~concurrent.futures.process.BrokenProcessPool` — and a
broken executor stays broken forever. This module holds the two
policy objects the rest of the stack composes to survive that:

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  (downward) jitter, deadline-aware: a retry loop never sleeps past
  the remaining request budget.
* :class:`CircuitBreaker` — the classic three-state machine
  (``closed`` → ``open`` after K *consecutive* faults → ``half_open``
  probe after a cooldown). :class:`~repro.service.PlanService`
  consults it before touching the process pool so a persistently
  broken pool degrades to in-process sequential planning instead of
  paying a respawn-and-fail cycle per request.

Both are deliberately dependency-free (stdlib + obs counters only) so
they can be used by any layer without import cycles.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.errors import OptimizerError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.instrumentation import Instrumentation

__all__ = ["RetryPolicy", "CircuitBreaker", "BREAKER_STATES"]

#: The breaker's state names, in escalation order.
BREAKER_STATES = ("closed", "open", "half_open")


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Bounded exponential backoff with downward jitter.

    Attributes:
        max_retries: re-submissions after the first attempt; ``0``
            disables retrying (one attempt, fail fast).
        backoff_seconds: delay before the first retry.
        backoff_multiplier: growth factor per subsequent retry.
        max_backoff_seconds: ceiling on any single delay.
        jitter_fraction: each delay is scaled into
            ``[delay * (1 - jitter_fraction), delay]`` uniformly at
            random, decorrelating the retry storms of requests that
            faulted together (they all observed the same pool death).
    """

    max_retries: int = 2
    backoff_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    max_backoff_seconds: float = 2.0
    jitter_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise OptimizerError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_seconds < 0:
            raise OptimizerError(
                f"backoff_seconds must be >= 0, got {self.backoff_seconds}"
            )
        if self.backoff_multiplier < 1.0:
            raise OptimizerError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise OptimizerError(
                f"jitter_fraction must be in [0, 1], got {self.jitter_fraction}"
            )

    def delay_seconds(self, attempt: int, rng: random.Random) -> float:
        """The backoff before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise OptimizerError(f"attempt must be >= 1, got {attempt}")
        delay = min(
            self.max_backoff_seconds,
            self.backoff_seconds * self.backoff_multiplier ** (attempt - 1),
        )
        if self.jitter_fraction > 0.0:
            delay *= 1.0 - self.jitter_fraction * rng.random()
        return delay


class CircuitBreaker:
    """Three-state circuit breaker over consecutive fault counts.

    Args:
        threshold: consecutive failures that trip ``closed`` → ``open``.
        cooldown_seconds: how long ``open`` rejects before one
            ``half_open`` probe is allowed through.
        clock: monotonic time source, injectable for tests.
        instrumentation: optional obs context; state transitions are
            counted as ``<name>.state.<new-state>`` and rejected
            admissions as ``<name>.rejections``.
        name: counter namespace prefix (default ``breaker``).

    Protocol: call :meth:`allow` before risky work — ``False`` means
    take the degraded path *without* touching the protected resource.
    After work admitted by ``allow()``, report :meth:`record_success`
    or :meth:`record_failure`. A half-open probe's success closes the
    breaker; its failure re-opens it with a fresh cooldown.
    """

    def __init__(
        self,
        threshold: int = 3,
        cooldown_seconds: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        instrumentation: "Instrumentation | None" = None,
        name: str = "breaker",
    ) -> None:
        if threshold < 1:
            raise OptimizerError(f"threshold must be >= 1, got {threshold}")
        if cooldown_seconds <= 0:
            raise OptimizerError(
                f"cooldown_seconds must be positive, got {cooldown_seconds}"
            )
        self._threshold = threshold
        self._cooldown = cooldown_seconds
        self._clock = clock
        self._obs = instrumentation
        self._name = name
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def state(self) -> str:
        """Current state: ``closed``, ``open`` or ``half_open``."""
        with self._lock:
            return self._state

    @property
    def threshold(self) -> int:
        """Consecutive faults that trip the breaker."""
        return self._threshold

    @property
    def cooldown_seconds(self) -> float:
        """Open-state cooldown before a half-open probe."""
        return self._cooldown

    # ------------------------------------------------------------------
    # The state machine
    # ------------------------------------------------------------------

    def _transition(self, state: str) -> None:
        """Unlocked: move to ``state``, counting the transition."""
        if self._state == state:
            return
        self._state = state
        if self._obs is not None:
            self._obs.count(f"{self._name}.state.{state}")

    def allow(self) -> bool:
        """Admit work? ``closed`` yes; ``open`` only after the cooldown
        (and then exactly one probe at a time, in ``half_open``)."""
        with self._lock:
            if self._state == "closed":
                return True
            if (
                self._state == "open"
                and self._clock() - self._opened_at >= self._cooldown
            ):
                self._transition("half_open")
                return True
            # Open within its cooldown, or a half-open probe already in
            # flight: reject so the caller takes the degraded path.
            if self._obs is not None:
                self._obs.count(f"{self._name}.rejections")
            return False

    def record_success(self) -> None:
        """Admitted work succeeded: reset faults, close the breaker."""
        with self._lock:
            self._consecutive_failures = 0
            self._transition("closed")

    def record_failure(self) -> None:
        """Admitted work faulted: trip on threshold or a failed probe."""
        with self._lock:
            self._consecutive_failures += 1
            if (
                self._state == "half_open"
                or self._consecutive_failures >= self._threshold
            ):
                self._opened_at = self._clock()
                self._transition("open")

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker(state={self.state!r}, "
            f"threshold={self._threshold}, cooldown={self._cooldown:g}s)"
        )
