"""Nested spans with wall-clock and CPU timings.

A :class:`Tracer` records trees of :class:`Span` objects: ``span()`` is
a context manager, spans opened while another span is active on the
same thread become its children, and completed *root* spans are kept in
a bounded ring so a long-lived service never grows without bound.

The active-span stack is thread-local, so concurrent requests (e.g. the
plan service's worker pool) each build their own tree without locking
against one another; only the finished-root ring is shared.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator

__all__ = ["Span", "Tracer", "render_span_tree"]

#: Completed root spans retained by default. Old roots are evicted
#: FIFO; per-request tracing on a busy service stays bounded.
DEFAULT_SPAN_CAPACITY = 256


class Span:
    """One timed operation, possibly with child spans.

    Attributes:
        name: operation label, e.g. ``"optimize:DPccp"``.
        attributes: free-form key → value annotations; call sites may
            add entries while the span is open (``outcome="hit"``).
        children: spans opened (on the same thread) while this one was
            active.
        wall_seconds / cpu_seconds: durations, populated on close.
            ``cpu_seconds`` is CPU of the span's own thread, so a span
            that blocks on another thread's work is not charged for it.
    """

    __slots__ = (
        "name",
        "attributes",
        "children",
        "wall_seconds",
        "cpu_seconds",
        "_started_wall",
        "_started_cpu",
    )

    def __init__(self, name: str, attributes: dict | None = None) -> None:
        self.name = name
        self.attributes: dict = attributes or {}
        self.children: list[Span] = []
        self.wall_seconds: float = 0.0
        self.cpu_seconds: float = 0.0
        self._started_wall = time.perf_counter()
        self._started_cpu = time.thread_time()

    def _close(self) -> None:
        self.wall_seconds = time.perf_counter() - self._started_wall
        self.cpu_seconds = time.thread_time() - self._started_cpu

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def as_dict(self) -> dict:
        """JSON-ready view of the span tree rooted here."""
        return {
            "name": self.name,
            "wall_ms": self.wall_seconds * 1000.0,
            "cpu_ms": self.cpu_seconds * 1000.0,
            "attributes": dict(self.attributes),
            "children": [child.as_dict() for child in self.children],
        }

    def __repr__(self) -> str:
        return f"Span({self.name!r}, wall={self.wall_seconds * 1000:.2f}ms)"


class Tracer:
    """Builds span trees per thread and retains completed roots."""

    def __init__(self, capacity: int = DEFAULT_SPAN_CAPACITY) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._roots: list[Span] = []
        self._capacity = capacity

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attributes) -> Iterator[Span]:
        """Open a span; nests under the thread's active span, if any."""
        span = Span(name, attributes)
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            span._close()
            stack.pop()
            if not stack:
                self._keep_root(span)

    def _keep_root(self, span: Span) -> None:
        with self._lock:
            self._roots.append(span)
            if len(self._roots) > self._capacity:
                del self._roots[: len(self._roots) - self._capacity]

    def roots(self, name: str | None = None) -> list[Span]:
        """Completed root spans, oldest first; optionally filtered by name."""
        with self._lock:
            roots = list(self._roots)
        if name is not None:
            roots = [root for root in roots if root.name == name]
        return roots

    def last_root(self) -> Span | None:
        """The most recently completed root span, or ``None``."""
        with self._lock:
            return self._roots[-1] if self._roots else None

    def clear(self) -> None:
        """Drop all retained root spans."""
        with self._lock:
            self._roots.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._roots)

    def __repr__(self) -> str:
        return f"Tracer({len(self)} completed roots)"


def render_span_tree(span: Span) -> str:
    """Render one span tree as an indented monospace listing."""
    lines: list[str] = []

    def visit(node: Span, depth: int) -> None:
        attributes = ", ".join(
            f"{key}={value}" for key, value in node.attributes.items()
        )
        suffix = f"  [{attributes}]" if attributes else ""
        lines.append(
            f"{'  ' * depth}{node.name}  "
            f"wall={node.wall_seconds * 1000:.3f}ms "
            f"cpu={node.cpu_seconds * 1000:.3f}ms{suffix}"
        )
        for child in node.children:
            visit(child, depth + 1)

    visit(span, 0)
    return "\n".join(lines)
