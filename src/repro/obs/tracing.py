"""Deterministic, dependency-free tracing: spans, a tracer, an exporter.

A :class:`Span` is one timed, named unit of work with attributes; a
:class:`Tracer` nests spans per thread (child spans opened inside a parent's
``with`` block record that parent), times them against an **injectable
monotonic clock**, and hands finished spans to an exporter. The default
:class:`InMemorySpanExporter` keeps everything in memory in finish order
and can render the parent/child structure as a tree — which is what makes
golden-trace testing possible: run a pipeline under a :class:`ManualClock`,
compare ``exporter.format_tree()`` against a pinned literal, and the
instrumentation itself is under test, not just the code it watches.

Span identifiers are small sequential integers assigned per tracer, so two
runs of the same deterministic pipeline produce byte-identical trace trees.
Nothing here consults the ``REPRO_OBS`` kill switch — that gate lives in
:mod:`repro.obs`, which hands out a no-op span context when disabled.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = [
    "Span",
    "Tracer",
    "InMemorySpanExporter",
    "ManualClock",
]


class ManualClock:
    """A monotonic clock driven entirely by explicit :meth:`advance` calls.

    Injected into tracers (and fake-clock-aware fault injectors like
    :func:`repro.testing.faults.slow_layer`) so latency-shaped behaviour is
    exactly reproducible: a test decides how much time every operation
    "took".
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> float:
        """Move the clock forward; returns the new time."""
        if seconds < 0:
            raise ValueError(f"a monotonic clock cannot go back {seconds}s")
        with self._lock:
            self._now += seconds
            return self._now


@dataclass
class Span:
    """One timed unit of work. ``end`` is ``None`` until the span closes."""

    name: str
    span_id: int
    parent_id: int | None
    start: float
    attributes: dict[str, Any] = field(default_factory=dict)
    end: float | None = None
    status: str = "ok"

    @property
    def duration(self) -> float:
        """Wall-clock seconds from start to end (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def set(self, **attributes: Any) -> "Span":
        """Attach attributes to an open span; returns self for chaining."""
        self.attributes.update(attributes)
        return self


class InMemorySpanExporter:
    """Collects finished spans (finish order) and reconstructs their tree.

    ``maxlen`` bounds retention to the most recent ``maxlen`` spans (a
    ring: the oldest finished span is dropped first); the default,
    ``None``, keeps every span, which is what golden-trace tests and
    whole-run trace dumps need.
    """

    def __init__(self, maxlen: int | None = None) -> None:
        self._lock = threading.Lock()
        self._spans: deque[Span] = deque(maxlen=maxlen)

    def export(self, span: Span) -> None:
        """Record a finished span (called by the tracer, finish order)."""
        with self._lock:
            self._spans.append(span)

    @property
    def spans(self) -> list[Span]:
        """Finished spans in finish order (children before parents)."""
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        """Forget every collected span."""
        with self._lock:
            self._spans.clear()

    def find(self, name: str) -> list[Span]:
        """Finished spans with the given name, in finish order."""
        return [span for span in self.spans if span.name == name]

    def tree(self) -> list[tuple[Span, list]]:
        """Root spans (start order) as ``(span, children)`` recursively."""
        spans = sorted(self.spans, key=lambda s: s.span_id)
        children: dict[int | None, list[Span]] = {}
        for span in spans:
            children.setdefault(span.parent_id, []).append(span)
        known = {span.span_id for span in spans}

        def build(span: Span) -> tuple[Span, list]:
            return (span, [build(child) for child in children.get(span.span_id, [])])

        # A span whose parent never finished (or was never exported) is a
        # root for rendering purposes — the tree must not silently drop it.
        roots = [
            span
            for span in spans
            if span.parent_id is None or span.parent_id not in known
        ]
        return [build(root) for root in roots]

    def format_tree(self, attributes: bool = False) -> str:
        """Indented text rendering of the span tree (golden-test friendly).

        One line per span, two spaces of indent per nesting level; with
        ``attributes=True`` each line appends the span's attribute dict in
        sorted-key order.
        """
        lines: list[str] = []

        def walk(node: tuple[Span, list], depth: int) -> None:
            span, children = node
            suffix = ""
            if attributes and span.attributes:
                inner = ", ".join(
                    f"{key}={span.attributes[key]!r}"
                    for key in sorted(span.attributes)
                )
                suffix = f" [{inner}]"
            lines.append("  " * depth + span.name + suffix)
            for child in children:
                walk(child, depth + 1)

        for root in self.tree():
            walk(root, 0)
        return "\n".join(lines)


class Tracer:
    """Creates nested spans against an injectable clock.

    Parameters
    ----------
    clock:
        A zero-argument monotonic time source (default ``time.monotonic``;
        tests inject :class:`ManualClock`).
    exporter:
        Receives each span as it finishes; defaults to a fresh
        :class:`InMemorySpanExporter`.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.monotonic,
        exporter: InMemorySpanExporter | None = None,
    ) -> None:
        self.clock = clock
        self.exporter = exporter if exporter is not None else InMemorySpanExporter()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    @property
    def current(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def span(self, name: str, **attributes: Any) -> "_SpanContext":
        """Open a child span of the current span for the enclosed block.

        The span opens on entry and closes (and exports) on exit; an
        escaping exception marks ``status`` with the exception type and
        propagates.
        """
        return _SpanContext(self, name, attributes)


class _SpanContext:
    """The context manager :meth:`Tracer.span` returns.

    A plain ``__enter__``/``__exit__`` pair rather than a
    ``@contextmanager`` generator: spans open on every scoring call, and a
    generator frame per span costs several times the span itself.
    """

    __slots__ = ("_tracer", "_name", "_attributes", "_span", "_stack")

    def __init__(self, tracer: Tracer, name: str, attributes: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._attributes = attributes

    def __enter__(self) -> Span:
        tracer = self._tracer
        stack = tracer._stack()
        span = Span(
            self._name,
            next(tracer._ids),
            stack[-1].span_id if stack else None,
            tracer.clock(),
            self._attributes,
        )
        stack.append(span)
        self._span = span
        self._stack = stack
        return span

    def __exit__(self, exc_type, exc, traceback) -> bool:
        span = self._span
        if exc_type is not None:
            span.status = f"error:{exc_type.__name__}"
        span.end = self._tracer.clock()
        self._stack.pop()
        self._tracer.exporter.export(span)
        return False
