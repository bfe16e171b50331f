"""Observability for the validation stack: metrics and tracing.

This package is the single seam every instrumented hot path goes through:

* :mod:`repro.obs.metrics` — thread-safe Counter/Gauge/Histogram families
  in a :class:`MetricsRegistry`, with Prometheus-text and JSON exporters;
* :mod:`repro.obs.tracing` — :class:`Span`/:class:`Tracer` with an
  injectable monotonic clock and a deterministic in-memory exporter.

Pipeline stages are timed by their spans (``fit.extract``,
``fit.solve_tasks``, ...); a hot section that needs a histogram rather
than a span wraps itself in :func:`timed`.

Call sites use the module-level helpers, which bind to the *current*
process-wide registry and tracer::

    from repro import obs

    obs.counter("engine_layer_failures_total", labels=("layer",)).labels(
        layer="conv1").inc()
    with obs.span("monitor.classify", batch=len(images)):
        ...

**Kill switch.** Setting ``REPRO_OBS=0`` in the environment turns every
helper into a no-op: ``counter``/``gauge``/``histogram`` hand back a shared
null metric, ``span``/``timed`` a shared null context. Nothing is
recorded, no clock is read, and the instrumented code's numeric outputs are
bit-identical to the instrumented run (pinned by the golden-trace suite in
``tests/test_obs_integration.py``). The flag is read once and cached;
:func:`set_enabled` overrides it at runtime (``None`` re-reads the
environment).

**Bounded retention.** The process-global tracer keeps only the most
recent :data:`GLOBAL_SPAN_LIMIT` spans (a ring), so a long-running server
does not grow with every scored batch. A :class:`Tracer` built by hand
keeps every span unless its exporter is given a ``maxlen``: golden-trace
tests and whole-run trace dumps read all of them.

**Test isolation.** :func:`use` swaps in a scoped registry/tracer (and
optionally forces the switch) for a ``with`` block, so golden-trace tests
observe exactly their own pipeline under a
:class:`~repro.obs.tracing.ManualClock`.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Any, Iterator

from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from repro.obs.tracing import InMemorySpanExporter, ManualClock, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "Span",
    "Tracer",
    "InMemorySpanExporter",
    "ManualClock",
    "enabled",
    "set_enabled",
    "get_registry",
    "set_registry",
    "get_tracer",
    "set_tracer",
    "use",
    "counter",
    "gauge",
    "histogram",
    "span",
    "timed",
    "ENV_SWITCH",
    "GLOBAL_SPAN_LIMIT",
]

#: Environment variable that disables every observability hook when "0".
ENV_SWITCH = "REPRO_OBS"

#: Spans the process-global tracer retains (most recent first to survive).
#: A batch-8 ``monitor.classify`` emits 9 spans and a validator refit about
#: 110, so this holds the last couple of hundred scoring calls.
GLOBAL_SPAN_LIMIT = 2048

_lock = threading.RLock()
_state: dict[str, Any] = {
    "enabled": None,  # None = not yet read from the environment
    "registry": MetricsRegistry(),
    "tracer": Tracer(exporter=InMemorySpanExporter(maxlen=GLOBAL_SPAN_LIMIT)),
}


# -- the kill switch -----------------------------------------------------------


def enabled() -> bool:
    """Whether observability hooks are live (``REPRO_OBS`` != ``"0"``)."""
    value = _state["enabled"]
    if value is None:
        value = os.environ.get(ENV_SWITCH, "1").strip() != "0"
        _state["enabled"] = value
    return value


def set_enabled(value: bool | None) -> None:
    """Force the switch on/off, or ``None`` to re-read the environment."""
    _state["enabled"] = value


# -- current registry / tracer -------------------------------------------------


def get_registry() -> MetricsRegistry:
    """The registry all module-level metric helpers bind to."""
    return _state["registry"]


def set_registry(registry: MetricsRegistry) -> None:
    """Install ``registry`` as the process-global metrics sink."""
    _state["registry"] = registry


def get_tracer() -> Tracer:
    """The tracer all module-level span helpers bind to."""
    return _state["tracer"]


def set_tracer(tracer: Tracer) -> None:
    """Install ``tracer`` as the process-global span emitter."""
    _state["tracer"] = tracer


@contextmanager
def use(
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    enabled: bool | None = None,
) -> Iterator[tuple[MetricsRegistry, Tracer]]:
    """Scope the process-wide registry/tracer (and switch) to a block.

    Any argument left ``None`` keeps the current object; the previous
    configuration is restored on exit even if the block raises. Yields the
    ``(registry, tracer)`` pair in effect inside the block.
    """
    with _lock:
        previous = dict(_state)
        if registry is not None:
            _state["registry"] = registry
        if tracer is not None:
            _state["tracer"] = tracer
        if enabled is not None:
            _state["enabled"] = enabled
    try:
        yield _state["registry"], _state["tracer"]
    finally:
        with _lock:
            _state.update(previous)


# -- null objects for the disabled path ----------------------------------------


class _NullMetric:
    """Absorbs every metric call; handed out when observability is off."""

    def labels(self, **labels: str) -> "_NullMetric":
        return self

    def inc(self, amount: float = 1.0) -> None:
        return None

    def dec(self, amount: float = 1.0) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None

    @property
    def value(self) -> float:
        return 0.0


class _NullSpan:
    """The span stand-in yielded by :func:`span` when observability is off."""

    name = ""
    attributes: dict[str, Any] = {}

    def set(self, **attributes: Any) -> "_NullSpan":
        return self


class _NullSpanContext:
    """Reusable, reentrant no-op span context (shared singleton)."""

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_METRIC = _NullMetric()
_NULL_SPAN = _NullSpan()
_NULL_SPAN_CONTEXT = _NullSpanContext()


# -- instrumentation helpers ---------------------------------------------------


def counter(name: str, help: str = "", labels: tuple[str, ...] = ()):
    """The named counter family on the current registry (null when off)."""
    if not enabled():
        return _NULL_METRIC
    return get_registry().counter(name, help=help, labels=labels)


def gauge(name: str, help: str = "", labels: tuple[str, ...] = ()):
    """The named gauge family on the current registry (null when off)."""
    if not enabled():
        return _NULL_METRIC
    return get_registry().gauge(name, help=help, labels=labels)


def histogram(
    name: str,
    help: str = "",
    labels: tuple[str, ...] = (),
    bounds=DEFAULT_TIME_BUCKETS,
):
    """The named histogram family on the current registry (null when off)."""
    if not enabled():
        return _NULL_METRIC
    return get_registry().histogram(name, help=help, labels=labels, bounds=bounds)


def span(name: str, **attributes: Any):
    """A span context on the current tracer (shared no-op when off)."""
    if not enabled():
        return _NULL_SPAN_CONTEXT
    return get_tracer().span(name, **attributes)


class _Timed:
    """Observes the tracer-clock duration of a ``with`` block into a series.

    A plain class, not a ``@contextmanager`` generator, for the same reason
    as :meth:`Tracer.span`: it wraps every per-layer scoring call.
    """

    __slots__ = ("_series", "_read", "_start")

    def __init__(self, series) -> None:
        self._series = series
        self._read = _state["tracer"].clock

    def __enter__(self) -> None:
        self._start = self._read()

    def __exit__(self, *exc_info) -> bool:
        self._series.observe(self._read() - self._start)
        return False


def timed(series):
    """Context manager observing the block's tracer-clock duration into
    ``series`` (a histogram child); a shared no-op context when disabled."""
    if not enabled():
        return _NULL_SPAN_CONTEXT
    return _Timed(series)
