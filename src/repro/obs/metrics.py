"""Dependency-free metrics: counters, gauges, and histograms with labels.

The serving and fitting pipelines need to answer operational questions —
"how long does each layer's scoring take", "how often does the
circuit breaker open", "where does a fit spend its time" — without pulling
a metrics client into a numpy-only reproduction. This module provides the
minimum viable, thread-safe subset of the Prometheus data model:

* :class:`Counter` — a monotonically non-decreasing total (``inc``);
* :class:`Gauge` — a value that goes both ways (``set``/``inc``/``dec``);
* :class:`Histogram` — observations bucketed against **fixed** boundaries,
  plus running ``sum`` and ``count``. Fixed boundaries make histograms
  mergeable: :meth:`Histogram.merge` is exact on counts, and the test
  suite pins bucket monotonicity, sum/count consistency, and merge
  associativity as hypothesis properties.

Metrics are created through a :class:`MetricsRegistry` as *families*
(name + help + declared label names); concrete time series are materialised
lazily via :meth:`MetricFamily.labels`, so a registry snapshot contains
exactly the series that were actually touched — never a phantom zero.
Exporters: :meth:`MetricsRegistry.render_prometheus` (text exposition
format) and :meth:`MetricsRegistry.snapshot` / ``render_json`` (JSON).

All mutation is guarded by a per-registry lock; looking up a family or a
series that already exists is one unlocked dict hit, and only creation
takes the lock (families and series, once installed, are never replaced).
The hot-path kill switch
lives one level up in :mod:`repro.obs` — this module is always "on"; it is
the accessor functions in the package root that hand out null objects when
``REPRO_OBS=0``.
"""

from __future__ import annotations

import json
import math
import threading
from bisect import bisect_left
from typing import Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
]

#: Default histogram boundaries (seconds), tuned for the validation stack:
#: sub-millisecond packed GEMMs up to multi-second fits. Upper-inclusive
#: (``value <= bound``), with an implicit +Inf bucket at the end.
DEFAULT_TIME_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


def _format_value(value: float) -> str:
    """Prometheus-style number rendering: integers without a trailing .0."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _format_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{labels[key]}"' for key in labels)
    return "{" + inner + "}"


class Counter:
    """A monotonically non-decreasing total for one label combination."""

    kind = "counter"

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counters only go up; cannot inc by {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _snapshot(self) -> dict:
        return {"value": self.value}


class Gauge:
    """A point-in-time value for one label combination."""

    kind = "gauge"

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (default 1) to the gauge."""
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` (default 1) from the gauge."""
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _snapshot(self) -> dict:
        return {"value": self.value}


class Histogram:
    """Fixed-boundary histogram: per-bucket counts plus running sum/count.

    ``bounds`` are the **upper-inclusive** finite bucket edges in strictly
    increasing order; an implicit +Inf bucket catches everything above the
    last edge, so ``bucket_counts`` has ``len(bounds) + 1`` entries and
    always sums to ``count``. Because the boundaries are fixed at creation,
    two histograms over the same boundaries merge exactly
    (:meth:`merge`) — the invariant that makes per-process histograms
    aggregatable across workers.
    """

    kind = "histogram"

    def __init__(
        self,
        lock: threading.RLock | None = None,
        bounds: Iterable[float] = DEFAULT_TIME_BUCKETS,
    ) -> None:
        self._lock = lock if lock is not None else threading.RLock()
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("a histogram needs at least one bucket boundary")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must strictly increase: {bounds}")
        if any(not math.isfinite(b) for b in bounds):
            raise ValueError(f"bucket bounds must be finite: {bounds}")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation (NaN lands in the +Inf bucket)."""
        value = float(value)
        if value == value:
            position = bisect_left(self.bounds, value)  # first bound >= value
        else:  # NaN compares false against every bound: +Inf
            position = len(self.bounds)
        with self._lock:
            self.bucket_counts[position] += 1
            self.sum += value
            self.count += 1

    def cumulative_counts(self) -> list[int]:
        """Prometheus-style cumulative counts, one per bound plus +Inf."""
        with self._lock:
            counts = list(self.bucket_counts)
        total = 0
        out = []
        for count in counts:
            total += count
            out.append(total)
        return out

    def merge(self, other: "Histogram") -> "Histogram":
        """A new histogram holding both operands' observations.

        Requires identical boundaries; counts merge exactly, sums by float
        addition. Merging is commutative and (over integer-valued
        observations) associative — pinned by the hypothesis suite.
        """
        if self.bounds != other.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{self.bounds} vs {other.bounds}"
            )
        merged = Histogram(bounds=self.bounds)
        with self._lock:
            mine = list(self.bucket_counts)
            my_sum, my_count = self.sum, self.count
        with other._lock:
            theirs = list(other.bucket_counts)
            their_sum, their_count = other.sum, other.count
        merged.bucket_counts = [a + b for a, b in zip(mine, theirs)]
        merged.sum = my_sum + their_sum
        merged.count = my_count + their_count
        return merged

    def _snapshot(self) -> dict:
        with self._lock:
            buckets = {
                _format_value(bound): count
                for bound, count in zip(
                    list(self.bounds) + [math.inf], self.cumulative_counts()
                )
            }
            return {"count": self.count, "sum": self.sum, "buckets": buckets}


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric: declared label names plus lazily-created series.

    A family with no declared labels exposes the metric interface directly
    (``inc``/``set``/``observe`` delegate to its single unlabeled child), so
    call sites read naturally either way::

        registry.counter("fits_total").inc()
        registry.counter("verdicts_total", labels=("status",)).labels(
            status="FLAGGED").inc()
    """

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        label_names: tuple[str, ...],
        lock: threading.RLock,
        bounds: tuple[float, ...] | None = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = label_names
        self._lock = lock
        self._bounds = bounds
        self._children: dict[tuple[str, ...], object] = {}
        # Call-site ``labels(**kw)`` items -> series: the lock-free fast
        # path. Only validated, str-valued combinations are inserted.
        self._by_items: dict[tuple, object] = {}

    def labels(self, **labels: str) -> Counter | Gauge | Histogram:
        """The concrete series for one label-value combination."""
        items = tuple(labels.items())
        try:
            child = self._by_items.get(items)
        except TypeError:  # an unhashable label value: take the slow path
            child = None
        if child is not None:
            return child
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} declares labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                if self.kind == "histogram":
                    child = Histogram(self._lock, bounds=self._bounds)
                else:
                    child = _KINDS[self.kind](self._lock)
                self._children[key] = child
            if all(type(value) is str for value in labels.values()):
                # Only str-valued calls take the fast path, so a hit can
                # never alias values that stringify apart (1, 1.0, True).
                self._by_items[items] = child
            return child

    def _default_child(self):
        if self.label_names:
            raise ValueError(
                f"metric {self.name!r} declares labels {self.label_names}; "
                "use .labels(...) to pick a series"
            )
        return self.labels()

    # -- unlabeled conveniences -------------------------------------------------

    def inc(self, amount: float = 1.0) -> None:
        """``inc`` on the single series of an unlabeled family."""
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        """``dec`` on the single series of an unlabeled family."""
        self._default_child().dec(amount)

    def set(self, value: float) -> None:
        """``set`` on the single series of an unlabeled family."""
        self._default_child().set(value)

    def observe(self, value: float) -> None:
        """``observe`` on the single series of an unlabeled family."""
        self._default_child().observe(value)

    @property
    def value(self) -> float:
        return self._default_child().value

    # -- introspection ----------------------------------------------------------

    def series(self) -> list[tuple[dict[str, str], object]]:
        """Every materialised ``(labels, series)`` pair, label-sorted."""
        with self._lock:
            items = sorted(self._children.items())
        return [
            (dict(zip(self.label_names, key)), child) for key, child in items
        ]

    def _snapshot(self) -> dict:
        return {
            "type": self.kind,
            "help": self.help,
            "labels": list(self.label_names),
            "series": [
                {"labels": labels, **child._snapshot()}
                for labels, child in self.series()
            ],
        }


class MetricsRegistry:
    """A process-wide (or test-scoped) collection of metric families.

    ``counter``/``gauge``/``histogram`` get-or-create families by name;
    re-registering the same name with a different kind, label set, or
    bucket boundaries raises, so two call sites can never silently split
    one metric into incompatible series.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: dict[str, MetricFamily] = {}

    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        labels: tuple[str, ...],
        bounds: Iterable[float] | None = None,
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    if bounds is not None:
                        bounds = tuple(float(b) for b in bounds)
                    family = MetricFamily(
                        name, kind, help, tuple(labels), self._lock, bounds
                    )
                    self._families[name] = family
                    return family
        if family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {family.kind}, "
                f"cannot re-register as a {kind}"
            )
        if family.label_names != tuple(labels):
            raise ValueError(
                f"metric {name!r} already declares labels {family.label_names}, "
                f"cannot re-register with {tuple(labels)}"
            )
        if kind == "histogram" and bounds is not None:
            # Call sites pass the same bounds tuple every time: ``tuple`` of
            # a tuple is the tuple itself, and the comparison is elementwise.
            bounds = tuple(bounds)
            if family._bounds != bounds:
                raise ValueError(
                    f"histogram {name!r} already uses bounds {family._bounds}, "
                    f"cannot re-register with {bounds}"
                )
        return family

    def counter(
        self, name: str, help: str = "", labels: tuple[str, ...] = ()
    ) -> MetricFamily:
        """Get or register the counter family ``name`` (idempotent)."""
        return self._family(name, "counter", help, labels)

    def gauge(
        self, name: str, help: str = "", labels: tuple[str, ...] = ()
    ) -> MetricFamily:
        """Get or register the gauge family ``name`` (idempotent)."""
        return self._family(name, "gauge", help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: tuple[str, ...] = (),
        bounds: Iterable[float] = DEFAULT_TIME_BUCKETS,
    ) -> MetricFamily:
        """Get or register the histogram family ``name`` (idempotent)."""
        return self._family(name, "histogram", help, labels, bounds)

    def families(self) -> list[MetricFamily]:
        """Registered families, name-sorted."""
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def reset(self) -> None:
        """Drop every family and series (tests and fresh serving epochs)."""
        with self._lock:
            self._families.clear()

    # -- exporters --------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready view of every *touched* series, deterministic order."""
        return {family.name: family._snapshot() for family in self.families()}

    def render_json(self, indent: int | None = None) -> str:
        """The :meth:`snapshot` serialised to a JSON string, key-sorted."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def render_prometheus(self) -> str:
        """Prometheus text exposition of every touched series."""
        lines: list[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for labels, child in family.series():
                if family.kind == "histogram":
                    cumulative = child.cumulative_counts()
                    edges = list(child.bounds) + [math.inf]
                    for bound, total in zip(edges, cumulative):
                        bucket_labels = dict(labels)
                        bucket_labels["le"] = _format_value(bound)
                        lines.append(
                            f"{family.name}_bucket"
                            f"{_format_labels(bucket_labels)} {total}"
                        )
                    lines.append(
                        f"{family.name}_sum{_format_labels(labels)} "
                        f"{_format_value(child.sum)}"
                    )
                    lines.append(
                        f"{family.name}_count{_format_labels(labels)} {child.count}"
                    )
                else:
                    lines.append(
                        f"{family.name}{_format_labels(labels)} "
                        f"{_format_value(child.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")
