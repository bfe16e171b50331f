"""Unit tests for the observability layer (`repro.obs`).

Covers the metrics data model (counters, gauges, fixed-bucket histograms,
families, registry, exporters), deterministic tracing under a
:class:`ManualClock`, the ``REPRO_OBS`` kill switch, and thread-safety
under concurrent mutation. Histogram invariants — cumulative monotonicity,
sum/count consistency, exact merges — are pinned as hypothesis properties.
"""

from __future__ import annotations

import json
import math
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import obs
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracing import InMemorySpanExporter, ManualClock, Tracer

pytestmark = pytest.mark.obs


@pytest.fixture()
def registry():
    return MetricsRegistry()


@pytest.fixture()
def scoped():
    """A fresh (registry, tracer-on-manual-clock) scoped into repro.obs."""
    registry = MetricsRegistry()
    clock = ManualClock()
    exporter = InMemorySpanExporter()
    tracer = Tracer(clock=clock, exporter=exporter)
    with obs.use(registry=registry, tracer=tracer, enabled=True):
        yield registry, tracer, clock, exporter


# -- counters and gauges -------------------------------------------------------


class TestCounter:
    def test_starts_at_zero_and_accumulates(self, registry):
        counter = registry.counter("c_total")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self, registry):
        counter = registry.counter("c_total")
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)
        assert counter.value == 0.0

    def test_labelled_series_are_independent(self, registry):
        family = registry.counter("requests_total", labels=("result",))
        family.labels(result="hit").inc(3)
        family.labels(result="miss").inc()
        assert family.labels(result="hit").value == 3.0
        assert family.labels(result="miss").value == 1.0

    def test_wrong_label_names_rejected(self, registry):
        family = registry.counter("requests_total", labels=("result",))
        with pytest.raises(ValueError, match="declares labels"):
            family.labels(outcome="hit")
        with pytest.raises(ValueError, match="declares labels"):
            family.labels()

    def test_unlabeled_family_requires_no_labels_call(self, registry):
        family = registry.counter("requests_total", labels=("result",))
        with pytest.raises(ValueError, match="use .labels"):
            family.inc()


class TestGauge:
    def test_set_inc_dec(self, registry):
        gauge = registry.gauge("g")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec(4)
        assert gauge.value == 3.0

    def test_can_go_negative(self, registry):
        gauge = registry.gauge("g")
        gauge.dec(1.5)
        assert gauge.value == -1.5


# -- histograms ----------------------------------------------------------------


class TestHistogram:
    def test_bucket_placement_upper_inclusive(self):
        hist = Histogram(bounds=(1.0, 2.0))
        hist.observe(1.0)   # lands in the first bucket (value <= bound)
        hist.observe(1.5)
        hist.observe(99.0)  # +Inf bucket
        assert hist.bucket_counts == [1, 1, 1]
        assert hist.count == 3
        assert hist.sum == pytest.approx(101.5)

    def test_cumulative_counts_end_at_total(self):
        hist = Histogram(bounds=(1.0, 2.0, 3.0))
        for value in (0.5, 1.5, 2.5, 10.0, 10.0):
            hist.observe(value)
        assert hist.cumulative_counts() == [1, 2, 3, 5]

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Histogram(bounds=())
        with pytest.raises(ValueError, match="strictly increase"):
            Histogram(bounds=(1.0, 1.0))
        with pytest.raises(ValueError, match="finite"):
            Histogram(bounds=(1.0, math.inf))

    def test_merge_requires_identical_bounds(self):
        with pytest.raises(ValueError, match="different bounds"):
            Histogram(bounds=(1.0,)).merge(Histogram(bounds=(2.0,)))

    def test_merge_combines_counts(self):
        a = Histogram(bounds=(1.0, 2.0))
        b = Histogram(bounds=(1.0, 2.0))
        a.observe(0.5)
        b.observe(1.5)
        b.observe(5.0)
        merged = a.merge(b)
        assert merged.bucket_counts == [1, 1, 1]
        assert merged.count == 3
        assert merged.sum == pytest.approx(7.0)
        # operands untouched
        assert a.count == 1 and b.count == 2


# Integer-valued observations keep float sums exact, so associativity can
# be asserted with ==, not approx.
_OBSERVATIONS = st.lists(
    st.integers(min_value=-1000, max_value=1000).map(float), max_size=30
)
_BOUNDS = st.lists(
    st.integers(min_value=-100, max_value=100), min_size=1, max_size=6, unique=True
).map(lambda bs: tuple(sorted(float(b) for b in bs)))


def _linear_bucket(bounds, value):
    """The bucket an upper-inclusive linear scan picks (+Inf past the end)."""
    for index, bound in enumerate(bounds):
        if value <= bound:
            return index
    return len(bounds)


_FLOAT_BOUNDS = st.lists(
    st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=8, unique=True
).map(lambda bs: tuple(sorted(bs)))


def _edge_values(bounds):
    """Values on, and one ulp either side of, each bound, plus NaN/±inf."""
    edge = st.sampled_from(bounds)
    return st.lists(
        st.one_of(
            edge,
            edge.map(lambda b: math.nextafter(b, -math.inf)),
            edge.map(lambda b: math.nextafter(b, math.inf)),
            st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
            st.floats(allow_nan=True, allow_infinity=True),
        ),
        max_size=30,
    )


class TestHistogramProperties:
    @given(case=_FLOAT_BOUNDS.flatmap(lambda b: st.tuples(st.just(b), _edge_values(b))))
    def test_buckets_match_linear_scan(self, case):
        bounds, values = case
        hist = Histogram(bounds=bounds)
        expected = [0] * (len(bounds) + 1)
        for value in values:
            hist.observe(value)
            expected[_linear_bucket(bounds, value)] += 1
        assert hist.bucket_counts == expected

    def test_nan_and_infinities(self):
        hist = Histogram(bounds=(1.0, 2.0))
        for value in (math.nan, math.inf, -math.inf):
            hist.observe(value)
        assert hist.bucket_counts == [1, 0, 2]

    @given(bounds=_BOUNDS, values=_OBSERVATIONS)
    def test_cumulative_counts_monotone_and_consistent(self, bounds, values):
        hist = Histogram(bounds=bounds)
        for value in values:
            hist.observe(value)
        cumulative = hist.cumulative_counts()
        assert all(a <= b for a, b in zip(cumulative, cumulative[1:]))
        assert cumulative[-1] == hist.count == len(values)
        assert sum(hist.bucket_counts) == hist.count
        assert hist.sum == sum(values)

    @given(bounds=_BOUNDS, a=_OBSERVATIONS, b=_OBSERVATIONS)
    def test_merge_commutative(self, bounds, a, b):
        def build(values):
            hist = Histogram(bounds=bounds)
            for value in values:
                hist.observe(value)
            return hist

        left = build(a).merge(build(b))
        right = build(b).merge(build(a))
        assert left.bucket_counts == right.bucket_counts
        assert left.count == right.count
        assert left.sum == right.sum

    @given(bounds=_BOUNDS, a=_OBSERVATIONS, b=_OBSERVATIONS, c=_OBSERVATIONS)
    def test_merge_associative(self, bounds, a, b, c):
        def build(values):
            hist = Histogram(bounds=bounds)
            for value in values:
                hist.observe(value)
            return hist

        left = build(a).merge(build(b)).merge(build(c))
        right = build(a).merge(build(b).merge(build(c)))
        assert left.bucket_counts == right.bucket_counts
        assert left.count == right.count
        assert left.sum == right.sum

    @given(bounds=_BOUNDS, values=_OBSERVATIONS)
    def test_merge_equals_single_histogram(self, bounds, values):
        split = len(values) // 2
        one = Histogram(bounds=bounds)
        for value in values:
            one.observe(value)
        a = Histogram(bounds=bounds)
        b = Histogram(bounds=bounds)
        for value in values[:split]:
            a.observe(value)
        for value in values[split:]:
            b.observe(value)
        merged = a.merge(b)
        assert merged.bucket_counts == one.bucket_counts
        assert merged.count == one.count


# -- registry and exporters ----------------------------------------------------


class TestRegistry:
    def test_get_or_create_returns_same_family(self, registry):
        assert registry.counter("c_total") is registry.counter("c_total")

    def test_kind_conflict_rejected(self, registry):
        registry.counter("m")
        with pytest.raises(ValueError, match="already registered as a counter"):
            registry.gauge("m")

    def test_label_conflict_rejected(self, registry):
        registry.counter("m", labels=("x",))
        with pytest.raises(ValueError, match="already declares labels"):
            registry.counter("m", labels=("y",))

    def test_bounds_conflict_rejected(self, registry):
        registry.histogram("h", bounds=(1.0, 2.0))
        assert registry.histogram("h", bounds=[1, 2]) is registry.histogram(
            "h", bounds=(1.0, 2.0)
        )
        with pytest.raises(ValueError, match="already uses bounds"):
            registry.histogram("h", bounds=(3.0,))

    def test_labels_hit_and_miss_agree(self, registry):
        family = registry.counter("m_total", labels=("a", "b"))
        series = family.labels(a="x", b=1)
        # Keyword order and value type do not split a series.
        assert family.labels(b="1", a="x") is series
        assert family.labels(a="x", b=1) is series
        # Values that compare equal but stringify apart stay apart.
        assert family.labels(a="x", b=True) is not series
        assert family.labels(a="x", b=1.0) is not series
        with pytest.raises(ValueError, match="declares labels"):
            family.labels(a="x")
        with pytest.raises(ValueError, match="declares labels"):
            family.labels(a="x", b=1, c=2)

    def test_snapshot_contains_only_touched_series(self, registry):
        registry.counter("untouched_total", labels=("result",))
        registry.counter("touched_total", labels=("result",)).labels(
            result="hit"
        ).inc()
        snap = registry.snapshot()
        assert snap["untouched_total"]["series"] == []
        assert snap["touched_total"]["series"] == [
            {"labels": {"result": "hit"}, "value": 1.0}
        ]

    def test_snapshot_histogram_shape(self, registry):
        registry.histogram("h_seconds", bounds=(0.1, 1.0)).observe(0.5)
        series = registry.snapshot()["h_seconds"]["series"][0]
        assert series["count"] == 1
        assert series["sum"] == pytest.approx(0.5)
        assert series["buckets"] == {"0.1": 0, "1": 1, "+Inf": 1}

    def test_reset_drops_everything(self, registry):
        registry.counter("c_total").inc()
        registry.reset()
        assert registry.snapshot() == {}

    def test_render_json_round_trips(self, registry):
        registry.counter("c_total", help="help text").inc(2)
        decoded = json.loads(registry.render_json())
        assert decoded["c_total"]["help"] == "help text"
        assert decoded["c_total"]["series"][0]["value"] == 2.0

    def test_render_prometheus_exposition(self, registry):
        registry.counter(
            "requests_total", help="Requests served", labels=("result",)
        ).labels(result="hit").inc(3)
        registry.gauge("depth").set(2)
        registry.histogram("lat_seconds", bounds=(0.5, 1.0)).observe(0.25)
        text = registry.render_prometheus()
        assert "# HELP requests_total Requests served" in text
        assert "# TYPE requests_total counter" in text
        assert 'requests_total{result="hit"} 3' in text
        assert "depth 2" in text
        assert 'lat_seconds_bucket{le="0.5"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_sum 0.25" in text
        assert "lat_seconds_count 1" in text
        assert text.endswith("\n")

    def test_render_prometheus_empty_registry(self, registry):
        assert registry.render_prometheus() == ""


# -- tracing -------------------------------------------------------------------


class TestManualClock:
    def test_advances_only_forward(self):
        clock = ManualClock(start=5.0)
        assert clock() == 5.0
        assert clock.advance(2.5) == 7.5
        with pytest.raises(ValueError, match="cannot go back"):
            clock.advance(-1)


class TestTracer:
    def test_nesting_and_timing(self):
        clock = ManualClock()
        exporter = InMemorySpanExporter()
        tracer = Tracer(clock=clock, exporter=exporter)
        with tracer.span("outer") as outer:
            clock.advance(1.0)
            with tracer.span("inner", layer="fc1") as inner:
                clock.advance(0.25)
            clock.advance(1.0)
        assert inner.parent_id == outer.span_id
        assert inner.duration == pytest.approx(0.25)
        assert outer.duration == pytest.approx(2.25)
        # finish order: children before parents
        assert [span.name for span in exporter.spans] == ["inner", "outer"]

    def test_sequential_ids_and_deterministic_tree(self):
        def run():
            exporter = InMemorySpanExporter()
            tracer = Tracer(clock=ManualClock(), exporter=exporter)
            with tracer.span("a"):
                with tracer.span("b"):
                    pass
                with tracer.span("c", k=1):
                    pass
            return exporter

        first, second = run(), run()
        assert [s.span_id for s in first.spans] == [2, 3, 1]
        assert first.format_tree(attributes=True) == second.format_tree(
            attributes=True
        )
        assert first.format_tree(attributes=True) == "a\n  b\n  c [k=1]"

    def test_exception_marks_status_and_reraises(self):
        exporter = InMemorySpanExporter()
        tracer = Tracer(clock=ManualClock(), exporter=exporter)
        with pytest.raises(KeyError):
            with tracer.span("broken"):
                raise KeyError("boom")
        (span,) = exporter.spans
        assert span.status == "error:KeyError"
        assert span.end is not None

    def test_current_span_tracks_stack(self):
        tracer = Tracer(clock=ManualClock())
        assert tracer.current is None
        with tracer.span("outer"):
            assert tracer.current.name == "outer"
            with tracer.span("inner"):
                assert tracer.current.name == "inner"
            assert tracer.current.name == "outer"
        assert tracer.current is None

    def test_span_set_attaches_attributes(self):
        exporter = InMemorySpanExporter()
        tracer = Tracer(clock=ManualClock(), exporter=exporter)
        with tracer.span("s", a=1) as span:
            span.set(b=2)
        assert exporter.spans[0].attributes == {"a": 1, "b": 2}

    def test_span_set_after_close(self):
        # Callers may annotate a span with results computed after its
        # block ends (the benchmark's wrappers do).
        exporter = InMemorySpanExporter()
        tracer = Tracer(clock=ManualClock(), exporter=exporter)
        with tracer.span("s") as span:
            pass
        span.set(images=8)
        assert exporter.spans[0].attributes == {"images": 8}

    def test_bounded_exporter_keeps_most_recent(self):
        exporter = InMemorySpanExporter(maxlen=3)
        tracer = Tracer(clock=ManualClock(), exporter=exporter)
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        assert [span.name for span in exporter.spans] == ["s2", "s3", "s4"]

    def test_orphan_span_becomes_root(self):
        exporter = InMemorySpanExporter()
        exporter.export(
            __import__("repro.obs.tracing", fromlist=["Span"]).Span(
                name="orphan", span_id=7, parent_id=99, start=0.0, end=1.0
            )
        )
        assert exporter.format_tree() == "orphan"

    def test_find_filters_by_name(self):
        exporter = InMemorySpanExporter()
        tracer = Tracer(clock=ManualClock(), exporter=exporter)
        for _ in range(2):
            with tracer.span("x"):
                pass
        with tracer.span("y"):
            pass
        assert len(exporter.find("x")) == 2
        assert len(exporter.find("y")) == 1


# -- package root: helpers, kill switch, scoping -------------------------------


class TestKillSwitch:
    def test_env_zero_disables(self, monkeypatch):
        monkeypatch.setenv(obs.ENV_SWITCH, "0")
        obs.set_enabled(None)  # force a re-read
        try:
            assert not obs.enabled()
        finally:
            obs.set_enabled(None)

    def test_env_default_enables(self, monkeypatch):
        monkeypatch.delenv(obs.ENV_SWITCH, raising=False)
        obs.set_enabled(None)
        try:
            assert obs.enabled()
        finally:
            obs.set_enabled(None)

    def test_disabled_helpers_hand_out_null_objects(self):
        registry = MetricsRegistry()
        with obs.use(registry=registry, enabled=False):
            counter = obs.counter("c_total", labels=("x",))
            counter.labels(x="1").inc(5)
            obs.gauge("g").set(3)
            obs.histogram("h").observe(1.0)
            with obs.span("never") as span:
                span.set(a=1)
            with obs.timed(obs.histogram("h2")):
                pass
            assert counter.value == 0.0
        assert registry.snapshot() == {}

    def test_use_restores_previous_state(self):
        before_registry = obs.get_registry()
        before_tracer = obs.get_tracer()
        inner = MetricsRegistry()
        with obs.use(registry=inner, enabled=True):
            assert obs.get_registry() is inner
        assert obs.get_registry() is before_registry
        assert obs.get_tracer() is before_tracer

    def test_use_restores_on_exception(self):
        before = obs.get_registry()
        with pytest.raises(RuntimeError):
            with obs.use(registry=MetricsRegistry()):
                raise RuntimeError("boom")
        assert obs.get_registry() is before

    def test_enabled_helpers_bind_to_scoped_registry(self, scoped):
        registry, tracer, clock, exporter = scoped
        obs.counter("c_total").inc()
        with obs.span("s"):
            clock.advance(1.0)
        with obs.timed(obs.histogram("h_seconds")):
            clock.advance(0.5)
        assert registry.snapshot()["c_total"]["series"][0]["value"] == 1.0
        assert exporter.spans[0].duration == pytest.approx(1.0)
        assert registry.snapshot()["h_seconds"]["series"][0]["sum"] == pytest.approx(
            0.5
        )


# -- thread safety -------------------------------------------------------------


class TestThreadSafety:
    def test_concurrent_counter_increments(self, registry):
        family = registry.counter("c_total", labels=("worker",))
        n_threads, per_thread = 8, 2000

        def hammer(worker: int) -> None:
            shared = family.labels(worker="shared")
            mine = family.labels(worker=str(worker))
            for _ in range(per_thread):
                shared.inc()
                mine.inc()

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert family.labels(worker="shared").value == n_threads * per_thread
        for worker in range(n_threads):
            assert family.labels(worker=str(worker)).value == per_thread

    def test_concurrent_histogram_observations(self, registry):
        hist = registry.histogram("h", bounds=(0.5,))
        n_threads, per_thread = 8, 2000

        def hammer(worker: int) -> None:
            value = 0.25 if worker % 2 == 0 else 0.75
            for _ in range(per_thread):
                hist.observe(value)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        child = hist.labels()
        assert child.count == n_threads * per_thread
        assert child.bucket_counts[0] == child.bucket_counts[1]
        assert sum(child.bucket_counts) == child.count

    def test_concurrent_spans_stay_per_thread(self):
        exporter = InMemorySpanExporter()
        tracer = Tracer(clock=ManualClock(), exporter=exporter)
        errors: list[str] = []

        def trace(worker: int) -> None:
            for _ in range(200):
                with tracer.span(f"outer-{worker}"):
                    with tracer.span(f"inner-{worker}") as inner:
                        if tracer.current is not inner:
                            errors.append("current span leaked across threads")

        threads = [threading.Thread(target=trace, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        spans = exporter.spans
        assert len(spans) == 6 * 200 * 2
        assert len({span.span_id for span in spans}) == len(spans)
        # every inner span's parent is an outer span of the same worker
        by_id = {span.span_id: span for span in spans}
        for span in spans:
            if span.name.startswith("inner-"):
                parent = by_id[span.parent_id]
                assert parent.name == "outer-" + span.name.split("-")[1]

    def test_concurrent_family_creation(self):
        registry = MetricsRegistry()
        barrier = threading.Barrier(8)
        families = []
        lock = threading.Lock()

        def create() -> None:
            barrier.wait()
            family = registry.counter("shared_total", labels=("k",))
            with lock:
                families.append(family)

        threads = [threading.Thread(target=create) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(f) for f in families}) == 1


def test_default_time_buckets_strictly_increase():
    assert all(
        a < b for a, b in zip(DEFAULT_TIME_BUCKETS, DEFAULT_TIME_BUCKETS[1:])
    )
