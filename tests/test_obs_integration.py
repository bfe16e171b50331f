"""Golden-trace and instrumentation tests across the validation stack.

Runs the real tiny fit → calibrate → monitor pipeline under a scoped
registry and a :class:`ManualClock`-driven tracer, and pins the *exact*
span tree and counter values it must produce — the instrumentation itself
is under test, not just the code it watches. The kill-switch contract is
pinned the other way around: the same pipeline with observability disabled
must record nothing at all while producing bit-identical numerics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.fitting import ParallelFitWarning, solve_tasks
from repro.core.monitor import RuntimeMonitor
from repro.core.validator import DeepValidator, ValidatorConfig
from repro.nn import Adam, Trainer
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import InMemorySpanExporter, ManualClock, Tracer
from repro.serve import ServeConfig, SupervisorConfig, ValidationServer
from repro.testing.faults import (
    dead_fit_pool,
    fail_packed_scorer,
    kill_worker,
    slow_layer,
)
from tests.helpers import easy_image_task, make_tiny_model

pytestmark = pytest.mark.obs


@pytest.fixture()
def scoped():
    """A fresh (registry, tracer, clock, exporter) scoped into repro.obs."""
    registry = MetricsRegistry()
    clock = ManualClock()
    exporter = InMemorySpanExporter()
    tracer = Tracer(clock=clock, exporter=exporter)
    with obs.use(registry=registry, tracer=tracer, enabled=True):
        yield registry, tracer, clock, exporter


def _fit_calibrate_monitor(model, train_x, train_y, test_x):
    """The pipeline under test: fit, calibrate, classify four images."""
    config = ValidatorConfig(seed=0, nu=0.2, max_per_class=40)
    validator = DeepValidator(model, config)
    validator.fit(train_x, train_y)
    validator.calibrate_threshold(test_x[:16], test_x[16:32])
    monitor = RuntimeMonitor(validator)
    verdicts = monitor.classify(test_x[:4])
    return validator, monitor, verdicts


#: The exact span tree (attributes included) the pipeline must produce.
GOLDEN_TREE = """\
infer.forward [batch=256]
infer.forward [batch=44]
fit.pipeline [images=300, layers=3]
  infer.forward [batch=256]
  infer.forward [batch=44]
  fit.solve_tasks [n_jobs=1, tasks=9]
    fit.solve_task [klass=0, layer=0]
    fit.solve_task [klass=1, layer=0]
    fit.solve_task [klass=2, layer=0]
    fit.solve_task [klass=0, layer=1]
    fit.solve_task [klass=1, layer=1]
    fit.solve_task [klass=2, layer=1]
    fit.solve_task [klass=0, layer=2]
    fit.solve_task [klass=1, layer=2]
    fit.solve_task [klass=2, layer=2]
engine.discrepancies [batch=16, skipped=0]
  infer.forward [batch=16]
  engine.layer_score [layer='conv1']
  engine.layer_score [layer='conv2']
  engine.layer_score [layer='fc1']
engine.discrepancies [batch=16, skipped=0]
  infer.forward [batch=16]
  engine.layer_score [layer='conv1']
  engine.layer_score [layer='conv2']
  engine.layer_score [layer='fc1']
monitor.classify [batch=4]
  engine.discrepancies [batch=4, skipped=0]
    infer.forward [batch=4]
    engine.layer_score [layer='conv1']
    engine.layer_score [layer='conv2']
    engine.layer_score [layer='fc1']"""


class TestGoldenTrace:
    def test_pipeline_produces_exact_span_tree(self, scoped, trained_tiny_model):
        model, train_x, train_y, test_x, _ = trained_tiny_model
        _, _, exporter = scoped[0], scoped[2], scoped[3]
        _fit_calibrate_monitor(model, train_x, train_y, test_x)
        assert exporter.format_tree(attributes=True) == GOLDEN_TREE

    def test_pipeline_produces_exact_counter_values(
        self, scoped, trained_tiny_model
    ):
        model, train_x, train_y, test_x, _ = trained_tiny_model
        registry = scoped[0]
        _, _, verdicts = _fit_calibrate_monitor(model, train_x, train_y, test_x)
        snap = registry.snapshot()

        def series(name):
            return {
                tuple(sorted(s["labels"].items())): s.get("value", s.get("count"))
                for s in snap[name]["series"]
            }

        # 3 layers x 3 classes, all solved in-process.
        assert series("fit_tasks_total") == {(("mode", "inprocess"),): 9.0}
        # Each of the 3 scoring passes (two calibration batches, one
        # monitoring batch) times each of the 3 layers.
        assert series("engine_layer_score_seconds") == {
            (("layer", "conv1"),): 3,
            (("layer", "conv2"),): 3,
            (("layer", "fc1"),): 3,
        }
        # One packed GEMM per (layer, pass): 9 observations.
        assert series("svm_packed_gemm_seconds") == {(): 9}
        # Statuses of the four monitored images, and a healthy breaker per
        # layer (0 = closed).
        assert series("monitor_verdicts_total") == {
            (("status", "FLAGGED"),): 2.0,
            (("status", "VALIDATED"),): 2.0,
        }
        assert [v.status for v in verdicts] == [
            "FLAGGED", "VALIDATED", "VALIDATED", "FLAGGED",
        ]
        assert series("monitor_breaker_state") == {
            (("layer", "conv1"),): 0.0,
            (("layer", "conv2"),): 0.0,
            (("layer", "fc1"),): 0.0,
        }
        # The three fit stages each profiled exactly once.
        assert series("profile_stage_seconds") == {
            (("stage", "fit.plan"),): 1,
            (("stage", "fit.extract"),): 1,
            (("stage", "fit.solve"),): 1,
        }

    def test_trace_is_reproducible_run_to_run(self, trained_tiny_model):
        model, train_x, train_y, test_x, _ = trained_tiny_model

        def run() -> str:
            exporter = InMemorySpanExporter()
            tracer = Tracer(clock=ManualClock(), exporter=exporter)
            with obs.use(
                registry=MetricsRegistry(), tracer=tracer, enabled=True
            ):
                _fit_calibrate_monitor(model, train_x, train_y, test_x)
            return exporter.format_tree(attributes=True)

        assert run() == run()

    def test_manual_clock_drives_span_durations(self, scoped, trained_tiny_model):
        model, train_x, train_y, test_x, _ = trained_tiny_model
        registry, clock, exporter = scoped[0], scoped[2], scoped[3]
        config = ValidatorConfig(seed=0, nu=0.2, max_per_class=40)
        validator = DeepValidator(model, config)
        validator.fit(train_x, train_y)
        with slow_layer(validator.validators[1], 0.25, clock=clock):
            validator.engine().discrepancies(test_x[:8])
        (span,) = [
            s
            for s in exporter.find("engine.layer_score")
            if s.attributes["layer"] == "conv2"
        ]
        assert span.duration == pytest.approx(0.25)
        parent = [
            s for s in exporter.spans if s.span_id == span.parent_id
        ][0]
        assert parent.name == "engine.discrepancies"
        assert parent.duration == pytest.approx(0.25)


class TestKillSwitch:
    def test_disabled_pipeline_records_nothing_and_is_bit_identical(
        self, trained_tiny_model, monkeypatch
    ):
        model, train_x, train_y, test_x, _ = trained_tiny_model

        def run(enabled: bool):
            registry = MetricsRegistry()
            exporter = InMemorySpanExporter()
            tracer = Tracer(clock=ManualClock(), exporter=exporter)
            with obs.use(registry=registry, tracer=tracer, enabled=enabled):
                validator, _, verdicts = _fit_calibrate_monitor(
                    model, train_x, train_y, test_x
                )
                _, per_layer = validator.engine().discrepancies(test_x[:8])
            return validator, verdicts, per_layer, registry, exporter

        on_v, on_verdicts, on_scores, _, _ = run(True)
        off_v, off_verdicts, off_scores, off_registry, off_exporter = run(False)

        # Nothing recorded with the switch off...
        assert off_registry.snapshot() == {}
        assert off_exporter.spans == []
        # ...and the numerics are bit-identical, not merely close.
        assert off_v.epsilon == on_v.epsilon
        assert np.array_equal(off_scores, on_scores)
        assert len(off_verdicts) == len(on_verdicts)
        for off, on in zip(off_verdicts, on_verdicts):
            assert off.status == on.status
            assert off.prediction == on.prediction
            assert off.joint_discrepancy == on.joint_discrepancy
            assert np.array_equal(off.per_layer, on.per_layer)

    def test_env_variable_kills_every_hook(self, trained_tiny_model, monkeypatch):
        model, train_x, train_y, test_x, _ = trained_tiny_model
        monkeypatch.setenv(obs.ENV_SWITCH, "0")
        obs.set_enabled(None)  # drop the cached value; re-read the env
        registry = MetricsRegistry()
        exporter = InMemorySpanExporter()
        tracer = Tracer(clock=ManualClock(), exporter=exporter)
        try:
            with obs.use(registry=registry, tracer=tracer):
                assert not obs.enabled()
                _, monitor, _ = _fit_calibrate_monitor(
                    model, train_x, train_y, test_x
                )
                health = monitor.health()
        finally:
            obs.set_enabled(None)  # monkeypatch restores the env after this
        assert registry.snapshot() == {}
        assert exporter.spans == []
        assert health["metrics"] == {}

    def test_health_embeds_metrics_snapshot_when_enabled(
        self, scoped, trained_tiny_model
    ):
        model, train_x, train_y, test_x, _ = trained_tiny_model
        _, _, verdicts = _fit_calibrate_monitor(model, train_x, train_y, test_x)
        _, monitor, verdicts = _fit_calibrate_monitor(
            model, train_x, train_y, test_x
        )
        health = monitor.health()
        assert "monitor_verdicts_total" in health["metrics"]
        assert "engine_layer_score_seconds" in health["metrics"]


class TestSlowLayerAttribution:
    def test_latency_lands_in_the_right_layer_histogram(
        self, scoped, trained_tiny_model
    ):
        model, train_x, train_y, test_x, _ = trained_tiny_model
        registry, clock = scoped[0], scoped[2]
        config = ValidatorConfig(seed=0, nu=0.2, max_per_class=40)
        validator = DeepValidator(model, config)
        validator.fit(train_x, train_y)
        with slow_layer(validator.validators[1], 0.5, clock=clock) as stats:
            validator.engine().discrepancies(test_x[:8])
        assert stats["calls"] == 1
        by_layer = {
            s["labels"]["layer"]: s
            for s in registry.snapshot()["engine_layer_score_seconds"]["series"]
        }
        assert by_layer["conv2"]["sum"] == pytest.approx(0.5)
        assert by_layer["conv1"]["sum"] == pytest.approx(0.0)
        assert by_layer["fc1"]["sum"] == pytest.approx(0.0)

    def test_slow_layer_defaults_to_the_tracer_clock(
        self, scoped, trained_tiny_model
    ):
        model, train_x, train_y, test_x, _ = trained_tiny_model
        registry, clock = scoped[0], scoped[2]
        config = ValidatorConfig(seed=0, nu=0.2, max_per_class=40)
        validator = DeepValidator(model, config)
        validator.fit(train_x, train_y)
        before = clock()
        with slow_layer(validator.validators[0], 1.5):  # no explicit clock
            validator.engine().discrepancies(test_x[:8])
        assert clock() - before == pytest.approx(1.5)

    def test_degraded_path_attributes_time_to_surviving_layers(
        self, scoped, trained_tiny_model
    ):
        model, train_x, train_y, test_x, _ = trained_tiny_model
        registry, clock, exporter = scoped[0], scoped[2], scoped[3]
        config = ValidatorConfig(seed=0, nu=0.2, max_per_class=40)
        validator = DeepValidator(model, config)
        validator.fit(train_x, train_y)
        validator.calibrate_threshold(test_x[:16], test_x[16:32])
        monitor = RuntimeMonitor(validator, clock=clock)
        exporter.clear()
        registry.reset()  # drop fit/calibration series; observe only serving
        with fail_packed_scorer(validator.validators[0], nth=1, count=-1):
            with slow_layer(validator.validators[2], 0.75, clock=clock):
                with pytest.warns(Warning):
                    verdicts = monitor.classify(test_x[32:36])
        assert all(v.status == "DEGRADED" for v in verdicts)
        assert all(v.skipped_layers == ("conv1",) for v in verdicts)
        # The slow layer's time is attributed to fc1, and only fc1. The
        # broken conv1 is still timed (its failure is a zero-duration
        # observation — the injected fault raises before any delay), so a
        # layer that fails fast shows up as fast, not missing.
        by_layer = {
            s["labels"]["layer"]: s
            for s in registry.snapshot()["engine_layer_score_seconds"]["series"]
        }
        assert by_layer["fc1"]["sum"] == pytest.approx(0.75)
        assert by_layer["conv2"]["sum"] == pytest.approx(0.0)
        assert by_layer["conv1"]["sum"] == pytest.approx(0.0)
        assert all(by_layer[layer]["count"] == 1 for layer in by_layer)
        failures = registry.snapshot()["engine_layer_failures_total"]["series"]
        assert failures == [{"labels": {"layer": "conv1"}, "value": 1.0}]
        # The failing layer's span is exported with an error status.
        statuses = {
            s.attributes["layer"]: s.status
            for s in exporter.find("engine.layer_score")
        }
        assert statuses["conv1"] == "error:InjectedScorerError"
        assert statuses["fc1"] == "ok"
        assert (
            registry.snapshot()["monitor_verdicts_total"]["series"]
            == [{"labels": {"status": "DEGRADED"}, "value": 4.0}]
        )


class TestBreakerMetrics:
    def test_breaker_transitions_publish_counter_and_gauge(
        self, scoped, trained_tiny_model
    ):
        model, train_x, train_y, test_x, _ = trained_tiny_model
        registry, clock = scoped[0], scoped[2]
        config = ValidatorConfig(seed=0, nu=0.2, max_per_class=40)
        validator = DeepValidator(model, config)
        validator.fit(train_x, train_y)
        validator.calibrate_threshold(test_x[:16], test_x[16:32])
        monitor = RuntimeMonitor(
            validator, clock=clock, breaker_threshold=2, breaker_cooldown=10.0
        )
        with fail_packed_scorer(validator.validators[0], nth=1, count=-1):
            with pytest.warns(Warning):
                monitor.classify(test_x[:2])  # failure 1 of 2
            with pytest.warns(Warning):
                monitor.classify(test_x[:2])  # failure 2: breaker opens

        def gauge_for(layer):
            series = registry.snapshot()["monitor_breaker_state"]["series"]
            return {s["labels"]["layer"]: s["value"] for s in series}[layer]

        assert gauge_for("conv1") == 2.0  # open
        assert gauge_for("conv2") == 0.0  # closed
        transitions = {
            (s["labels"]["layer"], s["labels"]["to"]): s["value"]
            for s in registry.snapshot()[
                "monitor_breaker_transitions_total"
            ]["series"]
        }
        assert transitions == {("conv1", "open"): 1.0}

        # Cooldown expiry surfaces as a half-open transition on inspection.
        clock.advance(10.0)
        assert monitor.health()["layers"]["conv1"]["state"] == "half-open"
        assert gauge_for("conv1") == 1.0
        # A healthy probe closes it again.
        monitor.classify(test_x[:2])
        assert gauge_for("conv1") == 0.0
        transitions = {
            (s["labels"]["layer"], s["labels"]["to"]): s["value"]
            for s in registry.snapshot()[
                "monitor_breaker_transitions_total"
            ]["series"]
        }
        assert transitions == {
            ("conv1", "open"): 1.0,
            ("conv1", "half-open"): 1.0,
            ("conv1", "closed"): 1.0,
        }


class TestFitCounters:
    def test_dead_pool_records_retries_and_fallback(self, scoped):
        registry = scoped[0]
        rng = np.random.default_rng(0)
        features = {
            (0, klass): rng.normal(size=(12, 4)) for klass in range(3)
        }
        config = ValidatorConfig(seed=0, nu=0.5)
        with dead_fit_pool():
            with pytest.warns(ParallelFitWarning):
                solutions = solve_tasks(
                    features, config, n_jobs=2, max_retries=2, retry_backoff=0.0
                )
        assert sorted(solutions) == sorted(features)
        snap = registry.snapshot()
        assert snap["fit_pool_retries_total"]["series"][0]["value"] == 2.0
        assert snap["fit_serial_fallback_total"]["series"][0]["value"] == 1.0
        assert snap["fit_tasks_total"]["series"] == [
            {"labels": {"mode": "inprocess"}, "value": 3.0}
        ]

    def test_journal_replay_counts_replayed_tasks(self, scoped, tmp_path):
        from repro.core.checkpoint import CheckpointStore

        registry = scoped[0]
        rng = np.random.default_rng(1)
        features = {
            (0, klass): rng.normal(size=(12, 4)) for klass in range(3)
        }
        config = ValidatorConfig(seed=0, nu=0.5)
        journal = CheckpointStore(tmp_path).journal("fit")
        first = solve_tasks(features, config, journal=journal)
        registry.reset()
        second = solve_tasks(features, config, journal=journal)
        snap = registry.snapshot()
        assert snap["fit_tasks_total"]["series"] == [
            {"labels": {"mode": "replayed"}, "value": 3.0}
        ]
        assert "inprocess" not in {
            s["labels"].get("mode")
            for s in snap["fit_tasks_total"]["series"]
        }
        for key in features:
            assert np.array_equal(
                first[key].support_vectors, second[key].support_vectors
            )


class TestCheckpointCounters:
    def test_save_load_and_corruption_counters(self, scoped, tmp_path):
        from repro.core.checkpoint import CheckpointStore

        registry = scoped[0]
        store = CheckpointStore(tmp_path)
        store.save("state", {"x": 1})
        assert store.load("state") == {"x": 1}
        store.path_for("state").write_bytes(b"garbage")
        assert store.load_or_none("state") is None
        snap = registry.snapshot()
        assert snap["checkpoint_saves_total"]["series"][0]["value"] == 1.0
        loads = {
            s["labels"]["result"]: s["value"]
            for s in snap["checkpoint_loads_total"]["series"]
        }
        assert loads == {"ok": 1.0, "corrupt": 1.0}
        assert snap["checkpoint_quarantines_total"]["series"][0]["value"] == 1.0

    def test_journal_append_and_replay_counters(self, scoped, tmp_path):
        from repro.core.checkpoint import TaskJournal

        registry = scoped[0]
        journal = TaskJournal(tmp_path / "j.journal")
        journal.write_header("fp")
        journal.append(("a", 1))
        journal.append(("b", 2))
        assert journal.replay() == [("a", 1), ("b", 2)]
        snap = registry.snapshot()
        # Header frames are appends too: 1 header + 2 records.
        assert snap["journal_appends_total"]["series"][0]["value"] == 3.0
        assert (
            snap["journal_replayed_records_total"]["series"][0]["value"] == 2.0
        )


class TestTrainerMetrics:
    def test_epochs_are_counted_and_timed(self, scoped):
        registry = scoped[0]
        exporter = scoped[3]
        model = make_tiny_model()
        images, labels = easy_image_task(48, seed=3)
        trainer = Trainer(
            model, Adam(model.parameters(), lr=3e-3), batch_size=16, rng=0
        )
        trainer.fit(images, labels, epochs=2)
        snap = registry.snapshot()
        assert snap["trainer_epochs_total"]["series"][0]["value"] == 2.0
        assert snap["trainer_epoch_seconds"]["series"][0]["count"] == 2
        epochs = exporter.find("trainer.epoch")
        assert [s.attributes["epoch"] for s in epochs] == [0, 1]


class TestServeSupervisionMetrics:
    """Golden flows for the serving layer's supervision/shedding metrics."""

    def _fitted(self, trained_tiny_model):
        model, train_x, train_y, test_x, _ = trained_tiny_model
        config = ValidatorConfig(seed=0, nu=0.2, max_per_class=40)
        validator = DeepValidator(model, config)
        validator.fit(train_x, train_y)
        validator.calibrate_threshold(test_x[:16], test_x[16:32])
        return validator, test_x

    def test_worker_restart_increments_restart_counter(
        self, scoped, trained_tiny_model
    ):
        import time

        registry, clock = scoped[0], scoped[2]
        validator, test_x = self._fitted(trained_tiny_model)
        registry.reset()  # observe serving only, not the fit above
        server = ValidationServer(
            RuntimeMonitor(validator),
            ServeConfig(
                max_batch=1,
                max_wait_ms=0.0,
                workers=1,
                supervision=SupervisorConfig(poll_interval_s=None),
            ),
            clock=clock,
        )
        server.start()
        try:
            with kill_worker(server, nth=1, count=1):
                future = server.submit(test_x[0])
                deadline = time.monotonic() + 30.0
                while server.supervisor.snapshot()["deaths"] < 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.005)
                clock.advance(0.06)  # past the restart backoff
                assert server.supervisor.poll() == 1
                future.result(timeout=60.0)
        finally:
            server.close(timeout=10.0)
        snap = registry.snapshot()
        assert (
            snap["serve_worker_restarts_total"]["series"][0]["value"] == 1.0
        )
        outcomes = {
            s["labels"]["outcome"]: s["value"]
            for s in snap["serve_requests_total"]["series"]
        }
        assert outcomes == {"completed": 1.0}
        assert "serve_shed_total" not in snap  # nothing was shed

    def test_every_shed_reason_labels_the_shed_counter(
        self, scoped, trained_tiny_model
    ):
        registry = scoped[0]
        validator, test_x = self._fitted(trained_tiny_model)
        registry.reset()
        server = ValidationServer(
            RuntimeMonitor(validator),
            ServeConfig(
                max_batch=1,
                max_wait_ms=0.0,
                workers=1,
                queue_depth=1,
                latency_slo_ms=10.0,
                supervision=SupervisorConfig(poll_interval_s=None),
            ),
        )
        # Never started: the first submit stays queued until close drains it.
        queued = server.submit(test_x[0])
        assert not queued.done()
        server.submit(test_x[1])  # queue_depth=1: shed queue_full
        # One queued batch ahead at 5 s per batch: projected 5 s >> 10 ms SLO.
        server._service_ewma.observe(5.0)
        server.submit(test_x[2])  # shed slo
        for _ in range(server.config.supervision.restart_budget):
            server.supervisor.breaker.record_failure()  # force the budget out
        server.submit(test_x[3])  # shed breaker
        server.close(timeout=5.0)  # drains the queued ticket: shed shutdown
        assert queued.result(timeout=0).status == "OVERLOADED"

        snap = registry.snapshot()
        sheds = {
            s["labels"]["reason"]: s["value"]
            for s in snap["serve_shed_total"]["series"]
        }
        assert sheds == {
            "queue_full": 1.0, "slo": 1.0, "breaker": 1.0, "shutdown": 1.0,
        }
        outcomes = {
            s["labels"]["outcome"]: s["value"]
            for s in snap["serve_requests_total"]["series"]
        }
        assert outcomes == {
            "overloaded": 1.0,
            "shed_slo": 1.0,
            "shed_breaker": 1.0,
            "shed_shutdown": 1.0,
        }


class TestHotPathParity:
    """Retention bounds and per-batch metric updates match per-image ones."""

    def _monitor(self, trained_tiny_model):
        model, train_x, train_y, test_x, _ = trained_tiny_model
        validator = DeepValidator(
            model, ValidatorConfig(seed=0, nu=0.2, max_per_class=40)
        )
        validator.fit(train_x, train_y)
        validator.calibrate_threshold(test_x[:16], test_x[16:32])
        return RuntimeMonitor(validator), test_x

    def test_global_tracer_is_bounded_and_fresh_tracer_is_not(
        self, trained_tiny_model
    ):
        monitor, test_x = self._monitor(trained_tiny_model)
        limit = obs.GLOBAL_SPAN_LIMIT
        fresh = Tracer()

        calls = 0
        with obs.use(registry=MetricsRegistry(), tracer=fresh, enabled=True):
            while len(fresh.exporter.spans) <= limit + 50:
                monitor.classify(test_x[:2])
                calls += 1
        emitted = len(fresh.exporter.spans)
        assert emitted > limit  # a hand-built Tracer keeps every span

        global_tracer = obs.get_tracer()
        with obs.use(registry=MetricsRegistry(), enabled=True):
            for _ in range(calls):
                monitor.classify(test_x[:2])
        retained = global_tracer.exporter.spans
        assert len(retained) == limit
        # The ring keeps the most recent spans: the last call's root ends it.
        assert retained[-1].name == "monitor.classify"
        assert len(fresh.exporter.spans) == emitted  # untouched since

    def test_verdict_counter_matches_per_image_statuses(
        self, scoped, trained_tiny_model
    ):
        registry = scoped[0]
        monitor, test_x = self._monitor(trained_tiny_model)
        registry.reset()
        batch = test_x[32:40].copy()
        batch[1, 0, 0, 0] = np.nan  # quarantined per image
        batch[5, 0, 0, 0] = np.inf
        verdicts = monitor.classify(batch)
        # A whole-batch rejection: a rank-2 input quarantines all 3 rows.
        verdicts += monitor.classify(np.zeros((3, 5), dtype=np.float32))
        expected: dict[str, float] = {}
        for verdict in verdicts:
            expected[verdict.status] = expected.get(verdict.status, 0.0) + 1.0
        assert expected["QUARANTINED"] == 5.0
        assert len(expected) >= 2  # scored statuses beside the quarantines
        snap = registry.snapshot()
        counted = {
            s["labels"]["status"]: s["value"]
            for s in snap["monitor_verdicts_total"]["series"]
        }
        assert counted == expected
        stats = monitor.stats
        assert stats["quarantined"] == 5
        assert stats["accepted"] + stats["rejected"] == len(verdicts) - 5
