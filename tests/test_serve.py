"""Tests for the micro-batching validation server (repro.serve).

The differential class is the load-bearing one: serve verdicts must be
bit-identical to calling the thread-safe monitor directly with the same
batch partition (serve is pure transport — queueing and batching add
zero numeric change), and agree to tight tolerance across partitions
(float32 BLAS kernels differ by batch width; see docs/serving.md).
"""

import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.core import DeepValidator, RuntimeMonitor, ValidatorConfig
from repro.core import resilience
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import InMemorySpanExporter, ManualClock, Tracer
from repro.serve import (
    EXPIRED,
    OVERLOADED,
    SHED_REASONS,
    Ewma,
    MicroBatcher,
    ResultTimeout,
    ServeConfig,
    SupervisorConfig,
    ValidationServer,
    VerdictFuture,
)
from repro.testing.faults import (
    InjectedWorkerDeath,
    hang_classify,
    kill_worker,
    raise_in_batcher,
    slow_classify,
)
from tests.helpers import easy_image_task, train_tiny_model

pytestmark = pytest.mark.serve


@pytest.fixture(scope="module")
def trained_tiny_model():
    return train_tiny_model()


@pytest.fixture(scope="module")
def fitted_validator(trained_tiny_model):
    model, train_x, train_y, test_x, _ = trained_tiny_model
    validator = DeepValidator(model, ValidatorConfig(nu=0.15))
    validator.fit(train_x, train_y)
    noise = np.random.default_rng(0).random((40, 1, 12, 12))
    validator.calibrate_threshold(test_x[:40], noise)
    return validator


@pytest.fixture()
def stream():
    images, _ = easy_image_task(16, seed=99)
    return images


def _assert_same_verdict(reference, candidate):
    """Bit-exact verdict equality (NaN-tolerant on the score fields)."""
    assert candidate.prediction == reference.prediction
    assert candidate.status == reference.status
    assert candidate.accepted == reference.accepted
    assert candidate.skipped_layers == reference.skipped_layers
    np.testing.assert_array_equal(candidate.per_layer, reference.per_layer)
    if np.isnan(reference.joint_discrepancy):
        assert np.isnan(candidate.joint_discrepancy)
    else:
        assert candidate.joint_discrepancy == reference.joint_discrepancy


class TestVerdictFuture:
    def test_resolve_and_result(self):
        future = VerdictFuture()
        assert not future.done()
        future._resolve("verdict")
        assert future.done()
        assert future.result(timeout=0) == "verdict"

    def test_fail_reraises(self):
        future = VerdictFuture()
        future._fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            future.result(timeout=0)

    def test_write_once(self):
        future = VerdictFuture()
        future._resolve("verdict")
        with pytest.raises(RuntimeError):
            future._resolve("again")
        with pytest.raises(RuntimeError):
            future._fail(ValueError())

    def test_timeout_then_late_resolve(self):
        future = VerdictFuture()
        with pytest.raises(ResultTimeout):
            future.result(timeout=0.01)
        future._resolve("late")
        assert future.result(timeout=0) == "late"


class TestMicroBatcher:
    def test_flush_on_max_batch(self):
        batcher = MicroBatcher(max_batch=3, max_wait_ms=10_000.0)
        for item in range(5):
            assert batcher.offer(item)
        assert batcher.next_batch() == [0, 1, 2]

    def test_zero_wait_flushes_partial(self):
        batcher = MicroBatcher(max_batch=8, max_wait_ms=0.0)
        batcher.offer("a")
        batcher.offer("b")
        assert batcher.next_batch() == ["a", "b"]

    def test_flush_on_wait_window(self):
        batcher = MicroBatcher(max_batch=64, max_wait_ms=20.0)
        batcher.offer(1)
        start = time.monotonic()
        batch = batcher.next_batch()
        assert batch == [1]
        # Flushed by the window (well before any 64-wide batch could form).
        assert time.monotonic() - start < 5.0

    @staticmethod
    def _spied(batcher: MicroBatcher, clock: ManualClock) -> list:
        """Replace the consumer's condition wait with a spy that records
        each requested timeout and advances ``clock`` by it, as if the
        wait ran out with no arrival."""
        waits: list = []

        def wait(timeout=None):
            waits.append(timeout)
            clock.advance(timeout)
            return False

        batcher._not_empty.wait = wait
        return waits

    def test_partial_batch_flushes_at_exactly_max_wait(self):
        clock = ManualClock()
        batcher = MicroBatcher(max_batch=8, max_wait_ms=2.0, clock=clock)
        waits = self._spied(batcher, clock)
        batcher.offer("a")
        assert batcher.next_batch() == ["a"]
        # One wait, for the whole window, and the flush lands on the
        # deadline: no fixed-step overshoot past max_wait_ms.
        assert waits == [0.002]
        assert clock() == 0.002

    def test_unfillable_batch_flushes_at_deadline(self):
        # Sixteen requests outstanding (a closed-loop client's window),
        # max_batch=32: nothing else can arrive, so the batch must go at
        # its deadline.
        clock = ManualClock(start=100.0)
        batcher = MicroBatcher(max_batch=32, max_wait_ms=2.0, clock=clock)
        waits = self._spied(batcher, clock)
        for item in range(16):
            batcher.offer(item)
        assert batcher.next_batch() == list(range(16))
        assert len(waits) == 1
        assert clock() == pytest.approx(100.002)

    def test_wait_is_the_time_left_to_the_deadline(self):
        clock = ManualClock()
        batcher = MicroBatcher(max_batch=4, max_wait_ms=5.0, clock=clock)
        waits: list = []

        def wait(timeout=None):
            # The first wait ends early with an arrival 3 ms in; the
            # second must ask only for the 2 ms left of the window.
            waits.append(timeout)
            clock.advance(0.003 if len(waits) == 1 else timeout)
            if len(waits) == 1:
                batcher._queue.append("b")
            return True

        batcher._not_empty.wait = wait
        batcher.offer("a")
        assert batcher.next_batch() == ["a", "b"]
        assert waits == [pytest.approx(0.005), pytest.approx(0.002)]
        assert clock() == pytest.approx(0.005)

    def test_backpressure(self):
        batcher = MicroBatcher(queue_depth=2)
        assert batcher.offer(1)
        assert batcher.offer(2)
        assert not batcher.offer(3)
        assert len(batcher) == 2

    def test_close_drains_then_none(self):
        batcher = MicroBatcher(max_batch=2, max_wait_ms=10_000.0)
        batcher.offer(1)
        batcher.offer(2)
        batcher.offer(3)
        batcher.close()
        with pytest.raises(RuntimeError):
            batcher.offer(4)
        assert batcher.next_batch() == [1, 2]
        assert batcher.next_batch() == [3]
        assert batcher.next_batch() is None

    def test_close_wakes_blocked_consumer(self):
        batcher = MicroBatcher()
        seen = []
        thread = threading.Thread(target=lambda: seen.append(batcher.next_batch()))
        thread.start()
        batcher.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert seen == [None]

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_batch": 0}, {"max_wait_ms": -1.0}, {"queue_depth": 0}],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            MicroBatcher(**kwargs)


class TestServeRejections:
    def test_overloaded_is_structured(self, fitted_validator, stream):
        # No worker started: the queue fills and stays full.
        server = ValidationServer(
            RuntimeMonitor(fitted_validator), ServeConfig(queue_depth=2)
        )
        futures = [server.submit(stream[i]) for i in range(3)]
        assert not futures[0].done() and not futures[1].done()
        verdict = futures[2].result(timeout=0)
        assert verdict.status == OVERLOADED
        assert not verdict.accepted
        assert verdict.prediction == -1
        assert np.isnan(verdict.joint_discrepancy)
        assert server.stats()["overloaded"] == 1

    def test_bad_shape_quarantined_at_submit(self, fitted_validator):
        server = ValidationServer(RuntimeMonitor(fitted_validator))
        verdict = server.submit(np.zeros((5, 5))).result(timeout=0)
        assert verdict.status == resilience.QUARANTINED
        assert "single (C, H, W)" in verdict.reason
        assert server.stats()["quarantined_at_submit"] == 1
        # A 4-D singleton batch is accepted as "one image".
        future = server.submit(np.zeros((1, 1, 12, 12)))
        assert not future.done()  # queued, not rejected

    def test_expired_on_queue_deadline(self, fitted_validator, stream):
        clock = ManualClock()
        server = ValidationServer(
            RuntimeMonitor(fitted_validator),
            ServeConfig(max_batch=4, max_wait_ms=0.0, default_timeout_ms=10.0),
            clock=clock,
        )
        future = server.submit(stream[0])
        clock.advance(1.0)  # deadline long gone before any worker runs
        server.start()
        verdict = future.result(timeout=30.0)
        assert verdict.status == EXPIRED
        assert not verdict.accepted
        server.close()
        assert server.stats()["expired"] == 1
        assert server.stats()["completed"] == 0

    def test_submit_after_close_raises(self, fitted_validator, stream):
        server = ValidationServer(RuntimeMonitor(fitted_validator))
        server.start()
        server.close()
        with pytest.raises(RuntimeError):
            server.submit(stream[0])
        with pytest.raises(RuntimeError):
            server.start()

    def test_close_is_idempotent_and_drains(self, fitted_validator, stream):
        with ValidationServer(
            RuntimeMonitor(fitted_validator),
            ServeConfig(max_batch=4, max_wait_ms=10_000.0),
        ) as server:
            futures = [server.submit(stream[i]) for i in range(3)]
        server.close()  # second close: no-op
        # Context exit drained the partial batch before joining workers.
        for future in futures:
            assert future.done()
            assert future.result(timeout=0).status in (
                resilience.VALIDATED,
                resilience.FLAGGED,
            )


class TestServeDifferential:
    """Serve must add zero numeric change over the monitor itself."""

    def test_bit_identical_to_monitor_same_batch(self, fitted_validator, stream):
        monitor = RuntimeMonitor(fitted_validator)
        reference = monitor.classify(stream)

        # Recompute from scratch through the server: same 16-image batch
        # (all submitted before the worker starts, absorbed as one batch).
        server = ValidationServer(
            RuntimeMonitor(fitted_validator),
            ServeConfig(max_batch=len(stream), max_wait_ms=10_000.0),
        )
        futures = [server.submit(image) for image in stream]
        server.start()
        results = [future.result(timeout=60.0) for future in futures]
        server.close()

        assert server.stats()["batches"] == 1
        for ref, got in zip(reference, results):
            _assert_same_verdict(ref, got)

    def test_max_batch_one_matches_serial_loop(self, fitted_validator, stream):
        images = stream[:6]
        monitor = RuntimeMonitor(fitted_validator)
        reference = [monitor.classify(images[i : i + 1])[0] for i in range(len(images))]

        with ValidationServer(
            RuntimeMonitor(fitted_validator),
            ServeConfig(max_batch=1, max_wait_ms=0.0),
        ) as server:
            results = [server.classify(image, timeout=60.0) for image in images]

        for ref, got in zip(reference, results):
            _assert_same_verdict(ref, got)

    def test_cross_partition_agreement(self, fitted_validator, stream):
        # Different batch partitions are NOT bit-identical in float32
        # (BLAS picks different kernels by batch width) but must agree to
        # tight tolerance and produce identical accept/flag decisions.
        monitor = RuntimeMonitor(fitted_validator)
        per_image = [monitor.classify(stream[i : i + 1])[0] for i in range(len(stream))]
        full_batch = monitor.classify(stream)
        for one, many in zip(per_image, full_batch):
            assert one.prediction == many.prediction
            assert one.status == many.status
            assert one.accepted == many.accepted
            np.testing.assert_allclose(
                one.joint_discrepancy, many.joint_discrepancy, atol=1e-5, rtol=1e-5
            )

    def test_mixed_dtype_requests_keep_their_verdicts(self, fitted_validator, stream):
        # float32 and float64 requests in one batch window: grouping by
        # dtype means neither is promoted, so each matches its own
        # direct-monitor verdict exactly.
        monitor = RuntimeMonitor(fitted_validator)
        as32 = stream[:2].astype(np.float32)
        as64 = stream[2:4].astype(np.float64)
        ref32 = monitor.classify(as32)
        ref64 = monitor.classify(as64)

        server = ValidationServer(
            RuntimeMonitor(fitted_validator),
            ServeConfig(max_batch=4, max_wait_ms=10_000.0),
        )
        futures = [server.submit(image) for image in (*as32, *as64)]
        server.start()
        results = [future.result(timeout=60.0) for future in futures]
        server.close()

        for ref, got in zip((*ref32, *ref64), results):
            _assert_same_verdict(ref, got)


class TestServeConcurrency:
    def test_concurrent_producers_all_served(self, fitted_validator):
        images, _ = easy_image_task(48, seed=3)
        monitor = RuntimeMonitor(fitted_validator)
        results: dict[int, object] = {}
        lock = threading.Lock()

        with ValidationServer(
            monitor, ServeConfig(max_batch=8, max_wait_ms=5.0, workers=2)
        ) as server:

            def produce(start: int) -> None:
                for i in range(start, start + 12):
                    verdict = server.classify(images[i], timeout=120.0)
                    with lock:
                        results[i] = verdict

            threads = [
                threading.Thread(target=produce, args=(s,)) for s in (0, 12, 24, 36)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
                assert not thread.is_alive()

        assert len(results) == 48
        stats = server.stats()
        assert stats["submitted"] == 48
        assert stats["completed"] == 48
        assert stats["overloaded"] == stats["expired"] == 0
        # Monitor-side conservation: every request became exactly one verdict.
        counts = monitor.health()["counts"]
        assert counts["accepted"] + counts["rejected"] + counts["quarantined"] == 48

    def test_worker_survives_scorer_exception(self, fitted_validator, stream):
        monitor = RuntimeMonitor(fitted_validator)
        original = monitor.classify
        calls = {"n": 0}

        def explosive(images):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("injected classify explosion")
            return original(images)

        monitor.classify = explosive
        try:
            with ValidationServer(
                monitor, ServeConfig(max_batch=1, max_wait_ms=0.0)
            ) as server:
                first = server.submit(stream[0])
                with pytest.raises(RuntimeError, match="injected classify explosion"):
                    first.result(timeout=60.0)
                # Same worker thread keeps serving after the failed batch.
                second = server.classify(stream[1], timeout=60.0)
                assert second.status in (resilience.VALIDATED, resilience.FLAGGED)
        finally:
            del monitor.classify
        assert server.stats()["worker_errors"] == 1


class TestServeUnderFaults:
    def test_hung_worker_triggers_backpressure(self, fitted_validator, stream):
        monitor = RuntimeMonitor(fitted_validator)
        with hang_classify(monitor, nth=1, count=1) as fault:
            server = ValidationServer(
                monitor,
                ServeConfig(max_batch=1, max_wait_ms=0.0, queue_depth=2),
            )
            server.start()
            wedged = server.submit(stream[0])
            deadline = time.monotonic() + 30.0
            while fault["hangs"] == 0:  # worker has dequeued and wedged
                assert time.monotonic() < deadline
                time.sleep(0.005)
            queued = [server.submit(stream[i]) for i in (1, 2)]
            rejected = server.submit(stream[3]).result(timeout=0)
            assert rejected.status == OVERLOADED
            fault["release"].set()  # the wedge clears; everything drains
            assert wedged.result(timeout=60.0).status in (
                resilience.VALIDATED,
                resilience.FLAGGED,
            )
            for future in queued:
                future.result(timeout=60.0)
            server.close()
        assert server.stats()["overloaded"] == 1
        assert server.stats()["completed"] == 3

    def test_close_timeout_abandons_wedged_worker(self, fitted_validator, stream):
        monitor = RuntimeMonitor(fitted_validator)
        with hang_classify(monitor, nth=1, count=1) as fault:
            server = ValidationServer(
                monitor, ServeConfig(max_batch=1, max_wait_ms=0.0)
            )
            server.start()
            wedged = server.submit(stream[0])
            deadline = time.monotonic() + 30.0
            while fault["hangs"] == 0:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            start = time.monotonic()
            server.close(timeout=0.05)  # returns without the worker
            assert time.monotonic() - start < 10.0
            assert not wedged.done()
        # Injector exit released the hang; the worker drains and resolves.
        assert wedged.result(timeout=60.0) is not None

    def test_slow_classify_advances_injected_clock(self, fitted_validator, stream):
        monitor = RuntimeMonitor(fitted_validator)
        clock = ManualClock()
        with slow_classify(monitor, 5.0, clock=clock) as stats:
            monitor.classify(stream[:2])
        assert stats["calls"] == 1
        assert clock() == 5.0


class TestServeObservability:
    def test_metrics_and_spans_emitted(self, fitted_validator, stream):
        registry = MetricsRegistry()
        exporter = InMemorySpanExporter()
        tracer = Tracer(clock=ManualClock(), exporter=exporter)
        with obs.use(registry=registry, tracer=tracer, enabled=True):
            server = ValidationServer(
                RuntimeMonitor(fitted_validator),
                ServeConfig(max_batch=8, max_wait_ms=10_000.0, queue_depth=4),
            )
            futures = [server.submit(image) for image in stream[:4]]
            overload = server.submit(stream[4])  # queue_depth=4: rejected
            server.start()
            for future in futures:
                future.result(timeout=60.0)
            server.close()

            completed = obs.counter(
                "serve_requests_total", labels=("outcome",)
            ).labels(outcome="completed")
            overloaded = obs.counter(
                "serve_requests_total", labels=("outcome",)
            ).labels(outcome="overloaded")
            assert completed.value == 4
            assert overloaded.value == 1
            assert overload.result(timeout=0).status == OVERLOADED
            depth = obs.gauge("serve_queue_depth")
            assert depth.value == 0  # drained
        batch_spans = [s for s in exporter.spans if s.name == "serve.batch"]
        assert len(batch_spans) == 1
        assert batch_spans[0].attributes["size"] == 4


def _manual_supervision(**overrides):
    """Supervision with no background poll thread: tests drive poll()."""
    return SupervisorConfig(poll_interval_s=None, **overrides)


def _await(predicate, timeout=30.0, message="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {message}"
        time.sleep(0.005)


class TestEwma:
    def test_none_until_first_sample(self):
        ewma = Ewma(0.5)
        assert ewma.value is None
        ewma.observe(4.0)
        assert ewma.value == 4.0

    def test_folds_with_alpha(self):
        ewma = Ewma(0.5)
        ewma.observe(4.0)
        ewma.observe(0.0)
        assert ewma.value == 2.0
        ewma.observe(2.0)
        assert ewma.value == 2.0

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError):
            Ewma(alpha)


class TestBatcherRequeueDrain:
    def test_requeue_puts_items_at_the_front_in_order(self):
        batcher = MicroBatcher(max_batch=4, max_wait_ms=0.0)
        batcher.offer("c")
        batcher.requeue(["a", "b"])
        assert batcher.next_batch() == ["a", "b", "c"]

    def test_requeue_ignores_queue_depth_and_closed_state(self):
        batcher = MicroBatcher(max_batch=8, max_wait_ms=0.0, queue_depth=1)
        batcher.offer(1)
        batcher.close()
        # A dying worker must be able to return its tickets even when the
        # queue is nominally full or the server is draining.
        batcher.requeue([2, 3])
        assert len(batcher) == 3
        assert batcher.next_batch() == [2, 3, 1]

    def test_drain_removes_everything(self):
        batcher = MicroBatcher(max_batch=2, max_wait_ms=0.0)
        for item in range(5):
            batcher.offer(item)
        assert batcher.drain() == [0, 1, 2, 3, 4]
        assert len(batcher) == 0
        assert batcher.drain() == []


class TestFutureFirstWriterWins:
    def test_try_resolve_then_try_fail(self):
        future = VerdictFuture()
        assert future._try_resolve("first")
        assert not future._try_resolve("second")
        assert not future._try_fail(ValueError("late"))
        assert future.result(timeout=0) == "first"

    def test_try_fail_then_try_resolve(self):
        future = VerdictFuture()
        assert future._try_fail(ValueError("boom"))
        assert not future._try_resolve("late")
        with pytest.raises(ValueError, match="boom"):
            future.result(timeout=0)


class TestWorkerSupervision:
    def test_dead_worker_restarts_and_request_completes(
        self, fitted_validator, stream
    ):
        clock = ManualClock()
        server = ValidationServer(
            RuntimeMonitor(fitted_validator),
            ServeConfig(
                max_batch=1,
                max_wait_ms=0.0,
                workers=1,
                supervision=_manual_supervision(),
            ),
            clock=clock,
        )
        server.start()
        try:
            with kill_worker(server, nth=1, count=1) as fault:
                future = server.submit(stream[0])
                _await(
                    lambda: server.supervisor.snapshot()["deaths"] == 1,
                    message="the injected worker death",
                )
                assert fault["kills"] == 1
                # The orphaned ticket went back to the queue, not lost.
                assert not future.done()
                # Backoff gate: a poll at the death instant must NOT
                # restart yet (backoff_base_s has not elapsed).
                server.supervisor.poll()
                assert server.supervisor.snapshot()["restarts"] == 0
                clock.advance(0.06)  # > backoff_base_s
                assert server.supervisor.poll() == 1
                verdict = future.result(timeout=60.0)
            assert verdict.status in (resilience.VALIDATED, resilience.FLAGGED)
            snapshot = server.supervisor.snapshot()
            assert snapshot["deaths"] == snapshot["restarts"] == 1
            assert "InjectedWorkerDeath" in snapshot["workers"][0]["last_error"]
            stats = server.stats()
            assert stats["restarts"] == 1
            assert stats["worker_errors"] == 1
            assert stats["completed"] == 1
        finally:
            server.close(timeout=10.0)

    def test_batcher_raise_kills_worker_without_losing_tickets(
        self, fitted_validator, stream
    ):
        clock = ManualClock()
        server = ValidationServer(
            RuntimeMonitor(fitted_validator),
            ServeConfig(
                max_batch=1,
                max_wait_ms=0.0,
                workers=1,
                supervision=_manual_supervision(),
            ),
            clock=clock,
        )
        server.start()
        try:
            with raise_in_batcher(server.batcher, nth=1, count=1):
                _await(
                    lambda: server.supervisor.snapshot()["deaths"] == 1,
                    message="the injected batcher death",
                )
                future = server.submit(stream[0])
                clock.advance(0.06)
                server.supervisor.poll()
                verdict = future.result(timeout=60.0)
            assert verdict.status in (resilience.VALIDATED, resilience.FLAGGED)
        finally:
            server.close(timeout=10.0)

    def test_restart_budget_trips_breaker_and_sheds_fast(
        self, fitted_validator, stream
    ):
        clock = ManualClock()
        server = ValidationServer(
            RuntimeMonitor(fitted_validator),
            ServeConfig(
                max_batch=1,
                max_wait_ms=0.0,
                workers=1,
                supervision=_manual_supervision(
                    restart_budget=2, restart_window_s=1_000.0
                ),
            ),
            clock=clock,
        )
        server.start()
        try:
            with kill_worker(server, nth=1, count=-1) as fault:
                doomed = server.submit(stream[0])
                deadline = time.monotonic() + 30.0
                while server.supervisor.breaker.state != "open":
                    assert time.monotonic() < deadline
                    server.supervisor.poll()
                    clock.advance(0.2)
                    time.sleep(0.005)
                assert fault["kills"] >= 2
                # Fail-fast at the door while the pool cannot serve.
                shed = server.submit(stream[1]).result(timeout=0)
                assert shed.status == OVERLOADED
                assert "restart budget" in shed.reason
                assert shed.detail == {"supervisor_state": "open"}
                assert server.stats()["shed_breaker"] == 1
                assert not server.supervisor.allow_submit()
                server.close(timeout=5.0)
            # The poisoned ticket was retried up to the bound, then failed
            # with the worker's fatal exception — or, if close() won the
            # race, shed with the structured shutdown verdict.
            assert doomed.done()
            try:
                verdict = doomed.result(timeout=0)
            except InjectedWorkerDeath:
                assert server.stats()["failed"] == 1
            else:
                assert verdict.status == OVERLOADED
        finally:
            server.close(timeout=5.0)

    def test_close_with_dead_worker_resolves_every_queued_future(
        self, fitted_validator, stream
    ):
        clock = ManualClock()
        server = ValidationServer(
            RuntimeMonitor(fitted_validator),
            ServeConfig(
                max_batch=1,
                max_wait_ms=0.0,
                workers=1,
                supervision=_manual_supervision(),
            ),
            clock=clock,
        )
        server.start()
        with kill_worker(server, nth=1, count=-1):
            first = server.submit(stream[0])
            _await(
                lambda: server.supervisor.snapshot()["deaths"] == 1,
                message="the worker death",
            )
            # Never polled: the pool is dead, and these can only queue.
            queued = [server.submit(stream[i]) for i in (1, 2)]
            start = time.monotonic()
            server.close(timeout=5.0)
            assert time.monotonic() - start < 30.0  # close() must not hang
        for future in (first, *queued):
            assert future.done()
            verdict = future.result(timeout=0)
            assert verdict.status == OVERLOADED
            assert "closed" in verdict.reason
        stats = server.stats()
        assert stats["shed_shutdown"] == 3
        assert stats["queue_depth"] == 0

    def test_supervision_config_validation(self):
        with pytest.raises(ValueError):
            SupervisorConfig(restart_budget=0)
        with pytest.raises(ValueError):
            SupervisorConfig(poll_interval_s=0.0)
        with pytest.raises(ValueError):
            SupervisorConfig(heartbeat_timeout_s=-1.0)


class TestAdaptiveShedding:
    def _server(self, fitted_validator, **config):
        return ValidationServer(
            RuntimeMonitor(fitted_validator),
            ServeConfig(supervision=_manual_supervision(), **config),
        )

    def test_never_sheds_cold(self, fitted_validator, stream):
        # No worker started, no samples: the shedder has no estimate and
        # must queue rather than reject on a made-up number.
        server = self._server(fitted_validator, latency_slo_ms=0.001)
        assert server._projected_wait_s() is None
        future = server.submit(stream[0])
        assert not future.done()

    def test_sheds_when_projection_exceeds_slo(self, fitted_validator, stream):
        server = self._server(fitted_validator, latency_slo_ms=10.0)
        server._service_ewma.observe(5.0)  # 5 s per batch >> 10 ms SLO
        # An empty queue admits whatever the service estimate says ...
        assert not server.submit(stream[0]).done()
        # ... and one queued batch ahead projects a 5 s wait.
        verdict = server.submit(stream[1]).result(timeout=0)
        assert verdict.status == OVERLOADED
        assert "SLO" in verdict.reason
        assert verdict.detail["projected_wait_ms"] == pytest.approx(5_000.0)
        assert verdict.detail["slo_ms"] == 10.0
        assert server.stats()["shed_slo"] == 1

    def test_projection_is_backlog_times_service(self, fitted_validator, stream):
        server = self._server(
            fitted_validator, max_batch=4, workers=2, latency_slo_ms=10_000.0
        )
        server._service_ewma.observe(0.8)
        # Empty queue: nothing ahead of a new request.
        assert server._projected_wait_s() == 0.0
        for image in stream[:4]:
            server.submit(image)
        # One full batch ahead, shared over two workers.
        assert server._projected_wait_s() == pytest.approx(0.4)
        server.submit(stream[4])
        assert server._projected_wait_s() == pytest.approx(0.8)

    def _drive(self, fitted_validator, seconds_per_batch, **config):
        """A never-started server on a manual clock, plus its clock; the
        test dequeues and scores batches itself, and each scored batch
        advances the clock by ``seconds_per_batch``."""
        clock = ManualClock()
        monitor = RuntimeMonitor(fitted_validator)
        server = ValidationServer(
            monitor,
            ServeConfig(
                max_wait_ms=0.0, supervision=_manual_supervision(), **config
            ),
            clock=clock,
        )
        return server, slow_classify(monitor, seconds_per_batch, clock=clock)

    def test_cold_first_batch_does_not_latch(self, fitted_validator, stream):
        # A cold monitor's first batch takes 200 ms, four times the SLO.
        server, slow = self._drive(fitted_validator, 0.2, latency_slo_ms=50.0)
        with slow:
            first = server.submit(stream[0])
            server._process(server.batcher.next_batch())
            assert first.result(timeout=0).status in (
                resilience.VALIDATED,
                resilience.FLAGGED,
            )
            assert server._service_ewma.value == pytest.approx(0.2)
            # The queue is empty, so the next request is admitted.
            second = server.submit(stream[1])
            assert not second.done()
            server._process(server.batcher.next_batch())
            assert second.result(timeout=0).status != OVERLOADED
        assert server.stats()["shed_slo"] == 0

    def test_overload_then_idle_admits_again(self, fitted_validator, stream):
        server, slow = self._drive(
            fitted_validator, 0.1, max_batch=2, latency_slo_ms=50.0
        )
        with slow:
            server.submit(stream[0])
            server._process(server.batcher.next_batch())  # service: 100 ms
            # Overload: with one request queued, every further arrival
            # projects a 100 ms wait and is shed.
            queued = server.submit(stream[1])
            shed = [server.submit(image) for image in stream[2:6]]
            assert all(f.result(timeout=0).status == OVERLOADED for f in shed)
            assert server.stats()["shed_slo"] == 4
            # Idle: the worker drains the backlog ...
            server._process(server.batcher.next_batch())
            assert queued.result(timeout=0).status != OVERLOADED
            assert len(server.batcher) == 0
            # ... and the server admits again, with the same service
            # estimate that shed the requests above.
            assert server._service_ewma.value == pytest.approx(0.1)
            again = server.submit(stream[6])
            assert not again.done()
            server._process(server.batcher.next_batch())
            assert again.result(timeout=0).status != OVERLOADED
        assert server.stats()["shed_slo"] == 4

    def test_static_queue_bound_remains_the_backstop(
        self, fitted_validator, stream
    ):
        server = self._server(
            fitted_validator, queue_depth=1, latency_slo_ms=10_000.0
        )
        server.submit(stream[0])
        verdict = server.submit(stream[1]).result(timeout=0)
        assert verdict.status == OVERLOADED
        assert server.stats()["overloaded"] == 1

    def test_shed_reasons_cover_every_shed_count_key(self):
        assert set(SHED_REASONS) == {
            "overloaded", "shed_slo", "shed_breaker", "shed_shutdown",
        }
        assert set(SHED_REASONS.values()) == {
            "queue_full", "slo", "breaker", "shutdown",
        }


class TestDeadlineRecheck:
    def test_ticket_expiring_during_previous_group_is_not_scored(
        self, fitted_validator, stream
    ):
        # Two dtype groups in one batch; scoring the first advances the
        # (manual) clock past the second's deadline, so the re-check after
        # group formation must expire it instead of burning a batch slot.
        clock = ManualClock()
        monitor = RuntimeMonitor(fitted_validator)
        server = ValidationServer(
            monitor,
            ServeConfig(
                max_batch=4,
                max_wait_ms=10_000.0,
                workers=1,
                supervision=_manual_supervision(),
            ),
            clock=clock,
        )
        with slow_classify(monitor, 1.0, clock=clock):
            # Four tickets fill max_batch exactly, so the batch flushes on
            # width (the manual clock never elapses the wait window).
            first = [
                server.submit(image.astype(np.float32)) for image in stream[:3]
            ]
            late = server.submit(
                stream[3].astype(np.float64), timeout_ms=50.0
            )
            server.start()
            for future in first:
                assert future.result(timeout=60.0).status in (
                    resilience.VALIDATED,
                    resilience.FLAGGED,
                )
            assert late.result(timeout=60.0).status == EXPIRED
            server.close(timeout=10.0)
        stats = server.stats()
        assert stats["completed"] == 3
        assert stats["expired"] == 1


class TestServeHealth:
    def test_health_combines_server_and_monitor(self, fitted_validator, stream):
        with ValidationServer(
            RuntimeMonitor(fitted_validator),
            ServeConfig(
                max_batch=4,
                max_wait_ms=0.0,
                latency_slo_ms=5_000.0,
                supervision=_manual_supervision(),
            ),
        ) as server:
            server.classify(stream[0], timeout=60.0)
            health = server.health()
            assert set(health) == {"server", "monitor"}
            assert set(health["server"]) == {
                "counts", "supervisor", "shedding", "rollout",
            }
            # No controller attached: the rollout slot reports None.
            assert health["server"]["rollout"] is None
            supervisor = health["server"]["supervisor"]
            assert supervisor["live_workers"] == 1
            assert supervisor["deaths"] == supervisor["restarts"] == 0
            assert supervisor["state"] == "closed"
            shedding = health["server"]["shedding"]
            assert set(shedding) == {
                "latency_slo_ms", "ewma_service_s", "projected_wait_s",
            }
            assert shedding["latency_slo_ms"] == 5_000.0
            assert shedding["ewma_service_s"] is not None
            assert shedding["projected_wait_s"] is not None
            assert health["monitor"]["status"] == "ok"
