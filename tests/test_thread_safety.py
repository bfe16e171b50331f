"""Thread-safety stress tests for the shared serving substrate.

These pin the headline bugfixes behind ``repro.serve``: the monitor's
verdict tallies and breaker registry are lock-guarded (no lost counts,
no double-registered breakers), breaker transitions fire exactly once
under concurrent failures, ``health()`` snapshots are atomic, and
threads scoring the same batch concurrently each get the serial result.

Thread counts are hypothesis-driven (under the repo's deterministic
profile) so the interleavings vary across seeds without flaky timing
assumptions: every assertion is about *conservation*, not ordering.
"""

import pickle
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import DeepValidator, RuntimeMonitor, ValidatorConfig
from repro.obs.metrics import MetricsRegistry
from repro.serve import ServeConfig, ValidationServer
from repro.testing.faults import fail_packed_scorer
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


def _run_threads(workers):
    """Start, join, and surface the first exception from worker callables."""
    errors = []

    def guarded(fn):
        def run():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 — reraised below
                errors.append(exc)

        return run

    threads = [threading.Thread(target=guarded(fn)) for fn in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300.0)
        assert not thread.is_alive(), "stress worker wedged"
    if errors:
        raise errors[0]


class TestMonitorThreadSafety:
    @given(n_threads=st.integers(min_value=2, max_value=6))
    @settings(max_examples=5, deadline=None)
    def test_no_lost_verdict_counts(self, fitted_validator, n_threads):
        per_thread = 3  # batches per thread
        batch = 4  # images per batch
        monitor = RuntimeMonitor(fitted_validator)
        images, _ = easy_image_task(n_threads * per_thread * batch, seed=11)

        def classify_slice(start: int):
            def run():
                for b in range(per_thread):
                    lo = start + b * batch
                    monitor.classify(images[lo : lo + batch])

            return run

        _run_threads(
            [classify_slice(t * per_thread * batch) for t in range(n_threads)]
        )

        total = n_threads * per_thread * batch
        counts = monitor.health()["counts"]
        # Conservation: every image produced exactly one tallied verdict
        # (degraded verdicts also land in accepted/rejected, so those
        # three partitions cover the stream).
        assert (
            counts["accepted"] + counts["rejected"] + counts["quarantined"] == total
        )

    @given(n_threads=st.integers(min_value=2, max_value=6))
    @settings(max_examples=3, deadline=None)
    def test_health_snapshot_is_consistent(self, fitted_validator, n_threads):
        monitor = RuntimeMonitor(fitted_validator)
        images, _ = easy_image_task(n_threads * 8, seed=23)
        stop = threading.Event()
        snapshots = []

        def classify_slice(start: int):
            def run():
                for b in range(4):
                    monitor.classify(images[start + b * 2 : start + b * 2 + 2])

            return run

        def observe():
            while not stop.is_set():
                snapshots.append(monitor.health())

        observer = threading.Thread(target=observe)
        observer.start()
        try:
            _run_threads([classify_slice(t * 8) for t in range(n_threads)])
        finally:
            stop.set()
            observer.join(timeout=60.0)
        assert not observer.is_alive()

        scored_total = n_threads * 8
        for snap in snapshots:
            counts = snap["counts"]
            scored = counts["accepted"] + counts["rejected"]
            # Atomicity: a snapshot may be stale but never torn — the
            # rate it reports always matches its own counts.
            if scored:
                assert snap["rejection_rate"] == counts["rejected"] / scored
            assert scored + counts["quarantined"] <= scored_total

    @pytest.mark.filterwarnings(
        "ignore::repro.core.resilience.DegradedModeWarning"
    )
    def test_breaker_opens_exactly_once_under_concurrency(
        self, fitted_validator, monkeypatch
    ):
        # This test *intends* to degrade (that's what trips the breaker),
        # so strict-mode escalation of the degraded warning must stay off
        # even when the suite runs under REPRO_STRICT=1.
        monkeypatch.setenv("REPRO_STRICT", "0")

        registry = MetricsRegistry()
        with obs.use(registry=registry, enabled=True):
            monitor = RuntimeMonitor(
                fitted_validator, breaker_threshold=2, breaker_cooldown=10_000.0
            )
            images, _ = easy_image_task(32, seed=31)
            broken = fitted_validator.validators[0]
            with fail_packed_scorer(broken, nth=1, count=-1):
                def classify_slice(start: int):
                    def run():
                        for b in range(4):
                            lo = start + b * 2
                            monitor.classify(images[lo : lo + 2])

                    return run

                _run_threads([classify_slice(t * 8) for t in range(4)])

            health = monitor.health()["layers"][broken.layer_name]
            # The breaker crossed CLOSED -> OPEN exactly once, no matter
            # how many threads raced their record_failure calls.
            assert health["state"] == "open"
            assert health["times_opened"] == 1
            transitions = obs.counter(
                "monitor_breaker_transitions_total", labels=("layer", "to")
            ).labels(layer=broken.layer_name, to="open")
            assert transitions.value == 1

        # Every image still got a verdict (degraded or rejected, never lost).
        counts = monitor.health()["counts"]
        assert counts["accepted"] + counts["rejected"] + counts["quarantined"] == 32

    def test_breaker_registry_not_duplicated(self, fitted_validator):
        monitor = RuntimeMonitor(fitted_validator)
        positions = range(len(fitted_validator.validators))
        seen = [[] for _ in range(8)]

        def toucher(slot: int):
            def run():
                for position in positions:
                    seen[slot].append(monitor._layer_health(position))

            return run

        _run_threads([toucher(s) for s in range(8)])
        for position in positions:
            healths = {id(slot_seen[position]) for slot_seen in seen}
            assert len(healths) == 1, "first-touch race created duplicate breakers"


def _verdict_matches(reference, candidate) -> bool:
    """Whole-verdict equality (the bit-identity contract, as a bool)."""
    return (
        candidate.prediction == reference.prediction
        and candidate.status == reference.status
        and candidate.accepted == reference.accepted
        and candidate.skipped_layers == reference.skipped_layers
        and np.array_equal(candidate.per_layer, reference.per_layer)
        and (
            candidate.joint_discrepancy == reference.joint_discrepancy
            or (
                np.isnan(reference.joint_discrepancy)
                and np.isnan(candidate.joint_discrepancy)
            )
        )
    )


@pytest.mark.rollout
class TestMonitorHotSwap:
    """Serve-under-swap bit-identity: a hot swap lands exactly at a group
    boundary — no ticket ever observes a half-swapped monitor."""

    def _generations(self, fitted_validator):
        """The incumbent plus a pickle-round-tripped twin whose threshold
        flips every acceptance (distinguishable generations)."""
        twin = pickle.loads(pickle.dumps(fitted_validator))
        twin.epsilon = -1e9  # flags everything the incumbent accepts
        return RuntimeMonitor(fitted_validator), RuntimeMonitor(twin)

    def test_swap_between_batches_is_bit_identical_per_generation(
        self, fitted_validator
    ):
        images, _ = easy_image_task(12, seed=53)
        incumbent, candidate = self._generations(fitted_validator)
        ref_incumbent = [
            incumbent.classify(images[i : i + 1])[0] for i in range(6)
        ]
        ref_candidate = [
            candidate.classify(images[i : i + 1])[0] for i in range(6, 12)
        ]
        # The generations genuinely disagree, or the test proves nothing.
        assert any(
            not _verdict_matches(a, b)
            for a, b in zip(
                ref_incumbent,
                [candidate.classify(images[i : i + 1])[0] for i in range(6)],
            )
        )

        server = ValidationServer(
            incumbent,
            ServeConfig(max_batch=1, max_wait_ms=0.0, workers=1, queue_depth=64),
        )
        with server:
            first = [f.result(timeout=60.0) for f in map(server.submit, images[:6])]
            previous = server.swap_monitor(candidate, bundle_version="twin@v2")
            assert previous is incumbent
            assert server.stats()["bundle_version"] == "twin@v2"
            second = [f.result(timeout=60.0) for f in map(server.submit, images[6:])]

        for ref, got in zip(ref_incumbent, first):
            assert _verdict_matches(ref, got)
        for ref, got in zip(ref_candidate, second):
            assert _verdict_matches(ref, got)

    def test_rapid_swaps_never_tear_a_verdict(self, fitted_validator):
        images, _ = easy_image_task(24, seed=59)
        incumbent, candidate = self._generations(fitted_validator)
        ref_a = [incumbent.classify(images[i : i + 1])[0] for i in range(24)]
        ref_b = [candidate.classify(images[i : i + 1])[0] for i in range(24)]

        server = ValidationServer(
            incumbent,
            ServeConfig(max_batch=1, max_wait_ms=0.0, workers=2, queue_depth=64),
        )
        stop = threading.Event()

        def flipper():
            generation = False
            while not stop.is_set():
                server.swap_monitor(candidate if generation else incumbent)
                generation = not generation
                time.sleep(0.0005)

        swapper = threading.Thread(target=flipper)
        with server:
            swapper.start()
            try:
                futures = [server.submit(image) for image in images]
                verdicts = [future.result(timeout=60.0) for future in futures]
            finally:
                stop.set()
                swapper.join(timeout=60.0)
        assert not swapper.is_alive()

        # Hard invariant: every verdict is wholly one generation's work.
        # (Which generation scored each ticket is a race — that's fine;
        # a verdict matching *neither* reference is a torn monitor read.)
        for position, got in enumerate(verdicts):
            assert _verdict_matches(ref_a[position], got) or _verdict_matches(
                ref_b[position], got
            ), f"ticket {position} observed a half-swapped monitor"


class TestConcurrentScoring:
    def test_concurrent_identical_batches_match_serial(
        self, fitted_validator
    ):
        engine = fitted_validator.engine()
        images, _ = easy_image_task(4, seed=41)
        serial_predictions, serial_per_layer = engine.discrepancies(images)
        lock = threading.Lock()
        barrier = threading.Barrier(6)
        results = []

        def worker():
            barrier.wait()  # maximise overlap on the same batch
            predictions, per_layer = engine.discrepancies(images)
            with lock:
                results.append((predictions, per_layer))

        _run_threads([worker] * 6)

        assert len(results) == 6
        for predictions, per_layer in results:
            assert (predictions == serial_predictions).all()
            assert (per_layer == serial_per_layer).all()
