"""Chaos-soak tests for the self-healing serving stack.

The acceptance soak is the load-bearing one: a seeded :class:`ChaosPlan`
kills the worker while classification is slow and one call wedges
outright, and the run must still resolve every submitted request with a
structured verdict, restart the worker, and — because ``max_batch=1``
keeps every request a singleton partition — produce verdicts
bit-identical to calling ``RuntimeMonitor.classify`` directly on the
same singletons.
"""

import contextlib

import numpy as np
import pytest

from repro.core import DeepValidator, RuntimeMonitor, ValidatorConfig
from repro.obs.tracing import ManualClock
from repro.serve import ServeConfig, SupervisorConfig, ValidationServer
from repro.testing import ChaosPlan, SoakInvariantError, faults, run_soak
from tests.helpers import easy_image_task, train_tiny_model

pytestmark = pytest.mark.chaos


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


def _singleton_server(fitted_validator, clock, **overrides):
    """A server whose batches are all singletons (bit-identity partitions)."""
    config = ServeConfig(
        max_batch=1,
        max_wait_ms=0.0,
        queue_depth=overrides.pop("queue_depth", 64),
        supervision=overrides.pop(
            "supervision",
            # Explicit polls only (run_soak drives them); generous retry
            # headroom so twice-killed batches still complete.
            SupervisorConfig(poll_interval_s=None, max_batch_retries=3),
        ),
        **overrides,
    )
    return ValidationServer(
        RuntimeMonitor(fitted_validator), config, clock=clock
    )


def _assert_same_verdict(reference, candidate):
    assert candidate.prediction == reference.prediction
    assert candidate.status == reference.status
    assert candidate.accepted == reference.accepted
    assert candidate.skipped_layers == reference.skipped_layers
    np.testing.assert_array_equal(candidate.per_layer, reference.per_layer)
    if np.isnan(reference.joint_discrepancy):
        assert np.isnan(candidate.joint_discrepancy)
    else:
        assert candidate.joint_discrepancy == reference.joint_discrepancy


class TestAcceptanceSoak:
    def test_every_worker_dies_yet_every_request_resolves_bit_identically(
        self, fitted_validator, stream
    ):
        # Direct-monitor reference on the same singleton partitions.
        reference_monitor = RuntimeMonitor(fitted_validator)
        reference = [
            reference_monitor.classify(stream[i : i + 1])[0]
            for i in range(len(stream))
        ]

        clock = ManualClock()
        server = _singleton_server(fitted_validator, clock)
        plan = (
            ChaosPlan(seed=7)
            # Latency on every classify (throwaway clock: the delay must
            # not perturb the soak's fault schedule).
            .fault(
                faults.slow_classify, server.monitor, 0.01, at=0.0, clock=ManualClock()
            )
            # The worker dies on its first batch after arming.
            .fault(faults.kill_worker, server, at=0.0, nth=1, count=1)
            # One classify call wedges until the timeline disarms it.
            .fault(faults.hang_classify, server.monitor, at=0.3, nth=1, count=1)
        )

        report = run_soak(
            server,
            stream,
            clock,
            plan,
            step_s=0.05,
            requests_per_step=(1, 3),
        )

        # The worker died and was restarted.
        assert report.supervisor["deaths"] == 1
        assert report.injected_deaths == 1
        assert report.supervisor["worker"]["generation"] >= 2  # spawn + restart
        assert report.supervisor["restarts"] == report.supervisor["deaths"]
        assert report.supervisor["state"] == "closed"

        # No request was dropped, shed, expired, or failed: all completed.
        assert report.submitted == len(stream)
        assert report.stats["completed"] == len(stream)
        assert report.stats["failed"] == 0
        assert report.stats["expired"] == 0
        assert report.outcome("error:InjectedWorkerDeath") == 0

        # Bit-identity: queueing, requeueing after death, and restarts
        # added zero numeric change over the monitor itself.
        assert len(report.verdicts) == len(reference)
        for ref, got in zip(reference, report.verdicts):
            _assert_same_verdict(ref, got)


class TestBroaderSoak:
    @pytest.mark.filterwarnings("ignore::Warning")
    def test_numeric_and_substrate_faults_conserve_counts(
        self, fitted_validator, trained_tiny_model, stream, monkeypatch
    ):
        # The soak asserts DEGRADED verdicts, which exist only with strict
        # mode off: REPRO_STRICT=1 raises the DegradedModeWarning each
        # degraded batch emits, and the worker fails that batch instead.
        # The CI faults step runs without strict mode for the same reason.
        monkeypatch.setenv("REPRO_STRICT", "0")
        model = trained_tiny_model[0]
        clock = ManualClock()
        server = _singleton_server(fitted_validator, clock)
        plan = (
            ChaosPlan(seed=11)
            # Window of corrupted activations on one probe.
            .fault(faults.nan_activations, model, layer_index=1, at=0.1, until=0.4)
            # One layer's scorer raises for a while (degraded verdicts).
            .fault(
                faults.fail_packed_scorer,
                fitted_validator.validators[0],
                at=0.45,
                until=0.6,
                count=-1,
            )
            # A next_batch call raises: one worker death, no lost ticket.
            .fault(faults.raise_in_batcher, server.batcher, at=0.2, nth=1, count=1)
        )

        report = run_soak(
            server, stream, clock, plan, step_s=0.05, requests_per_step=2
        )

        assert report.submitted == len(stream)
        assert report.stats["completed"] == len(stream)
        # All verdicts stay inside the structured vocabulary.
        assert set(report.resolved) <= {
            "VALIDATED", "FLAGGED", "DEGRADED", "QUARANTINED",
        }
        assert report.supervisor["deaths"] == report.injected_deaths == 1
        assert report.supervisor["restarts"] == 1
        # Serve-side conservation matches monitor-side conservation.
        monitor_total = sum(report.monitor_counts.values())
        assert monitor_total >= report.stats["completed"]


class TestSoakDetectsNonRecovery:
    def test_unrecoverable_pool_raises_invariant_error(
        self, fitted_validator, stream
    ):
        clock = ManualClock()
        # Tiny restart budget + a kill on every batch: the breaker opens,
        # the worker cannot heal, and the soak must FAIL, not hang.
        server = _singleton_server(
            fitted_validator,
            clock,
            supervision=SupervisorConfig(
                poll_interval_s=None,
                restart_budget=2,
                restart_window_s=1_000.0,
            ),
        )
        plan = ChaosPlan(seed=3).fault(
            faults.kill_worker, server, at=0.0, count=-1
        )
        try:
            with pytest.raises(SoakInvariantError, match="failed to settle"):
                run_soak(
                    server,
                    stream[:4],
                    clock,
                    plan,
                    step_s=0.05,
                    settle_s=1.5,
                )
        finally:
            server.close(timeout=5.0)


class TestChaosPlanShape:
    def test_rejects_bad_windows(self, fitted_validator):
        monitor = RuntimeMonitor(fitted_validator)
        with pytest.raises(ValueError, match="start"):
            ChaosPlan().fault(faults.slow_classify, monitor, 0.1, at=-1.0)
        with pytest.raises(ValueError, match="empty"):
            ChaosPlan().fault(faults.hang_classify, monitor, at=2.0, until=2.0)

    def test_describe_lists_windows_in_order(self, fitted_validator):
        monitor = RuntimeMonitor(fitted_validator)
        plan = (
            ChaosPlan()
            .fault(faults.slow_classify, monitor, 0.5, at=0.0, until=1.0)
            .fault(faults.hang_classify, monitor, at=2.0)
        )
        described = plan.describe()
        assert len(described) == len(plan) == 2
        assert described[0].startswith("[0, 1) slow_classify")
        assert described[1].startswith("[2, end) hang_classify")

    def test_injected_deaths_sums_kills_and_raises(self, fitted_validator):
        clock = ManualClock()
        server = _singleton_server(fitted_validator, clock)
        plan = (
            ChaosPlan()
            .fault(faults.kill_worker, server, at=0.0)
            .fault(faults.raise_in_batcher, server.batcher, at=0.0)
        )
        assert plan.injected_deaths() == 0  # nothing armed yet
        timeline: list = []
        plan._sync(0.0, timeline)
        plan._disarm_all(0.0, timeline)
        assert plan.injected_deaths() == 0  # armed but never fired
        assert len(timeline) == 4  # two arms + two disarms

    def test_fault_arms_any_injector_in_its_window(self):
        entered, exited = [], []

        @contextlib.contextmanager
        def custom_fault(target, level=1, mode="x"):
            entered.append((target, level, mode))
            yield {"kills": 2, "raises": 1}
            exited.append(target)

        plan = ChaosPlan().fault(
            custom_fault, "target", at=0.5, until=2.0, level=3, mode="y"
        )
        label = "custom_fault(level=3, mode='y')"
        assert plan.describe() == [f"[0.5, 2) {label}"]
        timeline: list = []
        plan._sync(0.4, timeline)
        assert entered == [] and plan.injected_deaths() == 0
        plan._sync(0.5, timeline)
        assert entered == [("target", 3, "y")] and exited == []
        assert plan.injected_deaths() == 3  # read from the yielded stats
        plan._sync(2.0, timeline)
        assert exited == ["target"]
        assert timeline == [f"t=0.5 arm {label}", f"t=2 disarm {label}"]
        with pytest.raises(ValueError, match="start"):
            ChaosPlan().fault(custom_fault, "target", at=-0.1)
        with pytest.raises(ValueError, match="empty"):
            ChaosPlan().fault(custom_fault, "target", at=1.0, until=0.5)
