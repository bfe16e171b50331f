"""Chaos soaks for mid-flight rollouts: the ISSUE acceptance criterion.

Promoting a deliberately poisoned bundle under live soak traffic must
trip a guardrail, revert to the incumbent with zero lost or late
tickets, latch the re-promotion breaker, and leave every completed
verdict bit-identical to the incumbent monitor's direct classification
of the same singleton partitions. The healthy variant proves the
inverse: a mid-soak promotion with worker kills in flight still resolves
every ticket bit-identically.
"""

import contextlib

import numpy as np
import pytest

from repro.core import (
    BundleStore,
    DeepValidator,
    DegradedModeWarning,
    RuntimeMonitor,
    ValidatorBundle,
    ValidatorConfig,
)
from repro.core.bundle import BundleIntegrityError
from repro.obs.tracing import ManualClock
from repro.serve import (
    IDLE,
    PROMOTED,
    ROLLED_BACK,
    RolloutConfig,
    RolloutController,
    RolloutError,
    ServeConfig,
    SupervisorConfig,
    ValidationServer,
)
from repro.testing import ChaosPlan, corrupt_bundle, faults, run_soak
from repro.testing.faults import fail_packed_scorer
from repro.utils import strict_mode
from tests.helpers import easy_image_task, train_tiny_model

pytestmark = [pytest.mark.rollout, pytest.mark.chaos]


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


@pytest.fixture()
def store(fitted_validator, tmp_path):
    store = BundleStore(tmp_path)
    store.save(ValidatorBundle.pack(fitted_validator, version=1, name="tiny"))
    return store


def _singleton_server(fitted_validator, clock, **overrides):
    """max_batch=1 keeps every request a bit-identity partition."""
    config = ServeConfig(
        max_batch=1,
        max_wait_ms=0.0,
        queue_depth=overrides.pop("queue_depth", 64),
        supervision=overrides.pop(
            "supervision",
            SupervisorConfig(poll_interval_s=None, max_batch_retries=3),
        ),
        **overrides,
    )
    return ValidationServer(
        RuntimeMonitor(fitted_validator), config, clock=clock
    )


def _reference_verdicts(fitted_validator, stream):
    monitor = RuntimeMonitor(fitted_validator)
    reference = [
        monitor.classify(stream[i : i + 1])[0] for i in range(len(stream))
    ]
    return reference


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


def _assert_unperturbed(report, reference):
    """Zero lost/late tickets; served verdicts == incumbent's own scoring."""
    assert report.submitted == len(reference)
    assert report.stats["completed"] == len(reference)
    assert report.stats["failed"] == 0
    assert report.stats["expired"] == 0
    assert len(report.verdicts) == len(reference)
    for ref, got in zip(reference, report.verdicts):
        _assert_same_verdict(ref, got)


class TestPoisonedCandidateUnderSoak:
    def test_failing_candidate_trips_rollback_without_touching_traffic(
        self, fitted_validator, stream, store
    ):
        reference = _reference_verdicts(fitted_validator, stream)
        clock = ManualClock()
        server = _singleton_server(fitted_validator, clock)
        incumbent = server.monitor

        # Pre-build the candidate monitor so the fault plan can target its
        # (payload-unpickled, incumbent-independent) layer validators.
        candidate_monitor = store.load("tiny", 1).monitor()
        controller = RolloutController(
            server,
            store=store,
            config=RolloutConfig(min_shadow_batches=2),
            monitor_factory=lambda bundle: candidate_monitor,
        )

        plan = ChaosPlan(seed=13).at(
            0.1,
            "begin_shadow",
            lambda: controller.begin_shadow(name="tiny", version=1),
        )

        # The candidate is poisoned for the whole soak (the fault is a
        # property of the artifact, not a timeline window): its first
        # shadow-scored group must trip the candidate_failure guardrail.
        # Strict mode escalates the degradation warning into a raise —
        # both paths end in the same trip. Otherwise the skipped layer must
        # announce itself as a warning.
        degraded = (
            contextlib.nullcontext()
            if strict_mode()
            else pytest.warns(DegradedModeWarning, match="skipped layer validators")
        )
        with degraded, fail_packed_scorer(
            candidate_monitor.validator.validators[0], nth=1, count=-1
        ):
            report = run_soak(
                server, stream, clock, plan, step_s=0.05, requests_per_step=1
            )

        begin = plan.events()[0]
        assert begin.fired and begin.error is None
        assert controller.state == ROLLED_BACK
        assert controller.last_rollback["reason"] == "candidate_failure"
        assert controller.latched("tiny@v1")
        assert server.monitor is incumbent
        assert server.bundle_version is None
        # The latch holds after the soak: re-promotion is refused.
        controller.reset()
        with pytest.raises(RolloutError, match="latched"):
            controller.begin_shadow(name="tiny", version=1)
        _assert_unperturbed(report, reference)

    def test_corrupt_frame_is_refused_mid_soak_and_latched(
        self, fitted_validator, stream, store
    ):
        reference = _reference_verdicts(fitted_validator, stream)
        clock = ManualClock()
        server = _singleton_server(fitted_validator, clock)
        controller = RolloutController(server, store=store)

        plan = ChaosPlan(seed=17).at(
            0.1,
            "begin_shadow",
            lambda: controller.begin_shadow(name="tiny", version=1),
        )
        with corrupt_bundle(store, "tiny", 1):
            report = run_soak(
                server, stream, clock, plan, step_s=0.05, requests_per_step=1
            )

        begin = plan.events()[0]
        assert begin.fired
        # The poisoned artifact never became a candidate: the load failed
        # integrity checks, the event captured the error, and the rollout
        # never left IDLE.
        assert isinstance(begin.error, BundleIntegrityError)
        assert controller.state == IDLE
        assert controller.last_rollback["reason"] == "integrity"
        assert controller.latched("tiny@v1")
        _assert_unperturbed(report, reference)


class TestHealthyRolloutUnderSoak:
    def test_mid_soak_promotion_with_worker_kills_stays_bit_identical(
        self, fitted_validator, stream, store
    ):
        reference = _reference_verdicts(fitted_validator, stream)
        clock = ManualClock()
        server = _singleton_server(fitted_validator, clock)
        controller = RolloutController(
            server,
            store=store,
            config=RolloutConfig(min_shadow_batches=1),
        )

        plan = (
            ChaosPlan(seed=23)
            .at(
                0.05,
                "begin_shadow",
                lambda: controller.begin_shadow(name="tiny", version=1),
            )
            # The worker dies once while the rollout is in flight.
            .fault(faults.kill_worker, server, at=0.2, nth=1, count=1)
            .at(0.5, "promote", lambda: controller.promote(force=True))
        )

        report = run_soak(
            server, stream, clock, plan, step_s=0.05, requests_per_step=1
        )

        for event in plan.events():
            assert event.fired and event.error is None, event.label
        assert controller.state == PROMOTED
        assert server.monitor is controller.candidate
        assert server.bundle_version == "tiny@v1"
        assert server.stats()["bundle_version"] == "tiny@v1"
        assert report.supervisor["deaths"] == 1
        assert report.supervisor["state"] == "closed"
        # The candidate is the same fitted artifact through a pack/load
        # round trip, so the swap is invisible in the verdict stream: every
        # ticket — including ones requeued across worker deaths and the
        # generation boundary — matches the incumbent's direct scoring.
        _assert_unperturbed(report, reference)
        controller.finalize()
        assert controller.state == IDLE
        assert controller.snapshot()["incumbent_version"] == "tiny@v1"
