"""Tests for the rollout lifecycle: shadow canary scoring and auto-rollback.

State-machine and guardrail tests drive ``observe_group`` directly with
real verdicts (deterministic, no worker timing); the serve-integration
tests let the live worker fire the hook. The invariant under test
everywhere: serving traffic is never perturbed by a rollout that goes
wrong — the incumbent keeps (or regains) the monitor slot, and a bad
bundle version is latched against re-promotion.
"""

import copy
import dataclasses
import hashlib
import pickle
import time

import numpy as np
import pytest

from repro.core import (
    BundleIntegrityError,
    BundleStore,
    DeepValidator,
    RuntimeMonitor,
    ValidatorBundle,
    ValidatorConfig,
)
from repro.serve import (
    IDLE,
    PROMOTED,
    ROLLED_BACK,
    SHADOW,
    RolloutConfig,
    RolloutController,
    RolloutError,
    ServeConfig,
    SupervisorConfig,
    ValidationServer,
)
from tests.helpers import easy_image_task, train_tiny_model

pytestmark = pytest.mark.rollout


@pytest.fixture(scope="module")
def trained_tiny_model():
    return train_tiny_model()


@pytest.fixture(scope="module")
def fitted_validator(trained_tiny_model):
    model, train_x, train_y, test_x, _ = trained_tiny_model
    validator = DeepValidator(model, ValidatorConfig(nu=0.15, max_per_class=60))
    validator.fit(train_x, train_y)
    noise = np.random.default_rng(0).random((40, 1, 12, 12))
    validator.calibrate_threshold(test_x[:40], noise)
    return validator


@pytest.fixture(scope="module")
def bundle(fitted_validator):
    return ValidatorBundle.pack(fitted_validator, version=1, name="tiny")


@pytest.fixture()
def store(bundle, tmp_path):
    store = BundleStore(tmp_path)
    store.save(bundle)
    return store


def _server(fitted_validator, **overrides):
    """An (unstarted) server; state-machine tests drive the hook directly."""
    config = ServeConfig(
        max_batch=overrides.pop("max_batch", 4),
        max_wait_ms=overrides.pop("max_wait_ms", 1.0),
        queue_depth=64,
        supervision=SupervisorConfig(poll_interval_s=0.02),
        **overrides,
    )
    return ValidationServer(RuntimeMonitor(fitted_validator), config)


def _feed(controller, server, images):
    """Hand one incumbent-scored group to the controller, as a worker would."""
    monitor = server.monitor
    verdicts = monitor.classify(images)
    controller.observe_group(images, verdicts, monitor)
    return verdicts


class TestConfig:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RolloutConfig(shadow_sample_every=0)
        with pytest.raises(ValueError):
            RolloutConfig(min_shadow_batches=0)
        with pytest.raises(ValueError):
            RolloutConfig(max_flag_rate_divergence=0.0)
        with pytest.raises(ValueError):
            RolloutConfig(max_candidate_failures=-1)


class TestStateMachine:
    def test_initial_state_and_attachment(self, fitted_validator):
        server = _server(fitted_validator)
        controller = RolloutController(server)
        assert controller.state == IDLE
        assert server.rollout is controller
        # Re-attaching the same controller is idempotent; another is not.
        server.attach_rollout(controller)
        with pytest.raises(RuntimeError, match="already attached"):
            RolloutController(server)

    def test_begin_shadow_needs_a_bundle_or_a_store(self, fitted_validator):
        controller = RolloutController(_server(fitted_validator))
        with pytest.raises(RolloutError, match="BundleStore"):
            controller.begin_shadow(name="tiny", version=1)

    def test_wrong_state_operations_refused(self, fitted_validator, bundle):
        server = _server(fitted_validator)
        controller = RolloutController(server)
        with pytest.raises(RolloutError, match="SHADOW"):
            controller.promote()
        with pytest.raises(RolloutError, match="PROMOTED"):
            controller.finalize()
        with pytest.raises(RolloutError, match="SHADOW or PROMOTED"):
            controller.rollback()
        with pytest.raises(RolloutError, match="ROLLED_BACK"):
            controller.reset()
        controller.begin_shadow(bundle)
        with pytest.raises(RolloutError, match="already in progress"):
            controller.begin_shadow(bundle)

    def test_promote_requires_shadow_evidence(self, fitted_validator, bundle):
        server = _server(fitted_validator)
        controller = RolloutController(
            server, config=RolloutConfig(min_shadow_batches=3)
        )
        controller.begin_shadow(bundle)
        with pytest.raises(RolloutError, match="0/3 shadow batches"):
            controller.promote()
        # force=True overrides the evidence floor (operator escape hatch).
        controller.promote(force=True)
        assert controller.state == PROMOTED
        assert server.monitor is controller.candidate
        assert server.bundle_version == "tiny@v1"

    def test_full_lifecycle_with_direct_groups(self, fitted_validator, bundle):
        images, _ = easy_image_task(12, seed=5)
        server = _server(fitted_validator)
        incumbent = server.monitor
        controller = RolloutController(
            server,
            config=RolloutConfig(min_shadow_batches=3),
        )
        controller.begin_shadow(bundle)
        assert controller.state == SHADOW
        for lo in range(0, 12, 4):
            _feed(controller, server, images[lo : lo + 4])
        snapshot = controller.snapshot()
        assert snapshot["shadow_batches"] == 3
        assert snapshot["incumbent_samples"] == 12
        assert snapshot["candidate_samples"] == 12
        assert snapshot["candidate_failures"] == 0
        # Identical fitted artifact: zero flag-rate divergence, no alarm.
        assert snapshot["divergence"] == 0.0
        assert controller.ready
        # Serving untouched during shadow; candidate verdicts never served.
        assert server.monitor is incumbent
        controller.promote()
        assert server.monitor is controller.candidate
        controller.finalize()
        assert controller.state == IDLE
        assert controller.incumbent is server.monitor
        assert controller.snapshot()["incumbent_version"] == "tiny@v1"

    def test_operator_rollback_restores_the_incumbent(
        self, fitted_validator, bundle
    ):
        server = _server(fitted_validator)
        incumbent = server.monitor
        controller = RolloutController(server)
        controller.begin_shadow(bundle)
        controller.promote(force=True)
        assert server.monitor is not incumbent
        controller.rollback()
        assert controller.state == ROLLED_BACK
        assert server.monitor is incumbent
        assert server.bundle_version is None
        assert controller.last_rollback["reason"] == "operator"
        assert controller.latched("tiny@v1")
        controller.reset()
        assert controller.state == IDLE
        # The latch outlives reset(): the same version stays refused.
        with pytest.raises(RolloutError, match="latched"):
            controller.begin_shadow(bundle)
        assert controller.unlatch("tiny@v1")
        controller.begin_shadow(bundle)
        assert controller.state == SHADOW


class TestGuardrails:
    def _poisoned_bundle(self, fitted_validator, epsilon, version=2):
        """A candidate whose threshold makes its flag rate diverge."""
        twin = pickle.loads(pickle.dumps(fitted_validator))
        twin.epsilon = epsilon
        return ValidatorBundle.pack(twin, version=version, name="tiny")

    def test_flag_rate_divergence_trips(self, fitted_validator):
        # epsilon far below every score: the candidate flags everything.
        bundle = self._poisoned_bundle(fitted_validator, epsilon=-1e9)
        images, _ = easy_image_task(12, seed=5)
        server = _server(fitted_validator)
        incumbent = server.monitor
        controller = RolloutController(
            server,
            config=RolloutConfig(min_shadow_batches=2, max_flag_rate_divergence=0.5),
        )
        controller.begin_shadow(bundle)
        for lo in range(0, 12, 4):
            _feed(controller, server, images[lo : lo + 4])
            if controller.state == ROLLED_BACK:
                break
        assert controller.state == ROLLED_BACK
        assert controller.last_rollback["reason"] == "divergence"
        assert controller.last_rollback["divergence"] > 0.5
        assert server.monitor is incumbent
        assert controller.latched("tiny@v2")

    def test_rescaled_twin_with_identical_verdicts_is_promoted(
        self, fitted_validator
    ):
        # Every layer weighted x2 with epsilon and contributions x2: the
        # candidate scores every image exactly twice as high and reaches
        # every decision the incumbent reaches, so no guardrail may trip.
        twin = pickle.loads(pickle.dumps(fitted_validator))
        twin.config.weights = [2.0] * len(twin.validators)
        twin.epsilon *= 2
        twin.layer_contributions = twin.layer_contributions * 2
        bundle = ValidatorBundle.pack(twin, version=2, name="tiny")
        clean, _ = easy_image_task(128, seed=5)
        corner = np.random.default_rng(0).random((40, 1, 12, 12))[:16]
        images = np.concatenate([clean, corner])
        server = _server(fitted_validator)
        incumbent = server.monitor
        controller = RolloutController(server)
        controller.begin_shadow(bundle)
        candidate = controller.candidate
        expected = [v.status for v in incumbent.classify(images)]
        assert [v.status for v in candidate.classify(images)] == expected
        assert "FLAGGED" in expected and "VALIDATED" in expected
        for lo in range(0, len(images), 4):
            _feed(controller, server, images[lo : lo + 4])
            if controller.ready:
                controller.promote()
        assert controller.state == PROMOTED, controller.last_rollback
        assert server.monitor is candidate

    def test_candidate_failure_budget(self, fitted_validator, bundle, monkeypatch):
        from repro.testing.faults import fail_packed_scorer

        monkeypatch.setenv("REPRO_STRICT", "0")  # count DEGRADED, don't raise
        images, _ = easy_image_task(8, seed=5)
        server = _server(fitted_validator)
        controller = RolloutController(
            server, config=RolloutConfig(max_candidate_failures=100)
        )
        controller.begin_shadow(bundle)
        broken_layer = controller.candidate.validator.validators[0]
        with fail_packed_scorer(broken_layer, nth=1, count=-1):
            with pytest.warns(Warning):
                _feed(controller, server, images[:4])
        # Within budget: still shadowing, failures tallied.
        assert controller.state == SHADOW
        assert controller.snapshot()["candidate_failures"] == 4

        controller.rollback()
        controller.reset()
        controller.unlatch("tiny@v1")
        strict = RolloutConfig(max_candidate_failures=0)
        object.__setattr__(controller, "config", strict)
        controller.begin_shadow(bundle)
        broken_layer = controller.candidate.validator.validators[0]
        with fail_packed_scorer(broken_layer, nth=1, count=-1):
            with pytest.warns(Warning):
                _feed(controller, server, images[4:])
        assert controller.state == ROLLED_BACK
        assert controller.last_rollback["reason"] == "candidate_failure"

    def test_direct_bundle_that_will_not_unpickle_is_latched(
        self, fitted_validator, bundle
    ):
        # Manifest and fingerprint agree, but the payload is not a pickle:
        # a bundle handed over directly is refused and latched exactly like
        # the same bytes loaded from a store.
        payload = b"not a pickle"
        manifest = dataclasses.replace(
            bundle.manifest,
            version=3,
            fingerprint=hashlib.sha256(payload).hexdigest(),
        )
        controller = RolloutController(_server(fitted_validator))
        with pytest.raises(BundleIntegrityError, match="failed to unpickle"):
            controller.begin_shadow(ValidatorBundle(manifest, payload))
        assert controller.state == IDLE
        assert controller.last_rollback["reason"] == "integrity"
        assert controller.last_rollback["bundle"] == "tiny@v3"
        assert controller.latched("tiny@v3")

    def test_observer_bug_fails_toward_the_incumbent(
        self, fitted_validator, bundle
    ):
        images, _ = easy_image_task(4, seed=5)
        server = _server(fitted_validator)
        controller = RolloutController(server)
        controller.begin_shadow(bundle)
        # Garbage verdicts crash the recorder; the hook must swallow the
        # crash, trip the rollout, and leave the worker (caller) alive.
        controller.observe_group(images, [object()] * 4, server.monitor)
        assert controller.state == ROLLED_BACK
        assert controller.last_rollback["reason"] == "observer_error"

    def test_shadow_sampling_is_deterministic(self, fitted_validator, bundle):
        images, _ = easy_image_task(4, seed=5)
        server = _server(fitted_validator)
        controller = RolloutController(
            server, config=RolloutConfig(shadow_sample_every=3)
        )
        controller.begin_shadow(bundle)
        for _ in range(7):
            _feed(controller, server, images)
        # Groups 1, 4, 7 are shadow-scored: ceil(7/3) = 3 batches.
        assert controller.snapshot()["shadow_batches"] == 3

    def test_promoted_degradations_trip_a_rollback(
        self, fitted_validator, bundle, monkeypatch
    ):
        from repro.testing.faults import fail_packed_scorer

        monkeypatch.setenv("REPRO_STRICT", "0")
        images, _ = easy_image_task(8, seed=5)
        server = _server(fitted_validator)
        incumbent = server.monitor
        controller = RolloutController(server)
        controller.begin_shadow(bundle)
        controller.promote(force=True)
        promoted = server.monitor
        broken_layer = controller.candidate.validator.validators[0]
        with fail_packed_scorer(broken_layer, nth=1, count=-1):
            with pytest.warns(Warning):
                verdicts = promoted.classify(images)
            controller.observe_group(images, verdicts, promoted)
        assert controller.state == ROLLED_BACK
        assert controller.last_rollback["reason"] == "candidate_failure"
        # The trip swapped serving back to the incumbent.
        assert server.monitor is incumbent
        assert server.bundle_version is None
        assert controller.latched("tiny@v1")


class TestServeIntegration:
    def test_workers_drive_the_full_lifecycle(self, fitted_validator, store):
        images, _ = easy_image_task(32, seed=9)
        server = _server(fitted_validator)
        controller = RolloutController(
            server,
            store=store,
            config=RolloutConfig(min_shadow_batches=2),
        )
        with server:
            controller.begin_shadow(name="tiny", version=1)
            for future in [server.submit(image) for image in images[:16]]:
                assert future.result(timeout=60.0).status in ("VALIDATED", "FLAGGED")
            deadline = time.monotonic() + 30.0
            while not controller.ready and time.monotonic() < deadline:
                time.sleep(0.01)
            assert controller.ready
            controller.promote()
            for future in [server.submit(image) for image in images[16:]]:
                assert future.result(timeout=60.0).status in ("VALIDATED", "FLAGGED")
            assert server.stats()["bundle_version"] == "tiny@v1"
            health = server.health()["server"]["rollout"]
            assert health["state"] == PROMOTED
            assert health["candidate"] == "tiny@v1"
            controller.finalize()
        assert controller.state == IDLE

    def test_latch_refuses_relaunch_after_integrity_failure(
        self, fitted_validator, store
    ):
        from repro.core.bundle import BundleIntegrityError
        from repro.testing import corrupt_bundle

        server = _server(fitted_validator)
        controller = RolloutController(server, store=store)
        with corrupt_bundle(store, "tiny", 1):
            with pytest.raises(BundleIntegrityError):
                controller.begin_shadow(name="tiny", version=1)
        assert controller.state == IDLE
        assert controller.last_rollback["reason"] == "integrity"
        assert controller.latched("tiny@v1")
        # Bytes are restored, but the version stays latched regardless.
        with pytest.raises(RolloutError, match="latched"):
            controller.begin_shadow(name="tiny", version=1)
        assert "tiny@v1" in controller.snapshot()["latched"]
