"""Tests for the runtime monitoring façade."""

import contextlib

import numpy as np
import pytest

from repro import obs
from repro.core import DeepValidator, RuntimeMonitor, ValidatorConfig
from repro.obs.metrics import MetricsRegistry

#: Every top-level key ``RuntimeMonitor.health()`` documents.
HEALTH_KEYS = {
    "status", "layers", "counts", "quarantined", "rejection_rate", "metrics",
}

#: Every per-layer key of the ``layers`` section (breaker snapshot + extras).
LAYER_KEYS = {
    "state",
    "failures",
    "successes",
    "consecutive_failures",
    "times_opened",
    "last_error",
    "skipped_batches",
}

#: Every verdict tally of the ``counts`` section.
COUNT_KEYS = {"accepted", "rejected", "quarantined", "degraded"}


@pytest.fixture(scope="module")
def fitted_validator(trained_tiny_model):
    model, train_x, train_y, test_x, _ = trained_tiny_model
    validator = DeepValidator(model, ValidatorConfig(nu=0.15))
    validator.fit(train_x, train_y)
    noise = np.random.default_rng(0).random((40, 1, 12, 12))
    validator.calibrate_threshold(test_x[:40], noise)
    return validator


# Re-declare the session fixture at module scope for the one above.
@pytest.fixture(scope="module")
def trained_tiny_model():
    from tests.helpers import train_tiny_model

    return train_tiny_model()


class TestRuntimeMonitor:
    def test_accepts_clean_rejects_noise(self, fitted_validator, trained_tiny_model):
        _, _, _, test_x, _ = trained_tiny_model
        monitor = RuntimeMonitor(fitted_validator)
        clean_verdicts = monitor.classify(test_x[:20])
        assert sum(v.accepted for v in clean_verdicts) >= 15
        noise = np.random.default_rng(1).random((20, 1, 12, 12))
        noise_verdicts = monitor.classify(noise)
        assert sum(not v.accepted for v in noise_verdicts) >= 15

    def test_single_image_accepted_shape(self, fitted_validator, trained_tiny_model):
        _, _, _, test_x, _ = trained_tiny_model
        monitor = RuntimeMonitor(fitted_validator)
        verdicts = monitor.classify(test_x[0])
        assert len(verdicts) == 1
        assert verdicts[0].per_layer.shape == (3,)

    def test_on_reject_callback_invoked(self, fitted_validator):
        rejected = []
        monitor = RuntimeMonitor(fitted_validator, on_reject=rejected.append)
        noise = np.random.default_rng(2).random((10, 1, 12, 12))
        monitor.classify(noise)
        assert len(rejected) == monitor.stats["rejected"]
        assert rejected, "noise should trigger at least one rejection"

    def test_stats_and_rejection_rate(self, fitted_validator, trained_tiny_model):
        _, _, _, test_x, _ = trained_tiny_model
        monitor = RuntimeMonitor(fitted_validator)
        # Documented contract: NaN (not an exception) before any scoring,
        # so dashboards can poll the rate unconditionally.
        assert np.isnan(monitor.rejection_rate)
        monitor.classify(test_x[:10])
        total = monitor.stats["accepted"] + monitor.stats["rejected"]
        assert total == 10
        assert 0.0 <= monitor.rejection_rate <= 1.0

    def test_verdict_repr(self, fitted_validator, trained_tiny_model):
        _, _, _, test_x, _ = trained_tiny_model
        monitor = RuntimeMonitor(fitted_validator)
        verdict = monitor.classify(test_x[:1])[0]
        assert "prediction=" in repr(verdict)

    def test_unfitted_validator_refused(self, trained_tiny_model):
        model = trained_tiny_model[0]
        with pytest.raises(ValueError, match="fitted"):
            RuntimeMonitor(DeepValidator(model))

    def test_predictions_match_model(self, fitted_validator, trained_tiny_model):
        model, _, _, test_x, _ = trained_tiny_model
        monitor = RuntimeMonitor(fitted_validator)
        verdicts = monitor.classify(test_x[:10])
        np.testing.assert_array_equal(
            [v.prediction for v in verdicts], model.predict(test_x[:10])
        )


class TestHealthRegression:
    """Pin every documented ``health()`` field across the four verdict flows.

    These are regression tests for the operator contract: any key that
    appears, disappears, or changes meaning must show up here as a
    deliberate edit, not a silent drift.
    """

    def _assert_shape(self, health, n_layers=3):
        assert set(health) == HEALTH_KEYS
        assert health["status"] in ("ok", "degraded", "failing")
        assert set(health["counts"]) == COUNT_KEYS
        assert len(health["layers"]) == n_layers
        for snapshot in health["layers"].values():
            assert set(snapshot) == LAYER_KEYS
        assert isinstance(health["metrics"], dict)

    def test_fresh_monitor_health(self, fitted_validator):
        monitor = RuntimeMonitor(fitted_validator)
        health = monitor.health()
        self._assert_shape(health)
        assert health["status"] == "ok"
        assert set(health["layers"]) == {"conv1", "conv2", "fc1"}
        assert health["counts"] == {
            "accepted": 0, "rejected": 0, "quarantined": 0, "degraded": 0,
        }
        assert health["quarantined"] == 0
        assert np.isnan(health["rejection_rate"])
        for snapshot in health["layers"].values():
            assert snapshot["state"] == "closed"
            assert snapshot["failures"] == 0
            assert snapshot["successes"] == 0
            assert snapshot["consecutive_failures"] == 0
            assert snapshot["times_opened"] == 0
            assert snapshot["last_error"] is None
            assert snapshot["skipped_batches"] == 0

    def test_fresh_monitor_lists_every_layer_closed_before_any_call(
        self, fitted_validator
    ):
        registry = MetricsRegistry()
        with obs.use(registry=registry, enabled=True):
            monitor = RuntimeMonitor(fitted_validator)
            # Published at construction, before any classify or health call.
            gauge = registry.snapshot()["monitor_breaker_state"]["series"]
            layers = monitor.health()["layers"]
        names = [validator.layer_name for validator in fitted_validator.validators]
        assert {s["labels"]["layer"]: s["value"] for s in gauge} == {
            name: 0.0 for name in names
        }
        assert list(layers) == names
        for snapshot in layers.values():
            assert snapshot == {
                "state": "closed",
                "failures": 0,
                "successes": 0,
                "consecutive_failures": 0,
                "times_opened": 0,
                "last_error": None,
                "skipped_batches": 0,
            }

    def test_validated_flow(self, fitted_validator, trained_tiny_model):
        _, _, _, test_x, _ = trained_tiny_model
        monitor = RuntimeMonitor(fitted_validator)
        verdicts = monitor.classify(test_x[:10])
        accepted = sum(v.status == "VALIDATED" for v in verdicts)
        assert accepted > 0
        health = monitor.health()
        self._assert_shape(health)
        assert health["status"] == "ok"
        assert health["counts"]["accepted"] == accepted
        assert health["counts"]["degraded"] == 0
        assert health["quarantined"] == 0
        assert health["rejection_rate"] == health["counts"]["rejected"] / 10
        for snapshot in health["layers"].values():
            assert snapshot["state"] == "closed"
            assert snapshot["successes"] == 1  # one healthy batch
            assert snapshot["failures"] == 0

    def test_flagged_flow(self, fitted_validator):
        monitor = RuntimeMonitor(fitted_validator)
        noise = np.random.default_rng(5).random((12, 1, 12, 12))
        verdicts = monitor.classify(noise)
        flagged = sum(v.status == "FLAGGED" for v in verdicts)
        assert flagged > 0
        health = monitor.health()
        self._assert_shape(health)
        assert health["counts"]["rejected"] == flagged + sum(
            v.status == "DEGRADED" and not v.accepted for v in verdicts
        )
        assert health["rejection_rate"] == health["counts"]["rejected"] / 12
        # Flagging is a verdict about the *input*, not a substrate failure.
        for snapshot in health["layers"].values():
            assert snapshot["state"] == "closed"
            assert snapshot["failures"] == 0
            assert snapshot["last_error"] is None

    def test_degraded_flow(self, fitted_validator, trained_tiny_model):
        from repro.testing.faults import fail_packed_scorer

        _, _, _, test_x, _ = trained_tiny_model
        monitor = RuntimeMonitor(fitted_validator, breaker_threshold=2)
        with fail_packed_scorer(fitted_validator.validators[1], nth=1, count=-1):
            with pytest.warns(Warning):
                verdicts = monitor.classify(test_x[:6])
        assert all(v.status == "DEGRADED" for v in verdicts)
        health = monitor.health()
        self._assert_shape(health)
        assert health["counts"]["degraded"] == 6
        # Degraded verdicts still carry an accept/flag decision, so they
        # also land in accepted/rejected.
        assert (
            health["counts"]["accepted"] + health["counts"]["rejected"] == 6
        )
        # status rolls up *breaker* states, not verdict statuses: one
        # failure under threshold 2 leaves every breaker closed.
        assert health["status"] == "ok"
        broken = health["layers"]["conv2"]
        assert broken["failures"] == 1
        assert broken["consecutive_failures"] == 1
        assert broken["state"] == "closed"  # threshold 2, one failure so far
        assert "InjectedScorerError" in broken["last_error"]
        for name in ("conv1", "fc1"):
            assert health["layers"][name]["failures"] == 0
            assert health["layers"][name]["successes"] == 1

    def test_quarantined_flow(self, fitted_validator):
        monitor = RuntimeMonitor(fitted_validator)
        bad = np.full((3, 1, 12, 12), np.nan)
        verdicts = monitor.classify(bad)
        assert all(v.status == "QUARANTINED" for v in verdicts)
        health = monitor.health()
        self._assert_shape(health)
        assert health["counts"] == {
            "accepted": 0, "rejected": 0, "quarantined": 3, "degraded": 0,
        }
        assert health["quarantined"] == 3
        # Quarantined inputs were never scored: the rate stays NaN and no
        # breaker saw a success or failure.
        assert np.isnan(health["rejection_rate"])
        for snapshot in health["layers"].values():
            assert snapshot["successes"] == 0
            assert snapshot["failures"] == 0

    def test_open_breaker_counts_skipped_batches(
        self, fitted_validator, trained_tiny_model
    ):
        from repro.testing.faults import fail_packed_scorer

        _, _, _, test_x, _ = trained_tiny_model
        monitor = RuntimeMonitor(
            fitted_validator, breaker_threshold=1, breaker_cooldown=3600.0
        )
        with fail_packed_scorer(fitted_validator.validators[0], nth=1, count=-1):
            with pytest.warns(Warning):
                monitor.classify(test_x[:2])  # trips the breaker open
        with pytest.warns(Warning):
            monitor.classify(test_x[2:4])  # served while conv1 is skipped
        health = monitor.health()
        self._assert_shape(health)
        assert health["status"] == "degraded"  # one breaker open, two closed
        conv1 = health["layers"]["conv1"]
        assert conv1["state"] == "open"
        assert conv1["times_opened"] == 1
        assert conv1["skipped_batches"] == 1
        assert health["counts"]["degraded"] == 4

    def test_status_failing_when_every_breaker_is_open(
        self, fitted_validator, trained_tiny_model
    ):
        from repro.testing.faults import fail_packed_scorer

        _, _, _, test_x, _ = trained_tiny_model
        monitor = RuntimeMonitor(
            fitted_validator, breaker_threshold=1, breaker_cooldown=3600.0
        )
        assert monitor.health()["status"] == "ok"
        with contextlib.ExitStack() as faults:
            for layer_validator in fitted_validator.validators:
                faults.enter_context(fail_packed_scorer(layer_validator, nth=1, count=-1))
            with pytest.warns(Warning):
                verdicts = monitor.classify(test_x[:2])
        assert all(v.status == "QUARANTINED" for v in verdicts)
        health = monitor.health()
        self._assert_shape(health)
        assert health["status"] == "failing"
        for snapshot in health["layers"].values():
            assert snapshot["state"] == "open"
