"""Fault-injection suite: every injected fault must degrade gracefully.

The acceptance contract for the resilience layer: for every fault class in
:mod:`repro.testing.faults` (NaN/Inf activations, corrupted artifacts,
failing packed scorers) the monitor returns structured verdicts — never an
unhandled exception — ``health()`` reports the failure, recovery closes
the breaker, and the degraded path on a fault-free replay is bit-identical
to the normal path.
"""

import contextlib
import copy
import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DeepValidator, RuntimeMonitor, ValidatorConfig
from repro.core.resilience import (
    DEGRADED,
    FLAGGED,
    QUARANTINED,
    STATUSES,
    VALIDATED,
    CircuitBreaker,
    DegradedModeWarning,
    InputGuard,
)
from repro.testing import (
    corrupt_artifact,
    fail_packed_scorer,
    nan_activations,
)
from repro.utils.cache import CheckpointIntegrityError, CheckpointStore, cache_key


@pytest.fixture(scope="module")
def trained_tiny_model():
    from tests.helpers import train_tiny_model

    return train_tiny_model()


@pytest.fixture(scope="module")
def fitted_validator(trained_tiny_model):
    model, train_x, train_y, test_x, _ = trained_tiny_model
    validator = DeepValidator(model, ValidatorConfig(nu=0.15))
    validator.fit(train_x, train_y)
    noise = np.random.default_rng(0).random((40, 1, 12, 12))
    validator.calibrate_threshold(test_x[:40], noise)
    return validator


_FRESH = [0]


def fresh_images(count: int = 5) -> np.ndarray:
    """Never-seen-before images, so scoring cannot hit the engine cache."""
    _FRESH[0] += 1
    return np.random.default_rng(10_000 + _FRESH[0]).random((count, 1, 12, 12))


def make_monitor(validator, **kwargs):
    """A monitor with a deterministic fake clock; returns (monitor, clock)."""
    now = [0.0]
    kwargs.setdefault("breaker_threshold", 2)
    kwargs.setdefault("breaker_cooldown", 10.0)
    monitor = RuntimeMonitor(validator, clock=lambda: now[0], **kwargs)
    return monitor, now


# -- input guard ---------------------------------------------------------------


class TestInputGuard:
    def test_clean_batch_passes(self):
        report = InputGuard().inspect(np.zeros((3, 1, 12, 12)))
        assert report.batch_reason is None
        assert report.sample_reasons == {}
        assert report.ok_mask.all() and report.count == 3

    def test_nan_sample_quarantined_individually(self):
        batch = np.zeros((3, 1, 4, 4))
        batch[1, 0, 0, 0] = np.nan
        report = InputGuard().inspect(batch)
        assert list(report.sample_reasons) == [1]
        assert report.ok_mask.tolist() == [True, False, True]

    def test_inf_sample_quarantined(self):
        batch = np.zeros((2, 1, 4, 4))
        batch[0, 0, 1, 1] = np.inf
        report = InputGuard().inspect(batch)
        assert 0 in report.sample_reasons

    def test_object_dtype_rejected_wholesale(self):
        report = InputGuard().inspect(np.array([None, "x"], dtype=object))
        assert report.batch_reason is not None

    def test_wrong_rank_rejected(self):
        report = InputGuard().inspect(np.zeros((5, 6)))
        assert "N, C, H, W" in report.batch_reason

    def test_shape_pinning(self):
        guard = InputGuard(expected_shape=(1, 12, 12))
        assert guard.inspect(np.zeros((2, 1, 12, 12))).batch_reason is None
        report = guard.inspect(np.zeros((2, 3, 12, 12)))
        assert "expected" in report.batch_reason

    def test_value_range(self):
        guard = InputGuard(value_range=(0.0, 1.0))
        batch = np.zeros((2, 1, 2, 2))
        batch[1] = 7.0
        report = guard.inspect(batch)
        assert list(report.sample_reasons) == [1]

    def test_three_dim_promoted_to_singleton_batch(self):
        report = InputGuard().inspect(np.zeros((1, 12, 12)))
        assert report.count == 1 and report.batch_reason is None

    def test_invalid_range_rejected_at_construction(self):
        with pytest.raises(ValueError):
            InputGuard(value_range=(1.0, 0.0))


# -- circuit breaker -----------------------------------------------------------


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        now = [0.0]
        breaker = CircuitBreaker(failure_threshold=3, cooldown=5.0, clock=lambda: now[0])
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN and not breaker.allow()
        assert breaker.times_opened == 1

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_probe_after_cooldown_then_close(self):
        now = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, cooldown=5.0, clock=lambda: now[0])
        breaker.record_failure()
        assert not breaker.allow()
        now[0] = 5.0
        assert breaker.state == CircuitBreaker.HALF_OPEN and breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_failure_reopens_and_restarts_cooldown(self):
        now = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, cooldown=5.0, clock=lambda: now[0])
        breaker.record_failure()
        now[0] = 6.0
        assert breaker.allow()  # half-open probe
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.times_opened == 2
        now[0] = 10.0  # only 4s into the fresh cooldown
        assert not breaker.allow()

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=-1.0)


# -- degraded scoring parity ---------------------------------------------------


class TestDegradedParity:
    def test_fault_free_monitor_is_bit_identical_to_engine(self, fitted_validator):
        monitor, _ = make_monitor(fitted_validator)
        images = fresh_images(8)
        verdicts = monitor.classify(images)
        predictions, per_layer = fitted_validator.engine().discrepancies(images)
        joints = fitted_validator.combine(per_layer)
        assert [v.prediction for v in verdicts] == [int(p) for p in predictions]
        for verdict, joint, row in zip(verdicts, joints, per_layer):
            assert verdict.joint_discrepancy == float(joint)  # bit-identical
            np.testing.assert_array_equal(verdict.per_layer, row)
            assert verdict.status in (VALIDATED, FLAGGED)
            assert verdict.skipped_layers == ()

    def test_degraded_combine_with_no_skips_defers_to_combine(self, fitted_validator):
        per_layer = np.random.default_rng(3).normal(size=(6, 3))
        np.testing.assert_array_equal(
            fitted_validator.combine(per_layer, skipped=frozenset()),
            fitted_validator.combine(per_layer),
        )

    def test_degraded_sum_rescales_by_contributions(self, fitted_validator):
        per_layer = np.abs(np.random.default_rng(4).normal(size=(5, 3)))
        contributions = fitted_validator.layer_contributions
        degraded = fitted_validator.combine(per_layer, skipped={1})
        expected = per_layer[:, [0, 2]].sum(axis=1) * (
            contributions.sum() / contributions[[0, 2]].sum()
        )
        np.testing.assert_allclose(degraded, expected, rtol=1e-12)

    def test_degraded_combiners_use_the_active_columns(self, fitted_validator):
        per_layer = np.random.default_rng(5).normal(size=(5, 3))

        def variant(combiner, contributions):
            validator = copy.copy(fitted_validator)
            validator.config = dataclasses.replace(
                fitted_validator.config, combiner=combiner
            )
            validator.layer_contributions = contributions
            return validator

        uniform = variant("sum", None)
        assert np.array_equal(
            uniform.combine(per_layer, skipped={1}),
            per_layer[:, [0, 2]].sum(axis=1) * (3 / 2),
        )
        assert np.array_equal(
            variant("mean", None).combine(per_layer, skipped={1}),
            per_layer[:, [0, 2]].mean(axis=1),
        )
        assert np.array_equal(
            variant("max", None).combine(per_layer, skipped={0}),
            per_layer[:, [1, 2]].max(axis=1),
        )
        last = variant("last", None)
        assert np.array_equal(last.combine(per_layer, skipped={2}), per_layer[:, 1])
        assert np.array_equal(last.combine(per_layer, skipped={0}), per_layer[:, 2])

    def test_all_layers_skipped_yields_nan(self, fitted_validator):
        joints = fitted_validator.combine(np.zeros((4, 3)), skipped={0, 1, 2})
        assert np.isnan(joints).all()

    def test_calibration_records_contributions(self, fitted_validator):
        contributions = fitted_validator.layer_contributions
        assert contributions is not None
        assert contributions.shape == (3,)
        assert (contributions > 0).all()


# -- fault class: NaN / Inf activations ---------------------------------------


@pytest.mark.faults
class TestNanActivationFault:
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_degrades_instead_of_raising(self, fitted_validator, trained_tiny_model, value):
        model = trained_tiny_model[0]
        monitor, _ = make_monitor(fitted_validator)
        with nan_activations(model, 1, value=value):
            with pytest.warns(DegradedModeWarning):
                verdicts = monitor.classify(fresh_images())
        assert all(v.status == DEGRADED for v in verdicts)
        assert all(v.skipped_layers == ("conv2",) for v in verdicts)
        assert all(np.isfinite(v.joint_discrepancy) for v in verdicts)
        health = monitor.health()
        assert health["layers"]["conv2"]["failures"] == 1
        assert health["layers"]["conv2"]["last_error"] == "non-finite discrepancies"
        assert health["counts"]["degraded"] == len(verdicts)

    def test_breaker_opens_then_recovery_closes_it(
        self, fitted_validator, trained_tiny_model
    ):
        model = trained_tiny_model[0]
        monitor, now = make_monitor(fitted_validator)  # threshold 2, cooldown 10
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedModeWarning)
            with nan_activations(model, 1):
                monitor.classify(fresh_images())
                monitor.classify(fresh_images())
            assert monitor.health()["layers"]["conv2"]["state"] == "open"
            # Open circuit: the layer is skipped without being evaluated,
            # even though the fault itself is gone.
            verdicts = monitor.classify(fresh_images())
            assert verdicts[0].status == DEGRADED
            assert monitor.health()["layers"]["conv2"]["skipped_batches"] == 1
        # Past the cooldown the half-open probe runs the healthy layer
        # again; success closes the breaker and scoring is normal.
        now[0] = 11.0
        verdicts = monitor.classify(fresh_images())
        assert all(v.status in (VALIDATED, FLAGGED) for v in verdicts)
        assert monitor.health()["layers"]["conv2"]["state"] == "closed"

    def test_all_layers_faulty_quarantines_batch(
        self, fitted_validator, trained_tiny_model
    ):
        model = trained_tiny_model[0]
        monitor, _ = make_monitor(fitted_validator)
        with contextlib.ExitStack() as faults:
            for layer in range(3):
                faults.enter_context(nan_activations(model, layer))
            with pytest.warns(DegradedModeWarning):
                verdicts = monitor.classify(fresh_images(4))
        assert all(v.status == QUARANTINED for v in verdicts)
        assert all(v.reason == "no healthy layer validators" for v in verdicts)
        assert monitor.stats["quarantined"] == 4


# -- fault class: failing packed scorer ---------------------------------------


@pytest.mark.faults
class TestScorerFault:
    def test_nth_call_failure_degrades_then_recovers(self, fitted_validator):
        monitor, _ = make_monitor(fitted_validator)
        target = fitted_validator.validators[0]
        with fail_packed_scorer(target, nth=1) as stats:
            with pytest.warns(DegradedModeWarning):
                first = monitor.classify(fresh_images())
            second = monitor.classify(fresh_images())
        assert stats["failures"] == 1
        assert all(v.status == DEGRADED for v in first)
        assert all(v.skipped_layers == ("conv1",) for v in first)
        assert all(v.status in (VALIDATED, FLAGGED) for v in second)
        health = monitor.health()["layers"]["conv1"]
        assert health["failures"] == 1 and health["state"] == "closed"
        assert "InjectedScorerError" in health["last_error"]

    def test_verdict_never_exception_and_health_reports(self, fitted_validator):
        monitor, _ = make_monitor(fitted_validator)
        with fail_packed_scorer(fitted_validator.validators[2], nth=1, count=-1):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradedModeWarning)
                for _ in range(3):
                    verdicts = monitor.classify(fresh_images(3))
        assert len(verdicts) == 3
        assert all(v.status == DEGRADED for v in verdicts)
        assert monitor.health()["layers"]["fc1"]["state"] == "open"

    def test_strict_mode_escalates_degraded_warning(self, fitted_validator, monkeypatch):
        monkeypatch.setenv("REPRO_STRICT", "1")
        monitor, _ = make_monitor(fitted_validator)
        with fail_packed_scorer(fitted_validator.validators[0], nth=1):
            with pytest.raises(DegradedModeWarning):
                monitor.classify(fresh_images())


# -- fault class: corrupted artifacts ------------------------------------------


@pytest.mark.faults
class TestArtifactFault:
    def setup_cache(self, tmp_path):
        cache = CheckpointStore(tmp_path)
        cache.save(cache_key("model", {"v": 1}), {"weights": list(range(50))})
        return cache

    def test_bitflip_detected_and_rebuilt(self, tmp_path):
        cache = self.setup_cache(tmp_path)
        with corrupt_artifact(cache, "model", {"v": 1}, mode="bitflip", seed=3):
            rebuilt = cache.get_or_build("model", {"v": 1}, lambda: "fresh")
            assert rebuilt == "fresh"
            quarantined = list((tmp_path / ".quarantine").iterdir())
            assert any(p.name.startswith("model-") for p in quarantined)

    def test_truncation_detected_and_rebuilt(self, tmp_path):
        cache = self.setup_cache(tmp_path)
        with corrupt_artifact(cache, "model", {"v": 1}, mode="truncate"):
            assert cache.get_or_build("model", {"v": 1}, lambda: "fresh") == "fresh"

    def test_load_raises_integrity_error_not_half_load(self, tmp_path):
        cache = self.setup_cache(tmp_path)
        with corrupt_artifact(cache, "model", {"v": 1}, mode="bitflip", seed=9):
            with pytest.raises(CheckpointIntegrityError, match="checksum mismatch"):
                cache.load(cache_key("model", {"v": 1}))
            assert not cache.exists(cache_key("model", {"v": 1}))  # quarantined away

    def test_corruption_with_refreshed_checksum_hits_unpickle_path(self, tmp_path):
        cache = self.setup_cache(tmp_path)
        with corrupt_artifact(
            cache, "model", {"v": 1}, mode="truncate", refresh_checksum=True
        ):
            # The frame digest matches the corrupt bytes, so integrity
            # passes and the unpickling error itself must trigger the rebuild.
            assert cache.get_or_build("model", {"v": 1}, lambda: "fresh") == "fresh"

    def test_restores_original_on_exit(self, tmp_path):
        cache = self.setup_cache(tmp_path)
        with corrupt_artifact(cache, "model", {"v": 1}, mode="bitflip"):
            pass
        assert cache.load(cache_key("model", {"v": 1})) == {"weights": list(range(50))}

    def test_invalid_mode_rejected(self, tmp_path):
        cache = self.setup_cache(tmp_path)
        with pytest.raises(ValueError):
            with corrupt_artifact(cache, "model", {"v": 1}, mode="scribble"):
                pass


# -- monitor contract ----------------------------------------------------------


class TestMonitorContract:
    def test_rejection_rate_nan_before_scoring(self, fitted_validator):
        monitor, _ = make_monitor(fitted_validator)
        assert np.isnan(monitor.rejection_rate)

    def test_quarantined_inputs_excluded_from_rejection_rate(self, fitted_validator):
        monitor, _ = make_monitor(fitted_validator)
        batch = fresh_images(4)
        batch[0, 0, 0, 0] = np.nan
        verdicts = monitor.classify(batch)
        assert verdicts[0].status == QUARANTINED
        assert monitor.stats["quarantined"] == 1
        assert monitor.stats["accepted"] + monitor.stats["rejected"] == 3
        assert not np.isnan(monitor.rejection_rate)

    def test_on_reject_fires_for_quarantined_verdicts(self, fitted_validator):
        rejected = []
        monitor = RuntimeMonitor(fitted_validator, on_reject=rejected.append)
        monitor.classify(np.full((2, 1, 12, 12), np.nan))
        assert len(rejected) == 2
        assert all(v.status == QUARANTINED for v in rejected)

    def test_empty_batch_returns_no_verdicts(self, fitted_validator):
        monitor, _ = make_monitor(fitted_validator)
        assert monitor.classify(np.empty((0, 1, 12, 12))) == []

    def test_health_snapshot_shape(self, fitted_validator):
        monitor, _ = make_monitor(fitted_validator)
        monitor.classify(fresh_images(2))
        health = monitor.health()
        assert set(health["layers"]) == {"conv1", "conv2", "fc1"}
        for entry in health["layers"].values():
            assert {"state", "failures", "successes", "last_error"} <= set(entry)
        assert health["counts"]["accepted"] + health["counts"]["rejected"] == 2
        assert health["quarantined"] == 0

    def test_verdict_repr_includes_status_when_degraded(self, fitted_validator):
        from repro.core.monitor import ValidationVerdict

        verdict = ValidationVerdict(
            prediction=-1,
            joint_discrepancy=float("nan"),
            per_layer=np.full(3, np.nan),
            accepted=False,
            status=QUARANTINED,
            reason="test",
        )
        assert "status=QUARANTINED" in repr(verdict)


# -- generated fault plans -----------------------------------------------------


@pytest.mark.faults
class TestGeneratedFaultPlans:
    @given(
        nan_layer=st.one_of(st.none(), st.integers(0, 2)),
        fail_layer=st.one_of(st.none(), st.integers(0, 2)),
        nth=st.integers(1, 2),
        count=st.integers(0, 2),
        batch=st.integers(1, 4),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=20, deadline=None)
    def test_any_plan_yields_structured_verdicts(
        self,
        fitted_validator,
        trained_tiny_model,
        nan_layer,
        fail_layer,
        nth,
        count,
        batch,
        seed,
    ):
        model = trained_tiny_model[0]
        monitor, _ = make_monitor(fitted_validator)
        images = np.random.default_rng(20_000 + seed).random((batch, 1, 12, 12))
        with warnings.catch_warnings(), contextlib.ExitStack() as faults:
            warnings.simplefilter("ignore", DegradedModeWarning)
            if nan_layer is not None:
                faults.enter_context(nan_activations(model, nan_layer))
            if fail_layer is not None:
                faults.enter_context(fail_packed_scorer(
                    fitted_validator.validators[fail_layer], nth=nth, count=count
                ))
            verdicts = monitor.classify(images)
        assert len(verdicts) == batch
        assert all(v.status in STATUSES for v in verdicts)
        health = monitor.health()
        assert set(health["layers"]) == {"conv1", "conv2", "fc1"}
