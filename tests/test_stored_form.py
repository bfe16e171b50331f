"""One stored form of a fitted layer.

Each fitted (layer, class) SVM keeps its support rows once, as the probe
rows it was fitted from (float32 on the compiled-plan path), beside its own
scaler statistics, duals, ``rho`` and ``||w||``; the standardised float64
support vectors are derived from those rows, ``==`` to what the SMO solved
on. A bundle loaded from a store keeps its digest and validator, not the
payload bytes, and a validator pickled in the earlier stored form (float64
scaled support vectors, separate per-layer scalers) is refused.
"""

import copy
import dataclasses
import json
import pickle

import numpy as np
import pytest

from repro.core import (
    BundleError,
    BundleStore,
    BundleValidationError,
    DeepValidator,
    ValidatorBundle,
    ValidatorConfig,
)
from repro.core import fitting
from repro.core.bundle import _fingerprint
from repro.svm.scaler import StandardScaler
from repro.utils.cache import frame_header, write_atomic
from tests.helpers import easy_image_task, train_tiny_model


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
def loaded(fitted_validator, tmp_path_factory):
    store = BundleStore(tmp_path_factory.mktemp("store"))
    store.save(ValidatorBundle.pack(fitted_validator, version=1, name="tiny"))
    return store.load("tiny", 1)


def assert_one_stored_form(validator):
    """Every (layer, class) holds its float32 support rows and no other
    row matrix: no float64 scaled copy, no per-layer scaler table."""
    for layer in validator.validators:
        assert "_scalers" not in vars(layer)
        for svm in layer._svms.values():
            state = vars(svm)
            assert state["support_rows_"].dtype == np.float32
            matrices = [
                name for name, value in state.items()
                if isinstance(value, np.ndarray) and value.ndim == 2
            ]
            assert matrices == ["support_rows_"]
            assert "support_vectors_" not in state


def pairs(validator):
    for layer in validator.validators:
        for klass in layer.classes:
            yield layer.layer_name, klass, layer._svms[klass]


class TestFittedForm:
    def test_fit_stores_each_support_row_once(self, fitted_validator):
        assert_one_stored_form(fitted_validator)

    def test_support_vectors_are_the_solved_rows(self):
        # The derived scaled rows are == to the float64 rows the SMO solved.
        features = np.random.default_rng(3).normal(2.0, 3.0, size=(40, 7))
        features = features.astype(np.float32)
        svm = fitting._solve_fit_task(features, fitting._solve_config(ValidatorConfig())).svm
        support = svm.result_.alpha > 1e-12
        solved = StandardScaler().fit_transform(features)
        np.testing.assert_array_equal(svm.support_rows_, features[support])
        np.testing.assert_array_equal(svm.support_vectors_, solved[support])


class TestLoadedForm:
    def test_loaded_bundle_keeps_only_the_digest(self, loaded):
        assert loaded.payload is None
        assert loaded.verify() is loaded  # the kept digest still verifies
        assert_one_stored_form(loaded.validator)

    def test_loaded_fit_equals_the_fitted_one(self, fitted_validator, loaded):
        for (name, klass, a), (_, _, b) in zip(
            pairs(fitted_validator), pairs(loaded.validator)
        ):
            np.testing.assert_array_equal(a.support_rows_, b.support_rows_)
            assert a.support_rows_.dtype == b.support_rows_.dtype
            np.testing.assert_array_equal(a.dual_coef_, b.dual_coef_)
            np.testing.assert_array_equal(a.scaler_.mean_, b.scaler_.mean_)
            np.testing.assert_array_equal(a.scaler_.scale_, b.scaler_.scale_)
            assert (a.rho_, a.norm_w_) == (b.rho_, b.norm_w_), (name, klass)
        images, _ = easy_image_task(16, seed=5)
        for want, got in zip(
            fitted_validator.discrepancies(images), loaded.validator.discrepancies(images)
        ):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(
            loaded.validator.joint_discrepancy(images),
            fitted_validator.joint_discrepancy(images),
        )

    def test_loaded_bundle_cannot_be_saved_again(self, loaded, tmp_path):
        with pytest.raises(BundleError, match="keeps only its digest"):
            BundleStore(tmp_path).save(loaded)


def parent_form(validator):
    """``validator`` as the earlier stored form pickled it: float64 scaled
    ``support_vectors_`` on each SVM, no stored rows, and the scalers in a
    per-layer ``_scalers`` table."""
    legacy = copy.deepcopy(validator)
    for layer in legacy.validators:
        layer.__dict__["_scalers"] = {}
        for klass, svm in layer._svms.items():
            state = vars(svm)
            state["support_vectors_"] = svm.support_vectors_
            layer._scalers[klass] = state.pop("scaler_")
            del state["support_rows_"], state["standardize"]
    return legacy


class TestParentFormRefused:
    def test_parent_form_payload_fails_validate_and_is_not_served(
        self, fitted_validator, tmp_path
    ):
        payload = pickle.dumps(parent_form(fitted_validator))
        manifest = dataclasses.replace(
            ValidatorBundle.pack(fitted_validator, version=1, name="tiny").manifest,
            fingerprint=_fingerprint(payload),
        )
        first = fitted_validator.validators[0].layer_name
        bundle = ValidatorBundle(manifest, payload).verify()  # intact, but old
        with pytest.raises(BundleValidationError, match=f"layer {first!r}"):
            bundle.validate()
        store = BundleStore(tmp_path)
        head = json.dumps(dataclasses.asdict(manifest)).encode()
        write_atomic(
            store.path_for("tiny", 1),
            frame_header(head), head, frame_header(payload), payload,
        )
        with pytest.raises(BundleValidationError, match="stored support rows"):
            store.load("tiny", 1)
