"""Tests for versioned validator bundles and the bundle store.

The bundle layer is the deployment gate: everything that would make a
refit unsafe to serve — payload/manifest divergence, storage rot, NaN
thresholds, unfitted layers, unusable contributions — must be refused at
pack, save, or load time, never discovered in production verdicts.
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from repro import obs
from repro.core import (
    BundleError,
    BundleIntegrityError,
    BundleStore,
    BundleValidationError,
    DeepValidator,
    RuntimeMonitor,
    ValidatorBundle,
    ValidatorConfig,
)
from repro.core.bundle import _fingerprint
from repro.obs.metrics import MetricsRegistry
from repro.testing import corrupt_bundle
from repro.utils.cache import FRAME_HEADER, frame_header, write_atomic
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


class TestPack:
    def test_manifest_mirrors_the_validator(self, fitted_validator, bundle):
        manifest = bundle.manifest
        assert manifest.name == "tiny"
        assert manifest.version == 1
        assert manifest.key == "tiny@v1"
        assert manifest.epsilon == float(fitted_validator.epsilon)
        assert manifest.combiner == fitted_validator.config.combiner
        assert manifest.layer_names == tuple(
            v.layer_name for v in fitted_validator.validators
        )
        assert manifest.layer_contributions == tuple(
            float(c) for c in fitted_validator.layer_contributions
        )
        assert (
            manifest.correctly_classified
            == fitted_validator.fit_summary.correctly_classified
        )

    def test_fingerprint_is_sha256_of_the_payload(self, bundle):
        assert bundle.manifest.fingerprint == _fingerprint(bundle.payload)
        assert len(bundle.manifest.fingerprint) == 64

    def test_same_fit_packs_the_same_fingerprint(self, fitted_validator, bundle):
        again = ValidatorBundle.pack(fitted_validator, version=2, name="tiny")
        # Same fitted artifact, different version: identical fit fingerprint.
        assert again.manifest.fingerprint == bundle.manifest.fingerprint

    def test_version_and_name_validation(self, fitted_validator):
        with pytest.raises(ValueError):
            ValidatorBundle.pack(fitted_validator, version=0)
        with pytest.raises(ValueError):
            ValidatorBundle.pack(fitted_validator, version=1, name="bad name!")

    def test_nan_threshold_refused_at_pack(self, fitted_validator):
        poisoned = copy.copy(fitted_validator)
        poisoned.epsilon = float("nan")
        with pytest.raises(BundleValidationError, match="non-finite"):
            ValidatorBundle.pack(poisoned, version=1)

    def test_unfitted_validator_refused_at_pack(self, trained_tiny_model):
        model = trained_tiny_model[0]
        with pytest.raises(BundleValidationError, match="no fitted layers"):
            ValidatorBundle.pack(DeepValidator(model), version=1)

    def test_broken_contributions_refused_at_pack(self, fitted_validator):
        poisoned = copy.copy(fitted_validator)
        poisoned.layer_contributions = np.array([np.nan, 1.0, 1.0])
        with pytest.raises(BundleValidationError, match="contributions"):
            ValidatorBundle.pack(poisoned, version=1)


class TestVerify:
    def test_tampered_payload_fails_integrity(self, bundle):
        tampered = ValidatorBundle(bundle.manifest, bundle.payload + b"\x00")
        with pytest.raises(BundleIntegrityError, match="fingerprint"):
            tampered.verify()

    def test_manifest_epsilon_drift_fails_integrity(self, bundle):
        manifest = dataclasses.replace(bundle.manifest, epsilon=999.0)
        drifted = ValidatorBundle(manifest, bundle.payload)
        drifted.manifest = dataclasses.replace(
            manifest, fingerprint=_fingerprint(bundle.payload)
        )
        with pytest.raises(BundleIntegrityError, match="epsilon"):
            drifted.verify()

    def test_manifest_layer_drift_fails_integrity(self, bundle):
        manifest = dataclasses.replace(bundle.manifest, layer_names=("ghost",))
        drifted = ValidatorBundle(manifest, bundle.payload)
        with pytest.raises(BundleIntegrityError, match="layers"):
            drifted.verify()

    def test_packed_bundle_round_trips_scoring(self, fitted_validator, bundle):
        # The unpickled payload scores bit-identically to the original
        # fitted validator (reference per-class path, float64 end to end).
        images, _ = easy_image_task(6, seed=3)
        reloaded = pickle.loads(bundle.payload)
        ref_pred, ref_d = fitted_validator.discrepancies(images)
        got_pred, got_d = reloaded.discrepancies(images)
        np.testing.assert_array_equal(got_pred, ref_pred)
        np.testing.assert_array_equal(got_d, ref_d)

    def test_monitor_convenience_builds_over_the_bundle(self, bundle):
        monitor = bundle.monitor()
        assert isinstance(monitor, RuntimeMonitor)
        assert monitor.validator is bundle.validator


class TestLegacyPickles:
    def test_validator_pickled_with_n_jobs_still_loads(self, fitted_validator):
        # Validators pickled before fits became in-process-only carry a
        # ``config.n_jobs`` attribute (bundles, cached experiment contexts).
        # It must ride along harmlessly: load, pack, validate, and score
        # exactly like a validator that never had it.
        legacy = pickle.loads(pickle.dumps(fitted_validator))
        legacy.config.__dict__["n_jobs"] = 2
        assert all(layer.config is legacy.config for layer in legacy.validators)
        restored = pickle.loads(pickle.dumps(legacy))
        assert restored.config.n_jobs == 2
        bundle = ValidatorBundle.pack(restored, version=1, name="legacy").validate()
        images, _ = easy_image_task(6, seed=4)
        ref_pred, ref_d = fitted_validator.discrepancies(images)
        ref_joint = fitted_validator.joint_discrepancy(images)
        for scorer in (restored, bundle.validator):
            got_pred, got_d = scorer.discrepancies(images)
            np.testing.assert_array_equal(got_pred, ref_pred)
            np.testing.assert_array_equal(got_d, ref_d)
            np.testing.assert_array_equal(scorer.joint_discrepancy(images), ref_joint)
            np.testing.assert_array_equal(
                scorer.flag(images), fitted_validator.flag(images)
            )


class TestStore:
    def test_save_load_round_trip(self, fitted_validator, bundle, tmp_path):
        store = BundleStore(tmp_path)
        path = store.save(bundle)
        assert path.name == "bundle-tiny-v1.ckpt"
        loaded = store.load("tiny", 1)
        assert loaded.manifest == bundle.manifest
        assert loaded.manifest.fingerprint == _fingerprint(bundle.payload)
        images, _ = easy_image_task(6, seed=5)
        ref_pred, ref_d = fitted_validator.discrepancies(images)
        got_pred, got_d = loaded.validator.discrepancies(images)
        np.testing.assert_array_equal(got_pred, ref_pred)
        np.testing.assert_array_equal(got_d, ref_d)

    def test_round_trip_hashes_twice_pickles_once_unpickles_twice(
        self, fitted_validator, tmp_path, monkeypatch
    ):
        # pack hashes and pickles the payload, and unpickles it to validate;
        # save reuses that digest; load hashes once and unpickles once.
        import hashlib

        real_sha256, real_dumps, real_loads = hashlib.sha256, pickle.dumps, pickle.loads
        hashed, dumped, loaded = [], [], []

        class CountingSha256:
            def __init__(self, data=b"", **kwargs):
                self._hash = real_sha256(**kwargs)
                self.update(data)

            def update(self, data):
                hashed.append(len(data))
                self._hash.update(data)

            def digest(self):
                return self._hash.digest()

            def hexdigest(self):
                return self._hash.hexdigest()

        def dumps(*args, **kwargs):
            dumped.append(args[0])
            return real_dumps(*args, **kwargs)

        def loads(*args, **kwargs):
            loaded.append(len(args[0]))
            return real_loads(*args, **kwargs)

        monkeypatch.setattr(hashlib, "sha256", CountingSha256)
        monkeypatch.setattr(pickle, "dumps", dumps)
        monkeypatch.setattr(pickle, "loads", loads)
        store = BundleStore(tmp_path)
        packed = ValidatorBundle.pack(fitted_validator, version=1, name="tiny")
        store.save(packed)
        restored = store.load("tiny", 1)
        monkeypatch.undo()

        size = len(packed.payload)
        assert [n for n in hashed if n >= size] == [size, size]
        assert dumped == [fitted_validator]
        assert loaded == [size, size]
        assert restored.manifest == packed.manifest

    def test_bundles_are_immutable(self, bundle, tmp_path):
        store = BundleStore(tmp_path)
        store.save(bundle)
        with pytest.raises(BundleError, match="immutable"):
            store.save(bundle)

    def test_versions_and_latest(self, fitted_validator, bundle, tmp_path):
        store = BundleStore(tmp_path)
        store.save(bundle)
        store.save(ValidatorBundle.pack(fitted_validator, version=3, name="tiny"))
        store.save(ValidatorBundle.pack(fitted_validator, version=1, name="other"))
        assert store.versions("tiny") == [1, 3]
        assert store.latest("tiny").manifest.version == 3
        assert store.latest("absent") is None

    def test_missing_bundle_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            BundleStore(tmp_path).load("tiny", 1)

    @pytest.mark.parametrize("mode", ["bitflip", "truncate"])
    def test_corrupt_frame_is_refused_and_quarantined(self, bundle, tmp_path, mode):
        store = BundleStore(tmp_path)
        store.save(bundle)
        with corrupt_bundle(store, "tiny", 1, mode=mode):
            with pytest.raises(BundleIntegrityError):
                store.load("tiny", 1)
            # The store quarantined the corrupt frame for post-mortem.
            assert not store.exists("tiny", 1)
            assert list((tmp_path / ".quarantine").iterdir())
        # The injector restored the original bytes: loadable again.
        assert store.load("tiny", 1).manifest == bundle.manifest

    def test_corrupt_bundle_counts_one_quarantine(self, bundle, tmp_path):
        store = BundleStore(tmp_path)
        store.save(bundle)
        registry = MetricsRegistry()
        with obs.use(registry=registry, enabled=True):
            with corrupt_bundle(store, "tiny", 1, mode="bitflip"):
                with pytest.raises(BundleIntegrityError):
                    store.load("tiny", 1)
        (series,) = registry.snapshot()["checkpoint_quarantines_total"]["series"]
        assert series["value"] == 1.0

    def test_manifest_bitflip_is_refused_and_quarantined(self, bundle, tmp_path):
        store = BundleStore(tmp_path)
        path = store.save(bundle)
        blob = bytearray(path.read_bytes())
        blob[FRAME_HEADER.size + 1] ^= 0x01  # inside the manifest's JSON
        path.write_bytes(bytes(blob))
        with pytest.raises(BundleIntegrityError, match="checksum mismatch"):
            store.load("tiny", 1)
        assert not store.exists("tiny", 1)
        assert list((tmp_path / ".quarantine").iterdir())

    def test_old_format_bundle_is_refused_and_quarantined(self, bundle, tmp_path):
        # The earlier format: one checkpoint frame around a pickled dict.
        # It is refused before anything in it is unpickled.
        store = BundleStore(tmp_path)
        state = {"manifest": dataclasses.asdict(bundle.manifest), "payload": bundle.payload}
        body = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        store.path_for("tiny", 1).write_bytes(frame_header(body) + body)
        assert store.versions("tiny") == [1]
        with pytest.raises(BundleIntegrityError):
            store.load("tiny", 1)
        assert not store.exists("tiny", 1)
        assert list((tmp_path / ".quarantine").iterdir())

    def test_poisoned_entry_is_refused_at_load(self, bundle, tmp_path):
        # Intact frames whose manifest is not a bundle's (here a pickle)
        # must fail as an integrity error, never unpickle into the rollout.
        store = BundleStore(tmp_path)
        head = pickle.dumps({"surprise": True})
        write_atomic(
            store.path_for("tiny", 1),
            frame_header(head), head, frame_header(bundle.payload), bundle.payload,
        )
        with pytest.raises(BundleIntegrityError, match="not a validator bundle"):
            store.load("tiny", 1)
        assert list((tmp_path / ".quarantine").iterdir())

    def test_misfiled_bundle_is_refused_at_load(self, bundle, tmp_path):
        # A bundle copied under the wrong key must not impersonate it.
        store = BundleStore(tmp_path)
        store.path_for("tiny", 7).write_bytes(store.save(bundle).read_bytes())
        with pytest.raises(BundleIntegrityError, match="identifies itself"):
            store.load("tiny", 7)
