"""Tests for the model zoo."""

import numpy as np
import pytest

from repro.utils.cache import CheckpointStore, cache_key
from repro.zoo import (
    DenseLayer,
    TRAINING_PROFILES,
    TransitionLayer,
    architecture_summary,
    densenet,
    mnist_cnn,
    svhn_cnn,
)
from repro.zoo.recipes import get_trained_classifier, train_classifier
from repro.autograd import Tensor


class TestArchitectures:
    def test_mnist_cnn_seven_layers(self):
        model = mnist_cnn(width=2)
        assert len(model.stage_names) == 7
        assert len(model.probe_names) == 6

    def test_mnist_cnn_forward_shape(self):
        model = mnist_cnn(width=2)
        out = model(Tensor(np.zeros((2, 1, 28, 28), dtype=np.float32)))
        assert out.shape == (2, 10)

    def test_svhn_cnn_forward_shape(self):
        model = svhn_cnn(width=2)
        out = model(Tensor(np.zeros((2, 3, 32, 32), dtype=np.float32)))
        assert out.shape == (2, 10)
        assert len(model.probe_names) == 6

    def test_densenet_forward_shape(self):
        model = densenet(growth=2, block_layers=2, initial_channels=4)
        out = model(Tensor(np.zeros((2, 3, 32, 32), dtype=np.float32)))
        assert out.shape == (2, 10)

    def test_densenet_probe_count(self):
        model = densenet(growth=2, block_layers=3, initial_channels=4)
        # init + 3 blocks x 3 layers + 2 transitions + pool = 13 probes.
        assert len(model.probe_names) == 13

    def test_deterministic_construction(self):
        a, b = mnist_cnn(width=2, rng=5), mnist_cnn(width=2, rng=5)
        x = np.random.default_rng(0).random((1, 1, 28, 28))
        np.testing.assert_allclose(a.predict_proba(x), b.predict_proba(x))

    def test_architecture_summary_rows(self):
        model = svhn_cnn(width=2)
        rows = architecture_summary(model)
        assert len(rows) == 7
        assert rows[0][0] == "conv1"


class TestDenseBlocks:
    def test_dense_layer_concatenates(self):
        layer = DenseLayer(4, growth=3, rng=0)
        out = layer(Tensor(np.zeros((1, 4, 8, 8), dtype=np.float32)))
        assert out.shape == (1, 7, 8, 8)
        assert layer.out_channels == 7

    def test_dense_layer_preserves_input_features(self):
        layer = DenseLayer(2, growth=2, rng=0)
        x = np.random.default_rng(1).random((1, 2, 6, 6)).astype(np.float32)
        out = layer(Tensor(x))
        np.testing.assert_allclose(out.data[:, :2], x, atol=1e-6)

    def test_transition_halves_spatial(self):
        layer = TransitionLayer(8, 4, rng=0)
        out = layer(Tensor(np.zeros((1, 8, 8, 8), dtype=np.float32)))
        assert out.shape == (1, 4, 4, 4)


class TestRecipes:
    def test_profiles_cover_all_datasets(self):
        for profile in TRAINING_PROFILES.values():
            assert set(profile) == {"synth-mnist", "synth-svhn", "synth-cifar"}

    def test_unknown_profile_and_dataset(self):
        with pytest.raises(ValueError):
            train_classifier("synth-mnist", "huge")
        with pytest.raises(ValueError):
            train_classifier("imagenet", "tiny")

    def test_cached_classifier_roundtrip(self, tmp_path, mnist_context):
        # Use a private cache to check the build-once behaviour without
        # retraining: store the already trained classifier.
        cache = CheckpointStore(tmp_path)
        cache.save(
            cache_key(
                "classifier", {"dataset": "synth-mnist", "profile": "tiny", "seed": 0, "v": 1}
            ),
            mnist_context.classifier,
        )
        loaded = get_trained_classifier("synth-mnist", "tiny", seed=0, cache=cache)
        assert loaded.test_accuracy == mnist_context.classifier.test_accuracy

    def test_trained_mnist_quality(self, mnist_context):
        classifier = mnist_context.classifier
        assert classifier.test_accuracy > 0.95
        assert classifier.mean_top1_confidence > 0.9
        assert classifier.num_hidden_layers == 6

    def test_trained_model_predicts_loaded_data(self, mnist_context):
        model = mnist_context.model
        dataset = mnist_context.dataset
        accuracy = (model.predict(dataset.test_images[:100]) == dataset.test_labels[:100]).mean()
        assert accuracy > 0.9
