"""Edge-case and error-path tests across subsystems."""

import os

import numpy as np
import pytest

from repro.attacks.base import Attack, AttackResult
from repro.corner.suite import _search_combined
from repro.detect.base import Detector
from repro.nn import Module
from repro.utils.cache import default_cache


class TestAbstractInterfaces:
    def test_detector_base_raises(self):
        detector = Detector()
        with pytest.raises(NotImplementedError):
            detector.fit(np.zeros((1, 1, 2, 2)), np.zeros(1))
        with pytest.raises(NotImplementedError):
            detector.score(np.zeros((1, 1, 2, 2)))

    def test_module_forward_raises(self):
        with pytest.raises(NotImplementedError):
            Module()(None)

    def test_attack_base_raises(self, trained_tiny_model):
        model, *_ = trained_tiny_model
        with pytest.raises(NotImplementedError):
            Attack(model).generate(np.zeros((1, 1, 12, 12)), np.zeros(1))


class TestAttackResult:
    def test_target_labels_recorded(self):
        result = AttackResult(
            adversarial=np.zeros((2, 1, 2, 2)),
            predictions=np.array([1, 2]),
            true_labels=np.array([0, 2]),
            target_labels=np.array([1, 1]),
        )
        np.testing.assert_array_equal(result.target_labels, [1, 1])
        assert result.success_rate == 0.5


class TestCombinedSearchErrors:
    def test_requires_two_viable_transformations(self, mnist_context):
        from repro.corner.search import SearchOutcome
        from repro.transforms import Rotation

        single = [SearchOutcome("rotation", Rotation(30.0), 0.7, 0.8, True)]
        with pytest.raises(ValueError):
            _search_combined(
                mnist_context.model, single,
                mnist_context.suite.seeds[:10], mnist_context.suite.seed_labels[:10],
            )


class TestDefaultCache:
    def test_env_var_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        cache = default_cache()
        assert cache.root == tmp_path / "custom"
        assert cache.root.exists()

    def test_default_location_is_repo_artifacts(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        cache = default_cache()
        assert cache.root.name == ".artifacts"


class TestTensorInternals:
    def test_from_op_without_grad_parents(self):
        from repro.autograd.tensor import Tensor

        a = Tensor([1.0])
        out = Tensor.from_op(a.data * 2, (a,), lambda g: None)
        assert not out.requires_grad
        assert out._backward is None

    def test_named_tensor(self):
        from repro.autograd.tensor import Tensor

        t = Tensor([1.0], name="logits")
        assert t.name == "logits"


class TestValidatorEdgeCases:
    def test_monitor_rejects_unknown_combiner_weights_combo(self, trained_tiny_model):
        from repro.core import DeepValidator, ValidatorConfig

        model, *_ = trained_tiny_model
        # Valid: weights matching the number of probes.
        DeepValidator(model, ValidatorConfig(weights=[1.0, 1.0, 1.0]))

    def test_figure3_bins_parameter(self, mnist_context):
        from repro.experiments import run_figure3

        result = run_figure3("synth-mnist", "tiny", bins=50)
        assert len(result.clean_histogram) == 50


class TestDatasetEdges:
    def test_zero_count_generation(self):
        from repro.data.mnist import generate_synth_mnist

        with pytest.raises(ValueError):
            # numpy stack of an empty list raises; zero-size draws are a
            # caller error, not silently supported.
            generate_synth_mnist(0)

    def test_custom_image_size(self):
        from repro.data.mnist import generate_synth_mnist

        images, _ = generate_synth_mnist(2, rng=0, size=32)
        assert images.shape == (2, 1, 32, 32)
