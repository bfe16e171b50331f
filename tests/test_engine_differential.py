"""Differential harness: the batched engine must equal the per-sample path.

The batched validation engine rewrites the numerical core of the
reproduction — packed raw-space support vectors, batches grouped by
predicted class, one kernel block per class present — so every property
here pins its output against
the paper-faithful reference implementation (``LayerValidator.discrepancy``
called one sample at a time) to 1e-8, across random kernels, nu values,
class skews, and degenerate inputs.

Image-level comparisons (``DeepValidator.discrepancies`` vs
``ValidationEngine.discrepancies``) use matching forward-pass chunking:
the float32 forward pass is only reproducible for identical batch
splits, and the point of this harness is the scoring math, not conv
GEMM accumulation order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.validator import DeepValidator, LayerValidator, ValidatorConfig

TOLERANCE = 1e-8


def fitted_layer_validator(
    seed: int,
    kernel: str = "rbf",
    nu: float = 0.2,
    class_sizes: tuple[int, ...] = (30, 30, 30),
    dim: int = 5,
    standardize: bool = True,
    n_queries: int = 24,
) -> tuple[LayerValidator, np.ndarray]:
    """A LayerValidator fitted on synthetic per-class Gaussian blobs."""
    rng = np.random.default_rng(seed)
    reps, labels = [], []
    for klass, size in enumerate(class_sizes):
        reps.append(
            rng.normal(loc=1.5 * klass, scale=1.0 + 0.2 * klass, size=(size, dim))
        )
        labels.append(np.full(size, klass, dtype=np.int64))
    config = ValidatorConfig(
        nu=nu, kernel=kernel, max_per_class=64, standardize=standardize
    )
    validator = LayerValidator(0, "probe0", config)
    validator.fit(np.concatenate(reps), np.concatenate(labels), rng=seed)
    return validator, rng.normal(loc=1.0, scale=2.0, size=(n_queries, dim))


def per_sample_reference(
    validator: LayerValidator, queries: np.ndarray, predicted: np.ndarray
) -> np.ndarray:
    """The per-sample path: one reference call per individual sample."""
    return np.array(
        [
            validator.discrepancy(queries[i : i + 1], predicted[i : i + 1])[0]
            for i in range(len(queries))
        ]
    )


class TestBatchedEqualsPerSample:
    @given(
        seed=st.integers(0, 10_000),
        kernel=st.sampled_from(["rbf", "linear", "poly"]),
        nu=st.floats(0.05, 0.95),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_kernels_and_nu(self, seed, kernel, nu):
        validator, queries = fitted_layer_validator(seed, kernel=kernel, nu=nu)
        predicted = np.random.default_rng(seed + 1).integers(0, 3, size=len(queries))
        batched = validator.discrepancy_batched(queries, predicted)
        reference = per_sample_reference(validator, queries, predicted)
        np.testing.assert_allclose(batched, reference, atol=TOLERANCE, rtol=0)
        assert np.isfinite(batched).all()

    @given(
        seed=st.integers(0, 10_000),
        small=st.integers(2, 4),
        large=st.integers(50, 120),
        standardize=st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test_class_skew(self, seed, small, large, standardize):
        # One near-empty class, one dominant class, and predictions biased
        # toward the minority so the gather path sees the skew both ways.
        validator, queries = fitted_layer_validator(
            seed, class_sizes=(small, large, 10), standardize=standardize
        )
        rng = np.random.default_rng(seed + 2)
        predicted = rng.choice([0, 0, 0, 1, 2], size=len(queries))
        batched = validator.discrepancy_batched(queries, predicted)
        reference = per_sample_reference(validator, queries, predicted)
        np.testing.assert_allclose(batched, reference, atol=TOLERANCE, rtol=0)

    @given(seed=st.integers(0, 10_000), kernel=st.sampled_from(["rbf", "linear"]))
    @settings(max_examples=20, deadline=None)
    def test_single_support_vector(self, seed, kernel):
        # Degenerate reference distribution: prune class 0's SVM to a single
        # support vector; packing and scoring must survive a length-1 row range.
        validator, queries = fitted_layer_validator(seed, kernel=kernel)
        svm = validator._svms[0]
        svm.support_vectors_ = svm.support_vectors_[:1]
        svm.dual_coef_ = np.array([1.0])
        validator.__dict__.pop("_pack", None)  # rebuild against pruned SVM
        predicted = np.zeros(len(queries), dtype=np.int64)
        batched = validator.discrepancy_batched(queries, predicted)
        reference = per_sample_reference(validator, queries, predicted)
        np.testing.assert_allclose(batched, reference, atol=TOLERANCE, rtol=0)
        assert np.isfinite(batched).all()

    @given(seed=st.integers(0, 10_000), kernel=st.sampled_from(["rbf", "poly"]))
    @settings(max_examples=10, deadline=None)
    def test_zero_support_vectors(self, seed, kernel):
        # A class whose SVM kept no support vectors scores rho / ||w|| on
        # both paths: an empty row range, not a packing failure.
        validator, queries = fitted_layer_validator(seed, kernel=kernel)
        svm = validator._svms[1]
        svm.support_vectors_ = svm.support_vectors_[:0]
        svm.dual_coef_ = svm.dual_coef_[:0]
        validator.__dict__.pop("_pack", None)
        assert validator.packed() is not None
        predicted = np.random.default_rng(seed).integers(0, 3, size=len(queries))
        batched = validator.discrepancy_batched(queries, predicted)
        reference = per_sample_reference(validator, queries, predicted)
        np.testing.assert_allclose(batched, reference, atol=TOLERANCE, rtol=0)

    @given(
        seed=st.integers(0, 10_000),
        kernel=st.sampled_from(["rbf", "linear", "poly"]),
        absent=st.integers(0, 2),
    )
    @settings(max_examples=15, deadline=None)
    def test_only_predicted_classes_are_scored(self, seed, kernel, absent):
        # Each image is scored against its predicted class's SVM alone:
        # poisoning every row of a class no image predicts moves nothing.
        validator, queries = fitted_layer_validator(seed, kernel=kernel)
        predicted = np.random.default_rng(seed).choice(
            [k for k in range(3) if k != absent], size=len(queries)
        )
        expected = validator.discrepancy_batched(queries, predicted)
        pack = validator.packed()
        pack.coef_rows[pack.bounds[absent] : pack.bounds[absent + 1]] = np.nan
        poisoned = validator.discrepancy_batched(queries, predicted)
        assert np.isfinite(poisoned).all()
        np.testing.assert_array_equal(poisoned, expected)

    @given(
        seed=st.integers(0, 10_000),
        chunk=st.integers(1, 30),
        shape=st.sampled_from([(3, 5), (10, 16), (10, 64)]),
    )
    @settings(max_examples=20, deadline=None)
    def test_chunking_and_absent_classes(self, seed, chunk, shape):
        # Up to ten classes at up to 64 features. The batch predicts a
        # random subset of the fitted classes in shuffled order (the rest
        # are never scored), so chunk boundaries split class groups and
        # single-image chunks occur; every chunk size must agree with the
        # whole-batch result.
        n_classes, dim = shape
        validator, queries = fitted_layer_validator(
            seed, class_sizes=(30,) * n_classes, dim=dim, n_queries=48
        )
        rng = np.random.default_rng(seed + 3)
        present = rng.choice(n_classes, size=rng.integers(1, n_classes + 1), replace=False)
        predicted = rng.choice(present, size=len(queries))
        whole = validator.discrepancy_batched(queries, predicted)
        chunked = validator.discrepancy_batched(queries, predicted, chunk_size=chunk)
        reference = per_sample_reference(validator, queries, predicted)
        np.testing.assert_allclose(whole, reference, atol=TOLERANCE, rtol=0)
        np.testing.assert_allclose(chunked, whole, atol=1e-12, rtol=0)

    @given(seed=st.integers(0, 10_000), scale=st.floats(1e-4, 1e4))
    @settings(max_examples=15, deadline=None)
    def test_nan_free_on_extreme_magnitudes(self, seed, scale):
        # RBF scores stay finite (exp underflows to 0, never overflows) even
        # for queries far outside the training distribution.
        validator, queries = fitted_layer_validator(seed)
        predicted = np.random.default_rng(seed).integers(0, 3, size=len(queries))
        batched = validator.discrepancy_batched(queries * scale, predicted)
        reference = per_sample_reference(validator, queries * scale, predicted)
        assert np.isfinite(batched).all()
        np.testing.assert_allclose(batched, reference, atol=TOLERANCE, rtol=0)


class TestErrorParity:
    def test_unknown_predicted_class_raises_on_both_paths(self):
        validator, queries = fitted_layer_validator(0)
        predicted = np.full(len(queries), 7, dtype=np.int64)
        with pytest.raises(KeyError, match="predicted class 7"):
            validator.discrepancy(queries, predicted)
        with pytest.raises(KeyError, match="predicted class 7"):
            validator.discrepancy_batched(queries, predicted)

    def test_mixed_known_and_unknown_classes_raise_before_scoring(self, monkeypatch):
        # One unknown label among known ones: both paths name it and the
        # layer, and neither scores a class group first.
        from repro.svm.oneclass import OneClassSVM
        from repro.svm.packed import PackedClassSVMs

        validator, queries = fitted_layer_validator(0)
        validator.packed()
        predicted = np.array([0, 1, 2, 9] * 6, dtype=np.int64)
        scored = []
        monkeypatch.setattr(
            OneClassSVM, "signed_distance", lambda self, x: scored.append("reference")
        )
        monkeypatch.setattr(
            PackedClassSVMs, "_class_discrepancy", lambda self, *a: scored.append("packed")
        )
        message = "predicted class 9 in layer 'probe0'"
        with pytest.raises(KeyError, match=message):
            validator.discrepancy(queries, predicted)
        with pytest.raises(KeyError, match=message):
            validator.discrepancy_batched(queries, predicted)
        assert scored == []

    def test_unfitted_raises_on_both_paths(self):
        validator = LayerValidator(0, "probe0", ValidatorConfig())
        with pytest.raises(RuntimeError):
            validator.discrepancy(np.zeros((1, 3)), np.zeros(1, dtype=np.int64))
        with pytest.raises(RuntimeError):
            validator.discrepancy_batched(np.zeros((1, 3)), np.zeros(1, dtype=np.int64))


class TestEngineAgainstValidator:
    def test_image_level_agreement(self, trained_tiny_model):
        model, train_x, train_y, test_x, _ = trained_tiny_model
        validator = DeepValidator(model, ValidatorConfig(max_per_class=60))
        validator.fit(train_x, train_y)
        predictions, reference = validator.discrepancies(test_x)
        engine = validator.engine()  # default chunk matches the reference path
        engine_predictions, batched = engine.discrepancies(test_x)
        np.testing.assert_array_equal(predictions, engine_predictions)
        np.testing.assert_allclose(batched, reference, atol=TOLERANCE, rtol=0)
        # joint_discrepancy routes through the engine; pin it against the
        # combined *reference* matrix, not against the engine itself.
        np.testing.assert_allclose(
            validator.joint_discrepancy(test_x),
            validator.combine(reference),
            atol=TOLERANCE,
            rtol=0,
        )

    def test_engine_rescoring_and_flags(self, trained_tiny_model):
        model, train_x, train_y, test_x, _ = trained_tiny_model
        validator = DeepValidator(model, ValidatorConfig(max_per_class=60))
        validator.fit(train_x, train_y)
        engine = validator.engine()
        first = engine.joint_discrepancy(test_x)
        second = engine.joint_discrepancy(test_x)
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(
            engine.flag(test_x), validator.flag(test_x)
        )

    def test_deployment_helpers_route_through_engine(self, trained_tiny_model):
        # calibrate_threshold / joint_discrepancy / flag all go through the
        # batched engine now: scores must still match the per-class
        # reference loop at 1e-8.
        model, train_x, train_y, test_x, _ = trained_tiny_model
        validator = DeepValidator(model, ValidatorConfig(max_per_class=60))
        validator.fit(train_x, train_y)
        noise = np.random.default_rng(3).random((30, 1, 12, 12))

        epsilon = validator.calibrate_threshold(test_x[:30], noise)
        flags = validator.flag(noise)

        from repro.core.thresholds import centroid_threshold

        clean_ref = validator.combine(validator.discrepancies(test_x[:30])[1])
        noise_ref = validator.combine(validator.discrepancies(noise)[1])
        assert abs(epsilon - centroid_threshold(clean_ref, noise_ref)) < TOLERANCE
        np.testing.assert_array_equal(flags, noise_ref > epsilon)

    def test_engine_survives_pickle_round_trip(self, trained_tiny_model):
        # Cached contexts pickle fitted validators; the engine and packs are
        # rebuilt lazily after restore and must score identically.
        import pickle

        model, train_x, train_y, test_x, _ = trained_tiny_model
        validator = DeepValidator(model, ValidatorConfig(max_per_class=60))
        validator.fit(train_x, train_y)
        expected = validator.engine().joint_discrepancy(test_x)
        restored = pickle.loads(pickle.dumps(validator))
        assert "_engine" not in restored.__dict__
        np.testing.assert_allclose(
            restored.engine().joint_discrepancy(test_x), expected, atol=TOLERANCE
        )


@pytest.fixture(scope="module")
def edge_case_validator(trained_tiny_model):
    """One fitted validator shared by the edge-batch tests below."""
    model, train_x, train_y, _, _ = trained_tiny_model
    validator = DeepValidator(model, ValidatorConfig(max_per_class=60))
    validator.fit(train_x, train_y)
    return validator


class TestEngineEdgeBatches:
    """Serving-shaped inputs: empty windows, singletons, mixed dtypes.

    A monitor whose whole batch was quarantined hands the engine ``n=0``;
    batch-size-1 is the steady state of online monitoring; and producers
    ship float32 or float64 interchangeably. All three must agree with
    the reference path at 1e-8.
    """

    def test_empty_batch(self, edge_case_validator, trained_tiny_model):
        validator = edge_case_validator
        empty = np.empty((0, 1, 12, 12))
        predictions, per_layer = validator.engine().discrepancies(empty)
        ref_predictions, ref_per_layer = validator.discrepancies(empty)
        assert predictions.shape == ref_predictions.shape == (0,)
        assert per_layer.shape == ref_per_layer.shape == (0, 3)
        np.testing.assert_allclose(per_layer, ref_per_layer, atol=TOLERANCE, rtol=0)
        assert validator.engine().joint_discrepancy(empty).shape == (0,)
        assert validator.engine().flag(empty).shape == (0,)

    def test_single_image_batch(self, edge_case_validator, trained_tiny_model):
        validator = edge_case_validator
        _, _, _, test_x, _ = trained_tiny_model
        one = test_x[:1]
        predictions, per_layer = validator.engine().discrepancies(one)
        ref_predictions, ref_per_layer = validator.discrepancies(one)
        np.testing.assert_array_equal(predictions, ref_predictions)
        np.testing.assert_allclose(per_layer, ref_per_layer, atol=TOLERANCE, rtol=0)
        assert per_layer.shape == (1, 3)

    def test_mixed_dtype_inputs_agree(self, edge_case_validator, trained_tiny_model):
        validator = edge_case_validator
        _, _, _, test_x, _ = trained_tiny_model
        batch64 = np.ascontiguousarray(test_x[:16], dtype=np.float64)
        batch32 = np.ascontiguousarray(test_x[:16], dtype=np.float32)
        engine = validator.engine()
        _, from64 = engine.discrepancies(batch64)
        _, from32 = engine.discrepancies(batch32)
        _, reference = validator.discrepancies(batch64)
        # The forward pass casts to float32 either way: both dtypes must
        # match the reference path (and therefore each other) at 1e-8.
        np.testing.assert_allclose(from64, reference, atol=TOLERANCE, rtol=0)
        np.testing.assert_allclose(from32, reference, atol=TOLERANCE, rtol=0)
