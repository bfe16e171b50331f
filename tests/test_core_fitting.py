"""Tests for the memory-bounded fitting pipeline (Algorithm 1).

Covers the refit-staleness regressions, the chunked extraction memory
contract, and end-to-end equivalence with the per-layer reference fit. The
hypothesis-driven bit-identity properties live in
``test_fitting_determinism.py``.
"""

import numpy as np
import pytest

from repro.core.fitting import (
    extract_task_features,
    fit_validators_from_arrays,
    plan_fit_tasks,
)
from repro.core.validator import DeepValidator, LayerValidator, ValidatorConfig
from repro.nn.sequential import ProbedSequential
from repro.svm.kernels import Kernel
from repro.svm.oneclass import OneClassSVM


def gaussian_classes(seed=0, n=120, d=6, classes=3, spread=8.0):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, size=n)
    centers = rng.normal(size=(classes, d)) * spread
    return centers[labels] + rng.normal(size=(n, d)), labels


class TestRefitStaleness:
    def test_layer_validator_refit_drops_stale_classes(self):
        reps, labels = gaussian_classes(classes=3)
        validator = LayerValidator(0, "layer0", ValidatorConfig())
        validator.fit(reps, labels)
        assert validator.classes == [0, 1, 2]
        # Refit on a label subset: classes must shrink, not accumulate.
        subset = labels < 2
        validator.fit(reps[subset], labels[subset])
        assert validator.classes == [0, 1]
        assert sorted(validator._scalers) == [0, 1]
        # The stale class-2 SVM must not leak into scoring either.
        with pytest.raises(KeyError):
            validator.discrepancy(reps[:1], np.array([2]))

    def test_deep_validator_refit_resets_summary(self, trained_tiny_model):
        model, train_x, train_y, *_ = trained_tiny_model
        validator = DeepValidator(model, ValidatorConfig(nu=0.15))
        validator.fit(train_x, train_y)
        first = validator.fit_summary
        assert first.layers_fitted == model.probe_names
        validator.fit(train_x[:100], train_y[:100])
        second = validator.fit_summary
        # A refit reports its own run: no doubled layer list, fresh counts.
        assert second.layers_fitted == model.probe_names
        assert second.total_training_images == 100
        assert second.correctly_classified <= 100


class TestPlanning:
    def test_tasks_cover_layers_and_classes(self):
        _, labels = gaussian_classes(classes=3)
        config = ValidatorConfig()
        tasks = plan_fit_tasks(labels, [(0, 0), (1, 2)], config)
        assert {(t.position, t.layer_index, t.klass) for t in tasks} == {
            (0, 0, k) for k in range(3)
        } | {(1, 2, k) for k in range(3)}

    def test_subsampling_matches_serial_rng(self):
        # The planned rows must replay LayerValidator.fit's draws exactly:
        # same per-layer generator, classes in sorted order.
        from repro.utils.rng import new_rng

        _, labels = gaussian_classes(n=400, classes=3)
        config = ValidatorConfig(max_per_class=50, seed=9)
        tasks = plan_fit_tasks(labels, [(2, 0)], config)
        gen = new_rng(config.seed + 2)
        for task in tasks:
            rows = np.flatnonzero(labels == task.klass)
            if len(rows) > config.max_per_class:
                rows = gen.choice(rows, size=config.max_per_class, replace=False)
            np.testing.assert_array_equal(task.rows, rows)

    def test_tiny_class_rejected(self):
        labels = np.array([0, 0, 1])
        with pytest.raises(ValueError, match="class 1"):
            plan_fit_tasks(labels, [(0, 0)], ValidatorConfig())

    def test_per_class_false_collapses_to_one_task(self):
        _, labels = gaussian_classes(classes=3)
        tasks = plan_fit_tasks(labels, [(0, 0)], ValidatorConfig(per_class=False))
        assert [t.klass for t in tasks] == [0]
        assert len(tasks[0].rows) == len(labels)  # every image, one distribution


class TestChunkedExtraction:
    def test_fit_never_materialises_full_representations(
        self, trained_tiny_model, monkeypatch
    ):
        # The fit path must stream chunks, not call the materialising
        # hidden_representations; peak transient memory is the chunk.
        model, train_x, train_y, *_ = trained_tiny_model

        def forbidden(self, images, batch_size=256):
            raise AssertionError("fit must not materialise full representations")

        monkeypatch.setattr(ProbedSequential, "hidden_representations", forbidden)
        validator = DeepValidator(model, ValidatorConfig(nu=0.15, max_per_class=40))
        validator.fit(train_x, train_y, chunk_size=32)
        assert len(validator.validators) == len(model.probe_names)

    def test_forward_chunks_bounded_by_chunk_size(
        self, trained_tiny_model, monkeypatch
    ):
        model, train_x, train_y, *_ = trained_tiny_model
        seen: list[int] = []
        original = ProbedSequential.iter_hidden_representations

        # Spy on the chunking chokepoint itself — it covers both the
        # compiled-plan and Tensor forwards (forward_probes only runs on
        # the latter).
        def spying(self, images, batch_size=256, compiled=None):
            for start, probs, reps in original(
                self, images, batch_size=batch_size, compiled=compiled
            ):
                seen.append(probs.shape[0])
                yield start, probs, reps

        monkeypatch.setattr(
            ProbedSequential, "iter_hidden_representations", spying
        )
        DeepValidator(model, ValidatorConfig(nu=0.15)).fit(
            train_x, train_y, chunk_size=16
        )
        assert seen and max(seen) <= 16

    def test_gathered_features_bounded_by_max_per_class(self, trained_tiny_model):
        model, train_x, train_y, *_ = trained_tiny_model
        config = ValidatorConfig(max_per_class=25)
        labels = model.predict(train_x)
        keep = labels == train_y
        tasks = plan_fit_tasks(
            train_y[keep], list(enumerate(range(len(model.probe_names)))), config
        )
        features = extract_task_features(model, train_x[keep], tasks, chunk_size=16)
        for task in tasks:
            assert len(features[task.key]) <= 25

    def test_extraction_matches_materialised_rows(self, trained_tiny_model):
        # Chunked gathering must return the same float64 rows, in the same
        # order, as slicing the fully materialised representations.
        model, train_x, train_y, *_ = trained_tiny_model
        config = ValidatorConfig(max_per_class=30)
        keep = model.predict(train_x) == train_y
        images, labels = train_x[keep], train_y[keep]
        tasks = plan_fit_tasks(
            labels, list(enumerate(range(len(model.probe_names)))), config
        )
        features = extract_task_features(model, images, tasks, chunk_size=256)
        _, full = model.hidden_representations(images)
        for task in tasks:
            expected = np.asarray(full[task.layer_index][task.rows], dtype=np.float64)
            np.testing.assert_array_equal(features[task.key], expected)


class TestReferenceEquivalence:
    def test_pipeline_equals_layer_validator_fit(self, trained_tiny_model):
        # The chunked pipeline behind DeepValidator.fit must land on the
        # paper-faithful per-layer fit of the same kept images, bit for bit.
        model, train_x, train_y, *_ = trained_tiny_model
        config = ValidatorConfig(nu=0.15)
        validator = DeepValidator(model, config).fit(train_x, train_y)
        keep = model.predict(train_x) == train_y
        _, reps = model.hidden_representations(train_x[keep])
        for position, fitted in enumerate(validator.validators):
            reference = LayerValidator(
                fitted.layer_index, fitted.layer_name, config
            ).fit(reps[fitted.layer_index], train_y[keep], rng=config.seed + position)
            assert fitted.classes == reference.classes
            for klass in fitted.classes:
                sa, sb = fitted._svms[klass], reference._svms[klass]
                np.testing.assert_array_equal(sa.support_vectors_, sb.support_vectors_)
                np.testing.assert_array_equal(sa.dual_coef_, sb.dual_coef_)
                assert sa.rho_ == sb.rho_
                assert sa.norm_w_ == sb.norm_w_
                np.testing.assert_array_equal(
                    fitted._scalers[klass].mean_, reference._scalers[klass].mean_
                )

    def test_custom_kernel_object_fits(self):
        # A Kernel instance, even one holding a lambda, fits like a named
        # kernel.
        class LambdaKernel(Kernel):
            name = "lambda-linear"

            def __init__(self):
                self.fn = lambda a, b: a @ b.T

            def __call__(self, a, b):
                return self.fn(a, b)

            def diag(self, a):
                return np.einsum("ij,ij->i", a, a)

        reps, labels = gaussian_classes(d=4)
        config = ValidatorConfig(kernel=LambdaKernel(), standardize=False)
        fitted = fit_validators_from_arrays([reps], labels, [0], config)
        assert fitted[0].classes == [0, 1, 2]
        scores = fitted[0].discrepancy(reps[:5], labels[:5])
        assert np.isfinite(scores).all()


class TestKnobs:
    def test_config_rejects_bad_n_jobs(self):
        # n_jobs is not a field: a caller still passing it fails loudly
        # instead of having it silently ignored.
        with pytest.raises(TypeError):
            ValidatorConfig(n_jobs=2)
        with pytest.raises(TypeError):
            ValidatorConfig(n_jobs=1)


class TestFromSolution:
    def test_round_trip_scores_identically(self):
        reps, labels = gaussian_classes()
        rows = labels == 0
        svm = OneClassSVM(nu=0.2).fit(reps[rows])
        rebuilt = OneClassSVM.from_solution(
            kernel=svm.kernel_,
            support_vectors=svm.support_vectors_,
            dual_coef=svm.dual_coef_,
            rho=svm.rho_,
            norm_w=svm.norm_w_,
            nu=0.2,
        )
        np.testing.assert_array_equal(
            rebuilt.signed_distance(reps[:10]), svm.signed_distance(reps[:10])
        )

    def test_shape_and_type_validation(self):
        from repro.svm.kernels import LinearKernel

        with pytest.raises(ValueError, match="support vectors"):
            OneClassSVM.from_solution(
                kernel=LinearKernel(), support_vectors=np.zeros(3),
                dual_coef=np.zeros(3), rho=0.0, norm_w=1.0,
            )
        with pytest.raises(ValueError, match="dual_coef"):
            OneClassSVM.from_solution(
                kernel=LinearKernel(), support_vectors=np.zeros((3, 2)),
                dual_coef=np.zeros(2), rho=0.0, norm_w=1.0,
            )
        with pytest.raises(TypeError, match="Kernel"):
            OneClassSVM.from_solution(
                kernel="rbf", support_vectors=np.zeros((3, 2)),
                dual_coef=np.zeros(3), rho=0.0, norm_w=1.0,
            )

    def test_install_invalidates_pack(self):
        reps, labels = gaussian_classes()
        validator = LayerValidator(0, "layer0", ValidatorConfig())
        validator.fit(reps, labels)
        pack = validator.packed()
        assert pack is not None
        donor = validator._svms[0]
        validator.install(
            5,
            OneClassSVM.from_solution(
                kernel=donor.kernel_, support_vectors=donor.support_vectors_,
                dual_coef=donor.dual_coef_, rho=donor.rho_, norm_w=donor.norm_w_,
            ),
            validator._scalers[0],
        )
        assert validator.classes == [0, 1, 2, 5]
        assert validator.packed() is not pack  # rebuilt with the new class
