"""Tests for the memory-bounded fitting pipeline (Algorithm 1).

Covers the refit-staleness regressions, the bottom-k sampling contract of
the one streamed extraction, its memory bounds, and end-to-end equivalence
with the per-layer reference fit. The hypothesis-driven bit-identity
properties live in ``test_fitting_determinism.py``.
"""

import numpy as np
import pytest

from repro.core import fitting
from repro.core.fitting import (
    build_layer_validators,
    extract_task_features,
    fit_validators_from_arrays,
    solve_tasks,
)
from repro.core.validator import DeepValidator, LayerValidator, ValidatorConfig
from repro.nn.sequential import ProbedSequential
from repro.svm.kernels import Kernel, LinearKernel
from repro.svm.oneclass import OneClassSVM
from tests.helpers import misclassifying_model
from tests.test_fitting_determinism import assert_validators_identical


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
        assert all(validator._svms[k].scaler_ is not None for k in validator.classes)
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


def contract_rows(labels, seed, cap):
    """Algorithm 1's sample, restated: per class, the ``cap`` rows with the
    smallest ``default_rng(seed).random(n)`` keys, in ascending row order."""
    keys = np.random.default_rng(seed).random(len(labels))
    chosen = {}
    for klass in np.unique(labels):
        rows = np.flatnonzero(labels == klass)
        smallest = np.argsort(keys[rows], kind="stable")[:cap]
        chosen[int(klass)] = rows[np.sort(smallest)]
    return chosen


def fit_streamed(model, labels, layer_indices, config, chunk_size):
    """The pipeline behind ``DeepValidator.fit`` on a stand-in model."""
    layer_positions = list(enumerate(layer_indices))
    features, correct = extract_task_features(
        model, np.zeros(len(labels)), labels, layer_positions, config,
        chunk_size=chunk_size,
    )
    solutions = solve_tasks(features, config)
    fitted = build_layer_validators(
        solutions, layer_positions, model.probe_names, config
    )
    return fitted, features, correct


class TestPlanning:
    """Which rows each (layer, class) task trains on: bottom-k sampling."""

    def test_tasks_cover_layers_and_classes(self):
        _, labels = gaussian_classes(classes=3)
        model, _ = misclassifying_model(labels, dims=(4, 5, 6))
        layer_positions = [(0, 0), (1, 2)]
        features, _ = extract_task_features(
            model, np.zeros(len(labels)), labels, layer_positions, ValidatorConfig()
        )
        assert set(features) == {(p, k) for p in (0, 1) for k in range(3)}

    @pytest.mark.parametrize("chunk_size", [1, 7, 256])
    def test_streamed_selection_matches_layer_validator_fit(self, chunk_size):
        # Misclassified rows are scattered through the draw, so the kept-row
        # ids the keys are indexed by differ from the draw's row numbers;
        # classes are over the cap, so rows are evicted across chunks.
        _, labels = gaussian_classes(seed=3, n=150, classes=3)
        model, keep = misclassifying_model(labels, dims=(4, 6), seed=3)
        config = ValidatorConfig(max_per_class=15, seed=4)
        fitted, features, correct = fit_streamed(
            model, labels, [1, 0], config, chunk_size
        )
        assert correct == int(keep.sum())
        kept_labels = labels[keep]
        reference = []
        for position, index in enumerate([1, 0]):
            kept = model.reps[index][keep]
            reference.append(
                LayerValidator(index, f"layer{index}", config).fit(
                    kept, kept_labels, rng=config.seed + position
                )
            )
            chosen = contract_rows(kept_labels, config.seed + position, 15)
            for klass, rows in chosen.items():
                np.testing.assert_array_equal(
                    features[(position, klass)], np.asarray(kept[rows], np.float64)
                )
        assert_validators_identical(fitted, reference)

    @pytest.mark.parametrize("cap", [30, 45])
    def test_class_at_or_under_cap_keeps_every_row_in_order(self, cap):
        labels = np.repeat([0, 1], 30)
        np.random.default_rng(0).shuffle(labels)
        model, _ = misclassifying_model(labels, dims=(3,), miss=0.0, classes=2)
        config = ValidatorConfig(max_per_class=cap)
        _, features, _ = fit_streamed(model, labels, [0], config, chunk_size=7)
        for klass in (0, 1):
            rows = np.flatnonzero(labels == klass)
            np.testing.assert_array_equal(
                features[(0, klass)], np.asarray(model.reps[0][rows], np.float64)
            )

    def test_per_class_false_collapses_to_one_task(self):
        _, labels = gaussian_classes(seed=5, n=90, classes=3)
        model, keep = misclassifying_model(labels, dims=(4,), seed=5)
        config = ValidatorConfig(per_class=False, max_per_class=40, seed=2)
        fitted, features, _ = fit_streamed(model, labels, [0], config, chunk_size=16)
        assert list(features) == [(0, 0)]
        kept = model.reps[0][keep]
        (rows,) = contract_rows(np.zeros(len(kept)), config.seed, 40).values()
        np.testing.assert_array_equal(features[(0, 0)], np.asarray(kept[rows], np.float64))
        reference = LayerValidator(0, "layer0", config).fit(
            kept, labels[keep], rng=config.seed
        )
        assert_validators_identical(fitted, [reference])

    def test_filter_misclassified_false_keeps_every_row(self):
        _, labels = gaussian_classes(seed=6, n=90, classes=3)
        model, keep = misclassifying_model(labels, dims=(4,), seed=6)
        assert not keep.all()
        config = ValidatorConfig(filter_misclassified=False, max_per_class=20, seed=1)
        fitted, features, correct = fit_streamed(model, labels, [0], config, chunk_size=16)
        assert correct == int(keep.sum())  # still counted, no longer dropped
        for klass, rows in contract_rows(labels, config.seed, 20).items():
            np.testing.assert_array_equal(
                features[(0, klass)], np.asarray(model.reps[0][rows], np.float64)
            )
        reference = LayerValidator(0, "layer0", config).fit(
            model.reps[0], labels, rng=config.seed
        )
        assert_validators_identical(fitted, [reference])

    def test_tiny_class_rejected(self):
        labels = np.array([0, 0, 1])
        with pytest.raises(ValueError, match="class 1"):
            fit_validators_from_arrays([np.zeros((3, 2))], labels, [0], ValidatorConfig())

    def test_layer_validator_keeps_small_classes_whole_and_ordered(self):
        # Under the cap the reference path keeps today's rows, in order.
        reps, labels = gaussian_classes(n=60, classes=2)
        config = ValidatorConfig(max_per_class=60, standardize=False)
        fitted = LayerValidator(0, "layer0", config).fit(reps, labels, rng=3)
        for klass in (0, 1):
            manual = OneClassSVM(nu=config.nu).fit(reps[labels == klass])
            np.testing.assert_array_equal(
                fitted._svms[klass].dual_coef_, manual.dual_coef_
            )
            np.testing.assert_array_equal(
                fitted._svms[klass].support_vectors_, manual.support_vectors_
            )


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

    def test_fit_makes_exactly_one_forward(self, trained_tiny_model, monkeypatch):
        # Line 2's filter and the gathering share one streamed pass over
        # the whole draw: no separate predict pass.
        model, train_x, train_y, *_ = trained_tiny_model
        calls: list[int] = []
        original = ProbedSequential.iter_hidden_representations

        def spying(self, images, batch_size=256, compiled=None):
            calls.append(len(images))
            return original(self, images, batch_size=batch_size, compiled=compiled)

        def forbidden(self, *args, **kwargs):
            raise AssertionError("fit must not run a separate predict pass")

        monkeypatch.setattr(ProbedSequential, "iter_hidden_representations", spying)
        monkeypatch.setattr(ProbedSequential, "predict", forbidden)
        monkeypatch.setattr(ProbedSequential, "predict_proba", forbidden)
        validator = DeepValidator(model, ValidatorConfig(nu=0.15)).fit(
            train_x, train_y, chunk_size=64
        )
        assert calls == [len(train_x)]
        assert validator.fit_summary.total_training_images == len(train_x)

    def test_gathered_features_bounded_by_max_per_class(
        self, trained_tiny_model, monkeypatch
    ):
        model, train_x, train_y, *_ = trained_tiny_model
        config = ValidatorConfig(max_per_class=25)
        # No sample buffer may hold more than the cap after any chunk.
        largest: list[int] = []
        original = fitting._TaskSample.offer

        def checked(self, *args):
            original(self, *args)
            assert len(self.buffer) <= 25 and len(self.rows) <= 25
            largest.append(len(self.rows))

        monkeypatch.setattr(fitting._TaskSample, "offer", checked)
        features, _ = extract_task_features(
            model, train_x, train_y,
            list(enumerate(range(len(model.probe_names)))), config, chunk_size=16,
        )
        assert max(largest) == 25
        for rows in features.values():
            assert len(rows) <= 25

    def test_extraction_matches_materialised_rows(self, trained_tiny_model):
        # Streamed gathering must return the same float64 rows, in the same
        # order, as slicing the materialised representations of the whole
        # draw. The keep mask comes from the same forward: the float32
        # forward depends on chunk composition, so representations of
        # ``train_x[keep]`` may differ from these in their last bits.
        model, train_x, train_y, *_ = trained_tiny_model
        config = ValidatorConfig(max_per_class=30)
        layer_positions = list(enumerate(range(len(model.probe_names))))
        features, correct = extract_task_features(
            model, train_x, train_y, layer_positions, config, chunk_size=256
        )
        probabilities, full = model.hidden_representations(train_x)
        keep = probabilities.argmax(axis=1) == train_y
        assert correct == int(keep.sum())
        for position, layer_index in layer_positions:
            kept = full[layer_index][keep]
            chosen = contract_rows(train_y[keep], config.seed + position, 30)
            for klass, rows in chosen.items():
                np.testing.assert_array_equal(
                    features[(position, klass)], np.asarray(kept[rows], np.float64)
                )


class TestReferenceEquivalence:
    def test_pipeline_equals_layer_validator_fit(self, trained_tiny_model):
        # The chunked pipeline behind DeepValidator.fit must land on the
        # paper-faithful per-layer fit of the same kept images, bit for bit.
        model, train_x, train_y, *_ = trained_tiny_model
        config = ValidatorConfig(nu=0.15)
        validator = DeepValidator(model, config).fit(train_x, train_y)
        # Reference rows and keep mask from the same whole-draw forward the
        # fit streams (the float32 forward depends on chunk composition).
        probabilities, reps = model.hidden_representations(train_x)
        keep = probabilities.argmax(axis=1) == train_y
        for position, fitted in enumerate(validator.validators):
            reference = LayerValidator(
                fitted.layer_index, fitted.layer_name, config
            ).fit(
                reps[fitted.layer_index][keep], train_y[keep],
                rng=config.seed + position,
            )
            assert fitted.classes == reference.classes
            for klass in fitted.classes:
                sa, sb = fitted._svms[klass], reference._svms[klass]
                np.testing.assert_array_equal(sa.support_vectors_, sb.support_vectors_)
                np.testing.assert_array_equal(sa.dual_coef_, sb.dual_coef_)
                assert sa.rho_ == sb.rho_
                assert sa.norm_w_ == sb.norm_w_
                np.testing.assert_array_equal(sa.scaler_.mean_, sb.scaler_.mean_)


class TestKnobs:
    def test_config_rejects_bad_n_jobs(self):
        # n_jobs is not a field: a caller still passing it fails loudly
        # instead of having it silently ignored.
        with pytest.raises(TypeError):
            ValidatorConfig(n_jobs=2)
        with pytest.raises(TypeError):
            ValidatorConfig(n_jobs=1)

    def test_custom_kernel_object_is_rejected(self):
        # The config names its kernel; a Kernel instance, even one holding
        # a lambda, is refused where a validator is configured rather than
        # fitted into a layer the packed scorer cannot read.
        class LambdaKernel(Kernel):
            name = "lambda-linear"

            def __init__(self):
                self.fn = lambda a, b: a @ b.T

            def __call__(self, a, b):
                return self.fn(a, b)

            def diag(self, a):
                return np.einsum("ij,ij->i", a, a)

        with pytest.raises(ValueError, match="kernel must be"):
            ValidatorConfig(kernel=LambdaKernel(), standardize=False)
        with pytest.raises(ValueError, match="kernel must be"):
            ValidatorConfig(kernel="sigmoid")

    def test_builtin_kernel_object_is_rejected(self):
        # Even a built-in kernel's instance: its default repr holds the
        # object's address, so two equal configs would fingerprint apart.
        with pytest.raises(ValueError, match="kernel must be"):
            ValidatorConfig(kernel=LinearKernel())

    @pytest.mark.parametrize("kernel", ["rbf", "linear", "poly"])
    def test_equal_named_configs_fingerprint_equally(self, kernel):
        # An interrupted fit replays its journal only if a rerun with an
        # equal config stamps the same fingerprint.
        reps, labels = gaussian_classes()
        tasks = {(0, int(klass)): reps[labels == klass] for klass in np.unique(labels)}
        first, second = (
            fitting._journal_fingerprint(
                tasks, fitting._solve_config(ValidatorConfig(kernel=kernel, nu=0.2))
            )
            for _ in range(2)
        )
        assert first == second
        other = "linear" if kernel != "linear" else "rbf"
        assert first != fitting._journal_fingerprint(
            tasks, fitting._solve_config(ValidatorConfig(kernel=other, nu=0.2))
        )


class TestSharedSolve:
    """One function fits every (layer, class) pair, on both fit paths."""

    def _count_solves(self, monkeypatch):
        calls: list = []
        original = fitting._solve_fit_task

        def counting(features, cfg):
            calls.append(len(features))
            return original(features, cfg)

        monkeypatch.setattr(fitting, "_solve_fit_task", counting)
        return calls

    def test_layer_validator_fit_and_solve_tasks_share_the_solve(self, monkeypatch):
        reps, labels = gaussian_classes(classes=3)
        config = ValidatorConfig(max_per_class=25)
        calls = self._count_solves(monkeypatch)
        LayerValidator(0, "layer0", config).fit(reps, labels)
        assert calls == [25, 25, 25]
        calls.clear()
        fitted = fit_validators_from_arrays([reps, reps[:, :4]], labels, [0, 1], config)
        assert calls == [25] * 6  # one solve per (layer, class) task
        assert [layer.classes for layer in fitted] == [[0, 1, 2], [0, 1, 2]]

    def test_solve_tasks_returns_the_fitted_estimators(self):
        reps, labels = gaussian_classes(classes=2)
        features = {(0, klass): reps[labels == klass] for klass in (0, 1)}
        solutions = solve_tasks(features, ValidatorConfig(nu=0.2))
        for key, (svm,) in solutions.items():
            assert isinstance(svm, OneClassSVM)
            np.testing.assert_allclose(svm.scaler_.mean_, features[key].mean(axis=0))
            assert solutions[key].iterations == svm.result_.iterations > 0
            # The full dual vector stays with the fitted estimator.
            assert len(svm.result_.alpha) == len(features[key])
        unscaled = solve_tasks(features, ValidatorConfig(nu=0.2, standardize=False))
        assert all(svm.scaler_ is None for (svm,) in unscaled.values())


class TestCallerArraysUntouched:
    """A task is standardised in place, on its own float64 copy:
    ``np.asarray`` would alias float64 input, so without the copy these
    callers' arrays would come back standardised."""

    def test_fit_paths_leave_float64_representations_bit_unchanged(self):
        reps, labels = gaussian_classes(classes=3)
        wide = np.repeat(reps, 3, axis=1) * 2.0 + 1.0
        assert reps.dtype == wide.dtype == np.float64
        before = [reps.copy(), wide.copy()]
        config = ValidatorConfig(max_per_class=1000)  # every row, no gather
        LayerValidator(0, "layer0", config).fit(reps, labels)
        fit_validators_from_arrays([reps, wide], labels, [0, 1], config)
        for array, copy in zip([reps, wide], before):
            assert np.array_equal(array, copy)

    def test_solve_tasks_leaves_float64_task_features_bit_unchanged(self):
        reps, labels = gaussian_classes(classes=2)
        features = {(0, klass): reps[labels == klass] for klass in (0, 1)}
        before = {key: rows.copy() for key, rows in features.items()}
        solve_tasks(features, ValidatorConfig(nu=0.2))
        for key, rows in features.items():
            assert np.array_equal(rows, before[key])


class TestInstall:
    def test_install_invalidates_pack(self):
        reps, labels = gaussian_classes()
        validator = LayerValidator(0, "layer0", ValidatorConfig())
        validator.fit(reps, labels)
        pack = validator.packed()
        assert pack is not None
        donor = LayerValidator(0, "donor", ValidatorConfig()).fit(reps, labels)
        validator.install(5, donor._svms[0])
        assert validator.classes == [0, 1, 2, 5]
        assert validator.packed() is not pack  # rebuilt with the new class
