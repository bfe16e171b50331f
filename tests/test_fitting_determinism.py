"""Determinism suite: the fitting pipeline is bit-identical to Algorithm 1.

:func:`repro.core.fitting.fit_validators_from_arrays` samples, gathers and
solves the ``(layer, class)`` tasks out of line, then assembles them, and
:func:`repro.core.fitting.extract_task_features` does the sampling and
gathering chunk by chunk, filtering misclassified rows on the way. The
contract is that neither changes anything: support vectors, dual
coefficients, offsets, scaler statistics, and every downstream discrepancy
must be *exactly* equal (``==``, not allclose) to the paper-faithful
per-layer reference, ``LayerValidator(i, ...).fit(reps[i][keep],
labels[keep], rng=seed + position)``, across random feature sets, class
skews, kernels, the class-agnostic ablation, ``max_per_class`` bottom-k
sampling and chunk sizes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fitting import (
    build_layer_validators,
    extract_task_features,
    fit_validators_from_arrays,
    solve_tasks,
)
from repro.core.validator import LayerValidator, ValidatorConfig
from tests.helpers import misclassifying_model


def random_layer_reps(seed, class_sizes, dims):
    """Per-layer representation matrices over shared labels."""
    rng = np.random.default_rng(seed)
    labels = np.concatenate(
        [np.full(size, klass, dtype=np.int64) for klass, size in enumerate(class_sizes)]
    )
    rng.shuffle(labels)
    reps = [
        rng.normal(loc=labels[:, None] * 1.5, scale=1.0, size=(len(labels), dim))
        for dim in dims
    ]
    return reps, labels


def reference_fit(reps, labels, layer_indices, config):
    """Algorithm 1 as the paper states it: one ``LayerValidator.fit`` per layer."""
    return [
        LayerValidator(index, f"layer{index}", config).fit(
            reps[index], labels, rng=config.seed + position
        )
        for position, index in enumerate(layer_indices)
    ]


def assert_validators_identical(fitted_a, fitted_b):
    assert len(fitted_a) == len(fitted_b)
    for a, b in zip(fitted_a, fitted_b):
        assert (a.layer_index, a.layer_name) == (b.layer_index, b.layer_name)
        assert a.classes == b.classes
        for klass in a.classes:
            sa, sb = a._svms[klass], b._svms[klass]
            np.testing.assert_array_equal(sa.support_vectors_, sb.support_vectors_)
            np.testing.assert_array_equal(sa.dual_coef_, sb.dual_coef_)
            assert sa.rho_ == sb.rho_
            assert sa.norm_w_ == sb.norm_w_
            if a.config.standardize:
                np.testing.assert_array_equal(sa.scaler_.mean_, sb.scaler_.mean_)
                np.testing.assert_array_equal(sa.scaler_.scale_, sb.scaler_.scale_)


class TestReferenceBitIdentity:
    @given(
        seed=st.integers(0, 10_000),
        sizes=st.tuples(st.integers(8, 40), st.integers(8, 40), st.integers(8, 40)),
        max_per_class=st.integers(5, 30),
    )
    @settings(max_examples=6, deadline=None)
    def test_random_features_and_subsampling(self, seed, sizes, max_per_class):
        reps, labels = random_layer_reps(seed, sizes, dims=(4, 6))
        config = ValidatorConfig(max_per_class=max_per_class, seed=seed % 7)
        fitted = fit_validators_from_arrays(reps, labels, [0, 1], config)
        reference = reference_fit(reps, labels, [0, 1], config)
        assert_validators_identical(fitted, reference)
        # Downstream discrepancies are bit-identical too.
        queries = np.random.default_rng(seed + 1).normal(size=(16, 4))
        predicted = np.random.default_rng(seed + 2).integers(0, 3, size=16)
        np.testing.assert_array_equal(
            fitted[0].discrepancy(queries, predicted),
            reference[0].discrepancy(queries, predicted),
        )

    @given(
        seed=st.integers(0, 10_000),
        small=st.integers(2, 5),
        large=st.integers(60, 120),
    )
    @settings(max_examples=5, deadline=None)
    def test_class_skew(self, seed, small, large):
        # One near-empty class against a dominant one: the skew must not
        # change which rows each task trains on.
        reps, labels = random_layer_reps(seed, (small, large), dims=(5,))
        config = ValidatorConfig(max_per_class=50, seed=1)
        fitted = fit_validators_from_arrays(reps, labels, [0], config)
        assert_validators_identical(fitted, reference_fit(reps, labels, [0], config))

    @given(seed=st.integers(0, 10_000), kernel=st.sampled_from(["rbf", "linear", "poly"]))
    @settings(max_examples=5, deadline=None)
    def test_kernels_and_no_standardize(self, seed, kernel):
        reps, labels = random_layer_reps(seed, (20, 20), dims=(4,))
        config = ValidatorConfig(kernel=kernel, standardize=False, max_per_class=15)
        fitted = fit_validators_from_arrays(reps, labels, [0], config)
        assert_validators_identical(fitted, reference_fit(reps, labels, [0], config))

    @given(
        seed=st.integers(0, 10_000),
        sizes=st.tuples(st.integers(4, 20), st.integers(4, 20), st.integers(4, 20)),
        max_per_class=st.integers(10, 50),
    )
    @settings(max_examples=5, deadline=None)
    def test_per_class_false(self, seed, sizes, max_per_class):
        # The class-agnostic ablation: one task per layer over every image.
        # Layers are validated in reverse probe order, so the per-layer RNG
        # (seed + position) and the probe index (layer_index) differ.
        reps, labels = random_layer_reps(seed, sizes, dims=(4, 6))
        config = ValidatorConfig(
            per_class=False, max_per_class=max_per_class, seed=seed % 5
        )
        fitted = fit_validators_from_arrays(reps, labels, [1, 0], config)
        reference = reference_fit(reps, labels, [1, 0], config)
        assert_validators_identical(fitted, reference)
        queries = np.random.default_rng(seed + 1).normal(size=(8, 6))
        predicted = np.zeros(8, dtype=np.int64)
        np.testing.assert_array_equal(
            fitted[0].discrepancy(queries, predicted),
            reference[0].discrepancy(queries, predicted),
        )

    @given(
        seed=st.integers(0, 10_000),
        max_per_class=st.integers(3, 40),
        chunk_size=st.integers(1, 64),
        miss=st.floats(0.0, 0.4),
    )
    @settings(max_examples=6, deadline=None)
    def test_streamed_extraction(self, seed, max_per_class, chunk_size, miss):
        # One streamed pass filters and samples chunk by chunk; the result
        # equals the reference fitted on the kept rows of the whole draw.
        labels = np.random.default_rng(seed).integers(0, 3, size=120)
        model, keep = misclassifying_model(labels, dims=(4, 6), seed=seed, miss=miss)
        config = ValidatorConfig(max_per_class=max_per_class, seed=seed % 7)
        layer_positions = [(0, 1), (1, 0)]
        features, correct = extract_task_features(
            model, np.zeros(len(labels)), labels, layer_positions, config,
            chunk_size=chunk_size,
        )
        assert correct == int(keep.sum())
        fitted = build_layer_validators(
            solve_tasks(features, config), layer_positions, model.probe_names, config
        )
        kept = [rep[keep] for rep in model.reps]
        reference = reference_fit(kept, labels[keep], [1, 0], config)
        assert_validators_identical(fitted, reference)
