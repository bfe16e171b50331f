"""Property-based tests for the kernel functions themselves.

The kernels were previously only exercised through the SVM test suite;
the batched engine now leans on their exact algebraic form (the packed
scorer re-derives RBF distances and linear/poly inner products from
packed raw-space coefficient rows), so their invariants get direct coverage:
symmetry, positive semi-definiteness of small Gram matrices, and
agreement of the vectorised implementations with naive scalar loops.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.svm.kernels import (
    Kernel,
    LinearKernel,
    PolynomialKernel,
    RBFKernel,
    make_kernel,
    scale_gamma,
)
from repro.svm.oneclass import OneClassSVM, solve_oneclass_smo
from repro.svm.scaler import StandardScaler


def random_features(seed: int, rows: int = 12, dim: int = 4) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(scale=rng.uniform(0.5, 2.0), size=(rows, dim))


def sample_kernel(seed: int):
    rng = np.random.default_rng(seed)
    choice = seed % 3
    if choice == 0:
        return RBFKernel(gamma=float(rng.uniform(0.05, 2.0)))
    if choice == 1:
        return LinearKernel()
    return PolynomialKernel(
        degree=int(rng.integers(1, 4)),
        gamma=float(rng.uniform(0.1, 1.5)),
        coef0=float(rng.uniform(0.0, 2.0)),
    )


def naive_value(kernel, x: np.ndarray, y: np.ndarray) -> float:
    """Scalar-at-a-time evaluation straight from each kernel's definition."""
    if isinstance(kernel, RBFKernel):
        return float(np.exp(-kernel.gamma * np.sum((x - y) ** 2)))
    if isinstance(kernel, LinearKernel):
        return float(np.dot(x, y))
    return float((kernel.gamma * np.dot(x, y) + kernel.coef0) ** kernel.degree)


class TestAgreementWithNaiveLoops:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_gram_matches_double_loop(self, seed):
        kernel = sample_kernel(seed)
        a = random_features(seed, rows=7)
        b = random_features(seed + 1, rows=5)
        gram = kernel(a, b)
        assert gram.shape == (7, 5)
        naive = np.array([[naive_value(kernel, x, y) for y in b] for x in a])
        np.testing.assert_allclose(gram, naive, atol=1e-10, rtol=1e-10)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_diag_matches_full_gram_diagonal(self, seed):
        kernel = sample_kernel(seed)
        a = random_features(seed)
        np.testing.assert_allclose(
            kernel.diag(a), np.diag(kernel(a, a)), atol=1e-10, rtol=1e-10
        )


class TestSymmetryAndPSD:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_gram_symmetric(self, seed):
        kernel = sample_kernel(seed)
        a = random_features(seed)
        gram = kernel(a, a)
        np.testing.assert_allclose(gram, gram.T, atol=1e-10, rtol=0)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_gram_positive_semidefinite(self, seed):
        # Mercer: every kernel here (RBF; linear; poly with coef0 >= 0 and
        # integer degree) must yield a PSD Gram matrix.
        kernel = sample_kernel(seed)
        a = random_features(seed, rows=8)
        eigenvalues = np.linalg.eigvalsh(kernel(a, a))
        assert eigenvalues.min() >= -1e-8 * max(1.0, abs(eigenvalues.max()))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_rbf_range_and_self_similarity(self, seed):
        kernel = RBFKernel(gamma=0.5)
        a = random_features(seed)
        gram = kernel(a, a)
        assert (gram > 0).all() and (gram <= 1.0 + 1e-12).all()
        np.testing.assert_allclose(np.diag(gram), 1.0, atol=1e-12)


class TestConstruction:
    def test_scale_gamma_positive_even_for_constant_features(self):
        assert scale_gamma(np.zeros((4, 3))) > 0
        assert scale_gamma(np.random.default_rng(0).normal(size=(10, 6))) > 0

    def test_make_kernel_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            make_kernel("sigmoid", np.zeros((2, 2)))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RBFKernel(gamma=0.0)
        with pytest.raises(ValueError):
            PolynomialKernel(degree=0)


def unblocked_rbf(a, b, gamma):
    """The RBF Gram as one expression, with its n x m temporaries."""
    a_sq = np.einsum("ij,ij->i", a, a)[:, None]
    b_sq = np.einsum("ij,ij->i", b, b)[None, :]
    return np.exp(-gamma * np.maximum(a_sq + b_sq - 2.0 * (a @ b.T), 0.0))


class TestInPlaceRBF:
    """``RBFKernel.__call__`` builds the Gram in one buffer, a block of
    rows at a time; it must equal the one-expression formula bit for bit,
    and the self-Gram must equal its own transpose."""

    @given(
        seed=st.integers(0, 10_000),
        rows=st.integers(1, 150),
        dim=st.integers(1, 12),
        gamma=st.floats(1e-3, 5.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_self_gram_equals_formula_and_its_transpose(self, seed, rows, dim, gamma):
        x = random_features(seed, rows=rows, dim=dim)
        gram = RBFKernel(gamma)(x, x)
        assert np.array_equal(gram, unblocked_rbf(x, x, gamma))
        assert np.array_equal(gram, gram.T)

    @given(
        seed=st.integers(0, 10_000),
        rows=st.integers(0, 150),
        cols=st.integers(1, 90),
        gamma=st.floats(1e-3, 5.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_cross_gram_equals_formula(self, seed, rows, cols, gamma):
        a = random_features(seed, rows=rows, dim=5)
        b = random_features(seed + 1, rows=cols, dim=5)
        assert np.array_equal(RBFKernel(gamma)(a, b), unblocked_rbf(a, b, gamma))


def activation_like(seed: int, rows: int, dim: int, offset: float) -> np.ndarray:
    """Rows like a probe's, ReLU'd or plain normals, shifted by ``offset``
    spreads."""
    rng = np.random.default_rng(seed)
    spread = rng.uniform(0.1, 10.0)
    x = rng.normal(loc=offset * spread, scale=spread, size=(rows, dim))
    return np.maximum(x, 0.0) if seed % 2 else x


class TestInferredGamma:
    @given(
        seed=st.integers(0, 10_000),
        rows=st.integers(2, 80),
        dim=st.integers(1, 40),
        # A few spreads (the one-sum variance) or far off centre (var()).
        offset=st.one_of(st.floats(-3.0, 3.0), st.floats(-1e6, 1e6)),
        standardize=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_scale_gamma_matches_one_over_d_var(
        self, seed, rows, dim, offset, standardize
    ):
        x = activation_like(seed, rows, dim, offset)
        if standardize:
            x = StandardScaler().fit_transform(x)
        variance = float(x.var())
        if variance <= 0:
            return  # degenerate draw: both fall back to 1 / d
        expected = 1.0 / (dim * variance)
        assert scale_gamma(x) == pytest.approx(expected, rel=1e-12, abs=0)
        fitted = OneClassSVM(nu=0.3).fit(x).kernel_.gamma
        assert fitted == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("offset", [1e3, 1e6, -1e6])
    def test_large_offset_falls_back_to_var(self, offset):
        # E[x²] − E[x]² cancels catastrophically here; the rule must not
        # round the variance to <= 0 and fall back to 1 / d.
        x = offset + np.random.default_rng(4).normal(scale=1e-2, size=(50, 7))
        expected = 1.0 / (7 * float(x.var()))
        assert scale_gamma(x) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_poly_infers_gamma_by_the_same_rule(self):
        x = activation_like(3, 20, 6, offset=1.0)
        assert make_kernel("poly", x).gamma == scale_gamma(x)
        assert make_kernel("rbf", x).gamma == scale_gamma(x)


class TestFitKernelPaths:
    """An explicit gamma and a custom ``Kernel`` fit on ``kernel(x, x)``."""

    @given(seed=st.integers(0, 10_000), gamma=st.floats(0.01, 2.0))
    @settings(max_examples=25, deadline=None)
    def test_explicit_gamma_fits_on_the_call_gram(self, seed, gamma):
        x = random_features(seed, rows=30, dim=5)
        svm = OneClassSVM(nu=0.2, gamma=gamma).fit(x)
        assert svm.kernel_.gamma == gamma
        reference = solve_oneclass_smo(RBFKernel(gamma)(x, x), 0.2)
        np.testing.assert_array_equal(svm.result_.alpha, reference.alpha)
        assert svm.rho_ == reference.rho

    def test_custom_kernel_fits_on_its_own_call(self):
        calls = []

        class Quadratic(Kernel):
            name = "quadratic"

            def __call__(self, a, b):
                calls.append((a, b))
                return (a @ b.T + 1.0) ** 2

            def diag(self, a):
                return (np.einsum("ij,ij->i", a, a) + 1.0) ** 2

        x = random_features(5, rows=25, dim=3)
        svm = OneClassSVM(nu=0.2, kernel=Quadratic()).fit(x)
        assert len(calls) == 1 and calls[0][0] is calls[0][1]
        reference = solve_oneclass_smo((x @ x.T + 1.0) ** 2, 0.2)
        np.testing.assert_array_equal(svm.result_.alpha, reference.alpha)
        assert svm.rho_ == reference.rho
