"""Tests for the one-class SVM subsystem."""

import numpy as np
import pytest

from repro.svm import (
    LinearKernel,
    OneClassSVM,
    PolynomialKernel,
    RBFKernel,
    StandardScaler,
    make_kernel,
)
from repro.svm.kernels import scale_gamma
from repro.svm.oneclass import solve_oneclass_smo


class TestKernels:
    def test_linear_values(self):
        a = np.array([[1.0, 2.0]])
        b = np.array([[3.0, 4.0]])
        np.testing.assert_allclose(LinearKernel()(a, b), [[11.0]])

    def test_rbf_self_similarity_is_one(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 3))
        gram = RBFKernel(gamma=0.5)(x, x)
        np.testing.assert_allclose(np.diag(gram), 1.0)

    def test_rbf_decreases_with_distance(self):
        k = RBFKernel(gamma=1.0)
        near = k(np.array([[0.0]]), np.array([[0.1]]))[0, 0]
        far = k(np.array([[0.0]]), np.array([[2.0]]))[0, 0]
        assert near > far

    def test_rbf_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            RBFKernel(gamma=0.0)

    def test_rbf_gram_symmetric_psd(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(12, 4))
        gram = RBFKernel(gamma=0.3)(x, x)
        np.testing.assert_allclose(gram, gram.T, atol=1e-12)
        eigenvalues = np.linalg.eigvalsh(gram)
        assert eigenvalues.min() > -1e-9

    def test_poly_kernel_degree(self):
        k = PolynomialKernel(degree=2, gamma=1.0, coef0=0.0)
        np.testing.assert_allclose(k(np.array([[2.0]]), np.array([[3.0]])), [[36.0]])

    def test_poly_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            PolynomialKernel(degree=0)

    def test_diag_matches_gram_diagonal(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 3))
        for kernel in (LinearKernel(), RBFKernel(0.2), PolynomialKernel(2, 0.5, 1.0)):
            np.testing.assert_allclose(kernel.diag(x), np.diag(kernel(x, x)), atol=1e-10)

    def test_make_kernel_names(self):
        x = np.random.default_rng(3).normal(size=(4, 2))
        assert make_kernel("linear", x).name == "linear"
        assert make_kernel("rbf", x).name == "rbf"
        assert make_kernel("poly", x).name == "poly"
        with pytest.raises(ValueError):
            make_kernel("sigmoid", x)

    def test_scale_gamma_heuristic(self):
        x = np.random.default_rng(4).normal(size=(100, 5))
        assert scale_gamma(x) == pytest.approx(1.0 / (5 * x.var()))

    def test_scale_gamma_degenerate_variance(self):
        assert scale_gamma(np.ones((10, 4))) == pytest.approx(0.25)


class TestScaler:
    def test_fit_transform_standardises(self):
        rng = np.random.default_rng(5)
        x = rng.normal(3.0, 2.0, size=(200, 4))
        z = StandardScaler().fit_transform(x)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-10)

    def test_constant_feature_not_divided_by_zero(self):
        x = np.ones((10, 2))
        z = StandardScaler().fit_transform(x)
        assert np.isfinite(z).all()

    @staticmethod
    def _fused_scale(x):
        """The fused-moment scale, with no constancy check."""
        x = x.astype(np.float64)
        mean = x.sum(axis=0) / len(x)
        variance = np.maximum(np.einsum("ij,ij->j", x, x) / len(x) - mean**2, 0.0)
        scale = np.sqrt(variance)
        scale[scale == 0.0] = 1.0
        return scale

    def test_float32_constants_get_unit_scale(self):
        # E[x^2] - E[x]^2 of a widened float32 constant rounds to a tiny
        # positive variance for some constants; each must still scale by 1.
        constants = np.random.default_rng(8).standard_normal(200).astype(np.float32)
        x = np.tile(constants, (400, 1))
        assert (self._fused_scale(x) < 1e-6).sum() > 0
        assert np.array_equal(StandardScaler().fit(x).scale_, np.ones(200))

    def test_nonconstant_columns_keep_the_fused_scale(self):
        # Beside the constants: ordinary columns, and near-constant ones
        # (every other row four ulps up) whose variance is as small as the
        # constants' rounding, so the exact constancy check must spare them.
        rng = np.random.default_rng(9)
        constants = rng.standard_normal(50).astype(np.float32)
        near = np.tile(rng.standard_normal(50).astype(np.float32), (400, 1))
        for _ in range(4):
            near[::2] = np.nextafter(near[::2], np.float32(np.inf))
        x = np.hstack(
            [np.tile(constants, (400, 1)), near, rng.normal(3.0, 2.0, (400, 50)).astype(np.float32)]
        )
        scale = StandardScaler().fit(x).scale_
        assert np.array_equal(scale[:50], np.ones(50))
        assert np.array_equal(scale[50:], self._fused_scale(x)[50:])
        rounding = 4 * 400 * np.finfo(np.float64).eps * near.astype(np.float64).mean(axis=0) ** 2
        assert ((scale[50:100] < 1.0) & (scale[50:100] ** 2 <= rounding)).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_transforms_are_the_formula_and_leave_input_unchanged(self, dtype):
        x = np.random.default_rng(6).normal(3.0, 2.0, size=(50, 6)).astype(dtype)
        before = x.copy()
        scaler = StandardScaler().fit(x)
        expected = (x.astype(np.float64) - scaler.mean_) / scaler.scale_
        assert np.array_equal(scaler.transform(x), expected)
        assert np.array_equal(StandardScaler().fit_transform(x), expected)
        assert np.array_equal(x, before)

    def test_unfitted_transform_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.zeros((2, 2)))

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            StandardScaler().fit(np.zeros(5))


class TestSMOSolver:
    def test_dual_constraints_hold(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(80, 4))
        gram = RBFKernel(0.25)(x, x)
        result = solve_oneclass_smo(gram, nu=0.2)
        assert result.converged
        assert result.alpha.sum() == pytest.approx(1.0)
        assert result.alpha.min() >= -1e-12
        assert result.alpha.max() <= 1.0 / (0.2 * 80) + 1e-12

    def test_invalid_nu(self):
        with pytest.raises(ValueError):
            solve_oneclass_smo(np.eye(4), nu=0.0)
        with pytest.raises(ValueError):
            solve_oneclass_smo(np.eye(4), nu=1.5)

    def test_non_square_gram_rejected(self):
        with pytest.raises(ValueError):
            solve_oneclass_smo(np.zeros((3, 4)), nu=0.5)

    def test_nu_one_puts_all_at_bound(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(20, 2))
        gram = RBFKernel(0.5)(x, x)
        result = solve_oneclass_smo(gram, nu=1.0)
        np.testing.assert_allclose(result.alpha, 1.0 / 20)

    def test_objective_not_worse_than_initial(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(40, 3))
        gram = RBFKernel(0.3)(x, x)
        n = 40
        nu = 0.25
        upper = 1.0 / (nu * n)
        alpha0 = np.zeros(n)
        budget = 1.0
        for i in range(n):
            alpha0[i] = min(upper, budget)
            budget -= alpha0[i]
        initial = 0.5 * alpha0 @ gram @ alpha0
        result = solve_oneclass_smo(gram, nu=nu)
        final = 0.5 * result.alpha @ gram @ result.alpha
        assert final <= initial + 1e-9


class TestOneClassSVM:
    def fit_gaussian(self, nu=0.1, n=300, seed=9):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 4))
        return OneClassSVM(nu=nu).fit(x), x

    def test_nu_bounds_outlier_fraction(self):
        svm, x = self.fit_gaussian(nu=0.15)
        outlier_fraction = (svm.decision_function(x) < 0).mean()
        assert outlier_fraction == pytest.approx(0.15, abs=0.07)

    def test_nu_lower_bounds_support_fraction(self):
        svm, x = self.fit_gaussian(nu=0.2)
        support_fraction = len(svm.support_vectors_) / len(x)
        assert support_fraction >= 0.2 - 0.02

    def test_far_outliers_negative(self):
        svm, _ = self.fit_gaussian()
        far = np.full((5, 4), 50.0)
        assert np.all(svm.decision_function(far) < 0)
        assert np.all(svm.predict(far) == -1)

    def test_center_positive(self):
        svm, _ = self.fit_gaussian()
        assert svm.decision_function(np.zeros((1, 4)))[0] > 0
        assert svm.predict(np.zeros((1, 4)))[0] == 1

    def test_signed_distance_is_scaled_decision(self):
        svm, x = self.fit_gaussian()
        ratio = svm.decision_function(x[:10]) / svm.signed_distance(x[:10])
        np.testing.assert_allclose(ratio, svm.norm_w_, rtol=1e-9)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            OneClassSVM().decision_function(np.zeros((1, 2)))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            OneClassSVM(nu=0.0)
        with pytest.raises(ValueError):
            OneClassSVM().fit(np.zeros(5))
        with pytest.raises(ValueError):
            OneClassSVM().fit(np.zeros((1, 5)))

    def test_linear_kernel_variant(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(100, 3))
        svm = OneClassSVM(nu=0.2, kernel="linear").fit(x)
        far = np.full((3, 3), 100.0)
        assert np.all(svm.decision_function(far) < 0) or np.all(
            svm.decision_function(-far) < 0
        )

    def test_custom_kernel_instance(self):
        x = np.random.default_rng(11).normal(size=(50, 2))
        svm = OneClassSVM(nu=0.3, kernel=RBFKernel(gamma=0.7)).fit(x)
        assert svm.kernel_.gamma == 0.7
