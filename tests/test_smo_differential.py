"""Differential test of the one-class SMO solver against its column oracle.

``solve_oneclass_smo`` reads the moved pair's Gram *rows* and keeps its
bound masks as penalty vectors updated at the two moved coefficients only.
The oracle below is the straightforward loop it replaced: it rebuilds both
masks every step and reads Gram *columns*. On an exactly symmetric Gram the
two must agree bit for bit in ``alpha``, ``rho``, ``iterations`` and
``converged``, including under ties (duplicated rows), at the smallest
problem (n = 2), at ν = 1 (every coefficient starts at its bound) and when
``max_iter`` stops the loop before convergence.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.svm.kernels import RBFKernel
from repro.svm.oneclass import solve_oneclass_smo


def column_oracle(gram, nu, tol=1e-4, max_iter=20000):
    """The column-reading, mask-rebuilding SMO loop, kept as the oracle."""
    n = gram.shape[0]
    upper = 1.0 / (nu * n)
    alpha = np.zeros(n)
    budget = 1.0
    for i in range(n):
        alpha[i] = min(upper, budget)
        budget -= alpha[i]
        if budget <= 0:
            break

    gradient = gram @ alpha
    iterations = 0
    converged = False
    eps = 1e-12
    for iterations in range(1, max_iter + 1):
        can_increase = alpha < upper - eps
        can_decrease = alpha > eps
        if not can_increase.any() or not can_decrease.any():
            converged = True
            break
        masked_up = np.where(can_increase, gradient, np.inf)
        masked_down = np.where(can_decrease, gradient, -np.inf)
        i = int(masked_up.argmin())
        j = int(masked_down.argmax())
        gap = gradient[j] - gradient[i]
        if gap <= tol:
            converged = True
            break
        curvature = gram[i, i] + gram[j, j] - 2.0 * gram[i, j]
        if curvature <= eps:
            step = min(upper - alpha[i], alpha[j])
        else:
            step = min(gap / curvature, upper - alpha[i], alpha[j])
        if step <= eps:
            converged = True
            break
        alpha[i] += step
        alpha[j] -= step
        gradient += step * (gram[:, i] - gram[:, j])

    free = (alpha > eps) & (alpha < upper - eps)
    if free.any():
        rho = float(gradient[free].mean())
    else:
        upper_grads = gradient[alpha >= upper - eps]
        lower_grads = gradient[alpha <= eps]
        hi = float(upper_grads.max()) if len(upper_grads) else float(gradient.min())
        lo = float(lower_grads.min()) if len(lower_grads) else float(gradient.max())
        rho = (hi + lo) / 2.0
    return alpha, rho, iterations, converged


def rbf_gram(seed, rows, dim, duplicates, gamma_scale):
    """An RBF self-Gram of ``rows`` points, the first ``duplicates`` of
    them repeated at the end so that rows, gradients and scores tie."""
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=rng.uniform(0.3, 3.0), size=(rows, dim))
    x = np.concatenate([x, x[:duplicates]])
    gamma = gamma_scale / (dim * max(float(x.var()), 1e-12))
    return RBFKernel(gamma)(x, x)


def assert_same_solve(gram, nu, max_iter=20000):
    result = solve_oneclass_smo(gram, nu, max_iter=max_iter)
    alpha, rho, iterations, converged = column_oracle(gram, nu, max_iter=max_iter)
    np.testing.assert_array_equal(result.alpha, alpha)
    assert result.rho == rho
    assert result.iterations == iterations
    assert result.converged == converged
    return result


@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(2, 60),
    dim=st.integers(1, 8),
    duplicates=st.integers(0, 20),
    gamma_scale=st.floats(0.05, 5.0),
    nu=st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
    max_iter=st.one_of(st.just(20000), st.integers(1, 8)),
)
@example(seed=0, rows=2, dim=1, duplicates=0, gamma_scale=1.0, nu=0.5, max_iter=20000)
@example(seed=1, rows=2, dim=3, duplicates=2, gamma_scale=1.0, nu=0.3, max_iter=20000)
@example(seed=2, rows=30, dim=4, duplicates=0, gamma_scale=1.0, nu=1.0, max_iter=20000)
@example(seed=3, rows=40, dim=5, duplicates=15, gamma_scale=0.5, nu=0.1, max_iter=20000)
@settings(max_examples=150, deadline=None)
def test_row_solver_equals_column_oracle(
    seed, rows, dim, duplicates, gamma_scale, nu, max_iter
):
    gram = rbf_gram(seed, rows, dim, min(duplicates, rows), gamma_scale)
    assert np.array_equal(gram, gram.T)
    assert_same_solve(gram, nu, max_iter=max_iter)


@pytest.mark.parametrize("max_iter", [1, 2, 5])
def test_iteration_cap_is_hit_identically(max_iter):
    gram = rbf_gram(7, rows=50, dim=4, duplicates=10, gamma_scale=1.0)
    result = assert_same_solve(gram, nu=0.1, max_iter=max_iter)
    assert not result.converged
    assert result.iterations == max_iter


def test_nu_one_starts_and_stays_at_the_bound():
    gram = rbf_gram(11, rows=25, dim=3, duplicates=5, gamma_scale=1.0)
    result = assert_same_solve(gram, nu=1.0)
    assert result.converged
    assert result.iterations == 1


def test_two_points_and_all_ties():
    # Two identical points: every gradient ties, so the pair choice rests
    # on argmin/argmax taking the first of equal values.
    points = np.ones((2, 3))
    gram = RBFKernel(1.0)(points, points)
    assert_same_solve(gram, nu=0.5)
    points = np.ones((9, 2))
    gram = RBFKernel(1.0)(points, points)
    assert_same_solve(gram, nu=0.3)
