"""ν-one-class SVM (Schölkopf et al. 2001) with an SMO dual solver.

Dual problem::

    minimise    (1/2) αᵀ Q α          with Q_ij = k(x_i, x_j)
    subject to  0 <= α_i <= 1/(ν n),  Σ α_i = 1

The decision function is ``f(x) = Σ α_i k(x_i, x) − ρ``: non-negative on
the region holding most of the training mass, negative outside. ``ν`` upper
bounds the fraction of training outliers and lower bounds the fraction of
support vectors.

The solver is the standard maximal-violating-pair SMO used by LIBSVM,
specialised to the one-class problem (all labels +1, zero linear term).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.svm.kernels import Kernel, make_kernel
from repro.svm.scaler import StandardScaler
from repro.utils.validation import check_positive


@dataclass
class SMOResult:
    """Raw solver output: dual coefficients, offset, and diagnostics."""

    alpha: np.ndarray
    rho: float
    iterations: int
    converged: bool


def solve_oneclass_smo(
    gram: np.ndarray,
    nu: float,
    tol: float = 1e-4,
    max_iter: int = 20000,
) -> SMOResult:
    """Solve the one-class dual on a precomputed, symmetric Gram matrix.

    Follows LIBSVM: initialise the first ``floor(ν n)`` coefficients at the
    upper bound ``C = 1/(ν n)`` (plus a fractional remainder), then repeatedly
    optimise the maximal-violating pair until the KKT gap falls below
    ``tol``.

    ``gram`` must be exactly symmetric (``gram == gram.T``), as the
    built-in kernels' ``kernel(x, x)`` is: each step reads the moved pair's
    contiguous *rows* for their columns. The bound masks are kept as
    ``0`` / ``±inf`` penalty vectors, and only the two coefficients a step
    moves are re-classified.
    """
    n = gram.shape[0]
    if gram.shape != (n, n):
        raise ValueError(f"gram must be square, got {gram.shape}")
    if not 0.0 < nu <= 1.0:
        raise ValueError(f"nu must be in (0, 1], got {nu}")

    upper = 1.0 / (nu * n)
    alpha = np.zeros(n)
    budget = 1.0
    for i in range(n):
        alpha[i] = min(upper, budget)
        budget -= alpha[i]
        if budget <= 0:
            break

    eps = 1e-12
    gradient = gram @ alpha
    # gradient + up_penalty is inf where alpha cannot increase, and
    # gradient + down_penalty is -inf where it cannot decrease; the
    # gradient is finite, so an infinite extreme means an empty set.
    up_penalty = np.where(alpha < upper - eps, 0.0, np.inf)
    down_penalty = np.where(alpha > eps, 0.0, -np.inf)
    scratch = np.empty(n)
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        i = int(np.add(gradient, up_penalty, out=scratch).argmin())
        if scratch[i] == np.inf:
            converged = True
            break
        j = int(np.add(gradient, down_penalty, out=scratch).argmax())
        if scratch[j] == -np.inf:
            converged = True
            break
        gap = gradient[j] - gradient[i]
        if gap <= tol:
            converged = True
            break
        # Optimal unconstrained step along e_i - e_j.
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
        np.subtract(gram[i], gram[j], out=scratch)
        scratch *= step
        gradient += scratch
        for k in (i, j):
            up_penalty[k] = 0.0 if alpha[k] < upper - eps else np.inf
            down_penalty[k] = 0.0 if alpha[k] > eps else -np.inf

    free = (alpha > eps) & (alpha < upper - eps)
    if free.any():
        rho = float(gradient[free].mean())
    else:
        # No free support vectors: rho sits between the bound groups.
        upper_grads = gradient[alpha >= upper - eps]
        lower_grads = gradient[alpha <= eps]
        hi = float(upper_grads.max()) if len(upper_grads) else float(gradient.min())
        lo = float(lower_grads.min()) if len(lower_grads) else float(gradient.max())
        rho = (hi + lo) / 2.0
    return SMOResult(alpha=alpha, rho=rho, iterations=iterations, converged=converged)


class OneClassSVM:
    """Estimator façade over the SMO solver.

    Parameters
    ----------
    nu:
        Upper bound on the training-outlier fraction (and lower bound on the
        support-vector fraction); the paper's knob for how tightly each
        reference distribution is wrapped.
    kernel:
        ``"rbf"`` (default), ``"linear"``, ``"poly"``, or a
        :class:`~repro.svm.kernels.Kernel` instance.
    gamma:
        RBF/poly bandwidth; defaults to scikit-learn's ``scale`` heuristic.
    standardize:
        Solve (and score) in the space of a
        :class:`~repro.svm.scaler.StandardScaler` fitted on the training rows.

    Each support row is stored once, as given to :meth:`fit`
    (``support_rows_``, in its dtype); ``support_vectors_`` derives the
    solved-space rows from them.
    """

    def __init__(
        self,
        nu: float = 0.1,
        kernel: str | Kernel = "rbf",
        gamma: float | None = None,
        tol: float = 1e-4,
        max_iter: int = 20000,
        standardize: bool = False,
    ) -> None:
        if not 0.0 < nu <= 1.0:
            raise ValueError(f"nu must be in (0, 1], got {nu}")
        check_positive("tol", tol)
        self.nu = nu
        self._kernel_spec = kernel
        self.gamma = gamma
        self.tol = tol
        self.max_iter = max_iter
        self.standardize = standardize
        self.kernel_: Kernel | None = None
        self.scaler_: StandardScaler | None = None
        self.support_rows_: np.ndarray | None = None
        self.dual_coef_: np.ndarray | None = None
        self.rho_: float | None = None
        self.norm_w_: float | None = None
        self.result_: SMOResult | None = None

    # -- fitting ---------------------------------------------------------------

    def fit(self, features: np.ndarray) -> "OneClassSVM":
        """Fit the one-class dual on ``features`` (N, d), never written."""
        features = np.asarray(features)
        if features.ndim != 2:
            raise ValueError(f"expected (N, d) features, got shape {features.shape}")
        if len(features) < 2:
            raise ValueError("one-class SVM needs at least two training points")
        if self.standardize:
            self.scaler_ = StandardScaler()
            solved = self.scaler_.fit_transform(features)
        else:
            self.scaler_ = None
            solved = np.asarray(features, dtype=np.float64)
        spec = self._kernel_spec
        self.kernel_ = spec if isinstance(spec, Kernel) else make_kernel(spec, solved, self.gamma)
        gram = self.kernel_(solved, solved)
        result = solve_oneclass_smo(gram, self.nu, tol=self.tol, max_iter=self.max_iter)
        support = result.alpha > 1e-12
        self.support_rows_ = features[support]
        self.dual_coef_ = result.alpha[support]
        self.rho_ = result.rho
        # ||w||^2 = αᵀQα restricted to the support set.
        sub = gram[np.ix_(support, support)]
        self.norm_w_ = float(np.sqrt(max(self.dual_coef_ @ sub @ self.dual_coef_, 1e-12)))
        self.result_ = result
        return self

    def _check_fitted(self) -> None:
        if self.support_rows_ is None:
            raise RuntimeError("OneClassSVM is not fitted")

    def _solved_space(self, features: np.ndarray) -> np.ndarray:
        """``features`` as float64 in the space the dual was solved in."""
        if self.scaler_ is None:
            return np.asarray(features, dtype=np.float64)
        return self.scaler_.transform(features)

    @property
    def support_vectors_(self) -> np.ndarray | None:
        """``support_rows_`` widened and standardised as at fit: ``==`` to
        the rows the dual was solved on."""
        return None if self.support_rows_ is None else self._solved_space(self.support_rows_)

    # -- scoring ---------------------------------------------------------------

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """``Σ α_i k(x_i, x) − ρ`` of raw ``features``, standardised first
        like the training rows: non-negative inside the learned support."""
        self._check_fitted()
        kernel_values = self.kernel_(self._solved_space(features), self.support_vectors_)
        return kernel_values @ self.dual_coef_ - self.rho_

    def signed_distance(self, features: np.ndarray) -> np.ndarray:
        """Signed distance to the supporting hyperplane in kernel space.

        This is ``decision_function / ||w||`` — the quantity the paper's
        discrepancy estimation negates (Eq. 2). Normalising by ``||w||``
        keeps distances comparable across per-layer SVMs fitted on features
        of very different dimensionality.
        """
        return self.decision_function(features) / self.norm_w_

    def predict(self, features: np.ndarray) -> np.ndarray:
        """+1 for inliers, -1 for outliers."""
        return np.where(self.decision_function(features) >= 0.0, 1, -1)
