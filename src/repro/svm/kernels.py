"""Kernel functions for the one-class SVM."""

from __future__ import annotations

import numpy as np


#: Rows of the outer sum ``n_i + n_j`` that :meth:`RBFKernel.__call__`
#: holds at once: a cache-sized scratch block instead of a second Gram.
_GRAM_BLOCK_ROWS = 64

#: Largest ``E[x]² / var`` at which :func:`scale_gamma` keeps the one-sum
#: variance: its error is then at most about ``65 ε`` relative.
_ONE_SUM_MAX_OFFSET = 64.0


def row_norms(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row of ``x``."""
    return np.einsum("ij,ij->i", x, x)


class Kernel:
    """A positive-definite kernel ``k(x, y)`` evaluated on row batches."""

    name: str = "kernel"

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Gram matrix of shape ``(len(a), len(b))``."""
        raise NotImplementedError

    def diag(self, a: np.ndarray) -> np.ndarray:
        """``k(x, x)`` for each row of ``a`` (cheaper than the full Gram)."""
        raise NotImplementedError


class LinearKernel(Kernel):
    """``k(x, y) = x . y``"""

    name = "linear"

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a @ b.T

    def diag(self, a: np.ndarray) -> np.ndarray:
        return row_norms(a)


class RBFKernel(Kernel):
    """``k(x, y) = exp(-gamma ||x - y||^2)``"""

    name = "rbf"

    def __init__(self, gamma: float) -> None:
        if gamma <= 0:
            raise ValueError(f"gamma must be positive, got {gamma}")
        self.gamma = gamma

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``exp(−γ · max((n_i + n_j) − 2 a·b, 0))``, built in the one buffer
        of the product ``a bᵀ``.

        Each operation is applied in place, the outer sum of the row norms
        a block of rows at a time, so no second ``len(a) x len(b)`` matrix
        is made. The order is fixed: ``(n_i + n_j) − 2g``, clamp at 0,
        ``× −γ``, ``exp``. With ``b is a`` the product is a ``syrk`` and the
        row norms are computed once, so the self-Gram is exactly symmetric.
        (Folding ``−γ`` into the terms first, ``2γg − γn_i − γn_j``, rounds
        ``(i, j)`` and ``(j, i)`` differently.)
        """
        a_sq = row_norms(a)
        b_sq = a_sq if b is a else row_norms(b)
        gram = a @ b.T
        gram *= 2.0
        for start in range(0, len(gram), _GRAM_BLOCK_ROWS):
            block = slice(start, start + _GRAM_BLOCK_ROWS)
            outer = np.add.outer(a_sq[block], b_sq)
            np.subtract(outer, gram[block], out=gram[block])
        np.maximum(gram, 0.0, out=gram)
        gram *= -self.gamma
        return np.exp(gram, out=gram)

    def diag(self, a: np.ndarray) -> np.ndarray:
        return np.ones(len(a))


class PolynomialKernel(Kernel):
    """``k(x, y) = (gamma x . y + coef0)^degree``"""

    name = "poly"

    def __init__(self, degree: int = 3, gamma: float = 1.0, coef0: float = 1.0) -> None:
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        self.degree = degree
        self.gamma = gamma
        self.coef0 = coef0

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (self.gamma * (a @ b.T) + self.coef0) ** self.degree

    def diag(self, a: np.ndarray) -> np.ndarray:
        return (self.gamma * row_norms(a) + self.coef0) ** self.degree


def scale_gamma(features: np.ndarray) -> float:
    """scikit-learn's ``gamma='scale'`` heuristic: ``1 / (d * var(X))``.

    ``var(X)``, over every entry, is read off the row norms and one sum,
    as ``E[x²] − E[x]²``, instead of ``X.var()``'s pass over a centred
    copy. Its relative error grows as ``ε · E[x²] / var``, so where
    ``E[x]²`` exceeds ``_ONE_SUM_MAX_OFFSET`` variances (features far from
    centred, e.g. unstandardised with a large offset) ``X.var()`` is used.
    """
    mean = float(features.sum()) / features.size
    variance = float(row_norms(features).sum()) / features.size - mean * mean
    if mean * mean > _ONE_SUM_MAX_OFFSET * variance:
        variance = float(features.var())
    if variance <= 0:
        variance = 1.0
    return 1.0 / (features.shape[1] * variance)


def make_kernel(name: str, features: np.ndarray, gamma: float | None = None) -> Kernel:
    """Build a kernel by name, inferring gamma from data when omitted
    (:func:`scale_gamma`, the one rule for RBF and poly)."""
    if name == "linear":
        return LinearKernel()
    if gamma is None and name in ("rbf", "poly"):
        gamma = scale_gamma(features)
    if name == "rbf":
        return RBFKernel(gamma)
    if name == "poly":
        return PolynomialKernel(gamma=gamma)
    raise ValueError(f"unknown kernel {name!r}; expected linear, rbf, or poly")
