"""Per-feature standardisation for hidden representations."""

from __future__ import annotations

import numpy as np


class StandardScaler:
    """Standardise features to zero mean, unit variance.

    Hidden representations from different layers live on wildly different
    scales; standardising before kernel evaluation keeps a single RBF gamma
    heuristic meaningful everywhere.
    """

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, features: np.ndarray) -> "StandardScaler":
        """Estimate per-feature mean and scale from (N, d) features.

        Mean and variance come from a single fused pass (``E[x^2] - E[x]^2``
        with a non-negativity clamp) rather than separate ``mean``/``std``
        traversals — on the wide flattened conv representations the
        validators see, the second pass over memory is the dominant cost.

        A constant column gets scale 1.0. Its fused variance need not be
        exactly 0 (``E[x^2]`` and ``E[x]^2`` of a nonzero constant round
        apart), so the few columns whose variance lies within rounding of
        ``E[x]^2`` are checked for constancy exactly; the others keep the
        fused value.
        """
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError(f"expected (N, d) features, got shape {features.shape}")
        n = len(features)
        total = features.sum(axis=0)
        total_sq = np.einsum("ij,ij->j", features, features)
        mean = total / n
        variance = np.maximum(total_sq / n - mean**2, 0.0)
        rounding = 4 * n * np.finfo(np.float64).eps * mean**2
        suspect = np.flatnonzero((variance > 0.0) & (variance <= rounding))
        if suspect.size:
            column = features[:, suspect]
            constant = (column == column[0]).all(axis=0)
            variance[suspect[constant]] = 0.0
        scale = np.sqrt(variance)
        scale[scale == 0.0] = 1.0
        self.mean_ = mean
        self.scale_ = scale
        return self

    def transform(self, features: np.ndarray) -> np.ndarray:
        """Standardise features with the fitted statistics, into a fresh
        float64 array (``features`` is never written)."""
        if self.mean_ is None:
            raise RuntimeError("scaler is not fitted")
        return self._standardise(np.array(features, dtype=np.float64))

    def fit_transform(self, features: np.ndarray) -> np.ndarray:
        """Fit, then standardise the float64 copy that was fitted, in place:
        one copy of ``features`` in all (``features`` is never written)."""
        copy = np.array(features, dtype=np.float64)
        return self.fit(copy)._standardise(copy)

    def _standardise(self, copy: np.ndarray) -> np.ndarray:
        """``(x - mean) / scale``, in place on a private float64 ``copy``."""
        copy -= self.mean_
        copy /= self.scale_
        return copy
