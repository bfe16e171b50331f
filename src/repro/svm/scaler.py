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

    @classmethod
    def from_stats(cls, mean: np.ndarray, scale: np.ndarray) -> "StandardScaler":
        """Build a fitted scaler from precomputed statistics.

        Fitting's ``build_layer_validators`` uses this to rebuild each
        per-class scaler from the mean and scale a task solution carries,
        without re-reading the training representations.
        """
        scaler = cls()
        mean = np.asarray(mean, dtype=np.float64)
        scale = np.asarray(scale, dtype=np.float64).copy()
        if mean.shape != scale.shape or mean.ndim != 1:
            raise ValueError(
                f"mean and scale must be matching 1-d arrays, got "
                f"{mean.shape} and {scale.shape}"
            )
        scale[scale == 0.0] = 1.0
        scaler.mean_ = mean
        scaler.scale_ = scale
        return scaler

    def fit(self, features: np.ndarray) -> "StandardScaler":
        """Estimate per-feature mean and scale from (N, d) features.

        Mean and variance come from a single fused pass (``E[x^2] - E[x]^2``
        with a non-negativity clamp) rather than separate ``mean``/``std``
        traversals — on the wide flattened conv representations the
        validators see, the second pass over memory is the dominant cost.
        """
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError(f"expected (N, d) features, got shape {features.shape}")
        n = len(features)
        total = features.sum(axis=0)
        total_sq = np.einsum("ij,ij->j", features, features)
        mean = total / n
        variance = np.maximum(total_sq / n - mean**2, 0.0)
        scale = np.sqrt(variance)
        scale[scale == 0.0] = 1.0
        self.mean_ = mean
        self.scale_ = scale
        return self

    def transform(self, features: np.ndarray) -> np.ndarray:
        """Standardise features with the fitted statistics."""
        if self.mean_ is None:
            raise RuntimeError("scaler is not fitted")
        return (np.asarray(features, dtype=np.float64) - self.mean_) / self.scale_

    def fit_transform(self, features: np.ndarray) -> np.ndarray:
        """Fit then transform in one call."""
        return self.fit(features).transform(features)
