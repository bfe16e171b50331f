"""Adapter presenting Deep Validation through the :class:`Detector` API."""

from __future__ import annotations

import numpy as np

from repro.core.validator import DeepValidator, ValidatorConfig
from repro.detect.base import Detector
from repro.nn.sequential import ProbedSequential


class DeepValidationDetector(Detector):
    """Deep Validation as a drop-in detector for side-by-side comparisons.

    The anomaly score is the joint discrepancy (Eq. 3), which is already
    oriented higher-is-more-anomalous. Scoring runs through the batched
    :class:`~repro.core.engine.ValidationEngine`.
    """

    name = "deep-validation"

    def __init__(
        self, model: ProbedSequential, config: ValidatorConfig | None = None
    ) -> None:
        self.model = model
        self.validator = DeepValidator(model, config)

    def fit(self, images: np.ndarray, labels: np.ndarray) -> "DeepValidationDetector":
        self.validator.fit(images, labels)
        return self

    def score(self, images: np.ndarray) -> np.ndarray:
        return self.validator.joint_discrepancy(images)
