"""Table VII — Deep Validation vs feature squeezing vs KDE on corner cases."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.detect.feature_squeezing import FeatureSqueezing
from repro.detect.kde import KernelDensityDetector
from repro.experiments.context import get_context
from repro.metrics.roc import roc_auc_score
from repro.utils.tables import format_table


@dataclass
class Table7Result:
    dataset_name: str
    rows: list[tuple[str, float]]

    def render(self) -> str:
        """Render the method-comparison rows as a text table."""
        return format_table(
            ["Method", "Overall ROC-AUC Score (SCCs)"],
            self.rows,
            title=f"Table VII — baseline comparison on {self.dataset_name}",
        )

    def auc(self, method: str) -> float:
        """Overall ROC-AUC of one method row."""
        for name, value in self.rows:
            if name == method:
                return value
        raise KeyError(method)


def run_table7(dataset_name: str, profile: str = "tiny", seed: int = 0) -> Table7Result:
    """Compute Table VII (Deep Validation vs baselines) for one dataset."""
    context = get_context(dataset_name, profile, seed)
    clean = context.clean_images
    scc, _ = context.suite.all_scc_images()
    labels = np.concatenate([np.zeros(len(clean)), np.ones(len(scc))])

    dataset = context.dataset
    detectors = [
        ("Deep Validation", None),
        (
            "Feature Squeezing",
            FeatureSqueezing(context.model, greyscale=dataset.channels == 1),
        ),
        ("Kernel Density Estimation", KernelDensityDetector(context.model)),
    ]
    rows = []
    for name, detector in detectors:
        if detector is None:
            scores = np.concatenate(
                [
                    context.validator.joint_discrepancy(clean),
                    context.validator.joint_discrepancy(scc),
                ]
            )
        else:
            detector.fit(dataset.train_images, dataset.train_labels)
            scores = np.concatenate([detector.score(clean), detector.score(scc)])
        rows.append((name, float(roc_auc_score(labels, scores))))
    return Table7Result(dataset_name=dataset_name, rows=rows)
