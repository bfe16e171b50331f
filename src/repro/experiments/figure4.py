"""Figure 4 — detection rates under increasing scale distortion (MNIST-like).

Both detectors are pinned to the same false-positive rate on clean data
(the paper uses 0.059); at each scale ratio the detection rate is reported
separately for successful (SCC) and failed (FCC) corner cases, alongside
the corner-case success rate. The paper's shape: Deep Validation holds
~100 % on SCCs and its FCC detection grows with the success rate, while
feature squeezing oscillates and deteriorates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.detect.feature_squeezing import FeatureSqueezing
from repro.experiments.context import get_context, validator_source_key
from repro.transforms.compose import Scale
from repro.utils.cache import default_cache
from repro.utils.tables import format_table

#: The paper's matched clean-data false positive rate.
MATCHED_FPR = 0.059

#: Scale ratios swept (1.0 = identity, omitted).
DEFAULT_RATIOS = (0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.2, 1.4, 1.6, 1.8, 2.0)


@dataclass
class SweepPoint:
    ratio: float
    success_rate: float
    scc_count: int
    dv_scc_rate: float | None
    dv_fcc_rate: float | None
    fs_scc_rate: float | None
    fs_fcc_rate: float | None


@dataclass
class Figure4Result:
    dataset_name: str
    fpr: float
    points: list[SweepPoint]

    def render(self) -> str:
        """Render the sweep as a text table."""
        rows = [
            [
                p.ratio,
                p.success_rate,
                p.scc_count,
                p.dv_scc_rate,
                p.fs_scc_rate,
                p.dv_fcc_rate,
                p.fs_fcc_rate,
            ]
            for p in self.points
        ]
        return format_table(
            [
                "Scale ratio",
                "Success rate",
                "#SCC",
                "DV det(SCC)",
                "FS det(SCC)",
                "DV det(FCC)",
                "FS det(FCC)",
            ],
            rows,
            title=(
                f"Figure 4 — detection rate vs scale ratio on {self.dataset_name} "
                f"(both detectors at clean FPR {self.fpr})"
            ),
        )


def run_figure4(
    dataset_name: str = "synth-mnist",
    profile: str = "tiny",
    seed: int = 0,
    ratios: tuple[float, ...] = DEFAULT_RATIOS,
    fpr: float = MATCHED_FPR,
) -> Figure4Result:
    """Run (or load) the Figure 4 scale sweep at matched FPR."""
    cache = default_cache()
    config = {
        "dataset": dataset_name, "profile": profile, "seed": seed,
        "ratios": list(ratios), "fpr": fpr, "kind": "figure4",
        "sources": validator_source_key(),
    }
    return cache.get_or_build(
        "figure4", config, lambda: _run(dataset_name, profile, seed, ratios, fpr)
    )


def _run(
    dataset_name: str, profile: str, seed: int, ratios: tuple[float, ...], fpr: float
) -> Figure4Result:
    from repro.corner.sweep import run_distortion_sweep

    context = get_context(dataset_name, profile, seed)
    model = context.model
    dataset = context.dataset

    squeezer = FeatureSqueezing(model, greyscale=dataset.channels == 1)
    squeezer.fit(dataset.train_images, dataset.train_labels)

    configs = [Scale(ratio, ratio) for ratio in ratios]
    seeds = context.suite.seeds
    labels = context.suite.seed_labels
    # Both detectors pinned to the same clean-data FPR.
    dv_sweep = run_distortion_sweep(
        model, context.validator.joint_discrepancy, configs, seeds, labels,
        clean_scores=context.validator.joint_discrepancy(context.clean_images),
        fpr=fpr, detector_name="deep-validation",
    )
    fs_sweep = run_distortion_sweep(
        model, squeezer.score, configs, seeds, labels,
        clean_scores=squeezer.score(context.clean_images),
        fpr=fpr, detector_name="feature-squeezing",
    )

    points = [
        SweepPoint(
            ratio=ratio,
            success_rate=dv_level.success_rate,
            scc_count=dv_level.scc_count,
            dv_scc_rate=dv_level.detection_scc,
            dv_fcc_rate=dv_level.detection_fcc,
            fs_scc_rate=fs_level.detection_scc,
            fs_fcc_rate=fs_level.detection_fcc,
        )
        for ratio, dv_level, fs_level in zip(ratios, dv_sweep.levels, fs_sweep.levels)
    ]
    return Figure4Result(dataset_name=dataset_name, fpr=fpr, points=points)
