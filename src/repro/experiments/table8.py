"""Table VIII — defending against white-box attacks on the MNIST look-alike.

Runs the paper's attack battery (FGSM, BIM, CW∞/CW₂/CW₀ with Next and LL
targets, JSMA with Next and LL), then scores Deep Validation and feature
squeezing on two true-positive conventions: SAEs only, and all AEs
(successful + failed attempts).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.attacks.base import AttackResult, least_likely_targets, next_class_targets
from repro.attacks.bim import BIM
from repro.attacks.carlini import CarliniL0, CarliniL2, CarliniLinf
from repro.attacks.fgsm import FGSM
from repro.attacks.jsma import JSMA
from repro.detect.feature_squeezing import FeatureSqueezing
from repro.experiments.context import ExperimentContext, get_context, validator_source_key
from repro.metrics.roc import roc_auc_score
from repro.utils.cache import default_cache
from repro.utils.rng import new_rng
from repro.utils.tables import format_table

#: Attack budget per profile: number of seed images attacked.
_SEEDS = {"tiny": 40, "bench": 100}


@dataclass
class AttackCell:
    """One (attack, target-mode) column of Table VIII."""

    attack: str
    target_mode: str
    success_rate: float
    dv_auc_sae: float | None
    fs_auc_sae: float | None
    dv_auc_ae: float
    fs_auc_ae: float

    @property
    def label(self) -> str:
        return f"{self.attack}/{self.target_mode}"


@dataclass
class Table8Result:
    dataset_name: str
    cells: list[AttackCell]
    overall_dv_sae: float = 0.0
    overall_fs_sae: float = 0.0
    overall_dv_ae: float = 0.0
    overall_fs_ae: float = 0.0

    def render(self) -> str:
        """Render the per-attack rows plus the overall row."""
        rows = []
        for cell in self.cells:
            rows.append(
                [
                    cell.label,
                    cell.success_rate,
                    cell.dv_auc_sae,
                    cell.fs_auc_sae,
                    cell.dv_auc_ae,
                    cell.fs_auc_ae,
                ]
            )
        rows.append(
            [
                "OVERALL",
                None,
                self.overall_dv_sae,
                self.overall_fs_sae,
                self.overall_dv_ae,
                self.overall_fs_ae,
            ]
        )
        return format_table(
            [
                "Attack/Target",
                "Success Rate",
                "DeepValidation (SAEs)",
                "FeatureSqueezing (SAEs)",
                "DeepValidation (AEs)",
                "FeatureSqueezing (AEs)",
            ],
            rows,
            title=f"Table VIII — white-box attacks on {self.dataset_name}",
        )


def _attack_battery(context: ExperimentContext, seeds: np.ndarray, labels: np.ndarray):
    """All (name, target-mode, AttackResult) triples of the paper's battery."""
    model = context.model
    next_targets = next_class_targets(labels)
    ll_targets = least_likely_targets(model, seeds)
    battery = [
        ("FGSM", "untargeted", FGSM(model, epsilon=0.3).generate(seeds, labels)),
        ("BIM", "untargeted", BIM(model, epsilon=0.3, alpha=0.05, steps=10).generate(seeds, labels)),
    ]
    for mode, targets in (("Next", next_targets), ("LL", ll_targets)):
        battery.append(
            ("CWinf", mode, CarliniLinf(model, steps=60, outer_steps=3).generate(seeds, labels, targets))
        )
        battery.append(
            ("CW2", mode, CarliniL2(model, steps=100, search_steps=2).generate(seeds, labels, targets))
        )
        battery.append(
            ("CW0", mode, CarliniL0(model, steps=60, rounds=3).generate(seeds, labels, targets))
        )
        battery.append(("JSMA", mode, JSMA(model).generate(seeds, labels, targets)))
    return battery


def _auc(clean_scores: np.ndarray, anomaly_scores: np.ndarray) -> float | None:
    if len(anomaly_scores) == 0:
        return None
    labels = np.concatenate([np.zeros(len(clean_scores)), np.ones(len(anomaly_scores))])
    return float(roc_auc_score(labels, np.concatenate([clean_scores, anomaly_scores])))


def run_table8(
    dataset_name: str = "synth-mnist", profile: str = "tiny", seed: int = 0
) -> Table8Result:
    """Run (or load) the Table VIII white-box attack battery."""
    cache = default_cache()
    config = {
        "dataset": dataset_name, "profile": profile, "seed": seed, "kind": "table8",
        "sources": validator_source_key(),
    }
    return cache.get_or_build("table8", config, lambda: _run(dataset_name, profile, seed))


def _run(dataset_name: str, profile: str, seed: int) -> Table8Result:
    context = get_context(dataset_name, profile, seed)
    model = context.model
    dataset = context.dataset

    rng = new_rng(seed + 41)
    predictions = model.predict(dataset.test_images)
    correct = np.flatnonzero(predictions == dataset.test_labels)
    count = min(_SEEDS[profile], len(correct))
    chosen = rng.choice(correct, size=count, replace=False)
    seeds = dataset.test_images[chosen]
    labels = dataset.test_labels[chosen]

    squeezer = FeatureSqueezing(model, greyscale=dataset.channels == 1)
    squeezer.fit(dataset.train_images, dataset.train_labels)
    clean_dv = context.validator.joint_discrepancy(context.clean_images)
    clean_fs = squeezer.score(context.clean_images)

    cells: list[AttackCell] = []
    pooled: dict[str, list[np.ndarray]] = {"dv_sae": [], "fs_sae": [], "dv_ae": [], "fs_ae": []}
    for name, mode, result in _attack_battery(context, seeds, labels):
        dv_scores = context.validator.joint_discrepancy(result.adversarial)
        fs_scores = squeezer.score(result.adversarial)
        success = result.success
        cells.append(
            AttackCell(
                attack=name,
                target_mode=mode,
                success_rate=result.success_rate,
                dv_auc_sae=_auc(clean_dv, dv_scores[success]),
                fs_auc_sae=_auc(clean_fs, fs_scores[success]),
                dv_auc_ae=_auc(clean_dv, dv_scores),
                fs_auc_ae=_auc(clean_fs, fs_scores),
            )
        )
        pooled["dv_sae"].append(dv_scores[success])
        pooled["fs_sae"].append(fs_scores[success])
        pooled["dv_ae"].append(dv_scores)
        pooled["fs_ae"].append(fs_scores)

    return Table8Result(
        dataset_name=dataset_name,
        cells=cells,
        overall_dv_sae=_auc(clean_dv, np.concatenate(pooled["dv_sae"])),
        overall_fs_sae=_auc(clean_fs, np.concatenate(pooled["fs_sae"])),
        overall_dv_ae=_auc(clean_dv, np.concatenate(pooled["dv_ae"])),
        overall_fs_ae=_auc(clean_fs, np.concatenate(pooled["fs_ae"])),
    )
