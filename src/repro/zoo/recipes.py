"""Training recipes and the cached-trained-classifier entry point.

``get_trained_classifier`` is the shared entry point for tests, benchmarks,
and examples: it trains (once, then caches on disk) the paper architecture
for a dataset under a named profile and reports Table III-style statistics
(test accuracy and mean top-1 confidence).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.data.datasets import Dataset, load_dataset
from repro.nn.optim import Adadelta
from repro.nn.sequential import ProbedSequential
from repro.nn.trainer import Trainer, TrainingReport
from repro.utils.cache import CheckpointStore, default_cache
from repro.zoo.architectures import densenet, mnist_cnn, svhn_cnn

#: Named training profiles, per dataset. ``tiny`` keeps unit tests fast;
#: ``bench`` is the laptop-scale stand-in for the paper's full runs. The
#: noisier datasets (SVHN-like especially) need more data and epochs to
#: reach Table III-comparable accuracy.
TRAINING_PROFILES: dict[str, dict[str, dict[str, Any]]] = {
    "tiny": {
        "synth-mnist": {
            "train_size": 700, "test_size": 300, "epochs": 6,
            "batch_size": 64, "width": 4,
        },
        "synth-svhn": {
            "train_size": 1200, "test_size": 300, "epochs": 12,
            "batch_size": 64, "width": 8,
        },
        "synth-cifar": {
            "train_size": 1000, "test_size": 300, "epochs": 20,
            "batch_size": 64, "growth": 4, "block_layers": 2, "initial_channels": 8,
        },
    },
    "bench": {
        "synth-mnist": {
            "train_size": 2500, "test_size": 800, "epochs": 10,
            "batch_size": 96, "width": 8,
        },
        "synth-svhn": {
            "train_size": 2500, "test_size": 800, "epochs": 18,
            "batch_size": 96, "width": 8,
        },
        "synth-cifar": {
            "train_size": 1600, "test_size": 600, "epochs": 24,
            "batch_size": 96, "growth": 5, "block_layers": 2, "initial_channels": 10,
        },
    },
}


@dataclass
class TrainedClassifier:
    """A trained probed classifier plus its dataset and training metadata."""

    dataset_name: str
    profile: str
    model: ProbedSequential
    dataset: Dataset
    report: TrainingReport
    test_accuracy: float
    mean_top1_confidence: float

    @property
    def num_hidden_layers(self) -> int:
        return len(self.model.probe_names)


def _build_model(dataset_name: str, profile: dict[str, Any], seed: int) -> ProbedSequential:
    if dataset_name == "synth-mnist":
        return mnist_cnn(width=profile["width"], rng=seed)
    if dataset_name == "synth-svhn":
        return svhn_cnn(width=profile["width"], rng=seed)
    if dataset_name == "synth-cifar":
        return densenet(
            growth=profile["growth"],
            block_layers=profile["block_layers"],
            initial_channels=profile["initial_channels"],
            rng=seed,
        )
    raise ValueError(f"unknown dataset {dataset_name!r}")


def _checkpoint_name(dataset_name: str, profile_name: str, seed: int) -> str:
    """Checkpoint key for one training run (unique per recipe)."""
    return f"classifier-{dataset_name}-{profile_name}-seed{seed}"


def train_classifier(
    dataset_name: str, profile_name: str = "tiny", seed: int = 0, checkpoints=None
) -> TrainedClassifier:
    """Train the paper architecture for ``dataset_name`` from scratch.

    ``checkpoints`` (a :class:`~repro.utils.cache.CheckpointStore`)
    makes the run crash-safe: every epoch is snapshotted, a rerun resumes
    from the last completed epoch bit-identically, and the snapshot is
    discarded once training finishes (the artifact cache owns the result
    from then on).
    """
    if profile_name not in TRAINING_PROFILES:
        raise ValueError(
            f"unknown profile {profile_name!r}; available: {sorted(TRAINING_PROFILES)}"
        )
    if dataset_name not in TRAINING_PROFILES[profile_name]:
        raise ValueError(f"unknown dataset {dataset_name!r}")
    profile = TRAINING_PROFILES[profile_name][dataset_name]
    dataset = load_dataset(
        dataset_name,
        train_size=profile["train_size"],
        test_size=profile["test_size"],
        seed=seed,
    )
    model = _build_model(dataset_name, profile, seed)
    # The paper trains with Adadelta (lr 1.0, decay 0.95, batch 128).
    optimizer = Adadelta(model.parameters(), lr=1.0, rho=0.95)
    trainer = Trainer(model, optimizer, batch_size=profile["batch_size"], rng=seed)
    name = _checkpoint_name(dataset_name, profile_name, seed)
    report = trainer.fit(
        dataset.train_images,
        dataset.train_labels,
        epochs=profile["epochs"],
        checkpoint=checkpoints,
        checkpoint_name=name,
        resume=checkpoints is not None,
    )
    if checkpoints is not None:
        checkpoints.discard(name)
    model.eval()
    probabilities = model.predict_proba(dataset.test_images)
    predictions = probabilities.argmax(axis=1)
    accuracy = float((predictions == dataset.test_labels).mean())
    confidence = float(probabilities.max(axis=1).mean())
    return TrainedClassifier(
        dataset_name=dataset_name,
        profile=profile_name,
        model=model,
        dataset=dataset,
        report=report,
        test_accuracy=accuracy,
        mean_top1_confidence=confidence,
    )


def get_trained_classifier(
    dataset_name: str,
    profile_name: str = "tiny",
    seed: int = 0,
    cache: CheckpointStore | None = None,
    checkpoints=None,
) -> TrainedClassifier:
    """Return a trained classifier, building and caching it on first use.

    ``checkpoints`` passes through to :func:`train_classifier` so a cache
    miss trains crash-safely (epoch snapshots, bit-identical resume).
    """
    cache = cache if cache is not None else default_cache()
    config = {"dataset": dataset_name, "profile": profile_name, "seed": seed, "v": 1}
    return cache.get_or_build(
        "classifier",
        config,
        lambda: train_classifier(dataset_name, profile_name, seed, checkpoints=checkpoints),
    )


def architecture_summary(model: ProbedSequential) -> list[tuple[str, str]]:
    """Rows of ``(stage name, description)`` — the Table II-style layer listing."""
    return [(name, repr(model.stage(name))) for name in model.stage_names]
