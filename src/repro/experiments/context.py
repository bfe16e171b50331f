"""Shared, cached experiment context.

Everything expensive an experiment needs — the trained classifier, the
corner-case suite, the fitted Deep Validator, and a matched clean evaluation
sample — is built once per (dataset, profile, seed) and cached on disk, so
tests, benchmarks, and examples all reuse the same artifacts.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import repro
from repro import obs
from repro.core.validator import DeepValidator, ValidatorConfig
from repro.corner.suite import CornerCaseSuite, build_corner_case_suite
from repro.utils.cache import CheckpointStore, default_cache
from repro.utils.rng import new_rng
from repro.zoo.recipes import TrainedClassifier, get_trained_classifier

#: Sources, relative to the ``repro`` package, whose code decides what a
#: fitted validator scores and how it is stored. Cached contexts and the
#: results derived from them are keyed on their digest, so changing how
#: validators are fitted, scored or pickled rebuilds them.
VALIDATOR_SOURCES = ("core/fitting.py", "core/validator.py", "core/engine.py", "svm/*.py")
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def validator_source_key(root: Path = Path(repro.__file__).parent) -> str:
    """Digest of the code of the :data:`VALIDATOR_SOURCES` under ``root``:
    each file's AST without docstrings, so an edit to documentation or
    comments keeps the key and any edit to code changes it."""
    digest = hashlib.sha256()
    for pattern in VALIDATOR_SOURCES:
        for path in sorted(root.glob(pattern)):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if isinstance(node, _DOCUMENTED) and ast.get_docstring(node) is not None:
                    node.body = node.body[1:]
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(ast.dump(tree).encode())
    return digest.hexdigest()[:16]


#: Number of rear layers validated on the DenseNet (paper Section IV-C).
DENSENET_REAR_LAYERS = 6

#: Per-profile corner-search scale.
_SUITE_PARAMS = {
    "tiny": {"seed_count": 120, "scan_seeds": 60},
    "bench": {"seed_count": 200, "scan_seeds": 100},
}

_VALIDATOR_PARAMS = {
    "tiny": {"nu": 0.1, "max_per_class": 120},
    "bench": {"nu": 0.1, "max_per_class": 200},
}


def rear_layer_indices(probe_count: int, count: int = DENSENET_REAR_LAYERS) -> list[int]:
    """Indices of the last ``count`` probeable layers."""
    count = min(count, probe_count)
    return list(range(probe_count - count, probe_count))


@dataclass
class ExperimentContext:
    """All shared artifacts for one dataset/profile pair."""

    dataset_name: str
    profile: str
    classifier: TrainedClassifier
    suite: CornerCaseSuite
    validator: DeepValidator
    clean_images: np.ndarray
    clean_labels: np.ndarray

    @property
    def model(self):
        return self.classifier.model

    @property
    def engine(self):
        """Batched scoring engine over the fitted validator.

        Every experiment table/figure scores through this rather than the
        per-sample reference path. The engine is a fresh view that reads
        the validator's layers on each call, so contexts restored from old
        artifact caches score without any rebuild step.
        """
        return self.validator.engine()

    @property
    def dataset(self):
        return self.classifier.dataset

    def validated_layer_names(self) -> list[str]:
        """Names of the probes the validator covers."""
        names = self.model.probe_names
        return [names[i] for i in self.validator.layer_indices]

    def monitor(self, **kwargs):
        """A fault-tolerant :class:`~repro.core.monitor.RuntimeMonitor`.

        The input guard is pinned to this dataset's per-image shape, so
        malformed traffic is quarantined instead of crashing the forward
        pass; breaker tuning and callbacks pass through via ``kwargs``.
        A fresh monitor is built per call — health counters and breaker
        state belong to the caller, not the cached context.
        """
        from repro.core.monitor import RuntimeMonitor
        from repro.core.resilience import InputGuard

        kwargs.setdefault(
            "guard",
            InputGuard(expected_shape=self.classifier.dataset.train_images.shape[1:]),
        )
        return RuntimeMonitor(self.validator, **kwargs)


def _build_context(
    dataset_name: str, profile: str, seed: int, cache: CheckpointStore
) -> ExperimentContext:
    """Build the context crash-safely.

    The two long stages — classifier training and Algorithm 1 fitting —
    checkpoint under ``<cache root>/.checkpoints/``: training snapshots
    every epoch, fitting journals every completed (layer, class) solve.
    A build killed partway through resumes from those on the next call
    and, because resume is bit-identical, yields exactly the artifacts of
    an uninterrupted build. Once the finished context lands in the
    artifact cache, its intermediate checkpoint state is discarded.
    """
    with obs.span("context.build", dataset=dataset_name, profile=profile):
        checkpoints = CheckpointStore(cache.root / ".checkpoints")
        with obs.span("context.train_classifier"):
            classifier = get_trained_classifier(
                dataset_name, profile, seed=seed, checkpoints=checkpoints
            )
        model = classifier.model
        dataset = classifier.dataset
        suite_params = _SUITE_PARAMS[profile]
        with obs.span("context.corner_suite"):
            suite = build_corner_case_suite(
                model, dataset, rng=seed, **suite_params
            )

        probe_count = len(model.probe_names)
        layers = None
        if dataset_name == "synth-cifar":
            # The paper validates only the rear layers of its DenseNet (IV-C).
            layers = rear_layer_indices(probe_count)
        config = ValidatorConfig(
            layers=layers, seed=seed, **_VALIDATOR_PARAMS[profile]
        )
        validator = DeepValidator(model, config)
        journal = checkpoints.journal(f"fit-{dataset_name}-{profile}-seed{seed}")
        with obs.span("context.fit_validator"):
            validator.fit(dataset.train_images, dataset.train_labels, journal=journal)
        journal.clear()  # the fitted validator lands in the artifact cache

    # Clean evaluation sample, disjoint from the corner-case seeds where
    # possible: the paper samples as many clean test images as corner cases.
    rng = new_rng(seed + 17)
    count = min(len(dataset.test_images), suite.total_corner_cases())
    chosen = rng.choice(len(dataset.test_images), size=count, replace=False)
    return ExperimentContext(
        dataset_name=dataset_name,
        profile=profile,
        classifier=classifier,
        suite=suite,
        validator=validator,
        clean_images=dataset.test_images[chosen],
        clean_labels=dataset.test_labels[chosen],
    )


def get_context(
    dataset_name: str,
    profile: str = "tiny",
    seed: int = 0,
    cache: CheckpointStore | None = None,
) -> ExperimentContext:
    """Load or build the cached experiment context."""
    cache = cache if cache is not None else default_cache()
    config = {
        "dataset": dataset_name, "profile": profile, "seed": seed, "kind": "context",
        "sources": validator_source_key(),
    }
    return cache.get_or_build(
        "context", config, lambda: _build_context(dataset_name, profile, seed, cache)
    )
