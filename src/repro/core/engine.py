"""The batched validation engine: Deep Validation's production hot path.

:class:`ValidationEngine` wraps a fitted :class:`~repro.core.validator.DeepValidator`
and reroutes Algorithm 2 through two optimisations, neither of which changes
the scores (the differential harness pins agreement with the per-sample
reference at 1e-8):

1. **Packed per-class SVMs** — each validated layer's per-class one-class
   SVMs, with their per-class standardisation, are folded into a
   :class:`~repro.svm.packed.PackedClassSVMs`, so a minibatch is grouped
   by predicted label and each group is scored against its own class's
   support vectors with one matrix product — no scaler pass and no
   per-image round trip for batch-size-1 monitoring traffic.
2. **Chunked evaluation** — the forward pass and every kernel block are
   evaluated in sample chunks of :data:`CHUNK_SIZE`, bounding transient
   memory to ``CHUNK_SIZE x support_vectors_of_one_class`` floats
   regardless of how large a batch callers throw at it.

Every batch is scored afresh: runtime inputs are a stream of new images,
so there is nothing to memoise.

Usage::

    engine = validator.engine()            # kept on the validator
    predictions, D = engine.discrepancies(images)
    d = engine.joint_discrepancy(images)   # Eq. 3 via the batched path
    flags = engine.flag(images)            # d > validator.epsilon
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.utils.cache import hash_array  # noqa: F401 — perfbench wraps this name (engine.hash)

#: Samples per evaluation chunk, for both the probed forward pass and the
#: per-class kernel blocks.
CHUNK_SIZE = 256


def _layer_seconds():
    return obs.histogram(
        "engine_layer_score_seconds",
        help="Per-layer kernel-scoring wall time",
        labels=("layer",),
    )


class ValidationEngine:
    """Vectorised scoring facade over a fitted ``DeepValidator``.

    The engine shares the validator's model, per-layer validators,
    combiner config, and ``epsilon`` — it adds speed, not policy.
    """

    def __init__(self, validator) -> None:
        self.validator = validator
        self.model = validator.model

    # -- scoring ---------------------------------------------------------------

    def discrepancies(self, images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batched Algorithm 2: ``(predictions, D)`` for a batch of images.

        An empty batch short-circuits to ``(0,)``/``(0, L)`` results
        without touching the model — serving paths see ``n=0`` windows
        whenever every input of a batch was quarantined upstream. A layer
        scorer that raises re-raises here (the first failing layer's
        error) once every layer has been tried.
        """
        predictions, per_layer, errors = self.discrepancies_resilient(images)
        if errors:
            raise next(iter(errors.values()))
        return predictions, per_layer

    def discrepancies_resilient(
        self, images: np.ndarray, skip: frozenset[int] | set[int] = frozenset()
    ) -> tuple[np.ndarray, np.ndarray, dict[int, Exception]]:
        """Per-layer-isolated Algorithm 2: ``(predictions, D, layer_errors)``.

        The fault-tolerant form of :meth:`discrepancies` used by
        :class:`~repro.core.monitor.RuntimeMonitor`: each layer validator
        is scored inside its own try/except, so one broken scorer yields a
        NaN column and an entry in ``layer_errors`` (keyed by layer
        *position* in the validated-layer list) instead of aborting the
        batch. Positions in ``skip`` (open-circuited layers) are not
        evaluated at all and also come back as NaN columns.
        """
        if not self.validator.validators:
            raise RuntimeError("DeepValidator is not fitted")
        images = np.asarray(images)
        if len(images) == 0:
            predictions = np.empty(0, dtype=np.int64)
            return predictions, np.empty((0, len(self.validator.validators))), {}
        with obs.span("engine.discrepancies", batch=len(images), skipped=len(skip)):
            probabilities, representations = self.model.hidden_representations(
                images, batch_size=CHUNK_SIZE
            )
            predictions = probabilities.argmax(axis=1)
            errors: dict[int, Exception] = {}
            columns = []
            for position, validator in enumerate(self.validator.validators):
                if position in skip:
                    columns.append(np.full(len(images), np.nan))
                    continue
                name = validator.layer_name
                try:
                    # A numerically-broken layer (NaN/Inf representations)
                    # must surface as NaN discrepancies the monitor can see,
                    # not as numpy RuntimeWarnings spamming serving logs.
                    with np.errstate(invalid="ignore", over="ignore"), obs.span(
                        "engine.layer_score", layer=name
                    ), obs.timed(_layer_seconds().labels(layer=name)):
                        columns.append(
                            validator.discrepancy_batched(
                                representations[validator.layer_index],
                                predictions,
                                chunk_size=CHUNK_SIZE,
                            )
                        )
                except Exception as exc:  # noqa: BLE001 — isolation is the contract
                    obs.counter(
                        "engine_layer_failures_total",
                        help="Layer scorers that raised during resilient scoring",
                        labels=("layer",),
                    ).labels(layer=name).inc()
                    errors[position] = exc
                    columns.append(np.full(len(images), np.nan))
            per_layer = np.stack(columns, axis=1)
        return predictions, per_layer, errors

    def joint_discrepancy(self, images: np.ndarray) -> np.ndarray:
        """The joint discrepancy ``d`` (Eq. 3) via the batched path."""
        _, per_layer = self.discrepancies(images)
        return self.validator.combine(per_layer)

    def flag(self, images: np.ndarray) -> np.ndarray:
        """Boolean mask of images whose joint discrepancy exceeds epsilon."""
        return self.joint_discrepancy(images) > self.validator.epsilon

    def __repr__(self) -> str:
        return f"ValidationEngine(layers={len(self.validator.validators)})"
