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
2. **One class grouping per chunk** — the forward pass runs in sample
   chunks of :data:`CHUNK_SIZE`, and each chunk is grouped by predicted
   class once (:func:`~repro.svm.packed.group_by_class`: the stable order,
   the classes present and their row bounds). Every layer scores the
   chunk off that shared grouping, so the transient kernel buffer of a
   layer holds at most ``CHUNK_SIZE`` rows against their own classes'
   support vectors. The forward pass's probe outputs are not bounded:
   ``hidden_representations`` materialises every chunk, so the whole
   batch's representations are held at once.

Every batch is scored afresh: runtime inputs are a stream of new images,
so there is nothing to memoise. The engine stops at per-layer
discrepancies; joining them (Eq. 3) and thresholding are the validator's
(:meth:`~repro.core.validator.DeepValidator.combine`,
:meth:`~repro.core.validator.DeepValidator.joint_discrepancy`,
:meth:`~repro.core.validator.DeepValidator.flag`), which route through
this engine.

Usage::

    engine = validator.engine()            # or ValidationEngine(validator)
    predictions, D = engine.discrepancies(images)
    d = validator.combine(D)               # Eq. 3
    predictions, D, errors = engine.discrepancies_resilient(images, skip={1})
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.svm.packed import group_by_class
from repro.utils.cache import hash_array  # noqa: F401 — perfbench wraps this name (engine.hash)

#: Samples per evaluation chunk, for both the probed forward pass and the
#: shared class grouping the per-class kernels score off.
CHUNK_SIZE = 256


def _layer_seconds():
    return obs.histogram(
        "engine_layer_score_seconds",
        help="Per-layer kernel-scoring wall time",
        labels=("layer",),
    )


class ValidationEngine:
    """Vectorised scoring facade over a fitted ``DeepValidator``.

    The engine holds only the validator and its model, and reads the
    fitted per-layer validators on every call, so it never goes stale
    across a refit and costs nothing to build. It adds speed, not policy;
    the combiner and ``epsilon`` stay on the validator.
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
        batch; a layer that raises on one chunk is not tried on the rest.
        Positions in ``skip`` (open-circuited layers) are not evaluated at
        all and also come back as NaN columns.
        """
        validators = self.validator.validators
        if not validators:
            raise RuntimeError("DeepValidator is not fitted")
        images = np.asarray(images)
        if len(images) == 0:
            predictions = np.empty(0, dtype=np.int64)
            return predictions, np.empty((0, len(validators))), {}
        with obs.span("engine.discrepancies", batch=len(images), skipped=len(skip)):
            probabilities, representations = self.model.hidden_representations(
                images, batch_size=CHUNK_SIZE
            )
            predictions = probabilities.argmax(axis=1)
            errors: dict[int, Exception] = {}
            per_layer = np.full((len(images), len(validators)), np.nan)
            seconds = _layer_seconds()
            # A numerically-broken layer (NaN/Inf representations) must
            # surface as NaN discrepancies the monitor can see, not as
            # numpy RuntimeWarnings spamming serving logs.
            with np.errstate(invalid="ignore", over="ignore"):
                for start in range(0, len(images), CHUNK_SIZE):
                    rows = slice(start, start + CHUNK_SIZE)
                    groups = group_by_class(predictions[rows])
                    for position, validator in enumerate(validators):
                        if position in skip or position in errors:
                            continue
                        name = validator.layer_name
                        try:
                            with obs.span("engine.layer_score", layer=name), obs.timed(
                                seconds.labels(layer=name)
                            ):
                                per_layer[rows, position] = validator.discrepancy_batched(
                                    representations[validator.layer_index][rows],
                                    predictions[rows],
                                    groups=groups,
                                )
                        except Exception as exc:  # noqa: BLE001 — isolation is the contract
                            obs.counter(
                                "engine_layer_failures_total",
                                help="Layer scorers that raised during resilient scoring",
                                labels=("layer",),
                            ).labels(layer=name).inc()
                            errors[position] = exc
                            per_layer[:, position] = np.nan
        return predictions, per_layer, errors

    def __repr__(self) -> str:
        return f"ValidationEngine(layers={len(self.validator.validators)})"
