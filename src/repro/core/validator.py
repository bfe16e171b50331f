"""Layer validators and the joint Deep Validation detector.

Implements Algorithm 1 (one-class SVM training over correctly classified
training images, per layer per class) and Algorithm 2 (discrepancy
estimation for a test image), including the paper's DenseNet policy of
validating only the rear layers (Section IV-C) and the joint combination of
per-layer discrepancies (Eq. 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import fitting
from repro.core.engine import ValidationEngine
from repro.nn.sequential import ProbedSequential
from repro.svm.oneclass import OneClassSVM
from repro.svm.packed import ClassGroups, PackedClassSVMs, group_by_class, pack_class_svms
from repro.utils.rng import RngLike, new_rng


@dataclass
class ValidatorConfig:
    """Hyper-parameters shared by every per-layer validator.

    ``nu`` bounds the training-outlier fraction of each one-class SVM;
    ``max_per_class`` caps each (layer, class) training set to keep kernel
    matrices laptop-sized: a larger class trains on its ``max_per_class``
    rows with the smallest seeded keys (bottom-k, one key stream per layer
    position from ``seed + position``), in ascending row order, and a
    class at or under the cap keeps every row; ``layers`` restricts
    validation to a subset of probe indices (``None`` validates every
    hidden layer — rear-layer policies pass an explicit list);
    ``kernel`` names the one-class SVM kernel (``"rbf"``, ``"linear"`` or
    ``"poly"``); ``combiner`` selects how per-layer discrepancies join
    (the paper uses the unweighted ``"sum"``).

    ``filter_misclassified`` and ``per_class`` exist for ablations: the
    paper's Algorithm 1 both drops misclassified training images (line 2)
    and segments reference distributions by class; disabling either
    reproduces the degraded variants the paper argues against.
    """

    nu: float = 0.1
    kernel: str = "rbf"
    gamma: float | None = None
    max_per_class: int = 200
    layers: list[int] | None = None
    combiner: str = "sum"
    weights: list[float] | None = None
    standardize: bool = True
    filter_misclassified: bool = True
    per_class: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kernel not in ("rbf", "linear", "poly"):
            raise ValueError(f"kernel must be rbf/linear/poly, got {self.kernel!r}")
        if self.combiner not in {"sum", "mean", "max", "last"}:
            raise ValueError(
                f"combiner must be sum/mean/max/last, got {self.combiner!r}"
            )


class LayerValidator:
    """The paper's "single validator": all per-class SVMs of one layer.

    Fitted on the flattened hidden representations of correctly classified
    training images, grouped by true label. At test time the representation
    of each image is scored against the SVM of the *predicted* label and the
    signed distance is negated (Eq. 2), so positive discrepancy means
    outlier.
    """

    def __init__(self, layer_index: int, layer_name: str, config: ValidatorConfig) -> None:
        self.layer_index = layer_index
        self.layer_name = layer_name
        self.config = config
        self._svms: dict[int, OneClassSVM] = {}

    @property
    def classes(self) -> list[int]:
        return sorted(self._svms)

    def fit(
        self,
        representations: np.ndarray,
        labels: np.ndarray,
        rng: RngLike = None,
    ) -> "LayerValidator":
        """Fit one one-class SVM per class present in ``labels``.

        A class with more than ``max_per_class`` rows trains on the rows
        with the smallest keys of ``rng.random(len(labels))``, in ascending
        row order (:func:`~repro.core.fitting.bottom_k`). Each class is
        fitted by the pipeline's own per-task solve, which converts only
        the selected rows to float64.
        """
        representations = np.asarray(representations)
        labels = np.asarray(labels)
        if len(representations) != len(labels):
            raise ValueError("representations and labels must have equal length")
        self.__dict__.pop("_pack", None)  # refitting invalidates the packed scorer
        # Refitting replaces the class set wholesale: SVMs for classes absent
        # from the new labels must not survive into ``classes`` or pickles.
        self._svms = {}
        if not self.config.per_class:
            # Ablation: one class-agnostic reference distribution per layer.
            labels = np.zeros(len(labels), dtype=np.int64)
        keys = new_rng(rng if rng is not None else self.config.seed).random(len(labels))
        cfg = fitting._solve_config(self.config)
        for klass in np.unique(labels):
            rows = np.flatnonzero(labels == klass)
            if len(rows) < 2:
                raise ValueError(
                    f"class {klass} has only {len(rows)} correctly classified "
                    "training images; cannot fit its reference distribution"
                )
            rows = rows[fitting.bottom_k(keys[rows], self.config.max_per_class)]
            self.install(klass, fitting._solve_fit_task(representations[rows], cfg).svm)
        return self

    def install(self, klass: int, svm: OneClassSVM) -> None:
        """Install one class's fitted SVM (which holds its own scaler).

        Both :meth:`fit` and the :mod:`repro.core.fitting` pipeline
        assemble validators through this; installing invalidates any
        cached packed scorer.
        """
        self.__dict__.pop("_pack", None)
        self._svms[int(klass)] = svm

    def discrepancy(self, representations: np.ndarray, predicted: np.ndarray) -> np.ndarray:
        """Per-sample discrepancy ``d_i = -t_i^{y'}(f_i(x))`` (Eq. 2)."""
        if not self._svms:
            raise RuntimeError("LayerValidator is not fitted")
        representations = np.asarray(representations)
        predicted = np.asarray(predicted)
        if not self.config.per_class:
            predicted = np.zeros(len(predicted), dtype=np.int64)
        values = np.empty(len(representations))
        classes = [int(klass) for klass in np.unique(predicted)]
        # Check every label before scoring any group, as the packed path does.
        for klass in classes:
            if klass not in self._svms:
                raise KeyError(
                    f"no reference SVM for predicted class {klass} in layer "
                    f"{self.layer_name!r}"
                )
        for klass in classes:
            rows = np.flatnonzero(predicted == klass)
            values[rows] = -self._svms[klass].signed_distance(representations[rows])
        return values

    # -- batched scoring -------------------------------------------------------

    def packed(self) -> PackedClassSVMs:
        """The packed scorer for this layer.

        Built lazily from the fitted per-class SVMs and cached on the
        instance; dropped on refit and excluded from pickles (old cached
        validators re-pack transparently on first batched call).
        """
        if not self._svms:
            raise RuntimeError("LayerValidator is not fitted")
        pack = self.__dict__.get("_pack")
        if pack is None:
            pack = self.__dict__["_pack"] = pack_class_svms(self._svms)
        return pack

    def discrepancy_batched(
        self,
        representations: np.ndarray,
        predicted: np.ndarray,
        groups: ClassGroups | None = None,
    ) -> np.ndarray:
        """Per-sample discrepancy via the packed per-class scorer.

        Numerically equivalent to :meth:`discrepancy` (the differential
        harness pins agreement at 1e-8): the same one kernel block per
        predicted-class group, with per-class standardisation folded into
        the packed rows. The rows are scored as one chunk. ``groups`` is
        :func:`~repro.svm.packed.group_by_class` of ``predicted``, which
        the engine builds once per chunk and shares across layers; without
        it the rows are grouped here. A class-agnostic layer
        (``per_class=False``) ignores it and scores every row as class 0.
        """
        pack = self.packed()
        representations = np.asarray(representations)
        if not self.config.per_class:
            rows = len(representations)
            groups = ClassGroups(np.arange(rows), np.zeros(1, dtype=np.int64), (0, rows))
        elif groups is None:
            groups = group_by_class(predicted)
        try:
            return pack.score_groups(representations, groups)
        except KeyError as exc:
            raise KeyError(
                f"{exc.args[0]} in layer {self.layer_name!r}"
            ) from None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_pack", None)
        return state


@dataclass
class _FitSummary:
    """Bookkeeping from Algorithm 1's data-filtering step."""

    total_training_images: int = 0
    correctly_classified: int = 0
    layers_fitted: list[str] = field(default_factory=list)


class DeepValidator:
    """The joint validator: Deep Validation as deployed (Figure 1).

    Usage::

        validator = DeepValidator(model, ValidatorConfig())
        validator.fit(train_images, train_labels)
        d = validator.joint_discrepancy(test_images)   # Eq. 3
        flags = validator.flag(test_images)            # d > epsilon

    ``config.layers`` selects which probes to validate (e.g. the rear six
    layers of a DenseNet); ``epsilon`` defaults to 0 until calibrated with
    :meth:`calibrate_threshold` or set directly.
    """

    def __init__(self, model: ProbedSequential, config: ValidatorConfig | None = None) -> None:
        self.model = model
        self.config = config if config is not None else ValidatorConfig()
        probe_count = len(model.probe_names)
        if self.config.layers is None:
            self.layer_indices = list(range(probe_count))
        else:
            bad = [i for i in self.config.layers if not 0 <= i < probe_count]
            if bad:
                raise ValueError(
                    f"layer indices {bad} out of range for {probe_count} probes"
                )
            self.layer_indices = list(self.config.layers)
        if self.config.weights is not None and len(self.config.weights) != len(
            self.layer_indices
        ):
            raise ValueError(
                "weights must match the number of validated layers "
                f"({len(self.layer_indices)}), got {len(self.config.weights)}"
            )
        self.validators: list[LayerValidator] = []
        self.epsilon: float = 0.0
        #: Mean |weighted per-layer discrepancy| from calibration; consumed
        #: by degraded-mode rescaling. ``None`` until calibrated.
        self.layer_contributions: np.ndarray | None = None
        self.fit_summary = _FitSummary()

    # -- Algorithm 1 -----------------------------------------------------------

    def fit(
        self,
        train_images: np.ndarray,
        train_labels: np.ndarray,
        chunk_size: int = 256,
        journal=None,
    ) -> "DeepValidator":
        """Fit per-layer validators on correctly classified training images.

        Runs the memory-bounded pipeline of :mod:`repro.core.fitting`: one
        streamed forward pass over ``train_images`` in ``chunk_size``
        batches drops the misclassified images (Algorithm 1, line 2) and
        keeps at most ``max_per_class`` sampled rows per (layer, class);
        the independent (layer, class) solves then run in-process. The
        fitted validator is bit-identical to per-layer
        ``LayerValidator.fit`` on the same kept rows of the same forward.
        ``journal`` (a
        :class:`~repro.utils.cache.TaskJournal`) makes the solve stage
        crash-safe: completed (layer, class) solutions are flushed as they
        land and replayed on a rerun of the same data and config.
        """
        # A refit reports only its own run: stale layer lists and image
        # counts from a previous fit must not accumulate.
        self.fit_summary = _FitSummary(total_training_images=len(train_images))
        self.validators, self.fit_summary.correctly_classified = fitting.fit_deep_validator(
            self.model,
            train_images,
            train_labels,
            self.layer_indices,
            self.config,
            chunk_size=chunk_size,
            journal=journal,
        )
        probe_names = self.model.probe_names
        self.fit_summary.layers_fitted = [
            probe_names[layer_index] for layer_index in self.layer_indices
        ]
        return self

    def _check_fitted(self) -> None:
        if not self.validators:
            raise RuntimeError("DeepValidator is not fitted")

    # -- Algorithm 2 -----------------------------------------------------------

    def discrepancies(self, images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-layer discrepancies for a batch (reference path).

        Returns ``(predictions, D)`` with ``D`` of shape
        ``(len(images), len(validated layers))``.

        This is the paper-faithful per-class-loop implementation and the
        ground truth the differential test harness checks the batched
        engine against; hot callers should go through :meth:`engine`
        instead.
        """
        self._check_fitted()
        images = np.asarray(images)
        if len(images) == 0:
            # Mirror the engine's empty-batch short-circuit so the two
            # paths agree on n=0 without touching the model.
            return np.empty(0, dtype=np.int64), np.empty((0, len(self.validators)))
        probabilities, representations = self.model.hidden_representations(images)
        predictions = probabilities.argmax(axis=1)
        columns = [
            validator.discrepancy(representations[validator.layer_index], predictions)
            for validator in self.validators
        ]
        return predictions, np.stack(columns, axis=1)

    def joint_discrepancy(self, images: np.ndarray) -> np.ndarray:
        """The joint discrepancy ``d`` (Eq. 3, or the configured combiner).

        Routed through the batched :meth:`engine`; :meth:`discrepancies`
        remains the paper-faithful per-class reference path (the
        differential harness pins the two at 1e-8).
        """
        _, per_layer = self.engine().discrepancies(images)
        return self.combine(per_layer)

    def combine(
        self, per_layer: np.ndarray, skipped: frozenset[int] | set[int] = frozenset()
    ) -> np.ndarray:
        """Join per-layer discrepancies into a single score per sample.

        ``skipped`` holds layer positions (indices into ``validators``)
        left out of the join — degraded-mode scoring, when a layer
        validator failed or is open-circuited. Their columns are ignored,
        so NaN placeholders never leak into the score. The ``"sum"``
        combiner then rescales the surviving sum by the calibrated
        contribution ratio ``total / active`` (uniform contributions when
        none are recorded), which keeps it commensurable with the
        unchanged ``epsilon``; ``"mean"``/``"max"`` join the active
        columns and ``"last"`` takes the rearmost active layer. With no
        layer active the score is NaN. An empty ``skipped`` is the
        ordinary Eq. 3 join.
        """
        weights = self.config.weights
        scale = None
        if skipped:
            n_layers = per_layer.shape[1]
            active = np.array(
                [i for i in range(n_layers) if i not in skipped], dtype=np.intp
            )
            if len(active) == 0:
                return np.full(len(per_layer), np.nan)
            per_layer = per_layer[:, active]
            if weights is not None:
                weights = np.asarray(weights)[active]
            if self.config.combiner == "sum":
                contributions = self._contributions()
                active_total = contributions[active].sum()
                scale = (
                    contributions.sum() / active_total
                    if active_total > 0
                    else n_layers / len(active)
                )
        if weights is not None:
            per_layer = per_layer * np.asarray(weights)[None, :]
        if self.config.combiner == "sum":
            joint = per_layer.sum(axis=1)
            return joint if scale is None else joint * scale
        if self.config.combiner == "mean":
            return per_layer.mean(axis=1)
        if self.config.combiner == "max":
            return per_layer.max(axis=1)
        return per_layer[:, -1]  # "last"

    def _contributions(self) -> np.ndarray:
        """Calibrated per-layer contributions, uniform when none are usable."""
        n_layers = len(self.layer_indices)
        recorded = getattr(self, "layer_contributions", None)
        if recorded is not None and len(recorded) == n_layers:
            recorded = np.asarray(recorded, dtype=np.float64)
            if np.all(np.isfinite(recorded)) and recorded.sum() > 0:
                return recorded
        return np.ones(n_layers)

    # -- deployment ------------------------------------------------------------

    def engine(self) -> ValidationEngine:
        """A batched :class:`~repro.core.engine.ValidationEngine` view.

        The engine holds only this validator and its model and reads the
        fitted layers on every call, so a fresh view is as good as a kept
        one.
        """
        return ValidationEngine(self)

    def calibrate_threshold(
        self, clean_images: np.ndarray, corner_images: np.ndarray
    ) -> float:
        """Set ``epsilon`` to the midpoint of the two score centroids.

        The paper's recommendation (Section IV-D3): the centre between the
        centroid of legitimate-image discrepancies and the centroid of
        corner-case discrepancies trades off TPR against FPR. Scores come
        from the batched engine.

        Calibration also records ``layer_contributions`` — the mean
        absolute weighted per-layer discrepancy over both calibration sets
        — which degraded-mode scoring uses to rescale the joint sum when a
        layer validator is skipped (see :meth:`combine`).
        """
        from repro.core.thresholds import centroid_threshold

        engine = self.engine()
        _, clean_per_layer = engine.discrepancies(clean_images)
        _, corner_per_layer = engine.discrepancies(corner_images)
        stacked = np.concatenate([clean_per_layer, corner_per_layer], axis=0)
        if self.config.weights is not None:
            stacked = stacked * np.asarray(self.config.weights)[None, :]
        self.layer_contributions = np.abs(stacked).mean(axis=0)
        clean = self.combine(clean_per_layer)
        corner = self.combine(corner_per_layer)
        self.epsilon = centroid_threshold(clean, corner)
        return self.epsilon

    def flag(self, images: np.ndarray) -> np.ndarray:
        """Boolean mask of images whose joint discrepancy exceeds epsilon.

        Engine-routed like :meth:`joint_discrepancy`.
        """
        return self.joint_discrepancy(images) > self.epsilon
