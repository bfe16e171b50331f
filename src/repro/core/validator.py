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

from repro.nn.sequential import ProbedSequential
from repro.svm.oneclass import OneClassSVM
from repro.svm.packed import PackedClassSVMs, pack_class_svms
from repro.svm.scaler import StandardScaler
from repro.utils.rng import RngLike, new_rng

#: Sentinel distinguishing "pack not yet attempted" from "unpackable".
_PACK_UNSET = object()


@dataclass
class ValidatorConfig:
    """Hyper-parameters shared by every per-layer validator.

    ``nu`` bounds the training-outlier fraction of each one-class SVM;
    ``max_per_class`` subsamples each (layer, class) representation set to
    keep kernel matrices laptop-sized; ``layers`` restricts validation to a
    subset of probe indices (``None`` validates every hidden layer —
    rear-layer policies pass an explicit list); ``combiner`` selects how
    per-layer discrepancies join (the paper uses the unweighted ``"sum"``).

    ``filter_misclassified`` and ``per_class`` exist for ablations: the
    paper's Algorithm 1 both drops misclassified training images (line 2)
    and segments reference distributions by class; disabling either
    reproduces the degraded variants the paper argues against.

    ``n_jobs`` dispatches the independent (layer, class) SMO solves of
    Algorithm 1 over a worker pool (``-1`` = every usable core); the fitted
    validator is bit-identical for any worker count, so this is purely a
    wall-clock knob. See :mod:`repro.core.fitting`.
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
    n_jobs: int = 1

    def __post_init__(self) -> None:
        if self.combiner not in {"sum", "mean", "max", "last"}:
            raise ValueError(
                f"combiner must be sum/mean/max/last, got {self.combiner!r}"
            )
        if self.n_jobs != -1 and self.n_jobs < 1:
            raise ValueError(f"n_jobs must be -1 or >= 1, got {self.n_jobs}")


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
        self._scalers: dict[int, StandardScaler] = {}

    @property
    def classes(self) -> list[int]:
        return sorted(self._svms)

    def fit(
        self,
        representations: np.ndarray,
        labels: np.ndarray,
        rng: RngLike = None,
    ) -> "LayerValidator":
        """Fit one one-class SVM per class present in ``labels``."""
        representations = np.asarray(representations, dtype=np.float64)
        labels = np.asarray(labels)
        if len(representations) != len(labels):
            raise ValueError("representations and labels must have equal length")
        self.__dict__.pop("_pack", None)  # refitting invalidates the packed scorer
        # Refitting replaces the class set wholesale: SVMs for classes absent
        # from the new labels must not survive into ``classes`` or pickles.
        self._svms = {}
        self._scalers = {}
        if not self.config.per_class:
            # Ablation: one class-agnostic reference distribution per layer.
            labels = np.zeros(len(labels), dtype=np.int64)
        gen = new_rng(rng if rng is not None else self.config.seed)
        for klass in np.unique(labels):
            rows = np.flatnonzero(labels == klass)
            if len(rows) < 2:
                raise ValueError(
                    f"class {klass} has only {len(rows)} correctly classified "
                    "training images; cannot fit its reference distribution"
                )
            if len(rows) > self.config.max_per_class:
                rows = gen.choice(rows, size=self.config.max_per_class, replace=False)
            features = representations[rows]
            if self.config.standardize:
                scaler = StandardScaler().fit(features)
                self._scalers[int(klass)] = scaler
                features = scaler.transform(features)
            svm = OneClassSVM(
                nu=self.config.nu, kernel=self.config.kernel, gamma=self.config.gamma
            )
            self._svms[int(klass)] = svm.fit(features)
        return self

    def install(
        self, klass: int, svm: OneClassSVM, scaler: StandardScaler | None = None
    ) -> None:
        """Install one class's fitted pieces (the fitting pipeline's entry).

        :mod:`repro.core.fitting` solves (layer, class) tasks out of line
        and assembles validators through this rather than :meth:`fit`;
        installing invalidates any cached packed scorer.
        """
        self.__dict__.pop("_pack", None)
        self._svms[int(klass)] = svm
        if scaler is not None:
            self._scalers[int(klass)] = scaler

    def discrepancy(self, representations: np.ndarray, predicted: np.ndarray) -> np.ndarray:
        """Per-sample discrepancy ``d_i = -t_i^{y'}(f_i(x))`` (Eq. 2)."""
        if not self._svms:
            raise RuntimeError("LayerValidator is not fitted")
        representations = np.asarray(representations, dtype=np.float64)
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
            features = representations[rows]
            if self.config.standardize:
                features = self._scalers[klass].transform(features)
            values[rows] = -self._svms[klass].signed_distance(features)
        return values

    # -- batched scoring -------------------------------------------------------

    def packed(self) -> PackedClassSVMs | None:
        """The packed scorer for this layer, or ``None`` if unpackable.

        Built lazily from the fitted per-class SVMs and cached on the
        instance; dropped on refit and excluded from pickles (old cached
        validators re-pack transparently on first batched call). Custom
        kernel objects the packer does not understand yield ``None`` and
        the batched path falls back to the reference loop.
        """
        if not self._svms:
            raise RuntimeError("LayerValidator is not fitted")
        pack = self.__dict__.get("_pack", _PACK_UNSET)
        if pack is _PACK_UNSET:
            try:
                pack = pack_class_svms(
                    self._svms, self._scalers if self.config.standardize else None
                )
            except ValueError:
                pack = None
            self.__dict__["_pack"] = pack
        return pack

    def discrepancy_batched(
        self,
        representations: np.ndarray,
        predicted: np.ndarray,
        chunk_size: int | None = None,
    ) -> np.ndarray:
        """Per-sample discrepancy via the packed per-class scorer.

        Numerically equivalent to :meth:`discrepancy` (the differential
        harness pins agreement at 1e-8): the same one kernel block per
        predicted-class group, with per-class standardisation folded into
        the packed rows. ``chunk_size`` bounds the transient kernel block's
        row count.
        """
        pack = self.packed()
        if pack is None:
            return self.discrepancy(representations, predicted)
        predicted = np.asarray(predicted)
        if not self.config.per_class:
            predicted = np.zeros(len(predicted), dtype=np.int64)
        try:
            return pack.discrepancy(representations, predicted, chunk_size=chunk_size)
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

        Runs the memory-bounded pipeline of :mod:`repro.core.fitting`:
        representations are extracted in ``chunk_size`` batches (only the
        subsampled training rows are retained per layer) and the
        independent (layer, class) solves are dispatched over
        ``config.n_jobs`` workers. The fitted validator is bit-identical
        for any ``n_jobs``. ``journal`` (a
        :class:`~repro.core.checkpoint.TaskJournal`) makes the solve stage
        crash-safe: completed (layer, class) solutions are flushed as they
        land and replayed on a rerun of the same data and config.
        """
        from repro.core.fitting import fit_deep_validator

        self.__dict__.pop("_engine", None)  # refitting invalidates the engine
        # A refit reports only its own run: stale layer lists and image
        # counts from a previous fit must not accumulate.
        self.fit_summary = _FitSummary()
        train_labels = np.asarray(train_labels)
        predictions = self.model.predict(train_images, batch_size=chunk_size)
        keep = predictions == train_labels
        self.fit_summary.total_training_images = len(train_images)
        self.fit_summary.correctly_classified = int(keep.sum())
        if not self.config.filter_misclassified:
            # Ablation: skip Algorithm 1 line 2 and keep every image.
            keep = np.ones(len(train_images), dtype=bool)
        images = train_images[keep]
        labels = train_labels[keep]

        self.validators = fit_deep_validator(
            self.model,
            images,
            labels,
            self.layer_indices,
            self.config,
            chunk_size=chunk_size,
            n_jobs=getattr(self.config, "n_jobs", 1),
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

    def combine(self, per_layer: np.ndarray) -> np.ndarray:
        """Join per-layer discrepancies into a single score per sample."""
        if self.config.weights is not None:
            per_layer = per_layer * np.asarray(self.config.weights)[None, :]
        if self.config.combiner == "sum":
            return per_layer.sum(axis=1)
        if self.config.combiner == "mean":
            return per_layer.mean(axis=1)
        if self.config.combiner == "max":
            return per_layer.max(axis=1)
        return per_layer[:, -1]  # "last"

    # -- deployment ------------------------------------------------------------

    def engine(self):
        """The batched :class:`~repro.core.engine.ValidationEngine` view.

        Built lazily, kept on the instance, dropped on refit and excluded
        from pickles — validators restored from old artifact caches grow an
        engine transparently on first use.
        """
        from repro.core.engine import ValidationEngine

        engine = self.__dict__.get("_engine")
        if engine is None:
            engine = self.__dict__["_engine"] = ValidationEngine(self)
        return engine

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_engine", None)
        return state

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
        layer validator is skipped (see
        :class:`~repro.core.resilience.DegradedScorer`).
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
