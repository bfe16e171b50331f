"""Mini-batch training loop for probed classifiers.

The loop is crash-safe when given a checkpoint store: after every epoch it
snapshots the model state-dict, the optimizer's internal buffers, the
shuffling RNG's bit-state, and the report history, so a run killed at
epoch *k* and resumed with ``resume=True`` produces **bit-identical**
parameters and history to the uninterrupted run (pinned by the hypothesis
suite in ``tests/test_checkpoint_resume.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import obs
from repro.autograd.tensor import Tensor
from repro.nn.losses import cross_entropy
from repro.nn.module import Module
from repro.nn.optim import Optimizer
from repro.nn.sequential import ProbedSequential
from repro.utils.cache import CheckpointStore
from repro.utils.rng import RngLike, get_rng_state, new_rng, set_rng_state


def _epoch_seconds():
    return obs.histogram(
        "trainer_epoch_seconds", help="Wall-clock time per training epoch"
    )


@dataclass
class TrainingReport:
    """Per-epoch loss/accuracy history of one training run."""

    epoch_losses: list[float] = field(default_factory=list)
    epoch_accuracies: list[float] = field(default_factory=list)

    @property
    def final_accuracy(self) -> float:
        if not self.epoch_accuracies:
            raise ValueError("no epochs recorded")
        return self.epoch_accuracies[-1]


def _as_store(checkpoint: CheckpointStore | str | Path | None):
    """Normalise the ``checkpoint`` argument to a store object (or None);
    anything with ``save``/``load_or_none`` duck-types as a store."""
    if isinstance(checkpoint, (str, Path)):
        return CheckpointStore(checkpoint)
    return checkpoint


class Trainer:
    """Trains a classifier with mini-batch gradient descent.

    Works with any :class:`~repro.nn.sequential.ProbedSequential` (training
    on its logits) or any plain module whose forward output is logits.
    """

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        batch_size: int = 128,
        rng: RngLike = None,
    ) -> None:
        self.model = model
        self.optimizer = optimizer
        self.batch_size = batch_size
        self._rng = new_rng(rng)

    def _logits(self, batch: Tensor) -> Tensor:
        if isinstance(self.model, ProbedSequential):
            return self.model.forward_logits(batch)
        return self.model(batch)

    def _begin_epoch(self, epoch: int) -> None:
        """Fault-injection seam: called at the top of every epoch.

        A no-op in production; :func:`repro.testing.faults.crash_at_epoch`
        patches it on the instance to simulate a kill at a chosen epoch.
        """

    def _snapshot(self, epoch: int, count: int, report: TrainingReport) -> dict:
        """Everything a bit-identical resume needs, as of epoch ``epoch``."""
        return {
            "epoch": epoch,
            "count": count,
            "model": self.model.state_dict(),
            "optimizer": self.optimizer.state_dict(),
            "rng": get_rng_state(self._rng),
            "losses": list(report.epoch_losses),
            "accuracies": list(report.epoch_accuracies),
        }

    def _restore(self, snapshot: dict, count: int) -> TrainingReport:
        """Load a snapshot back into model/optimizer/RNG; returns the report."""
        if snapshot["count"] != count:
            raise ValueError(
                f"checkpoint was taken on {snapshot['count']} training images, "
                f"cannot resume on {count}"
            )
        self.model.load_state_dict(snapshot["model"])
        self.optimizer.load_state_dict(snapshot["optimizer"])
        set_rng_state(self._rng, snapshot["rng"])
        return TrainingReport(
            epoch_losses=list(snapshot["losses"]),
            epoch_accuracies=list(snapshot["accuracies"]),
        )

    def fit(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        epochs: int,
        verbose: bool = False,
        checkpoint: CheckpointStore | str | Path | None = None,
        checkpoint_name: str = "trainer",
        resume: bool = False,
    ) -> TrainingReport:
        """Train for ``epochs`` passes over ``(images, labels)``.

        With ``checkpoint`` (a :class:`~repro.utils.cache.CheckpointStore`
        or a directory path), every completed epoch is snapshotted
        atomically under ``checkpoint_name``. With ``resume=True``, a
        snapshot found in the store restores the model, optimizer buffers,
        RNG bit-state, and report history, and training continues from the
        next epoch — exactly reproducing the uninterrupted run. A corrupt
        or missing snapshot starts fresh; a snapshot taken on a different
        dataset size is rejected. When nothing is left to train (``epochs``
        already covered by the snapshot, or ``epochs=0``), the restored —
        or, without a snapshot, empty — history is returned as-is.
        """
        if len(images) != len(labels):
            raise ValueError("images and labels must have equal length")
        count = len(images)
        if count == 0:
            raise ValueError(
                "cannot train on an empty dataset (0 images); an epoch would "
                "average a loss over no batches"
            )
        store = _as_store(checkpoint)
        if resume and store is None:
            raise ValueError("resume=True requires a checkpoint store")
        report = TrainingReport()
        start_epoch = 0
        if resume:
            snapshot = store.load_or_none(checkpoint_name)
            if snapshot is not None:
                report = self._restore(snapshot, count)
                start_epoch = snapshot["epoch"] + 1
        # No epochs left to run (epochs=0, or the snapshot already covers
        # the request): return whatever history exists — restored or empty
        # — without touching model/optimizer state further.
        if start_epoch >= epochs:
            return report
        for epoch in range(start_epoch, epochs):
            with obs.span("trainer.epoch", epoch=epoch), obs.timed(_epoch_seconds()):
                self._begin_epoch(epoch)
                self.model.train()
                order = self._rng.permutation(count)
                losses: list[float] = []
                correct = 0
                for start in range(0, count, self.batch_size):
                    idx = order[start : start + self.batch_size]
                    batch = Tensor(images[idx].astype(np.float32, copy=False))
                    batch_labels = labels[idx]
                    self.optimizer.zero_grad()
                    logits = self._logits(batch)
                    loss = cross_entropy(logits, batch_labels)
                    loss.backward()
                    self.optimizer.step()
                    losses.append(loss.item())
                    correct += int((logits.data.argmax(axis=1) == batch_labels).sum())
                report.epoch_losses.append(float(np.mean(losses)))
                report.epoch_accuracies.append(correct / count)
            obs.counter(
                "trainer_epochs_total", help="Completed training epochs"
            ).inc()
            if store is not None:
                store.save(checkpoint_name, self._snapshot(epoch, count, report))
            if verbose:
                print(
                    f"epoch {epoch + 1}/{epochs}: "
                    f"loss={report.epoch_losses[-1]:.4f} "
                    f"acc={report.epoch_accuracies[-1]:.4f}"
                )
        return report

    def evaluate(self, images: np.ndarray, labels: np.ndarray) -> float:
        """Accuracy on a held-out set."""
        if isinstance(self.model, ProbedSequential):
            predictions = self.model.predict(images)
        else:
            self.model.eval()
            from repro.autograd.tensor import no_grad

            with no_grad():
                predictions = self.model(Tensor(images)).data.argmax(axis=1)
        return float((predictions == labels).mean())
