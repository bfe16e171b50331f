"""Memory-bounded fitting pipeline for Algorithm 1.

This module runs ``DeepValidator.fit`` in two stages:

1. **One streamed extraction** — :func:`extract_task_features` walks the
   whole training draw once through
   :meth:`ProbedSequential.iter_hidden_representations` in ``chunk_size``
   batches. Each chunk's probabilities give Algorithm 1's line-2 filter
   (misclassified images are dropped), and each kept row goes straight
   into a bounded per-``(layer, class)`` sample. Sampling is bottom-k:
   kept row ``j`` carries the key ``new_rng(seed + layer position)
   .random(n)[j]``, and a task trains on the ``max_per_class`` rows of
   its class with the smallest keys, in ascending row order
   (:func:`bottom_k`, which ``LayerValidator.fit`` shares). A sample
   never holds more than ``max_per_class`` rows, so peak transient memory
   is ``chunk_size x widest layer`` plus the (``classes x
   max_per_class``)-row buffers — never the full draw's activations.
2. **Solving** — :func:`solve_tasks` runs the independent ``(layer, class)``
   solves (scaler stats, Gram matrix, SMO) in-process, in sorted key order.
   Each goes through :func:`_solve_fit_task`, the one function that fits a
   task's SVM; ``LayerValidator.fit`` calls it too, so the
   assembled validator is bit-identical to the per-layer reference path
   fitted on the same rows.

Stage 2 is also the pipeline's recovery point. Given a ``journal``
(:class:`~repro.utils.cache.TaskJournal`), every fitted SVM is flushed
to disk as it lands; a rerun replays the journal and solves only the
missing tasks, so a crash at task 97/100 costs three solves, not a
hundred. Replayed and freshly-solved tasks are bit-identical
— both ran the same :func:`_solve_fit_task` math. The journal's header
frame fingerprints the record format, the solve config and the task
features, so a stale journal under a reused name, or one written in an
older record format, is discarded, never merged.

The determinism contract (pipeline ≡ per-layer ``LayerValidator.fit`` ≡
interrupted + resumed) is pinned by the hypothesis suites in
``tests/test_fitting_determinism.py`` and ``tests/test_checkpoint_resume.py``.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple

import numpy as np

from repro import obs
from repro.svm.oneclass import OneClassSVM
from repro.utils.cache import hash_array
from repro.utils.rng import new_rng


def _tasks_counter():
    return obs.counter(
        "fit_tasks_total",
        help="Completed (layer, class) solves by execution mode",
        labels=("mode",),
    )


#: What a journal record holds, ``(key, TaskFit)``; part of the journal
#: fingerprint, so a journal of another record format is cleared, never
#: replayed.
_RECORD_FORMAT = "TaskFit/3"


class TaskFit(NamedTuple):
    """One ``(layer, class)`` task's fitted SVM, which holds its own
    scaler: what :func:`solve_tasks` returns per key and what the journal
    records."""

    svm: OneClassSVM

    @property
    def iterations(self) -> int:
        """SMO iterations the solve took."""
        return self.svm.result_.iterations


# -- stage 1: filtering, sampling and gathering in one pass -------------------


def bottom_k(keys: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` smallest ``keys``, in ascending position order.

    Algorithm 1's subsample of one class: every row carries a seeded
    uniform key and the ``k`` rows with the smallest keys are kept, ties
    going to the earlier row. With ``k`` or fewer keys every position is
    kept. ``LayerValidator.fit`` and the streamed pipeline both select
    through this, so they train on the same rows in the same order.
    """
    if len(keys) <= k:
        return np.arange(len(keys))
    return np.sort(np.argsort(keys, kind="stable")[:k])


class _TaskSample:
    """One task's bottom-k rows so far, held in at most ``k`` buffer rows.

    ``rows`` are kept-row ids in ascending order and ``slots`` the buffer
    row each one's features sit in. A row that enters takes the slot of
    the row it evicts, so the buffer never grows past ``k`` rows. The
    buffer keeps the probes' dtype; the solve converts each task to
    float64 (exactly) when it runs.
    """

    def __init__(self, k: int, rep: np.ndarray) -> None:
        self.k = k
        self.seen = 0
        self.rows = np.empty(0, dtype=np.intp)
        self.slots = np.empty(0, dtype=np.intp)
        self.buffer = np.empty((k, rep.shape[1]), dtype=rep.dtype)

    def offer(self, rows, local, keys, rep) -> None:
        """Offer kept rows ``rows`` (all later than every row held), whose
        features are ``rep[local]``, under the per-row ``keys``."""
        self.seen += len(rows)
        held = len(self.rows)
        if held + len(rows) <= self.k:  # room for every row: nothing evicted
            self.buffer[held : held + len(rows)] = rep[local]
            self.rows = np.concatenate([self.rows, rows])
            self.slots = np.arange(len(self.rows))
            return
        chosen = bottom_k(keys[np.concatenate([self.rows, rows])], self.k)
        stay = chosen[chosen < held]
        enter = chosen[len(stay):] - held
        evicted = np.ones(held, dtype=bool)
        evicted[stay] = False
        # The evicted rows' slots and any never used: one per entering row.
        free = np.concatenate([self.slots[evicted], np.arange(held, self.k)])
        self.buffer[free] = rep[local[enter]]
        self.rows = np.concatenate([self.rows[stay], rows[enter]])
        self.slots = np.concatenate([self.slots[stay], free])


def _sample_tasks(chunks, layer_positions, config, n: int) -> dict:
    """Each ``(layer position, class)`` task's features, by sorted key.

    ``chunks`` yields ``(classes, local, reps)``: kept rows
    ``reps[layer][local]`` labelled ``classes``, in order. Kept row ``j``
    carries the key ``new_rng(seed + position).random(n)[j]``; numpy's
    stream is prefix-stable, so this is the key
    ``LayerValidator.fit(..., rng=seed + position)`` draws for the ``j``-th
    of its rows, whatever the number kept. Features come back in ascending
    row order, in the probes' dtype.
    """
    keys = [
        new_rng(config.seed + position).random(n) for position, _ in layer_positions
    ]
    cap = min(config.max_per_class, n)  # no task sees more than n rows
    samples: dict[tuple[int, int], _TaskSample] = {}
    kept = 0
    for classes, local, reps in chunks:
        if not config.per_class:
            classes = np.zeros(len(local), dtype=np.int64)
        ids = kept + np.arange(len(local))
        kept += len(local)
        for klass in np.unique(classes):
            mine = classes == klass
            rows, at = ids[mine], local[mine]
            for (position, layer_index), layer_keys in zip(layer_positions, keys):
                rep = reps[layer_index]
                sample = samples.get((position, int(klass)))
                if sample is None:
                    sample = samples[(position, int(klass))] = _TaskSample(cap, rep)
                sample.offer(rows, at, layer_keys, rep)
    features = {}
    for (position, klass), sample in sorted(samples.items()):
        if sample.seen < 2:
            raise ValueError(
                f"class {klass} has only {sample.seen} correctly classified "
                "training images; cannot fit its reference distribution"
            )
        if np.array_equal(sample.slots, np.arange(len(sample.slots))):
            features[(position, klass)] = sample.buffer[: len(sample.slots)]
        else:  # evictions left the rows out of order
            features[(position, klass)] = sample.buffer[sample.slots]
    return features


def extract_task_features(
    model, images: np.ndarray, labels: np.ndarray, layer_positions, config,
    chunk_size: int = 256,
) -> tuple[dict[tuple[int, int], np.ndarray], int]:
    """Algorithm 1's lines 2-3 in one streamed forward pass.

    ``images`` stream through ``model.iter_hidden_representations`` in
    ``chunk_size`` batches. Each chunk's probabilities give line 2's
    keep mask (every row when ``config.filter_misclassified`` is off),
    and its kept rows go straight into the per-task samples, which hold
    at most ``max_per_class`` rows each. Returns ``(task_features,
    correctly_classified)``; the full ``(N, features)`` activation
    matrices are never materialised.
    """
    labels = np.asarray(labels)
    correct = 0

    def kept_chunks():
        nonlocal correct
        for start, probabilities, reps in model.iter_hidden_representations(
            images, batch_size=chunk_size
        ):
            truth = labels[start : start + len(probabilities)]
            hits = probabilities.argmax(axis=1) == truth
            correct += int(hits.sum())
            if not config.filter_misclassified:
                hits[:] = True  # ablation: skip line 2 and keep every image
            local = np.flatnonzero(hits)
            yield truth[local], local, reps

    features = _sample_tasks(kept_chunks(), layer_positions, config, len(images))
    return features, correct


# -- stage 2: solving the (layer, class) tasks ---------------------------------


def _solve_config(config) -> dict:
    """The slice of ``ValidatorConfig`` a solve needs (and is fingerprinted
    by): the ``OneClassSVM`` keyword arguments of every task."""
    return {
        "nu": config.nu,
        "kernel": config.kernel,
        "gamma": config.gamma,
        "standardize": config.standardize,
    }


def _solve_fit_task(features: np.ndarray, cfg: dict) -> TaskFit:
    """Fit one task's one-class SVM: scaler stats, Gram, SMO.

    The only code that fits a ``(layer, class)`` pair: :func:`solve_tasks`
    and ``LayerValidator.fit`` both call it. Features arrive in the probes'
    dtype; the SVM solves one private float64 copy of them (standardised
    by its own scaler) and keeps its support rows in that dtype, so the
    caller's array is never written.
    """
    return TaskFit(OneClassSVM(**cfg).fit(features))


def _journal_fingerprint(task_features, cfg) -> str:
    """Identity stamp of one solve: record format, config, and a content
    hash per task.

    Written as the journal's header so that a journal produced from
    different data or solver settings under the same name (journals are
    keyed only by dataset/profile/seed), or holding records of another
    format, is discarded instead of silently merged into the fitted
    validator — replaying foreign solutions would break the bit-identity
    contract without any error.
    """
    digest = hashlib.sha256()
    digest.update(_RECORD_FORMAT.encode())
    digest.update(repr(sorted(cfg.items())).encode())
    for key in sorted(task_features):
        digest.update(repr(key).encode())
        digest.update(hash_array(task_features[key]).encode())
    return digest.hexdigest()


def _replay_journal(journal, task_features, cfg) -> dict:
    """Validated journal replay: prior solutions, or a cleared journal.

    A journal whose header matches this solve's fingerprint replays its
    recorded solutions; a mismatch (different data/config, or a
    pre-header journal) clears it. Either way the journal leaves stamped
    with the current fingerprint, ready for incremental appends.
    """
    fingerprint = _journal_fingerprint(task_features, cfg)
    if journal.exists() and journal.header() != fingerprint:
        journal.clear()
    if not journal.exists():
        journal.write_header(fingerprint)
    return {
        key: solution
        for key, solution in journal.replay()
        if key in task_features
    }


def _record_solution(key, solution, solutions, journal) -> None:
    """Land one fitted task: merge it and flush it to the journal.

    Module-level on purpose — this is the crash seam
    :func:`repro.testing.faults.crash_at_task` patches to simulate a kill
    after exactly *j* solutions have been journaled.
    """
    solutions[key] = solution
    if journal is not None:
        journal.append((key, solution))


def solve_tasks(
    task_features: dict[tuple[int, int], np.ndarray],
    config,
    journal=None,
) -> dict[tuple[int, int], TaskFit]:
    """Fit every task in-process, in sorted key order.

    Returns each key's :class:`TaskFit`. ``journal`` (a
    :class:`~repro.utils.cache.TaskJournal`) makes the solve
    resumable: previously journaled tasks are replayed instead of
    recomputed, and every new one is flushed before the next task starts.
    The journal carries a fingerprint header of the record format, the
    solve config and the task features; a journal written for different
    data or settings, or in another record format, is cleared rather than
    replayed.
    """
    cfg = _solve_config(config)
    ordered = sorted(task_features)
    solutions: dict = {}
    with obs.span("fit.solve_tasks", tasks=len(ordered)):
        if journal is not None:
            replayed = _replay_journal(journal, task_features, cfg)
            if replayed:
                _tasks_counter().labels(mode="replayed").inc(len(replayed))
            solutions.update(replayed)
        for key in ordered:
            if key not in solutions:
                rows, dim = task_features[key].shape
                with obs.span(
                    "fit.solve_task", layer=key[0], klass=key[1], rows=rows, dim=dim
                ):
                    solution = _solve_fit_task(task_features[key], cfg)
                _tasks_counter().labels(mode="inprocess").inc()
                _record_solution(key, solution, solutions, journal)
    return {key: solutions[key] for key in ordered}


# -- assembly ------------------------------------------------------------------


def build_layer_validators(
    solutions: dict[tuple[int, int], TaskFit],
    layer_positions,
    layer_names,
    config,
) -> list:
    """Assemble fitted ``LayerValidator``s from the tasks' fitted SVMs.

    Installs them in sorted ``(position, class)`` order, whatever order
    they were solved or replayed in, so every downstream structure is
    fixed by the task keys alone.
    """
    from repro.core.validator import LayerValidator

    validators = {
        position: LayerValidator(layer_index, layer_names[layer_index], config)
        for position, layer_index in layer_positions
    }
    for (position, klass), solution in sorted(solutions.items()):
        validators[position].install(klass, solution.svm)
    return [validators[position] for position, _ in layer_positions]


# -- front ends ----------------------------------------------------------------


def fit_deep_validator(
    model,
    images: np.ndarray,
    labels: np.ndarray,
    layer_indices: list[int],
    config,
    chunk_size: int = 256,
    journal=None,
) -> tuple[list, int]:
    """The full pipeline behind ``DeepValidator.fit``: extract, then solve.

    ``images`` is the whole training draw: the one forward pass of
    :func:`extract_task_features` filters it as well as gathering it.
    ``journal`` (a :class:`~repro.utils.cache.TaskJournal`) makes the
    solve stage resumable across process deaths; the sampled rows are a
    pure function of the draw, the model and the seed, so a journal
    written by an interrupted fit of the same data/config replays into
    the identical task graph. Returns the fitted per-layer validators in
    layer order and the number of correctly classified images.
    """
    layer_positions = list(enumerate(layer_indices))
    with obs.span(
        "fit.pipeline", layers=len(layer_indices), images=len(images)
    ):
        with obs.span("fit.extract"):
            task_features, correct = extract_task_features(
                model, images, labels, layer_positions, config,
                chunk_size=chunk_size,
            )
        solutions = solve_tasks(task_features, config, journal=journal)
        validators = build_layer_validators(
            solutions, layer_positions, model.probe_names, config
        )
    return validators, correct


def fit_validators_from_arrays(
    representations: list[np.ndarray],
    labels: np.ndarray,
    layer_indices: list[int],
    config,
    layer_names: list[str] | None = None,
    journal=None,
) -> list:
    """Fit per-layer validators from already-extracted representations.

    ``representations[i]`` holds layer ``i``'s ``(N, features_i)`` matrix
    of kept rows. Used by the determinism suite (no model required) and by
    callers that already hold activations; the rows are sampled by the
    same bounded samples as the streamed pass, fed as one chunk, and the
    result is mathematically identical to ``LayerValidator.fit`` per
    layer. ``journal`` passes through to :func:`solve_tasks` for
    crash-safe, resumable solving.
    """
    labels = np.asarray(labels)
    if layer_names is None:
        layer_names = [f"layer{i}" for i in range(len(representations))]
    layer_positions = list(enumerate(layer_indices))
    chunk = (labels, np.arange(len(labels)), representations)
    task_features = _sample_tasks([chunk], layer_positions, config, len(labels))
    solutions = solve_tasks(task_features, config, journal=journal)
    return build_layer_validators(solutions, layer_positions, layer_names, config)
