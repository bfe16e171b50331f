"""Memory-bounded fitting pipeline for Algorithm 1.

This module runs ``DeepValidator.fit`` in three stages:

1. **Planning** — :func:`plan_fit_tasks` replays Algorithm 1's exact
   per-layer RNG discipline (``seed + layer position``, classes visited in
   sorted order) to decide *which rows* each ``(layer, class)`` task will
   train on, before any activation is computed. Subsampling therefore
   depends only on the labels and the seed.
2. **Chunked extraction** — :func:`extract_task_features` streams the kept
   images through :meth:`ProbedSequential.iter_hidden_representations` in
   ``chunk_size`` batches and gathers *only* the planned rows per layer, so
   peak transient memory is ``chunk_size x widest layer`` plus the
   (``classes x max_per_class``)-row training buffers — never the full
   dataset's activations.
3. **Solving** — :func:`solve_tasks` runs the independent ``(layer, class)``
   solves (scaler stats, Gram matrix, SMO) in-process, in sorted key order.
   Each is the same ``StandardScaler.fit`` and ``OneClassSVM.fit`` call
   ``LayerValidator.fit`` makes, so the assembled validator is
   bit-identical to the per-layer reference path.

Stage 3 is also the pipeline's recovery point. Given a ``journal``
(:class:`~repro.core.checkpoint.TaskJournal`), every completed solution is
flushed to disk as it lands; a rerun replays the journal and solves only
the missing tasks, so a crash at task 97/100 costs three solves, not a
hundred. Replayed and freshly-solved tasks are bit-identical — both ran
the same :func:`_solve_fit_task` math. The journal's header frame
fingerprints the solve config and task features, so a stale journal under
a reused name is discarded, never merged.

The determinism contract (pipeline ≡ per-layer ``LayerValidator.fit`` ≡
interrupted + resumed) is pinned by the hypothesis suites in
``tests/test_fitting_determinism.py`` and ``tests/test_checkpoint_resume.py``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.obs.profile import profile_section
from repro.svm.oneclass import OneClassSVM
from repro.svm.scaler import StandardScaler
from repro.utils.cache import hash_array
from repro.utils.rng import new_rng


def _tasks_counter():
    return obs.counter(
        "fit_tasks_total",
        help="Completed (layer, class) solves by execution mode",
        labels=("mode",),
    )


@dataclass(frozen=True)
class FitTask:
    """One independent unit of Algorithm 1: fit class ``klass`` at one layer.

    ``position`` indexes the validated-layer list (it seeds the RNG),
    ``layer_index`` the model probe, and ``rows`` the training-set rows the
    task trains on — in the exact (possibly shuffled) order the serial
    subsampler would visit them, since SMO initialisation is order-sensitive.
    """

    position: int
    layer_index: int
    klass: int
    rows: np.ndarray

    @property
    def key(self) -> tuple[int, int]:
        return (self.position, self.klass)


@dataclass
class TaskSolution:
    """What one ``(layer, class)`` solve keeps, and what the journal records.

    The full dual vector is dropped; only the support set, offsets, fitted
    kernel, and scaler statistics are kept — exactly the pieces
    :meth:`OneClassSVM.from_solution` needs.
    """

    support_vectors: np.ndarray
    dual_coef: np.ndarray
    rho: float
    norm_w: float
    kernel: object
    iterations: int
    converged: bool
    scaler_mean: np.ndarray | None = None
    scaler_scale: np.ndarray | None = None


# -- stage 1: planning ---------------------------------------------------------


def plan_fit_tasks(labels, layer_positions, config) -> list[FitTask]:
    """Replay Algorithm 1's subsampling to a task list, without activations.

    ``layer_positions`` is a list of ``(position, layer_index)`` pairs as
    enumerated by ``DeepValidator.fit``; ``position`` feeds the per-layer
    RNG (``config.seed + position``) exactly like the serial path, and
    classes are visited in ``np.unique`` order, so the chosen rows — and
    their order — match a serial ``LayerValidator.fit`` draw for draw.
    """
    labels = np.asarray(labels)
    if not config.per_class:
        labels = np.zeros(len(labels), dtype=np.int64)
    tasks: list[FitTask] = []
    for position, layer_index in layer_positions:
        gen = new_rng(config.seed + position)
        for klass in np.unique(labels):
            rows = np.flatnonzero(labels == klass)
            if len(rows) < 2:
                raise ValueError(
                    f"class {klass} has only {len(rows)} correctly classified "
                    "training images; cannot fit its reference distribution"
                )
            if len(rows) > config.max_per_class:
                rows = gen.choice(rows, size=config.max_per_class, replace=False)
            tasks.append(FitTask(position, layer_index, int(klass), rows))
    return tasks


# -- stage 2: chunked extraction -----------------------------------------------


def extract_task_features(
    model, images: np.ndarray, tasks: list[FitTask], chunk_size: int = 256
) -> dict[tuple[int, int], np.ndarray]:
    """Gather each task's training features with bounded transient memory.

    Streams ``images`` through the model in ``chunk_size`` batches and
    copies only the planned rows of each validated layer into per-layer
    buffers (at most ``classes x max_per_class`` rows each); the full
    ``(N, features)`` activation matrices are never materialised.
    """
    unions: dict[int, np.ndarray] = {}
    for task in tasks:
        if task.layer_index in unions:
            unions[task.layer_index] = np.union1d(unions[task.layer_index], task.rows)
        else:
            unions[task.layer_index] = np.unique(task.rows)

    buffers: dict[int, np.ndarray] = {}
    for start, _, reps in model.iter_hidden_representations(images, batch_size=chunk_size):
        stop = start + len(reps[0]) if reps else start
        for layer_index, union in unions.items():
            lo, hi = np.searchsorted(union, [start, stop])
            if lo == hi:
                continue
            rep = reps[layer_index]
            if layer_index not in buffers:
                buffers[layer_index] = np.empty((len(union), rep.shape[1]), dtype=rep.dtype)
            buffers[layer_index][lo:hi] = rep[union[lo:hi] - start]

    features: dict[tuple[int, int], np.ndarray] = {}
    for task in tasks:
        union = unions[task.layer_index]
        positions = np.searchsorted(union, task.rows)
        features[task.key] = np.asarray(
            buffers[task.layer_index][positions], dtype=np.float64
        )
    return features


# -- stage 3: solving the (layer, class) tasks ---------------------------------


def _solve_config(config) -> dict:
    """The slice of ``ValidatorConfig`` a solve needs (and is fingerprinted by)."""
    return {
        "nu": config.nu,
        "kernel": config.kernel,
        "gamma": config.gamma,
        "standardize": config.standardize,
    }


def _solve_fit_task(features: np.ndarray, cfg: dict) -> TaskSolution:
    """Scaler stats, Gram, and SMO for one task.

    The same ``StandardScaler.fit`` and ``OneClassSVM.fit`` calls
    ``LayerValidator.fit`` makes, so solutions are bit-identical to the
    per-layer reference path.
    """
    scaler_mean = scaler_scale = None
    if cfg["standardize"]:
        scaler = StandardScaler().fit(features)
        scaler_mean, scaler_scale = scaler.mean_, scaler.scale_
        features = scaler.transform(features)
    svm = OneClassSVM(nu=cfg["nu"], kernel=cfg["kernel"], gamma=cfg["gamma"]).fit(features)
    return TaskSolution(
        support_vectors=svm.support_vectors_,
        dual_coef=svm.dual_coef_,
        rho=svm.rho_,
        norm_w=svm.norm_w_,
        kernel=svm.kernel_,
        iterations=svm.result_.iterations,
        converged=svm.result_.converged,
        scaler_mean=scaler_mean,
        scaler_scale=scaler_scale,
    )


def _journal_fingerprint(task_features, cfg) -> str:
    """Identity stamp of one solve: config plus a content hash per task.

    Written as the journal's header so that a journal produced from
    different data or solver settings under the same name (journals are
    keyed only by dataset/profile/seed) is discarded instead of silently
    merged into the fitted validator — replaying foreign solutions would
    break the bit-identity contract without any error.
    """
    digest = hashlib.sha256()
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
    """Land one finished solution: merge it and flush it to the journal.

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
) -> dict[tuple[int, int], TaskSolution]:
    """Solve every task in-process, in sorted key order.

    ``journal`` (a :class:`~repro.core.checkpoint.TaskJournal`) makes the
    solve resumable: previously journaled solutions are replayed instead
    of recomputed, and every new solution is flushed before the next task
    starts. The journal carries a fingerprint header of the solve config
    and task features; a journal written for different data or settings
    is cleared rather than replayed.
    """
    cfg = _solve_config(config)
    ordered = sorted(task_features)
    solutions: dict = {}
    with obs.span("fit.solve_tasks", tasks=len(ordered)), \
            profile_section("fit.solve"):
        if journal is not None:
            replayed = _replay_journal(journal, task_features, cfg)
            if replayed:
                _tasks_counter().labels(mode="replayed").inc(len(replayed))
            solutions.update(replayed)
        for key in ordered:
            if key not in solutions:
                with obs.span("fit.solve_task", layer=key[0], klass=key[1]):
                    solution = _solve_fit_task(task_features[key], cfg)
                _tasks_counter().labels(mode="inprocess").inc()
                _record_solution(key, solution, solutions, journal)
    return {key: solutions[key] for key in ordered}


# -- assembly ------------------------------------------------------------------


def build_layer_validators(
    tasks: list[FitTask],
    solutions: dict[tuple[int, int], TaskSolution],
    layer_positions,
    layer_names,
    config,
) -> list:
    """Assemble fitted ``LayerValidator``s from task solutions.

    Iterates tasks (already in planning order) rather than the solution
    mapping, so assembly order — and therefore every downstream structure —
    is fixed by the plan, not by solve order.
    """
    from repro.core.validator import LayerValidator

    validators = {
        position: LayerValidator(layer_index, layer_names[layer_index], config)
        for position, layer_index in layer_positions
    }
    for task in tasks:
        solution = solutions[task.key]
        scaler = None
        if config.standardize:
            scaler = StandardScaler.from_stats(
                solution.scaler_mean, solution.scaler_scale
            )
        svm = OneClassSVM.from_solution(
            kernel=solution.kernel,
            support_vectors=solution.support_vectors,
            dual_coef=solution.dual_coef,
            rho=solution.rho,
            norm_w=solution.norm_w,
            nu=config.nu,
            iterations=solution.iterations,
            converged=solution.converged,
        )
        validators[task.position].install(task.klass, svm, scaler)
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
) -> list:
    """The full pipeline behind ``DeepValidator.fit``: plan, extract, solve.

    ``journal`` (a
    :class:`~repro.core.checkpoint.TaskJournal`) makes the solve stage
    resumable across process deaths; the plan is a pure function of the
    labels and the seed, so a journal written by an interrupted fit of the
    same data/config replays into the identical task graph. Returns the
    fitted per-layer validators in layer order.
    """
    layer_positions = list(enumerate(layer_indices))
    with obs.span(
        "fit.pipeline", layers=len(layer_indices), images=len(images)
    ):
        with profile_section("fit.plan"):
            tasks = plan_fit_tasks(labels, layer_positions, config)
        with profile_section("fit.extract"):
            task_features = extract_task_features(
                model, images, tasks, chunk_size=chunk_size
            )
        solutions = solve_tasks(task_features, config, journal=journal)
        return build_layer_validators(
            tasks, solutions, layer_positions, model.probe_names, config
        )


def fit_validators_from_arrays(
    representations: list[np.ndarray],
    labels: np.ndarray,
    layer_indices: list[int],
    config,
    layer_names: list[str] | None = None,
    journal=None,
) -> list:
    """Fit per-layer validators from already-extracted representations.

    ``representations[i]`` holds layer ``i``'s ``(N, features_i)`` matrix.
    Used by the determinism suite (no model required) and by callers that
    already hold activations; mathematically identical to
    ``LayerValidator.fit`` per layer. ``journal`` passes through to
    :func:`solve_tasks` for crash-safe, resumable solving.
    """
    labels = np.asarray(labels)
    if layer_names is None:
        layer_names = [f"layer{i}" for i in range(len(representations))]
    layer_positions = list(enumerate(layer_indices))
    tasks = plan_fit_tasks(labels, layer_positions, config)
    task_features = {
        task.key: np.asarray(
            representations[task.layer_index][task.rows], dtype=np.float64
        )
        for task in tasks
    }
    solutions = solve_tasks(task_features, config, journal=journal)
    return build_layer_validators(tasks, solutions, layer_positions, layer_names, config)
