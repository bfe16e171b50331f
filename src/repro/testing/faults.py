"""Deterministic fault injection for the validation serving stack.

Each injector is a context manager that installs a fault on entry and
fully restores the patched object on exit, so tests compose them freely
and never leak state. All randomness (e.g. which bit of an artifact gets
flipped) flows from an explicit seed — the same plan always injects the
same fault, which keeps hypothesis shrinking and failure reproduction
deterministic.

The four fault classes mirror the resilience layer's threat model:

* :func:`nan_activations` — a numerically-broken layer: the chosen probe's
  hidden representations are overwritten with NaN (or Inf) before any
  validator sees them;
* :func:`corrupt_artifact` — storage rot: a cached pickle is bit-flipped
  or truncated on disk (optionally with its frame digest refreshed, to
  exercise the unpickling-error path rather than the checksum path);
* :func:`corrupt_bundle` — the same rot on a saved validator bundle's
  self-verifying frames, exercising the rollout layer's integrity
  guardrail (a corrupt bundle must be refused and latched, never served);
* :func:`fail_packed_scorer` — a scorer that starts raising: the packed
  batched scorer of one layer validator fails on chosen call numbers;
* :func:`slow_layer` — a scorer that gets slow: one layer validator's
  batched scorer gains a fixed per-call latency, advanced against a
  fake clock (or slept, with a real one) so latency metrics are testable;
* :func:`slow_classify` / :func:`hang_classify` — serving faults: a
  monitor whose ``classify`` gains fixed latency, or wedges entirely
  until released (a deadlocked serve worker), for backpressure and
  drain-timeout tests;
* :func:`kill_worker` / :func:`raise_in_batcher` — serve-worker death: a
  server whose ``_process`` raises a non-``Exception``
  ``BaseException`` on chosen batches, or a batcher whose ``next_batch`` raises on chosen calls — both kill
  the worker thread outright, exercising the supervisor's requeue,
  restart, and restart-budget paths;
* :func:`crash_at_epoch` / :func:`crash_at_task` — process death in the
  offline pipelines: the training loop dies at the start of a chosen
  epoch, or the fit dies after a chosen number of task solutions have
  been journaled, exercising checkpoint/journal resume.

Several injectors compose with :class:`contextlib.ExitStack`::

    with contextlib.ExitStack() as faults:
        faults.enter_context(nan_activations(model, layer_index=1))
        faults.enter_context(fail_packed_scorer(validator.validators[0], nth=2))
        verdicts = monitor.classify(images)   # must degrade, not raise
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Iterator

import numpy as np

from repro.utils.cache import FRAME_HEADER, cache_key, frame_header


# -- activation faults ---------------------------------------------------------


@contextlib.contextmanager
def nan_activations(model, layer_index: int, value: float = float("nan")) -> Iterator[None]:
    """Overwrite one probe's hidden representations with ``value``.

    Patches ``model.iter_hidden_representations`` (the single chokepoint
    both the materialising and streaming representation paths flow
    through) on the *instance*, so only this model object is affected and
    the class stays untouched. Predictions still come from the real
    forward pass — the fault models a broken probe/validator substrate,
    not a broken classifier.
    """
    # Stacked injections patch over each other, so remember whether an
    # instance-level patch was already present (restore it) or not
    # (delete ours to uncover the class method).
    had_instance_attr = "iter_hidden_representations" in model.__dict__
    original = model.iter_hidden_representations

    def corrupted(images, batch_size: int = 256):
        for start, probabilities, reps in original(images, batch_size=batch_size):
            reps = list(reps)
            reps[layer_index] = np.full_like(reps[layer_index], value)
            yield start, probabilities, reps

    model.iter_hidden_representations = corrupted
    try:
        yield
    finally:
        if had_instance_attr:
            model.iter_hidden_representations = original
        else:
            del model.iter_hidden_representations  # uncover the class method


# -- artifact faults -----------------------------------------------------------


@contextlib.contextmanager
def corrupt_artifact(
    cache,
    name: str,
    config: Any,
    mode: str = "bitflip",
    seed: int = 0,
    refresh_checksum: bool = False,
) -> Iterator[None]:
    """Corrupt the entry for ``(name, config)`` in ``cache`` (a
    :class:`~repro.utils.cache.CheckpointStore`), restoring it on exit.

    The entry is one frame (40-byte header, then the pickle), and the
    corruption lands in the pickle. ``mode="bitflip"`` flips one bit at a
    seed-determined offset (the pickle often still loads — only the
    checksum catches it); ``mode="truncate"`` cuts the pickle in half (an
    interrupted write). ``refresh_checksum`` rewrites the frame header to
    match the corrupted pickle, so the corruption must be caught by
    unpickling rather than by integrity verification. The original bytes
    are restored on exit even if the entry was quarantined in between.
    """
    if mode not in {"bitflip", "truncate"}:
        raise ValueError(f"mode must be 'bitflip' or 'truncate', got {mode!r}")
    path = cache.path_for(cache_key(name, config))
    original = path.read_bytes()
    header = original[: FRAME_HEADER.size]
    body = bytearray(original[FRAME_HEADER.size :])
    if mode == "bitflip":
        rng = np.random.default_rng(seed)
        # Skip the pickle protocol header so the body stays recognisably
        # a pickle — the interesting corruption is in the payload.
        offset = int(rng.integers(2, max(3, len(body))))
        body[offset] ^= 1 << int(rng.integers(0, 8))
    else:
        body = body[: max(1, len(body) // 2)]
    if refresh_checksum:
        header = frame_header(bytes(body))
    path.write_bytes(header + bytes(body))
    try:
        yield
    finally:
        # A load in between may have quarantined (moved) the entry;
        # write_bytes recreates the file at its canonical path either way.
        path.write_bytes(original)


@contextlib.contextmanager
def corrupt_bundle(
    store,
    name: str,
    version: int,
    mode: str = "bitflip",
    seed: int = 0,
) -> Iterator[None]:
    """Corrupt a saved validator bundle on disk, restoring it on exit.

    Operates on a :class:`~repro.core.bundle.BundleStore` file: a
    manifest frame then a payload frame, each behind a 40-byte header.
    ``mode="bitflip"`` flips one bit at a seed-determined offset inside
    the payload, past both frame headers and the manifest, so the frames
    parse but the payload's digest check fails; ``mode="truncate"`` cuts
    the file in half (an interrupted copy). Either way
    :meth:`BundleStore.load` must raise
    :class:`~repro.core.bundle.BundleIntegrityError` and quarantine the
    file. The original bytes are restored on exit even if the file was
    quarantined in between.
    """
    if mode not in {"bitflip", "truncate"}:
        raise ValueError(f"mode must be 'bitflip' or 'truncate', got {mode!r}")
    path = store.path_for(name, version)
    original = path.read_bytes()

    payload = bytearray(original)
    if mode == "bitflip":
        rng = np.random.default_rng(seed)
        (manifest_length, _) = FRAME_HEADER.unpack_from(original)
        start = 2 * FRAME_HEADER.size + manifest_length
        offset = int(rng.integers(start, max(start + 1, len(payload))))
        payload[offset] ^= 1 << int(rng.integers(0, 8))
    else:
        payload = payload[: max(1, len(payload) // 2)]
    path.write_bytes(bytes(payload))
    try:
        yield
    finally:
        # A load in between may have quarantined (moved) the entry;
        # write_bytes recreates the file at its canonical path either way.
        path.write_bytes(original)


# -- scorer faults -------------------------------------------------------------


class InjectedScorerError(RuntimeError):
    """The exception raised by :func:`fail_packed_scorer` injections."""


@contextlib.contextmanager
def fail_packed_scorer(
    layer_validator,
    nth: int = 1,
    count: int = 1,
    exc_factory: Callable[[], Exception] | None = None,
) -> Iterator[dict]:
    """Make one layer's batched scorer fail on chosen call numbers.

    Calls ``nth .. nth+count-1`` (1-based) of
    ``layer_validator.discrepancy_batched`` raise; ``count=0`` never
    fails (useful in generated plans); a negative ``count`` fails every
    call from ``nth`` on. Yields a mutable stats dict whose ``"calls"``
    entry counts invocations, so tests can assert the fault actually
    fired.
    """
    had_instance_attr = "discrepancy_batched" in layer_validator.__dict__
    original = layer_validator.discrepancy_batched
    stats = {"calls": 0, "failures": 0}

    def flaky(representations, predicted, **kwargs):
        stats["calls"] += 1
        call = stats["calls"]
        if call >= nth and (count < 0 or call < nth + count):
            stats["failures"] += 1
            raise (
                exc_factory()
                if exc_factory is not None
                else InjectedScorerError(
                    f"injected packed-scorer fault on call {call} "
                    f"(layer {layer_validator.layer_name!r})"
                )
            )
        return original(representations, predicted, **kwargs)

    layer_validator.discrepancy_batched = flaky
    try:
        yield stats
    finally:
        if had_instance_attr:
            layer_validator.discrepancy_batched = original
        else:
            del layer_validator.discrepancy_batched


@contextlib.contextmanager
def slow_layer(layer_validator, seconds: float, clock=None) -> Iterator[dict]:
    """Make one layer's batched scorer take ``seconds`` per call.

    Latency-shaping counterpart of :func:`fail_packed_scorer`: every
    ``discrepancy_batched`` call on the patched instance "takes"
    ``seconds`` longer, so per-layer latency histograms and span
    durations attribute time to the right layer. Fake-clock compatible:
    ``clock`` defaults to the current observability tracer's clock, and a
    clock with an ``advance`` method (:class:`repro.obs.tracing.ManualClock`)
    is advanced instead of slept against — tests inject latency without
    wall-clock cost. With a real clock, the injector sleeps. Yields a
    stats dict whose ``"calls"`` entry counts afflicted invocations.
    """
    if seconds < 0:
        raise ValueError(f"cannot make a layer {seconds}s slower")
    had_instance_attr = "discrepancy_batched" in layer_validator.__dict__
    original = layer_validator.discrepancy_batched
    stats = {"calls": 0}

    def delay() -> None:
        source = clock
        if source is None:
            from repro import obs

            source = obs.get_tracer().clock
        if hasattr(source, "advance"):
            source.advance(seconds)
        else:
            import time

            time.sleep(seconds)

    def sluggish(representations, predicted, **kwargs):
        stats["calls"] += 1
        delay()
        return original(representations, predicted, **kwargs)

    layer_validator.discrepancy_batched = sluggish
    try:
        yield stats
    finally:
        if had_instance_attr:
            layer_validator.discrepancy_batched = original
        else:
            del layer_validator.discrepancy_batched


# -- serving faults ------------------------------------------------------------


@contextlib.contextmanager
def slow_classify(monitor, seconds: float, clock=None) -> Iterator[dict]:
    """Make a monitor's ``classify`` take ``seconds`` per call.

    The serving-layer counterpart of :func:`slow_layer`: every
    ``classify`` call on the patched monitor instance gains a fixed
    latency, so queue-wait and batch-span metrics under a slow scorer are
    testable. Fake-clock compatible exactly like :func:`slow_layer`
    (a clock with ``advance`` is advanced, otherwise the injector
    sleeps; defaults to the current tracer's clock). Yields a stats dict
    whose ``"calls"`` entry counts afflicted invocations.
    """
    if seconds < 0:
        raise ValueError(f"cannot make classify {seconds}s slower")
    had_instance_attr = "classify" in monitor.__dict__
    original = monitor.classify
    stats = {"calls": 0}

    def delay() -> None:
        source = clock
        if source is None:
            from repro import obs

            source = obs.get_tracer().clock
        if hasattr(source, "advance"):
            source.advance(seconds)
        else:
            import time

            time.sleep(seconds)

    def sluggish(images):
        stats["calls"] += 1
        delay()
        return original(images)

    monitor.classify = sluggish
    try:
        yield stats
    finally:
        if had_instance_attr:
            monitor.classify = original
        else:
            del monitor.classify


@contextlib.contextmanager
def hang_classify(monitor, nth: int = 1, count: int = 1) -> Iterator[dict]:
    """Make chosen ``classify`` calls block until released.

    Calls ``nth .. nth+count-1`` (1-based) of the patched monitor's
    ``classify`` block on an event before scoring — a deadlocked or wedged
    serve worker. The event is set on context exit (so nothing outlives
    the injection), and tests can release it earlier via the yielded
    stats dict's ``"release"`` :class:`threading.Event` to model recovery.
    A negative ``count`` hangs every call from ``nth`` on. The yielded
    dict also tracks ``"calls"`` and ``"hangs"``.
    """
    import threading

    had_instance_attr = "classify" in monitor.__dict__
    original = monitor.classify
    release = threading.Event()
    stats = {"calls": 0, "hangs": 0, "release": release}
    tally = threading.Lock()

    def wedged(images):
        with tally:
            stats["calls"] += 1
            call = stats["calls"]
            hang = call >= nth and (count < 0 or call < nth + count)
            if hang:
                stats["hangs"] += 1
        if hang:
            release.wait()
        return original(images)

    monitor.classify = wedged
    try:
        yield stats
    finally:
        release.set()
        if had_instance_attr:
            monitor.classify = original
        else:
            del monitor.classify


class InjectedWorkerDeath(BaseException):
    """An injected serve-worker death.

    Deliberately a ``BaseException`` (not ``Exception``): it models the
    class of failures a worker thread cannot recover from in place —
    the worker loop's ``Exception`` handler must *not* swallow it, so it
    propagates to the :class:`~repro.serve.supervisor.WorkerSupervisor`,
    which records the death and restarts the worker.
    """


@contextlib.contextmanager
def kill_worker(server, nth: int = 1, count: int = 1) -> Iterator[dict]:
    """Make chosen serve batches kill the worker processing them.

    Patches ``server._process`` on the instance so calls ``nth ..
    nth+count-1`` (1-based; negative ``count`` means every call from
    ``nth`` on) raise :class:`InjectedWorkerDeath` *before* any ticket is
    resolved — exactly the shape of an asynchronous worker death with a
    full batch in hand.

    Yields a stats dict tracking ``"batches"`` (total patched calls) and
    ``"kills"``.
    """
    import threading

    had_instance_attr = "_process" in server.__dict__
    original = server._process
    tally = threading.Lock()
    stats: dict = {"batches": 0, "kills": 0}

    def lethal(batch):
        with tally:
            stats["batches"] += 1
            call = stats["batches"]
            kill = call >= nth and (count < 0 or call < nth + count)
            if kill:
                stats["kills"] += 1
        if kill:
            raise InjectedWorkerDeath(f"injected worker death on batch {call}")
        return original(batch)

    server._process = lethal
    try:
        yield stats
    finally:
        if had_instance_attr:
            server._process = original
        else:
            del server._process


class InjectedBatcherError(RuntimeError):
    """An injected failure inside ``MicroBatcher.next_batch``."""


@contextlib.contextmanager
def raise_in_batcher(batcher, nth: int = 1, count: int = 1) -> Iterator[dict]:
    """Make chosen ``next_batch`` calls raise instead of dequeuing.

    Calls ``nth .. nth+count-1`` (1-based; negative ``count`` means every
    call from ``nth`` on) of the patched batcher's ``next_batch`` raise
    :class:`InjectedBatcherError` *before* touching the queue — no ticket
    is lost, but the calling worker thread dies, exercising the worker
    loop's "any raise out of ``next_batch`` is fatal" path and the
    supervisor's restart. Yields a stats dict tracking ``"calls"`` and
    ``"raises"``.
    """
    import threading

    had_instance_attr = "next_batch" in batcher.__dict__
    original = batcher.next_batch
    tally = threading.Lock()
    stats = {"calls": 0, "raises": 0}

    def explosive():
        with tally:
            stats["calls"] += 1
            call = stats["calls"]
            explode = call >= nth and (count < 0 or call < nth + count)
            if explode:
                stats["raises"] += 1
        if explode:
            raise InjectedBatcherError(
                f"injected batcher failure on next_batch call {call}"
            )
        return original()

    batcher.next_batch = explosive
    try:
        yield stats
    finally:
        if had_instance_attr:
            batcher.next_batch = original
        else:
            del batcher.next_batch


# -- offline-pipeline crash faults ---------------------------------------------


class InjectedCrashError(RuntimeError):
    """The exception raised by the crash_at_* injectors.

    Deliberately *not* a fault the pipelines recover from in-process: it
    models the process dying (OOM-kill, power cut), so tests catch it at
    the call site and then prove that a *resumed* run completes
    bit-identically from the persisted checkpoint/journal state.
    """


@contextlib.contextmanager
def crash_at_epoch(trainer, epoch: int) -> Iterator[dict]:
    """Kill a training run at the start of epoch ``epoch`` (0-based).

    Patches the trainer instance's ``_begin_epoch`` seam, so epochs
    ``0 .. epoch-1`` complete (and checkpoint) normally and the crash
    lands exactly where a real kill between epochs would. Yields a stats
    dict whose ``"crashed"`` flag confirms the fault fired.
    """
    had_instance_attr = "_begin_epoch" in trainer.__dict__
    original = trainer._begin_epoch
    stats = {"crashed": False}

    def exploding(current_epoch: int) -> None:
        if current_epoch == epoch:
            stats["crashed"] = True
            raise InjectedCrashError(
                f"injected crash at the start of epoch {current_epoch}"
            )
        return original(current_epoch)

    trainer._begin_epoch = exploding
    try:
        yield stats
    finally:
        if had_instance_attr:
            trainer._begin_epoch = original
        else:
            del trainer._begin_epoch


@contextlib.contextmanager
def crash_at_task(task: int) -> Iterator[dict]:
    """Kill ``solve_tasks`` right after its ``task``-th solution lands.

    Patches :func:`repro.core.fitting._record_solution` so the first
    ``task`` freshly-solved tasks are merged *and journaled* (1-based
    count; replayed journal entries don't count) before the process
    dies — the worst-case kill point for a journaled fit. Yields a stats
    dict tracking ``"recorded"`` and ``"crashed"``.
    """
    from repro.core import fitting

    original = fitting._record_solution
    stats = {"recorded": 0, "crashed": False}

    def exploding(key, solution, solutions, journal) -> None:
        original(key, solution, solutions, journal)
        stats["recorded"] += 1
        if stats["recorded"] == task:
            stats["crashed"] = True
            raise InjectedCrashError(
                f"injected crash after journaling task {task} (key {key})"
            )

    fitting._record_solution = exploding
    try:
        yield stats
    finally:
        fitting._record_solution = original

