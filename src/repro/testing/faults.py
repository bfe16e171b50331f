"""Deterministic fault injection for the validation serving stack.

Each injector is a context manager that installs a fault on entry and
fully restores the patched object on exit, so tests compose them freely
and never leak state. All randomness (e.g. which bit of an artifact gets
flipped) flows from an explicit seed — the same plan always injects the
same fault, which keeps hypothesis shrinking and failure reproduction
deterministic.

Every injector that patches a method goes through one seam,
:func:`_patched`, which is :func:`unittest.mock.patch.object`: a
pre-existing instance attribute is put back on exit, a shadowed class
method is uncovered by deleting the instance attribute, and stacked
patches unwind in order. The call-numbered injectors share one locked
:class:`_CallWindow`, and every injector yields a stats dict (empty when
it counts nothing).

The fault classes mirror the resilience layer's threat model:

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
  ``BaseException`` on chosen batches, or a batcher whose ``next_batch``
  raises on chosen calls — both kill the worker thread outright,
  exercising the supervisor's requeue, restart, and restart-budget paths;
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
import threading
import time
from typing import Any, Callable, ContextManager, Iterator
from unittest import mock

import numpy as np

from repro import obs
from repro.utils.cache import FRAME_HEADER, cache_key, frame_header


# -- the seam ------------------------------------------------------------------


@contextlib.contextmanager
def _patched(
    owner, name: str, wrap: Callable[[Callable], Callable], stats: dict
) -> Iterator[dict]:
    """Replace ``owner.<name>`` with ``wrap(original)`` and yield ``stats``.

    ``owner`` is an instance (only that object is affected, its class
    stays untouched) or a module. Restoring is
    :func:`unittest.mock.patch.object`'s: whatever ``vars(owner)`` held
    before entry is exactly what it holds after exit.
    """
    with mock.patch.object(owner, name, wrap(getattr(owner, name))):
        yield stats


class _CallWindow:
    """A locked call counter that fires on calls ``nth .. nth+count-1``.

    Call numbers are 1-based; ``count=0`` never fires, and a negative
    ``count`` fires every call from ``nth`` on. :meth:`tick` counts one
    call in ``stats[calls]`` (and, when it fires, in ``stats[fired]``), so
    concurrent callers are counted exactly.
    """

    def __init__(self, calls: str, fired: str | None, nth: int, count: int) -> None:
        self.stats = {calls: 0} if fired is None else {calls: 0, fired: 0}
        self.calls, self.fired, self.nth, self.count = calls, fired, nth, count
        self._lock = threading.Lock()

    def covers(self, call: int) -> bool:
        return call >= self.nth and (self.count < 0 or call < self.nth + self.count)

    def tick(self) -> tuple[int, bool]:
        """Count one call; return its number and whether it fires."""
        with self._lock:
            call = self.stats[self.calls] + 1
            fire = self.covers(call)
            self.stats[self.calls] = call
            if fire and self.fired is not None:
                self.stats[self.fired] += 1
        return call, fire


def _windowed(
    owner,
    name: str,
    fire: Callable[[int], Any],
    nth: int = 1,
    count: int = -1,
    calls: str = "calls",
    fired: str | None = None,
) -> ContextManager[dict]:
    """Patch ``owner.<name>`` to run ``fire(call)`` before each call in the
    window (every call by default), then call the original. Yields the
    window's stats dict."""
    window = _CallWindow(calls, fired, nth, count)

    def wrap(original):
        def patched(*args, **kwargs):
            call, hit = window.tick()
            if hit:
                fire(call)
            return original(*args, **kwargs)

        return patched

    return _patched(owner, name, wrap, window.stats)


def _delay(seconds: float, clock) -> None:
    """Let ``seconds`` pass: advance a fake clock, or sleep on a real one.

    ``clock`` defaults to the current observability tracer's clock; one
    with an ``advance`` method (:class:`repro.obs.tracing.ManualClock`)
    is advanced, so tests inject latency without wall-clock cost.
    """
    source = clock if clock is not None else obs.get_tracer().clock
    if hasattr(source, "advance"):
        source.advance(seconds)
    else:
        time.sleep(seconds)


@contextlib.contextmanager
def _corrupted_file(path, corrupt: Callable[[bytes], bytes]) -> Iterator[dict]:
    """Overwrite ``path`` with ``corrupt(original bytes)``; restore on exit.

    A load in between may have quarantined (moved) the file; writing the
    original bytes recreates it at its canonical path either way.
    """
    original = path.read_bytes()
    path.write_bytes(corrupt(original))
    try:
        yield {}
    finally:
        path.write_bytes(original)


def _flip_bit(data: bytes, seed: int, low: int) -> bytes:
    """Flip one seed-chosen bit at an offset in ``[low, len(data))``."""
    rng = np.random.default_rng(seed)
    flipped = bytearray(data)
    offset = int(rng.integers(low, max(low + 1, len(flipped))))
    flipped[offset] ^= 1 << int(rng.integers(0, 8))
    return bytes(flipped)


def _check_mode(mode: str) -> None:
    if mode not in {"bitflip", "truncate"}:
        raise ValueError(f"mode must be 'bitflip' or 'truncate', got {mode!r}")


# -- activation faults ---------------------------------------------------------


def nan_activations(
    model, layer_index: int, value: float = float("nan")
) -> ContextManager[dict]:
    """Overwrite one probe's hidden representations with ``value``.

    Patches ``model.iter_hidden_representations`` (the single chokepoint
    both the materialising and streaming representation paths flow
    through) on the *instance*, so only this model object is affected and
    the class stays untouched. Predictions still come from the real
    forward pass — the fault models a broken probe/validator substrate,
    not a broken classifier. Yields an empty stats dict.
    """

    def wrap(original):
        def corrupted(images, batch_size: int = 256):
            for start, probabilities, reps in original(images, batch_size=batch_size):
                reps = list(reps)
                reps[layer_index] = np.full_like(reps[layer_index], value)
                yield start, probabilities, reps

        return corrupted

    return _patched(model, "iter_hidden_representations", wrap, {})


# -- artifact faults -----------------------------------------------------------


def corrupt_artifact(
    cache,
    name: str,
    config: Any,
    mode: str = "bitflip",
    seed: int = 0,
    refresh_checksum: bool = False,
) -> ContextManager[dict]:
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
    Yields an empty stats dict.
    """
    _check_mode(mode)

    def corrupt(original: bytes) -> bytes:
        header = original[: FRAME_HEADER.size]
        body = original[FRAME_HEADER.size :]
        if mode == "bitflip":
            # Skip the pickle protocol header so the body stays recognisably
            # a pickle — the interesting corruption is in the payload.
            body = _flip_bit(body, seed, low=2)
        else:
            body = body[: max(1, len(body) // 2)]
        if refresh_checksum:
            header = frame_header(body)
        return header + body

    return _corrupted_file(cache.path_for(cache_key(name, config)), corrupt)


def corrupt_bundle(
    store,
    name: str,
    version: int,
    mode: str = "bitflip",
    seed: int = 0,
) -> ContextManager[dict]:
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
    quarantined in between. Yields an empty stats dict.
    """
    _check_mode(mode)

    def corrupt(original: bytes) -> bytes:
        if mode == "truncate":
            return original[: max(1, len(original) // 2)]
        (manifest_length, _) = FRAME_HEADER.unpack_from(original)
        return _flip_bit(original, seed, low=2 * FRAME_HEADER.size + manifest_length)

    return _corrupted_file(store.path_for(name, version), corrupt)


# -- scorer faults -------------------------------------------------------------


class InjectedScorerError(RuntimeError):
    """The exception raised by :func:`fail_packed_scorer` injections."""


def fail_packed_scorer(
    layer_validator,
    nth: int = 1,
    count: int = 1,
    exc_factory: Callable[[], Exception] | None = None,
) -> ContextManager[dict]:
    """Make one layer's batched scorer fail on chosen call numbers.

    Calls ``nth .. nth+count-1`` (1-based) of
    ``layer_validator.discrepancy_batched`` raise; ``count=0`` never
    fails (useful in generated plans); a negative ``count`` fails every
    call from ``nth`` on. Yields a mutable stats dict whose ``"calls"``
    entry counts invocations, so tests can assert the fault actually
    fired.
    """

    def fail(call: int) -> None:
        raise (
            exc_factory()
            if exc_factory is not None
            else InjectedScorerError(
                f"injected packed-scorer fault on call {call} "
                f"(layer {layer_validator.layer_name!r})"
            )
        )

    return _windowed(
        layer_validator, "discrepancy_batched", fail, nth, count, fired="failures"
    )


def slow_layer(layer_validator, seconds: float, clock=None) -> ContextManager[dict]:
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
    return _windowed(
        layer_validator, "discrepancy_batched", lambda call: _delay(seconds, clock)
    )


# -- serving faults ------------------------------------------------------------


def slow_classify(monitor, seconds: float, clock=None) -> ContextManager[dict]:
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
    return _windowed(monitor, "classify", lambda call: _delay(seconds, clock))


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
    release = threading.Event()
    wedge = _windowed(
        monitor, "classify", lambda call: release.wait(), nth, count, fired="hangs"
    )
    with wedge as stats:
        stats["release"] = release
        try:
            yield stats
        finally:
            release.set()


class InjectedWorkerDeath(BaseException):
    """An injected serve-worker death.

    Deliberately a ``BaseException`` (not ``Exception``): it models the
    class of failures a worker thread cannot recover from in place —
    the worker loop's ``Exception`` handler must *not* swallow it, so it
    propagates to the :class:`~repro.serve.supervisor.WorkerSupervisor`,
    which records the death and restarts the worker.
    """


def kill_worker(server, nth: int = 1, count: int = 1) -> ContextManager[dict]:
    """Make chosen serve batches kill the worker processing them.

    Patches ``server._process`` on the instance so calls ``nth ..
    nth+count-1`` (1-based; negative ``count`` means every call from
    ``nth`` on) raise :class:`InjectedWorkerDeath` *before* any ticket is
    resolved — exactly the shape of an asynchronous worker death with a
    full batch in hand.

    Yields a stats dict tracking ``"batches"`` (total patched calls) and
    ``"kills"``.
    """

    def kill(call: int) -> None:
        raise InjectedWorkerDeath(f"injected worker death on batch {call}")

    return _windowed(
        server, "_process", kill, nth, count, calls="batches", fired="kills"
    )


class InjectedBatcherError(RuntimeError):
    """An injected failure inside ``MicroBatcher.next_batch``."""


def raise_in_batcher(batcher, nth: int = 1, count: int = 1) -> ContextManager[dict]:
    """Make chosen ``next_batch`` calls raise instead of dequeuing.

    Calls ``nth .. nth+count-1`` (1-based; negative ``count`` means every
    call from ``nth`` on) of the patched batcher's ``next_batch`` raise
    :class:`InjectedBatcherError` *before* touching the queue — no ticket
    is lost, but the calling worker thread dies, exercising the worker
    loop's "any raise out of ``next_batch`` is fatal" path and the
    supervisor's restart. Yields a stats dict tracking ``"calls"`` and
    ``"raises"``.
    """

    def explode(call: int) -> None:
        raise InjectedBatcherError(
            f"injected batcher failure on next_batch call {call}"
        )

    return _windowed(batcher, "next_batch", explode, nth, count, fired="raises")


# -- offline-pipeline crash faults ---------------------------------------------


class InjectedCrashError(RuntimeError):
    """The exception raised by the crash_at_* injectors.

    Deliberately *not* a fault the pipelines recover from in-process: it
    models the process dying (OOM-kill, power cut), so tests catch it at
    the call site and then prove that a *resumed* run completes
    bit-identically from the persisted checkpoint/journal state.
    """


def crash_at_epoch(trainer, epoch: int) -> ContextManager[dict]:
    """Kill a training run at the start of epoch ``epoch`` (0-based).

    Patches the trainer instance's ``_begin_epoch`` seam, so epochs
    ``0 .. epoch-1`` complete (and checkpoint) normally and the crash
    lands exactly where a real kill between epochs would. Yields a stats
    dict whose ``"crashed"`` flag confirms the fault fired.
    """
    stats = {"crashed": False}

    def wrap(original):
        def exploding(current_epoch: int) -> None:
            if current_epoch == epoch:
                stats["crashed"] = True
                raise InjectedCrashError(
                    f"injected crash at the start of epoch {current_epoch}"
                )
            return original(current_epoch)

        return exploding

    return _patched(trainer, "_begin_epoch", wrap, stats)


def crash_at_task(task: int) -> ContextManager[dict]:
    """Kill ``solve_tasks`` right after its ``task``-th solution lands.

    Patches :func:`repro.core.fitting._record_solution` so the first
    ``task`` freshly-solved tasks are merged *and journaled* (1-based
    count; replayed journal entries don't count) before the process
    dies — the worst-case kill point for a journaled fit. Yields a stats
    dict tracking ``"recorded"`` and ``"crashed"``.
    """
    from repro.core import fitting

    stats = {"recorded": 0, "crashed": False}

    def wrap(original):
        def exploding(key, solution, solutions, journal) -> None:
            original(key, solution, solutions, journal)
            stats["recorded"] += 1
            if stats["recorded"] == task:
                stats["crashed"] = True
                raise InjectedCrashError(
                    f"injected crash after journaling task {task} (key {key})"
                )

        return exploding

    return _patched(fitting, "_record_solution", wrap, stats)
