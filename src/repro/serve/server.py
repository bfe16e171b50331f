"""The concurrent validation server: futures in, micro-batched verdicts out.

:class:`ValidationServer` is the validation-as-a-service deployment of the
paper's guarded classifier: producers :meth:`~ValidationServer.submit`
single images and get :class:`~repro.serve.futures.VerdictFuture`\\ s;
one worker thread pulls coalesced batches from a
:class:`~repro.serve.batcher.MicroBatcher` and drives a
:class:`~repro.core.monitor.RuntimeMonitor`, so a burst of N
single-image requests costs a handful of packed forward passes instead
of N. The monitor stays thread-safe: direct callers may score beside the
worker, and so may a superseded worker left wedged after a stall.

The worker is **supervised**
(:class:`~repro.serve.supervisor.WorkerSupervisor`): a worker that dies —
any ``BaseException`` out of ``_process`` or a raise from
``MicroBatcher.next_batch`` — has its in-flight tickets requeued (bounded
retries) or failed, is recorded, and is restarted with capped exponential
backoff; a crash loop trips a restart-budget breaker that fails new
requests fast instead of queueing them behind a worker that cannot serve.

Structured, non-exceptional outcomes extend the monitor's verdict
vocabulary at the queueing layer:

* ``OVERLOADED`` — the request was shed at the door and never enqueued:
  the bounded queue was full (hard backstop), the *projected* queue wait
  exceeded the configured latency SLO (adaptive shedding — the verdict's
  ``detail`` carries the projection), the worker restart budget was
  exhausted, or the server was closing;
* ``EXPIRED`` — the request's deadline elapsed while it waited in the
  queue; it is resolved unscored when the worker dequeues it (re-checked
  after scoring-group formation, so a slow previous batch cannot burn an
  expired ticket's slot);
* requests whose array is not a single ``(C, H, W)`` image are
  ``QUARANTINED`` at the door (the per-request contract is one image —
  shape triage happens before batching so one malformed request can
  never corrupt a coalesced batch).

Determinism: the worker scores each batch through ``monitor.classify`` on the
stacked request images (grouped by shape + dtype, in arrival order), so a
request's verdict is bit-identical to calling the monitor directly with
the same batch. Numerical note: float32 BLAS kernels differ across batch
*sizes* (~1e-7 in joint discrepancy between a 64-wide batch and 64
singleton calls), so results are exactly reproducible for a given batch
partition, and agree to tight tolerance across partitions — see
``docs/serving.md``.

The serving monitor is **hot-swappable**: :meth:`ValidationServer.swap_monitor`
atomically replaces ``self.monitor`` between batches. The worker captures
the monitor reference once per scoring group, so every ticket in a group is
scored wholly by one monitor generation — never a half-swapped mixture —
and the queue keeps flowing through the swap (no drain, no dropped
tickets). :class:`~repro.serve.rollout.RolloutController` drives this to
roll validator bundles with shadow scoring and automatic rollback; see
``docs/rollout.md``.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import obs
from repro.core import resilience
from repro.core.monitor import RuntimeMonitor, ValidationVerdict
from repro.serve.batcher import Ewma, MicroBatcher
from repro.serve.futures import VerdictFuture
from repro.serve.supervisor import SupervisorConfig, WorkerSupervisor

#: Queue-level verdict statuses (extending :data:`repro.core.resilience.STATUSES`).
OVERLOADED = "OVERLOADED"
EXPIRED = "EXPIRED"

#: Smoothing factor of the per-batch service-time EWMA the load shedder
#: projects queue waits from.
SHED_ALPHA = 0.2

#: ``stats()`` count key → ``serve_shed_total`` reason label for requests
#: shed at the door (resolved ``OVERLOADED`` without ever being queued,
#: or drained unscored at shutdown).
SHED_REASONS = {
    "overloaded": "queue_full",
    "shed_slo": "slo",
    "shed_breaker": "breaker",
    "shed_shutdown": "shutdown",
}


def _requests_counter():
    return obs.counter(
        "serve_requests_total",
        help="Serve requests by final outcome",
        labels=("outcome",),
    )


def _shed_counter():
    return obs.counter(
        "serve_shed_total",
        help="Requests shed at the door, by reason",
        labels=("reason",),
    )


def _batch_size_histogram():
    return obs.histogram(
        "serve_batch_size",
        help="Scored micro-batch widths",
        bounds=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
    )


def _wait_seconds_histogram():
    return obs.histogram(
        "serve_wait_seconds",
        help="Queue wait per request (enqueue to batch dispatch)",
    )


@dataclass
class _Ticket:
    """One queued request: its image, its future, and its timing."""

    image: np.ndarray
    future: VerdictFuture
    enqueued_at: float
    deadline: float | None
    retries: int = 0


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs for :class:`ValidationServer`.

    ``max_batch`` bounds batch width (throughput knob), ``max_wait_ms``
    bounds how long a partial batch lingers for more arrivals (latency
    knob; a batch whose arrivals go quiet flushes sooner, see
    :mod:`repro.serve.batcher`), ``queue_depth`` bounds queued requests
    before backpressure, and ``default_timeout_ms`` (optional) gives
    every request a queue deadline unless ``submit`` overrides it. One
    supervised worker thread scores every batch.

    ``latency_slo_ms`` (optional) arms adaptive load shedding: when the
    projected queue wait — the live backlog, in batches, times the
    per-batch service time (an EWMA smoothed with :data:`SHED_ALPHA`) —
    exceeds the SLO, ``submit`` sheds the request immediately with a
    structured ``OVERLOADED`` verdict carrying the projection, instead of
    queueing work that is already late. An empty queue always admits.
    The static ``queue_depth`` bound remains the hard backstop.
    ``supervision`` tunes the worker supervisor (restart backoff,
    restart budget, stall replacement); ``None`` uses
    :class:`~repro.serve.supervisor.SupervisorConfig` defaults.
    """

    max_batch: int = 32
    max_wait_ms: float = 2.0
    queue_depth: int = 256
    default_timeout_ms: float | None = None
    latency_slo_ms: float | None = None
    supervision: SupervisorConfig = field(default_factory=SupervisorConfig)

    def __post_init__(self) -> None:
        if self.default_timeout_ms is not None and self.default_timeout_ms < 0:
            raise ValueError(
                f"default_timeout_ms must be >= 0, got {self.default_timeout_ms}"
            )
        if self.latency_slo_ms is not None and self.latency_slo_ms <= 0:
            raise ValueError(
                f"latency_slo_ms must be > 0, got {self.latency_slo_ms}"
            )


class ValidationServer:
    """Micro-batching front-end over one thread-safe :class:`RuntimeMonitor`.

    Usable as a context manager (``with ValidationServer(monitor) as srv``)
    — the supervised worker starts on entry and is drained and joined on
    exit. The monitor's ``stats``/``health()`` keep counting exactly as
    under serial use; the server adds its own queue-level tallies via
    :meth:`stats` and a combined operator snapshot via :meth:`health`.
    """

    def __init__(
        self,
        monitor: RuntimeMonitor,
        config: ServeConfig | None = None,
        clock: Callable[[], float] | None = None,
        bundle_version: str | None = None,
    ) -> None:
        self.monitor = monitor
        #: Identity of the bundle the serving monitor came from (``None``
        #: for an unbundled monitor); kept in step by :meth:`swap_monitor`.
        self.bundle_version = bundle_version
        #: The attached :class:`~repro.serve.rollout.RolloutController`,
        #: or ``None``; the worker calls its ``observe_group`` hook after each
        #: scoring group resolves (see :meth:`attach_rollout`).
        self.rollout = None
        self.config = config if config is not None else ServeConfig()
        self._clock = clock if clock is not None else time.monotonic
        self.batcher = MicroBatcher(
            max_batch=self.config.max_batch,
            max_wait_ms=self.config.max_wait_ms,
            queue_depth=self.config.queue_depth,
            clock=self._clock,
        )
        self._lock = threading.Lock()
        self._started = False
        self._closed = False
        self._service_ewma = Ewma(SHED_ALPHA)
        self.supervisor = WorkerSupervisor(
            self, self.config.supervision, clock=self._clock
        )
        self._counts = {
            "submitted": 0,
            "completed": 0,
            "overloaded": 0,
            "expired": 0,
            "quarantined_at_submit": 0,
            "shed_slo": 0,
            "shed_breaker": 0,
            "shed_shutdown": 0,
            "failed": 0,
            "batches": 0,
            "worker_errors": 0,
        }

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "ValidationServer":
        """Spawn the supervised worker thread (idempotent)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("server already closed")
            if self._started:
                return self
            self._started = True
        self.supervisor.start()
        return self

    def close(self, timeout: float | None = None) -> None:
        """Stop accepting requests, drain the queue, join the worker.

        Queued requests are still scored if the worker survives to score
        them (the batcher drains before the worker exits); anything left
        in the queue afterwards — e.g. tickets stranded because the worker
        died and restarts were stopped by the close — is resolved with a
        structured ``OVERLOADED`` shutdown verdict, so ``close`` never
        leaks a pending future it can reach. ``timeout`` bounds each join
        — a *wedged* worker (deadlocked scorer under fault injection)
        still holds its in-flight tickets, which then stay unresolved
        rather than hanging ``close``.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.supervisor.stop()  # no restarts during (or after) the drain
        self.batcher.close()
        self.supervisor.join(timeout)
        for ticket in self.batcher.drain():
            self._resolve_rejection(
                ticket.future,
                OVERLOADED,
                "server closed before the request was scored",
                "shed_shutdown",
            )

    def __enter__(self) -> "ValidationServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- hot swap --------------------------------------------------------------

    def swap_monitor(
        self, monitor: RuntimeMonitor, bundle_version: str | None = None
    ) -> RuntimeMonitor:
        """Atomically replace the serving monitor; returns the previous one.

        The swap is a single reference assignment under the server lock —
        the worker captures ``self.monitor`` once per scoring group, so every
        in-flight group finishes on the generation it started with and
        the very next group picks up the new monitor. Nothing is drained
        and no ticket is dropped or re-scored. ``bundle_version`` records
        the identity of the bundle the new monitor came from.
        """
        with self._lock:
            previous = self.monitor
            self.monitor = monitor
            self.bundle_version = bundle_version
        return previous

    def attach_rollout(self, controller) -> None:
        """Register the rollout controller whose ``observe_group`` hook
        the worker invokes after each scoring group (at most one per server)."""
        with self._lock:
            if self.rollout is not None and self.rollout is not controller:
                raise RuntimeError(
                    "a different RolloutController is already attached"
                )
            self.rollout = controller

    # -- request side ----------------------------------------------------------

    def submit(
        self, image: np.ndarray, timeout_ms: float | None = None
    ) -> VerdictFuture:
        """Enqueue one image; returns its future immediately.

        ``timeout_ms`` (defaulting to ``config.default_timeout_ms``) is a
        queue deadline on the server clock: a request still waiting when
        it expires is resolved ``EXPIRED`` instead of scored. Rejections
        (bad shape, tripped restart breaker, projected wait over the SLO,
        full queue) resolve the returned future immediately with a
        structured verdict — ``submit`` itself never raises on bad input,
        matching the monitor's fail-safe contract.
        """
        future = VerdictFuture()
        try:
            array = np.asarray(image)
        except Exception as exc:  # noqa: BLE001 — fail-safe, mirror InputGuard
            self._resolve_rejection(
                future,
                resilience.QUARANTINED,
                f"input not convertible to an array: {exc}",
                "quarantined_at_submit",
            )
            return future
        if array.ndim == 4 and array.shape[0] == 1:
            array = array[0]
        if array.ndim != 3:
            self._resolve_rejection(
                future,
                resilience.QUARANTINED,
                f"serve requests must be single (C, H, W) images, got shape "
                f"{array.shape}",
                "quarantined_at_submit",
            )
            return future
        with self._lock:
            if self._closed:
                raise RuntimeError("cannot submit to a closed server")
            self._counts["submitted"] += 1
        if not self.supervisor.allow_submit():
            # Fail fast: the worker is crash-looping past its restart
            # budget; queueing would only grow latency for a worker that
            # cannot currently serve.
            self._resolve_rejection(
                future,
                OVERLOADED,
                "worker restart budget exhausted; serving suspended until "
                "the supervisor's probe succeeds",
                "shed_breaker",
                detail={"supervisor_state": self.supervisor.breaker.state},
            )
            return future
        slo = self.config.latency_slo_ms
        if slo is not None:
            projected = self._projected_wait_s()
            if projected is not None and projected * 1000.0 > slo:
                self._resolve_rejection(
                    future,
                    OVERLOADED,
                    f"projected queue wait {projected * 1000.0:.1f}ms exceeds "
                    f"the {slo:g}ms latency SLO",
                    "shed_slo",
                    detail={
                        "projected_wait_ms": projected * 1000.0,
                        "slo_ms": slo,
                    },
                )
                return future
        if timeout_ms is None:
            timeout_ms = self.config.default_timeout_ms
        now = self._clock()
        ticket = _Ticket(
            image=array,
            future=future,
            enqueued_at=now,
            deadline=None if timeout_ms is None else now + timeout_ms / 1000.0,
        )
        if not self.batcher.offer(ticket):
            self._resolve_rejection(
                future, OVERLOADED, "request queue full", "overloaded"
            )
        return future

    def classify(self, image: np.ndarray, timeout: float | None = None):
        """Submit one image and block for its verdict (convenience)."""
        return self.submit(image).result(timeout)

    def _projected_wait_s(self) -> float | None:
        """Estimated queue wait for a request submitted right now.

        ``None`` until the first batch has been scored — the shedder never
        rejects on a made-up number. Otherwise the batches queued ahead of
        the request (the live backlog over ``max_batch``, rounded up) times
        the smoothed batch service time. The projection reads the backlog afresh on every call, so it falls as
        soon as the queue drains: an empty queue projects 0 and always
        admits, and a slow batch (a cold monitor's first, say) cannot shut
        the door for good.
        """
        service = self._service_ewma.value
        if service is None:
            return None
        batches_ahead = math.ceil(len(self.batcher) / self.config.max_batch)
        return batches_ahead * service

    # -- worker side -----------------------------------------------------------

    def _resolve_rejection(
        self,
        future: VerdictFuture,
        status: str,
        reason: str,
        count_key: str,
        detail: dict | None = None,
    ) -> None:
        verdict = ValidationVerdict.unscored(
            status, reason, len(self.monitor.validator.validators), detail
        )
        if not future._try_resolve(verdict):
            return  # lost a legitimate race (e.g. close-drain vs. the worker)
        with self._lock:
            self._counts[count_key] += 1
        _requests_counter().labels(outcome=count_key).inc()
        shed_reason = SHED_REASONS.get(count_key)
        if shed_reason is not None:
            _shed_counter().labels(reason=shed_reason).inc()

    def _fail_ticket(self, ticket: _Ticket, exc: BaseException) -> None:
        if not ticket.future._try_fail(exc):
            return
        with self._lock:
            self._counts["failed"] += 1
        _requests_counter().labels(outcome="failed").inc()

    def _fail_batch(self, batch: list[_Ticket], exc: BaseException) -> None:
        for ticket in batch:
            self._fail_ticket(ticket, exc)

    def _requeue_or_fail(self, batch: list[_Ticket], exc: BaseException) -> None:
        """A dying worker's undelivered tickets go back to the queue.

        Each ticket is retried at most ``supervision.max_batch_retries``
        times (a poison batch that kills every worker generation that
        touches it must not bounce forever); beyond that its future is failed with
        the fatal exception.
        """
        retriable = []
        for ticket in batch:
            if ticket.future.done():
                continue
            if ticket.retries < self.config.supervision.max_batch_retries:
                ticket.retries += 1
                retriable.append(ticket)
            else:
                self._fail_ticket(ticket, exc)
        if retriable:
            self.batcher.requeue(retriable)

    def _worker_loop(self, generation: int) -> None:
        """The supervised worker: dequeue, process, report, repeat.

        Every ``BaseException`` is surfaced, never swallowed: an
        ``Exception`` out of ``_process`` fails that batch's futures and
        the worker lives on (scoring the next batch is almost always
        possible — the monitor's own contract is to degrade, not raise);
        anything else — a ``BaseException`` from ``_process`` or *any*
        raise out of ``next_batch`` — requeues or fails the in-flight
        tickets and re-raises, so the supervisor records the death and
        schedules a restart.
        """
        supervisor = self.supervisor
        while True:
            if supervisor.superseded(generation):
                return  # replaced after a stall by a newer generation
            try:
                batch = self.batcher.next_batch()
            except BaseException:
                with self._lock:
                    self._counts["worker_errors"] += 1
                raise  # recorded as a death by the supervisor wrapper
            if batch is None:
                return  # batcher closed and drained: clean exit
            supervisor.beat(generation, busy=True)
            try:
                self._process(batch)
            except Exception as exc:  # noqa: BLE001 — worker outlives the batch
                with self._lock:
                    self._counts["worker_errors"] += 1
                self._fail_batch(batch, exc)
            except BaseException as exc:
                with self._lock:
                    self._counts["worker_errors"] += 1
                self._requeue_or_fail(batch, exc)
                raise
            else:
                supervisor.batch_ok(generation)
            finally:
                supervisor.beat(generation, busy=False)

    def _process(self, batch: list[_Ticket]) -> None:
        now = self._clock()
        waits = _wait_seconds_histogram()
        live: list[_Ticket] = []
        for ticket in batch:
            waits.observe(max(0.0, now - ticket.enqueued_at))
            if ticket.deadline is not None and now > ticket.deadline:
                self._resolve_rejection(
                    ticket.future,
                    EXPIRED,
                    "queue deadline elapsed before scoring",
                    "expired",
                )
            else:
                live.append(ticket)
        if not live:
            return
        with self._lock:
            self._counts["batches"] += 1
        # Group by per-image shape and dtype so np.stack never promotes a
        # request's dtype (which would perturb its scores relative to a
        # direct monitor call). Groups preserve arrival order.
        groups: dict[tuple, list[_Ticket]] = {}
        for ticket in live:
            groups.setdefault(
                (ticket.image.shape, ticket.image.dtype.str), []
            ).append(ticket)
        for tickets in groups.values():
            # Re-check deadlines after group formation: scoring the
            # previous group may have consumed more than a ticket's
            # remaining budget, and an expired ticket must not burn a
            # slot in the stacked batch.
            now = self._clock()
            fresh: list[_Ticket] = []
            for ticket in tickets:
                if ticket.deadline is not None and now > ticket.deadline:
                    self._resolve_rejection(
                        ticket.future,
                        EXPIRED,
                        "queue deadline elapsed before scoring",
                        "expired",
                    )
                else:
                    fresh.append(ticket)
            if not fresh:
                continue
            images = np.stack([ticket.image for ticket in fresh])
            started = self._clock()
            # Capture the monitor reference exactly once per scoring
            # group: a concurrent swap_monitor takes effect at the next
            # group boundary, so no ticket is ever scored by a
            # half-swapped mixture of generations.
            monitor = self.monitor
            with obs.span("serve.batch", size=len(fresh)):
                _batch_size_histogram().observe(float(len(fresh)))
                verdicts = monitor.classify(images)
            self._service_ewma.observe(max(0.0, self._clock() - started))
            # One lock hold for the whole group's tally (not one per
            # ticket); futures resolve outside the lock so waiters never
            # contend with the server's bookkeeping.
            with self._lock:
                self._counts["completed"] += len(fresh)
            _requests_counter().labels(outcome="completed").inc(len(fresh))
            for ticket, verdict in zip(fresh, verdicts):
                ticket.future._try_resolve(verdict)
            controller = self.rollout
            if controller is not None:
                # After the futures resolve, so shadow scoring never adds
                # to request latency; the hook is contractually non-raising.
                controller.observe_group(images, verdicts, monitor)

    # -- observability ---------------------------------------------------------

    def stats(self) -> dict:
        """Queue-level tallies, queue depth, and supervision summary."""
        with self._lock:
            counts = dict(self._counts)
        counts["queue_depth"] = len(self.batcher)
        counts["bundle_version"] = self.bundle_version
        supervisor = self.supervisor.snapshot()
        counts["live_workers"] = supervisor["live_workers"]
        counts["restarts"] = supervisor["restarts"]
        counts["supervisor_state"] = supervisor["state"]
        return counts

    def health(self) -> dict:
        """Operator snapshot: server-side supervision/shedding + monitor.

        ``server.supervisor`` is the full
        :meth:`WorkerSupervisor.snapshot` (worker liveness, restart/death
        counts, breaker state); ``server.shedding`` exposes the adaptive
        shedder's current estimates; ``monitor`` is the unchanged
        :meth:`RuntimeMonitor.health` snapshot.
        """
        return {
            "server": {
                "counts": self.stats(),
                "supervisor": self.supervisor.snapshot(),
                "shedding": {
                    "latency_slo_ms": self.config.latency_slo_ms,
                    "ewma_service_s": self._service_ewma.value,
                    "projected_wait_s": self._projected_wait_s(),
                },
                "rollout": (
                    None if self.rollout is None else self.rollout.snapshot()
                ),
            },
            "monitor": self.monitor.health(),
        }

    def __repr__(self) -> str:
        return (
            f"ValidationServer(max_batch={self.config.max_batch}, stats={self.stats()})"
        )
