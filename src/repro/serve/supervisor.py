"""Worker supervision: death detection, capped-backoff restarts, fail-fast.

Without supervision the serving layer has a single point of silent
death: a worker thread that hits a ``BaseException`` (or any raise out
of ``MicroBatcher.next_batch``) exits permanently while the server keeps
accepting requests it will never score. :class:`WorkerSupervisor`
closes that hole for the server's one worker:

* it **owns** the worker thread, and tracks its generation token, its
  heartbeat (the start of the batch in hand), and its restart count;
* it **detects death** two ways: the worker reports its own demise
  (every ``BaseException`` escaping the worker loop is recorded and
  re-raised to the supervisor's thread wrapper), and a periodic
  join-probe catches a thread that vanished without reporting;
* it **restarts** a dead worker with capped exponential backoff
  (``BACKOFF_BASE_S * 2**consecutive_restarts``, capped at
  ``BACKOFF_CAP_S``, measured on the injectable clock);
* it **fails fast** when restarting stops helping: worker deaths feed a
  :class:`~repro.core.resilience.CircuitBreaker` whose
  ``failure_window`` turns the threshold into a *budget per window* —
  once ``restart_budget`` deaths land within ``restart_window_s``, the
  breaker opens, the server sheds new requests with structured
  ``OVERLOADED`` verdicts, and restarts pause until the cooldown
  half-opens the breaker for a probe restart.

Optionally (``heartbeat_timeout_s``), the supervisor also *replaces* a
stalled worker: a worker busy on one batch for longer than the timeout
is superseded — a fresh thread with a new generation takes over while
the wedged thread is left to finish (or not) as a zombie beside it;
generation checks make the zombie's late bookkeeping harmless.

Everything time-like runs on the injected clock, and :meth:`poll` is a
public synchronous entry point, so the chaos harness
(:mod:`repro.testing.chaos`) drives the whole lifecycle deterministically
under a :class:`~repro.obs.tracing.ManualClock`; in production a
background poll thread calls it on a real-time cadence.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from repro import obs
from repro.core.resilience import CircuitBreaker


#: Restart backoff: the first restart waits this long after a death, and
#: each consecutive restart doubles the wait, up to :data:`BACKOFF_CAP_S`.
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0


def _restarts_counter():
    return obs.counter(
        "serve_worker_restarts_total",
        help="Serve worker threads restarted by the supervisor",
    )


@dataclass(frozen=True)
class SupervisorConfig:
    """Tuning knobs for :class:`WorkerSupervisor`.

    ``restart_budget`` worker deaths within ``restart_window_s`` trip the
    restart breaker (fail-fast shedding); the same window is the breaker
    cooldown before a probe restart. The restart backoff itself is fixed
    (:data:`BACKOFF_BASE_S`, :data:`BACKOFF_CAP_S`).
    ``heartbeat_timeout_s`` (optional) additionally
    replaces a worker that has been busy on a single batch longer than
    the timeout; ``None`` (the default) trusts the worker to finish —
    replacement spawns threads we can never reclaim, so it is opt-in.
    ``poll_interval_s`` is the real-time cadence of the background poll
    thread (``None`` disables it — tests then call ``poll()`` directly).
    ``max_batch_retries`` bounds how many times a ticket orphaned by a
    dying worker is requeued before its future is failed with the
    worker's exception.
    """

    restart_budget: int = 5
    restart_window_s: float = 30.0
    heartbeat_timeout_s: float | None = None
    poll_interval_s: float | None = 0.02
    max_batch_retries: int = 2

    def __post_init__(self) -> None:
        if self.restart_budget < 1:
            raise ValueError(f"restart_budget must be >= 1, got {self.restart_budget}")
        if self.restart_window_s <= 0:
            raise ValueError(
                f"restart_window_s must be > 0, got {self.restart_window_s}"
            )
        if self.heartbeat_timeout_s is not None and self.heartbeat_timeout_s <= 0:
            raise ValueError(
                f"heartbeat_timeout_s must be > 0, got {self.heartbeat_timeout_s}"
            )
        if self.poll_interval_s is not None and self.poll_interval_s <= 0:
            raise ValueError(
                f"poll_interval_s must be > 0, got {self.poll_interval_s}"
            )
        if self.max_batch_retries < 0:
            raise ValueError(
                f"max_batch_retries must be >= 0, got {self.max_batch_retries}"
            )


class WorkerSupervisor:
    """Owns a server's worker thread; detects death, restarts, fails fast.

    The supervisor holds no scoring logic — it runs the server's
    ``_worker_loop`` inside a wrapper that turns any escaping
    ``BaseException`` into a recorded death, and a :meth:`poll` pass that
    probes liveness and performs a due restart. The server consults
    :meth:`allow_submit` at the door: a tripped restart breaker means
    "the worker is crash-looping, shed instead of queueing".
    """

    def __init__(
        self,
        server,
        config: SupervisorConfig | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        import time

        self._server = server
        self.config = config if config is not None else SupervisorConfig()
        self._clock = clock if clock is not None else time.monotonic
        self._lock = threading.RLock()
        # The one worker's state. ``generation`` tokens each spawned
        # thread, so a superseded zombie's late reports are ignored.
        self._generation = 0
        self._thread: threading.Thread | None = None
        self._state = "idle"  # idle | live | dead | stalled | exited
        self._busy_since: float | None = None
        self._died_at: float | None = None
        self._consecutive_restarts = 0
        self._last_error: str | None = None
        self._started = False
        self._stopped = False
        self._poll_thread: threading.Thread | None = None
        self._poll_wakeup = threading.Event()
        self._poll_errors = 0
        self._last_poll_error: str | None = None
        self.restarts = 0
        self.deaths = 0
        self.stalls = 0
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.restart_budget,
            cooldown=self.config.restart_window_s,
            clock=self._clock,
            failure_window=self.config.restart_window_s,
        )

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker plus the background poll thread."""
        with self._lock:
            if self._started:
                return
            self._started = True
            self._spawn()
            if self.config.poll_interval_s is not None:
                self._poll_thread = threading.Thread(
                    target=self._poll_loop,
                    name="repro-serve-supervisor",
                    daemon=True,
                )
                self._poll_thread.start()

    def stop(self) -> None:
        """Stop restarting and polling (the server is closing)."""
        with self._lock:
            self._stopped = True
        self._poll_wakeup.set()

    def join(self, timeout: float | None = None) -> None:
        """Join the poll thread and the current-generation worker.

        ``timeout`` bounds each individual join. A superseded (zombie)
        thread is *not* joined — it is a daemon wedged on a batch the
        supervisor already gave up on; joining it would reintroduce the
        hang the stall replacement existed to avoid.
        """
        if self._poll_thread is not None:
            self._poll_thread.join(timeout)
        with self._lock:
            thread = self._thread
        if thread is not None:
            thread.join(timeout)

    # -- worker-side reporting -------------------------------------------------

    def beat(self, generation: int, busy: bool) -> None:
        """Record a worker heartbeat (``busy`` marks batch start/finish)."""
        with self._lock:
            if self._generation != generation:
                return  # a superseded zombie; the worker has moved on
            self._busy_since = self._clock() if busy else None

    def batch_ok(self, generation: int) -> None:
        """The worker finished a batch cleanly: recovery is working."""
        with self._lock:
            if self._generation != generation:
                return
            self._consecutive_restarts = 0
            # Only a half-open probe success should close the breaker:
            # within the window, deaths must keep counting toward the
            # budget even when interleaved with completed batches (a
            # crash loop that limps through one batch per life is still
            # a crash loop).
            if self.breaker.state == CircuitBreaker.HALF_OPEN:
                self.breaker.record_success()

    def record_death(self, generation: int, exc: BaseException) -> None:
        """The worker's loop raised: mark it dead and feed the budget."""
        with self._lock:
            if self._generation != generation:
                return  # zombie death after replacement; already accounted
            self._mark_down("dead", f"{type(exc).__name__}: {exc}")
            self.deaths += 1

    def record_exit(self, generation: int) -> None:
        """The worker drained the closed batcher and exited cleanly."""
        with self._lock:
            if self._generation != generation:
                return
            self._state = "exited"
            self._busy_since = None

    def superseded(self, generation: int) -> bool:
        """Whether the worker of this generation has been replaced."""
        with self._lock:
            return self._generation != generation

    # -- supervision pass ------------------------------------------------------

    def allow_submit(self) -> bool:
        """Whether the door is open (restart breaker not tripped)."""
        return self.breaker.allow()

    def poll(self) -> int:
        """One supervision pass: probe liveness, perform a due restart.

        Returns the number of workers (re)started, 0 or 1. Safe to call
        from any thread and fully deterministic under an injected clock —
        the chaos harness calls it directly instead of relying on the
        real-time poll thread.
        """
        with self._lock:
            if not self._started or self._stopped or self._server._closed:
                return 0
            now = self._clock()
            if self._state == "live":
                if self._thread is not None and not self._thread.is_alive():
                    # Join-probe backstop: the thread vanished without
                    # reporting (should be impossible — the wrapper
                    # catches BaseException — but a supervisor must not
                    # trust its wards).
                    self._mark_down("dead", "worker thread exited without reporting")
                    self.deaths += 1
                elif (
                    self.config.heartbeat_timeout_s is not None
                    and self._busy_since is not None
                    and now - self._busy_since > self.config.heartbeat_timeout_s
                ):
                    # Stalled: wedged on one batch past the heartbeat
                    # budget. Supersede the thread (it may never return)
                    # and treat the worker as restartable.
                    self._mark_down(
                        "stalled",
                        f"worker stalled: busy > {self.config.heartbeat_timeout_s}s "
                        "on one batch",
                    )
                    self.stalls += 1
            if self._state not in ("dead", "stalled"):
                return 0
            backoff = min(
                BACKOFF_BASE_S * (2 ** self._consecutive_restarts),
                BACKOFF_CAP_S,
            )
            if self._died_at is not None and now - self._died_at < backoff:
                return 0
            if not self.breaker.allow():
                return 0  # budget blown; wait out the cooldown
            self._consecutive_restarts += 1
            self.restarts += 1
            _restarts_counter().inc()
            self._spawn()
            return 1

    def _mark_down(self, state: str, error: str) -> None:
        # Caller holds the lock.
        self._state = state
        self._died_at = self._clock()
        self._busy_since = None
        self._last_error = error
        self.breaker.record_failure()

    def _spawn(self) -> None:
        # Caller holds the lock.
        self._generation += 1
        self._state = "live"
        self._busy_since = None
        self._died_at = None
        generation = self._generation
        thread = threading.Thread(
            target=self._run_worker,
            args=(generation,),
            name=f"repro-serve-worker-gen{generation}",
            daemon=True,
        )
        self._thread = thread
        thread.start()

    def _run_worker(self, generation: int) -> None:
        try:
            self._server._worker_loop(generation)
        except BaseException as exc:  # noqa: BLE001 — the supervision boundary
            self.record_death(generation, exc)
        else:
            self.record_exit(generation)

    def _poll_loop(self) -> None:
        while True:
            self._poll_wakeup.wait(self.config.poll_interval_s)
            with self._lock:
                if self._stopped:
                    return
            try:
                self.poll()
            except Exception as exc:  # noqa: BLE001 — the poller must not die
                with self._lock:
                    self._poll_errors += 1
                    self._last_poll_error = f"{type(exc).__name__}: {exc}"

    # -- observability ---------------------------------------------------------

    @property
    def live_workers(self) -> int:
        """1 while the worker is live (state and thread liveness agree), else 0."""
        with self._lock:
            return int(
                self._state == "live"
                and self._thread is not None
                and self._thread.is_alive()
            )

    def snapshot(self) -> dict:
        """Operator-facing supervision summary (atomic)."""
        with self._lock:
            return {
                "live_workers": self.live_workers,
                "restarts": self.restarts,
                "deaths": self.deaths,
                "stalls": self.stalls,
                "state": self.breaker.state,
                "breaker": self.breaker.snapshot(),
                "poll_errors": self._poll_errors,
                "last_poll_error": self._last_poll_error,
                "worker": {
                    "state": self._state,
                    "generation": self._generation,
                    "consecutive_restarts": self._consecutive_restarts,
                    "last_error": self._last_error,
                },
            }

    def __repr__(self) -> str:
        return (
            f"WorkerSupervisor(live={self.live_workers}, "
            f"restarts={self.restarts}, state={self.breaker.state!r})"
        )
