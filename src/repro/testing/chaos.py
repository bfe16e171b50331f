"""Deterministic chaos-soak harness for the serving stack.

DeepXplore and DeepSaucer argue that *systematic, automated* exercise of
failure-inducing conditions is what surfaces the corner cases humans
don't anticipate. This module applies that philosophy to our own serving
infrastructure: a :class:`ChaosPlan` composes any fault injector from
:mod:`repro.testing.faults` (through its one builder,
:meth:`ChaosPlan.fault`) into a timeline of arm/disarm windows driven by a
:class:`~repro.obs.tracing.ManualClock`, and :func:`run_soak` replays a
scripted request stream against a live :class:`~repro.serve.server.
ValidationServer` while the timeline plays out — killing the worker,
wedging scorers, corrupting activations — then asserts the supervision
layer's whole-system invariants:

* **every submitted future resolves** — no dropped requests, no
  deadlock, even when the worker has died and been restarted;
* **count conservation** — ``submitted`` equals the sum of every
  terminal outcome (completed / expired / shed / failed), and the
  supervisor's restart count equals its death + stall count once the
  worker is restored;
* **no verdict after close** — ``submit`` raises and the completion
  counters stay frozen;
* **deaths match the plan** — the supervisor recorded exactly the
  deaths the injectors actually fired (cross-checked against each
  injector's own stats, so a silently-swallowed death cannot pass).

Determinism: the fault *schedule* and the request stream are exact — the
clock only moves when the harness advances it, injector trigger points
are call-number based, and any randomness (e.g. a jittered request rate)
flows from the plan's seed. Thread interleavings remain real (the worker
is a real thread scoring real batches), which is the point: the
invariants must hold for *every* interleaving, and the soak hammers a
different one each run while the failure schedule stays fixed.
"""

from __future__ import annotations

import functools
import time as _time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np


class SoakInvariantError(AssertionError):
    """A chaos soak violated a whole-system serving invariant."""


@dataclass
class _TimedFault:
    """One injector armed for a window of the soak timeline."""

    start: float
    stop: float | None  # None: armed until the end of the soak
    label: str
    factory: Callable[[], Any]  # context-manager factory
    cm: Any = None  # entered context manager while armed
    stats: dict | None = None  # the injector's yielded stats dict

    @property
    def armed(self) -> bool:
        return self.cm is not None


@dataclass
class _TimedEvent:
    """One scripted action fired once when the soak clock reaches ``at``.

    Unlike a :class:`_TimedFault` (a context-managed window), an event is
    a plain callable — e.g. ``controller.begin_shadow(...)`` or
    ``controller.promote()`` for mid-soak rollout scripts. Its return
    value lands in ``result``; an exception is captured in ``error`` (and
    the timeline) rather than raised into the soak driver, so a scripted
    action that is *expected* to be refused (a latched bundle, a corrupt
    frame) is an observable outcome, not a crashed soak.
    """

    at: float
    label: str
    action: Callable[[], Any]
    fired: bool = False
    result: Any = None
    error: BaseException | None = None


@dataclass
class SoakReport:
    """What a completed soak run observed (returned by :func:`run_soak`)."""

    submitted: int
    resolved: dict  # status (or "error:<Type>") -> count, over all futures
    verdicts: list  # per-request verdict or exception, in submit order
    stats: dict  # server.stats() after close
    supervisor: dict  # supervisor.snapshot() after close
    monitor_counts: dict  # monitor.health()["counts"] after close
    injected_deaths: int  # kills + batcher raises the injectors fired
    timeline: list = field(default_factory=list)

    def outcome(self, key: str) -> int:
        """How many futures resolved with ``key`` (a status or ``error:<Type>``)."""
        return self.resolved.get(key, 0)


class ChaosPlan:
    """A seeded, declarative timeline of serving faults.

    :meth:`fault` arms any :mod:`repro.testing.faults` injector from
    ``at`` (arm time) to ``until`` (disarm time, ``None`` = end of soak)
    on the soak's manual clock, and :meth:`at` fires a one-off action.
    The plan is reusable: a fresh soak re-enters every injector from
    scratch.

    ``seed`` drives any randomness :func:`run_soak` needs (currently the
    jittered per-step request count when ``requests_per_step`` is a
    range) — the same plan and seed always produce the same schedule.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._faults: list[_TimedFault] = []
        self._events: list[_TimedEvent] = []

    # -- builders --------------------------------------------------------------

    def fault(
        self,
        injector: Callable[..., Any],
        *args: Any,
        at: float = 0.0,
        until: float | None = None,
        **kwargs: Any,
    ) -> "ChaosPlan":
        """Arm ``injector(*args, **kwargs)`` for the window ``[at, until)``.

        ``injector`` is any :mod:`repro.testing.faults` context manager,
        e.g. ``.fault(faults.kill_worker, server, at=0.2, nth=1, count=1)``;
        it is entered afresh each time the window opens. The window's
        :meth:`describe` label is the injector's name and its keyword
        arguments.
        """
        if at < 0:
            raise ValueError(f"fault start must be >= 0, got {at}")
        if until is not None and until <= at:
            raise ValueError(f"fault window is empty: [{at}, {until})")
        arguments = ", ".join(f"{key}={value!r}" for key, value in kwargs.items())
        self._faults.append(
            _TimedFault(
                at,
                until,
                f"{injector.__name__}({arguments})",
                functools.partial(injector, *args, **kwargs),
            )
        )
        return self

    def at(self, time: float, label: str, action: Callable[[], Any]) -> "ChaosPlan":
        """Fire ``action`` once when the soak clock reaches ``time``.

        The hook mid-soak rollout tests script ``begin_shadow`` /
        ``promote`` / ``rollback`` through. The action's return value (or
        captured exception) is recorded on the event — read it back with
        :meth:`events` after the soak.
        """
        if time < 0:
            raise ValueError(f"event time must be >= 0, got {time}")
        self._events.append(_TimedEvent(at=time, label=label, action=action))
        return self

    def events(self) -> list[_TimedEvent]:
        """The scripted events, in registration order (post-soak: fired
        flags, results, and captured errors filled in)."""
        return list(self._events)

    # -- introspection ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._faults) + len(self._events)

    def describe(self) -> list[str]:
        """Human-readable fault windows and events, in registration order."""
        windows = [
            f"[{fault.start:g}, "
            f"{'end' if fault.stop is None else format(fault.stop, 'g')}) "
            f"{fault.label}"
            for fault in self._faults
        ]
        return windows + [f"@{event.at:g} {event.label}" for event in self._events]

    def injected_deaths(self) -> int:
        """Worker deaths the injectors actually fired (post-soak)."""
        total = 0
        for fault in self._faults:
            if fault.stats is not None:
                total += fault.stats.get("kills", 0)
                total += fault.stats.get("raises", 0)
        return total

    # -- timeline engine (run_soak's internals) --------------------------------

    def _sync(self, now: float, timeline: list) -> None:
        """Arm faults whose window contains ``now``; disarm elapsed ones;
        fire due events exactly once."""
        for fault in self._faults:
            if fault.armed and fault.stop is not None and now >= fault.stop:
                self._disarm(fault, now, timeline)
        for fault in self._faults:
            in_window = fault.start <= now and (
                fault.stop is None or now < fault.stop
            )
            if in_window and not fault.armed:
                fault.cm = fault.factory()
                fault.stats = fault.cm.__enter__()
                timeline.append(f"t={now:g} arm {fault.label}")
        for event in self._events:
            if not event.fired and now >= event.at:
                event.fired = True
                try:
                    event.result = event.action()
                except BaseException as exc:  # noqa: BLE001 — recorded, not raised
                    event.error = exc
                    timeline.append(
                        f"t={now:g} event {event.label} raised "
                        f"{type(exc).__name__}: {exc}"
                    )
                else:
                    timeline.append(f"t={now:g} event {event.label}")

    def _disarm(self, fault: _TimedFault, now: float, timeline: list) -> None:
        cm, fault.cm = fault.cm, None
        cm.__exit__(None, None, None)
        timeline.append(f"t={now:g} disarm {fault.label}")

    def _disarm_all(self, now: float, timeline: list) -> None:
        for fault in reversed(self._faults):
            if fault.armed:
                self._disarm(fault, now, timeline)


def run_soak(
    server,
    images,
    clock,
    plan: ChaosPlan | None = None,
    *,
    step_s: float = 0.05,
    requests_per_step: int | tuple[int, int] = 1,
    timeout_ms: float | None = None,
    settle_s: float = 30.0,
    expect_restored: bool = True,
    close_timeout_s: float = 10.0,
) -> SoakReport:
    """Replay a scripted request stream under a fault timeline.

    ``server`` is started if needed and **closed by the soak**. ``images``
    are submitted in order, ``requests_per_step`` at a time (a
    ``(lo, hi)`` tuple draws each step's count from the plan's seeded
    rng), advancing ``clock`` — the server's and plan's shared
    :class:`~repro.obs.tracing.ManualClock` — by ``step_s`` per step and
    calling ``supervisor.poll()`` explicitly, so deaths, backoffs, and
    breaker windows play out deterministically on the fault schedule.

    After the stream is exhausted the remaining faults are disarmed
    (releasing a wedged worker), and the soak enters a bounded
    recovery phase: polling the supervisor and advancing the clock until
    every submitted future has resolved, the queue is empty, and — with
    ``expect_restored`` — the worker is live again. Then the server is
    closed and the invariants are checked; any violation raises
    :class:`SoakInvariantError`. ``settle_s`` and
    ``close_timeout_s`` bound the real-time wait (a genuine deadlock
    must fail the soak, not hang it).
    """
    plan = plan if plan is not None else ChaosPlan()
    rng = np.random.default_rng(plan.seed)
    timeline: list = []
    futures = []
    server.start()

    def draw() -> int:
        if isinstance(requests_per_step, tuple):
            lo, hi = requests_per_step
            return int(rng.integers(lo, hi + 1))
        return int(requests_per_step)

    index = 0
    while index < len(images):
        now = clock()
        plan._sync(now, timeline)
        burst = min(max(draw(), 1), len(images) - index)
        for _ in range(burst):
            futures.append(server.submit(images[index], timeout_ms=timeout_ms))
            index += 1
        timeline.append(f"t={now:g} submit {burst} (total {index})")
        server.supervisor.poll()
        clock.advance(step_s)
        _time.sleep(0.001)  # let real worker threads make progress

    plan._disarm_all(clock(), timeline)
    timeline.append(f"t={clock():g} recovery begins")

    deadline = _time.monotonic() + settle_s
    while True:
        server.supervisor.poll()
        pending = sum(1 for future in futures if not future.done())
        restored = (
            not expect_restored
            or server.supervisor.live_workers == 1
        )
        if pending == 0 and restored and len(server.batcher) == 0:
            break
        if _time.monotonic() > deadline:
            raise SoakInvariantError(
                f"soak failed to settle within {settle_s}s: {pending} futures "
                f"pending, live_workers={server.supervisor.live_workers}, "
                f"queue_depth={len(server.batcher)}; timeline: {timeline}"
            )
        clock.advance(step_s)  # let backoffs and breaker cooldowns elapse
        _time.sleep(0.005)
    timeline.append(f"t={clock():g} recovered")

    server.close(timeout=close_timeout_s)

    # -- invariants ------------------------------------------------------------

    resolved: dict = {}
    verdicts = []
    for position, future in enumerate(futures):
        if not future.done():
            raise SoakInvariantError(
                f"request {position} never resolved (after close)"
            )
        try:
            verdict = future.result(timeout=0)
        except BaseException as exc:  # noqa: BLE001 — tallied, not hidden
            verdicts.append(exc)
            key = f"error:{type(exc).__name__}"
        else:
            verdicts.append(verdict)
            key = verdict.status
        resolved[key] = resolved.get(key, 0) + 1

    stats = server.stats()
    terminal = (
        stats["completed"]
        + stats["expired"]
        + stats["overloaded"]
        + stats["shed_slo"]
        + stats["shed_breaker"]
        + stats["shed_shutdown"]
        + stats["failed"]
    )
    if stats["submitted"] != terminal:
        raise SoakInvariantError(
            f"count conservation violated: submitted={stats['submitted']} != "
            f"sum of terminal outcomes {terminal} ({stats})"
        )
    if len(futures) != stats["submitted"] + stats["quarantined_at_submit"]:
        raise SoakInvariantError(
            f"request accounting violated: {len(futures)} futures != "
            f"submitted {stats['submitted']} + quarantined "
            f"{stats['quarantined_at_submit']}"
        )

    # No verdict after close: submission refused, counters frozen.
    try:
        server.submit(images[0])
    except RuntimeError:
        pass
    else:
        raise SoakInvariantError("submit() accepted a request after close")
    _time.sleep(0.02)
    after = server.stats()
    for key in ("completed", "expired", "failed", "submitted"):
        if after[key] != stats[key]:
            raise SoakInvariantError(
                f"counter {key!r} moved after close: {stats[key]} -> {after[key]}"
            )

    supervisor = server.supervisor.snapshot()
    injected = plan.injected_deaths()
    if supervisor["deaths"] != injected:
        raise SoakInvariantError(
            f"supervisor recorded {supervisor['deaths']} deaths but the "
            f"injectors fired {injected}"
        )
    if expect_restored and supervisor["restarts"] != (
        supervisor["deaths"] + supervisor["stalls"]
    ):
        raise SoakInvariantError(
            f"restart accounting violated: restarts={supervisor['restarts']} "
            f"!= deaths {supervisor['deaths']} + stalls {supervisor['stalls']}"
        )

    return SoakReport(
        submitted=len(futures),
        resolved=resolved,
        verdicts=verdicts,
        stats=stats,
        supervisor=supervisor,
        monitor_counts=server.monitor.health()["counts"],
        injected_deaths=injected,
        timeline=timeline,
    )
