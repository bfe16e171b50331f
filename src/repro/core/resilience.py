"""Resilience layer for the validation serving stack.

Deep Validation's premise is that the *classifier* fails on corner-case
inputs — but a production monitor must also survive failures of its own
substrate: NaN activations from a numerically-broken layer, a scorer that
starts raising, an input that violates the serving contract. This module
provides the two building blocks :class:`~repro.core.monitor.RuntimeMonitor`
composes into a fault-tolerant serving path:

* :class:`InputGuard` — shape/dtype/range/finiteness contract checks that
  turn malformed inputs into structured ``QUARANTINED`` verdicts instead of
  exceptions deep inside the forward pass;
* :class:`CircuitBreaker` — per-layer failure accounting with the classic
  closed → open → half-open lifecycle, so a persistently broken layer
  validator is skipped outright (no latency spent on a known-bad scorer)
  and re-probed after a cooldown.

When layers are skipped or fail, the monitor scores the rest through
``DeepValidator.combine(per_layer, skipped=...)``, which drops those
columns and rescales the remaining sum (and hence the effective
threshold) by the calibrated per-layer contributions, so flagging stays
meaningful instead of biased toward acceptance. Degraded scoring
announces itself with :class:`DegradedModeWarning` (escalatable to an
error via ``REPRO_STRICT=1``, see :mod:`repro.utils.warnings_`), and
every skipped layer is recorded on the verdict so operators can see
partial failure instead of silence.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

#: Verdict statuses (see :class:`~repro.core.monitor.ValidationVerdict`).
VALIDATED = "VALIDATED"
FLAGGED = "FLAGGED"
QUARANTINED = "QUARANTINED"
DEGRADED = "DEGRADED"

#: Every status a verdict can carry.
STATUSES = (VALIDATED, FLAGGED, QUARANTINED, DEGRADED)


class DegradedModeWarning(RuntimeWarning):
    """Emitted when scoring proceeds with one or more layer validators skipped."""


# -- input contract ------------------------------------------------------------


@dataclass
class GuardReport:
    """Structured outcome of :meth:`InputGuard.inspect`.

    ``images`` is the sanitised ``(N, ...)`` batch (``None`` when the batch
    as a whole violates the contract and per-sample recovery is
    impossible); ``batch_reason`` explains a whole-batch rejection;
    ``sample_reasons`` maps the indices of individually quarantined samples
    to human-readable reasons.
    """

    images: np.ndarray | None
    count: int
    batch_reason: str | None = None
    sample_reasons: dict[int, str] = field(default_factory=dict)

    @property
    def ok_mask(self) -> np.ndarray:
        """Boolean mask over the batch of samples that passed every check."""
        mask = np.ones(self.count, dtype=bool)
        if self.batch_reason is not None:
            mask[:] = False
        else:
            for index in self.sample_reasons:
                mask[index] = False
        return mask


#: Accepted numpy dtype kinds: floats, ints, unsigned ints and bools.
#: Object/string batches are rejected wholesale.
ALLOWED_KINDS = "fiub"


class InputGuard:
    """Serving-contract checks applied before any forward pass.

    Every guard accepts only numeric batches (:data:`ALLOWED_KINDS`) and
    quarantines samples containing NaN or Inf — a NaN pixel otherwise
    poisons every downstream activation.

    Parameters
    ----------
    expected_shape:
        Per-image shape (e.g. ``(1, 12, 12)``); ``None`` accepts any.
    value_range:
        Inclusive ``(low, high)`` bounds on pixel values; ``None`` skips
        the check.
    """

    def __init__(
        self,
        expected_shape: tuple[int, ...] | None = None,
        value_range: tuple[float, float] | None = None,
    ) -> None:
        if value_range is not None and value_range[0] > value_range[1]:
            raise ValueError(f"value_range low > high: {value_range}")
        self.expected_shape = tuple(expected_shape) if expected_shape else None
        self.value_range = value_range

    def inspect(self, images) -> GuardReport:
        """Check a batch against the contract; never raises on bad input.

        A 3-D input is promoted to a singleton batch (matching the
        monitor's historical behaviour). Whole-batch violations (wrong
        dtype kind, wrong rank, wrong per-image shape) quarantine every
        sample; value violations (non-finite pixels, out-of-range values)
        quarantine only the offending samples.
        """
        try:
            array = np.asarray(images)
        except Exception as exc:  # noqa: BLE001 — the contract is "never raise"
            return GuardReport(
                None, 1, batch_reason=f"input not convertible to an array: {exc}"
            )
        if array.dtype.kind not in ALLOWED_KINDS:
            count = len(array) if array.ndim >= 1 else 1
            return GuardReport(
                None, max(count, 1),
                batch_reason=f"unsupported dtype kind {array.dtype!s}",
            )
        if array.ndim == 3:
            array = array[None]
        if array.ndim != 4:
            count = len(array) if array.ndim >= 1 else 1
            return GuardReport(
                None, max(count, 1),
                batch_reason=f"expected a (N, C, H, W) batch, got shape {array.shape}",
            )
        if self.expected_shape is not None and array.shape[1:] != self.expected_shape:
            return GuardReport(
                None, len(array),
                batch_reason=(
                    f"per-image shape {array.shape[1:]} != expected "
                    f"{self.expected_shape}"
                ),
            )
        reasons: dict[int, str] = {}
        if len(array) and array.dtype.kind == "f":
            finite = np.isfinite(array.reshape(len(array), -1)).all(axis=1)
            for index in np.flatnonzero(~finite):
                reasons[int(index)] = "non-finite pixel values (NaN/Inf)"
        if len(array) and self.value_range is not None:
            low, high = self.value_range
            flat = array.reshape(len(array), -1)
            with np.errstate(invalid="ignore"):
                bad = (flat < low) | (flat > high)
            for index in np.flatnonzero(bad.any(axis=1)):
                index = int(index)
                if index not in reasons:
                    reasons[index] = f"pixel values outside [{low}, {high}]"
        return GuardReport(array, len(array), sample_reasons=reasons)


# -- per-layer circuit breaking ------------------------------------------------


class CircuitBreaker:
    """Consecutive-failure circuit breaker with a half-open probe.

    Closed: every call is allowed. After ``failure_threshold`` consecutive
    failures the breaker opens: calls are disallowed (the layer is skipped
    without being evaluated) until ``cooldown`` seconds elapse, after which
    the breaker half-opens and allows a single probe — success closes it,
    failure re-opens it and restarts the cooldown.

    ``failure_window`` (optional) turns "consecutive failures" into
    "failures within a sliding window": a failure recorded more than
    ``failure_window`` seconds after the previous one restarts the streak
    at 1 instead of extending it. The serve-layer
    :class:`~repro.serve.supervisor.WorkerSupervisor` uses this to express
    a restart *budget per window* — occasional, widely-spaced worker
    deaths never trip it, a crash loop does.

    ``clock`` is injectable (default ``time.monotonic``) so tests drive
    the lifecycle deterministically. ``on_transition(old, new)`` is an
    optional hook fired on every state change (including the lazy
    open → half-open cooldown transition); the monitor uses it to publish
    breaker state metrics without this module importing the observability
    layer. Hook exceptions propagate — a broken hook is a bug, not a
    serving condition.

    All state reads and mutations are serialised by an internal re-entrant
    lock, so a breaker shared across serving threads counts every failure
    and fires each transition (and its hook) exactly once per state
    change — concurrent ``record_failure`` calls cannot both observe the
    pre-open state and double-open the breaker. The hook runs while the
    lock is held; it must not call back into the same breaker from
    another thread.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Callable[[str, str], None] | None = None,
        failure_window: float | None = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, got {failure_threshold}")
        if cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {cooldown}")
        if failure_window is not None and failure_window <= 0:
            raise ValueError(f"failure_window must be > 0, got {failure_window}")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.clock = clock
        self.on_transition = on_transition
        self.failure_window = failure_window
        self._lock = threading.RLock()
        self._state = self.CLOSED
        self._opened_at: float | None = None
        self._last_failure_at: float | None = None
        self.failures = 0
        self.successes = 0
        self.consecutive_failures = 0
        self.times_opened = 0

    def _transition(self, new_state: str) -> None:
        old_state = self._state
        self._state = new_state
        if self.on_transition is not None and old_state != new_state:
            self.on_transition(old_state, new_state)

    def _current_state(self) -> str:
        # Caller holds the lock. Lazily transition open -> half-open.
        if self._state == self.OPEN and (
            self.clock() - self._opened_at >= self.cooldown
        ):
            self._transition(self.HALF_OPEN)
        return self._state

    @property
    def state(self) -> str:
        """Current state, transitioning open → half-open once cooled down."""
        with self._lock:
            return self._current_state()

    @property
    def last_state(self) -> str:
        """The state of the last transition, read without the lock.

        No lazy open → half-open check runs, so this is safe to read from
        inside another breaker's ``on_transition`` hook.
        """
        return self._state

    def allow(self) -> bool:
        """Whether the guarded call should be attempted right now."""
        return self.state != self.OPEN

    def record_success(self) -> None:
        """Note a successful call; closes a half-open breaker."""
        with self._lock:
            self.successes += 1
            self.consecutive_failures = 0
            if self._current_state() == self.HALF_OPEN:
                self._transition(self.CLOSED)
                self._opened_at = None

    def record_failure(self) -> None:
        """Note a failed call; may trip the breaker open."""
        with self._lock:
            now = self.clock()
            if (
                self.failure_window is not None
                and self._last_failure_at is not None
                and now - self._last_failure_at > self.failure_window
            ):
                # The previous streak aged out of the window; this failure
                # starts a new one rather than extending stale history.
                self.consecutive_failures = 0
            self._last_failure_at = now
            self.failures += 1
            self.consecutive_failures += 1
            state = self._current_state()
            if state == self.HALF_OPEN or (
                state == self.CLOSED
                and self.consecutive_failures >= self.failure_threshold
            ):
                self._transition(self.OPEN)
                self._opened_at = self.clock()
                self.times_opened += 1

    def snapshot(self) -> dict:
        """Operator-facing state summary (used by ``RuntimeMonitor.health``).

        Taken under the breaker's lock, so the fields are mutually
        consistent even while serving threads record outcomes.
        """
        with self._lock:
            return {
                "state": self._current_state(),
                "failures": self.failures,
                "successes": self.successes,
                "consecutive_failures": self.consecutive_failures,
                "times_opened": self.times_opened,
            }

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker(state={self.state!r}, failures={self.failures}, "
            f"threshold={self.failure_threshold})"
        )
