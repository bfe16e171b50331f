"""Runtime monitoring façade: the fail-safe deployment wrapper.

The paper motivates Deep Validation as a fail-safe building block: when the
joint discrepancy of an input exceeds the threshold, the system should
withhold the classifier's decision and call for human intervention. This
module packages that behaviour behind a single ``classify`` call — and
makes the wrapper itself fail-safe. A production monitor must be at least
as robust as the classifier it guards, so ``classify`` never raises on bad
inputs or a partially broken scoring substrate:

* malformed inputs (wrong shape/dtype, NaN pixels, out-of-range values)
  are intercepted by an :class:`~repro.core.resilience.InputGuard` and
  returned as structured ``QUARANTINED`` verdicts;
* a layer validator that raises or produces non-finite discrepancies is
  dropped from the joint score for that batch (``DEGRADED`` verdicts, with
  the skipped layers recorded) and its failures feed a per-layer
  :class:`~repro.core.resilience.CircuitBreaker` — persistently broken
  layers are skipped without being evaluated until a cooldown expires;
* if every layer is unavailable, or the forward pass itself fails, the
  batch is quarantined — fail-safe rejection, never an unhandled
  exception.

Operators observe partial failure through :meth:`RuntimeMonitor.health`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import obs
from repro.core import resilience
from repro.core.resilience import (
    CircuitBreaker,
    DegradedModeWarning,
    DegradedScorer,
    InputGuard,
)
from repro.core.validator import DeepValidator
from repro.utils.warnings_ import emit_warning

#: Numeric encoding of breaker states for the ``monitor_breaker_state`` gauge.
BREAKER_STATE_CODES = {
    CircuitBreaker.CLOSED: 0,
    CircuitBreaker.HALF_OPEN: 1,
    CircuitBreaker.OPEN: 2,
}


def _verdicts_counter():
    return obs.counter(
        "monitor_verdicts_total",
        help="Verdicts issued by the runtime monitor, by status",
        labels=("status",),
    )


def _breaker_state_gauge():
    return obs.gauge(
        "monitor_breaker_state",
        help="Per-layer circuit-breaker state (0=closed, 1=half-open, 2=open)",
        labels=("layer",),
    )


@dataclass
class ValidationVerdict:
    """Outcome of classifying one image under runtime validation.

    ``status`` is one of ``VALIDATED`` (scored on every layer, accepted),
    ``FLAGGED`` (scored on every layer, joint discrepancy above epsilon),
    ``DEGRADED`` (scored with one or more layer validators skipped —
    ``accepted`` still carries the rescaled accept/flag decision and
    ``skipped_layers`` names the missing columns), or ``QUARANTINED``
    (not scored at all; ``prediction`` is ``-1``, ``joint_discrepancy``
    is NaN, and ``reason`` explains why). ``accepted`` is ``True`` only
    when the input was actually scored and fell below the threshold.

    The serving layer extends the vocabulary with queue-level statuses
    (``OVERLOADED`` / ``EXPIRED``) and may attach machine-readable
    context under ``detail`` (e.g. the projected queue wait that caused a
    load-shedding rejection); monitor-issued verdicts leave it ``None``.
    """

    prediction: int
    joint_discrepancy: float
    per_layer: np.ndarray
    accepted: bool
    status: str = resilience.VALIDATED
    skipped_layers: tuple[str, ...] = ()
    reason: str | None = None
    detail: dict | None = None

    def __repr__(self) -> str:
        label = "accepted" if self.accepted else "REJECTED"
        extra = ""
        if self.status not in (resilience.VALIDATED, resilience.FLAGGED):
            extra = f", status={self.status}"
        return (
            f"ValidationVerdict(prediction={self.prediction}, "
            f"d={self.joint_discrepancy:.4f}, {label}{extra})"
        )


@dataclass
class _LayerHealth:
    """Per-layer failure bookkeeping surfaced by ``RuntimeMonitor.health``."""

    breaker: CircuitBreaker
    last_error: str | None = None
    skipped_batches: int = 0


class RuntimeMonitor:
    """Wraps a fitted :class:`DeepValidator` into a guarded classifier.

    The monitor is thread-safe: any number of serving threads (e.g. the
    :mod:`repro.serve` worker pool) may call :meth:`classify`
    concurrently. Verdict tallies, the lazily-built per-layer breaker
    registry, and breaker state transitions are serialised by locks held
    only around bookkeeping — the forward pass and kernel scoring run
    unlocked, so concurrent batches overlap. :meth:`health` returns an
    atomic snapshot.

    Parameters
    ----------
    validator:
        A fitted ``DeepValidator`` with a calibrated ``epsilon``.
    on_reject:
        Optional callback invoked with each rejected (flagged, degraded-
        rejected, or quarantined) verdict — the hook for human
        intervention / fail-safe handling.
    guard:
        Input-contract checks applied before the forward pass. Defaults to
        a permissive :class:`InputGuard` (numeric dtype, 4-D batch,
        finite values); pass a configured guard to pin shape and range.
    breaker_threshold / breaker_cooldown / clock:
        Per-layer circuit-breaker tuning: consecutive failures before a
        layer is open-circuited, seconds before a half-open re-probe, and
        an injectable monotonic clock for deterministic tests.
    """

    def __init__(
        self,
        validator: DeepValidator,
        on_reject: Callable[[ValidationVerdict], None] | None = None,
        guard: InputGuard | None = None,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 30.0,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.validator = validator
        self.on_reject = on_reject
        self.guard = guard if guard is not None else InputGuard()
        self.scorer = DegradedScorer(validator)
        self._clock = clock if clock is not None else time.monotonic
        self._breaker_threshold = breaker_threshold
        self._breaker_cooldown = breaker_cooldown
        # Guards the verdict tallies, the lazy breaker registry, and the
        # per-layer bookkeeping. Scoring itself (forward pass + kernels)
        # runs outside the lock, so concurrent batches overlap freely.
        self._lock = threading.RLock()
        self._layers: dict[int, _LayerHealth] = {}
        self.stats = {
            "accepted": 0,
            "rejected": 0,
            "quarantined": 0,
            "degraded": 0,
        }

    # -- internals -------------------------------------------------------------

    def _layer_health(self, position: int) -> _LayerHealth:
        # Lock-free fast path: dict reads are safe, and an entry, once
        # installed, is never replaced.
        health = self._layers.get(position)
        if health is not None:
            return health
        with self._lock:
            health = self._layers.get(position)
            if health is not None:
                # Another thread won the first-touch race; its breaker and
                # gauge registration stand — creating a second breaker here
                # would split failure counts across two objects.
                return health
            name = self._layer_name(position)

            def publish(old_state: str, new_state: str, layer: str = name) -> None:
                obs.counter(
                    "monitor_breaker_transitions_total",
                    help="Circuit-breaker state transitions per layer",
                    labels=("layer", "to"),
                ).labels(layer=layer, to=new_state).inc()
                _breaker_state_gauge().labels(layer=layer).set(
                    BREAKER_STATE_CODES[new_state]
                )

            health = _LayerHealth(
                CircuitBreaker(
                    failure_threshold=self._breaker_threshold,
                    cooldown=self._breaker_cooldown,
                    clock=self._clock,
                    on_transition=publish,
                )
            )
            _breaker_state_gauge().labels(layer=name).set(
                BREAKER_STATE_CODES[CircuitBreaker.CLOSED]
            )
            self._layers[position] = health
            return health

    def _layer_name(self, position: int) -> str:
        validators = self.validator.validators
        if position < len(validators):
            return validators[position].layer_name
        return f"layer{position}"

    def _quarantine_verdict(self, reason: str) -> ValidationVerdict:
        n_layers = max(len(self.validator.validators), 1)
        return ValidationVerdict(
            prediction=-1,
            joint_discrepancy=float("nan"),
            per_layer=np.full(n_layers, np.nan),
            accepted=False,
            status=resilience.QUARANTINED,
            reason=reason,
        )

    def _finish(self, verdicts: list[ValidationVerdict]) -> list[ValidationVerdict]:
        """Tally one batch's verdicts, then run the rejection hook on each.

        ``monitor_verdicts_total`` takes one increment per status present
        (by that status's count), not one per image: the counter values
        are the same, at a fraction of the metric lookups per batch.
        """
        by_status: dict[str, int] = {}
        for verdict in verdicts:
            by_status[verdict.status] = by_status.get(verdict.status, 0) + 1
        counter = _verdicts_counter()
        for status, count in by_status.items():
            counter.labels(status=status).inc(count)
        with self._lock:
            # The whole batch's tallies land under one lock hold, so
            # health() can never observe a degraded verdict without its
            # accepted/rejected half.
            stats = self.stats
            for verdict in verdicts:
                if verdict.status == resilience.QUARANTINED:
                    stats["quarantined"] += 1
                else:
                    if verdict.status == resilience.DEGRADED:
                        stats["degraded"] += 1
                    stats["accepted" if verdict.accepted else "rejected"] += 1
        # The rejection hook runs outside the lock: a slow or re-entrant
        # callback must not stall other serving threads' bookkeeping.
        if self.on_reject is not None:
            for verdict in verdicts:
                if not verdict.accepted:
                    self.on_reject(verdict)
        return verdicts

    # -- serving ---------------------------------------------------------------

    def classify(self, images: np.ndarray) -> list[ValidationVerdict]:
        """Classify a batch, validating every internal state (Figure 1).

        Scoring goes through the batched
        :class:`~repro.core.engine.ValidationEngine`'s fault-isolated
        path, so monitoring traffic pays one kernel evaluation per
        predicted class and healthy layer, and a broken layer or
        malformed input degrades the verdict instead of raising. Verdicts come back in
        input order, one per image.
        """
        with obs.span("monitor.classify") as span:
            report = self.guard.inspect(images)
            span.set(batch=report.count)
            if report.batch_reason is not None:
                return self._finish(
                    [
                        self._quarantine_verdict(report.batch_reason)
                        for _ in range(report.count)
                    ]
                )
            batch = report.images
            ok_mask = report.ok_mask
            scored = self._score(batch[ok_mask]) if ok_mask.any() else []
            verdicts: list[ValidationVerdict] = []
            scored_iter = iter(scored)
            for index in range(report.count):
                if index in report.sample_reasons:
                    verdicts.append(
                        self._quarantine_verdict(report.sample_reasons[index])
                    )
                else:
                    verdicts.append(next(scored_iter))
            return self._finish(verdicts)

    def _score(self, images: np.ndarray) -> list[ValidationVerdict]:
        """Score guard-approved images, isolating substrate failures."""
        n_layers = len(self.validator.validators)
        skip = {
            position
            for position in range(n_layers)
            if not self._layer_health(position).breaker.allow()
        }
        with self._lock:
            for position in skip:
                self._layers[position].skipped_batches += 1
        try:
            predictions, per_layer, errors = (
                self.validator.engine().discrepancies_resilient(images, skip=skip)
            )
        except Exception as exc:  # noqa: BLE001 — fail-safe, never raise
            emit_warning(
                f"validation scoring failed wholesale ({type(exc).__name__}: "
                f"{exc}); quarantining the batch",
                DegradedModeWarning,
            )
            return [
                self._quarantine_verdict(
                    f"scoring failed: {type(exc).__name__}: {exc}"
                )
                for _ in range(len(images))
            ]

        # A layer that raised, or whose column contains non-finite values
        # (e.g. NaN activations upstream), failed for this batch.
        failed: set[int] = set(errors)
        for position in range(n_layers):
            if position in skip or position in errors:
                continue
            if not np.isfinite(per_layer[:, position]).all():
                failed.add(position)
        for position in range(n_layers):
            health = self._layer_health(position)
            if position in skip:
                continue
            if position in failed:
                error = errors.get(position)
                health.last_error = (
                    f"{type(error).__name__}: {error}"
                    if error is not None
                    else "non-finite discrepancies"
                )
                health.breaker.record_failure()
            else:
                health.breaker.record_success()

        dropped = skip | failed
        if dropped:
            names = tuple(sorted(self._layer_name(p) for p in dropped))
            if len(dropped) >= n_layers:
                emit_warning(
                    f"all {n_layers} layer validators unavailable "
                    f"({', '.join(names)}); quarantining the batch",
                    DegradedModeWarning,
                )
                return [
                    self._quarantine_verdict("no healthy layer validators")
                    for _ in range(len(images))
                ]
            emit_warning(
                "degraded-mode scoring: skipped layer validators "
                f"{', '.join(names)}",
                DegradedModeWarning,
            )
        else:
            names = ()

        joints = self.scorer.combine(per_layer, frozenset(dropped))
        verdicts = []
        for prediction, row, joint in zip(predictions, per_layer, joints):
            accepted = bool(joint <= self.validator.epsilon)
            if dropped:
                status = resilience.DEGRADED
            else:
                status = resilience.VALIDATED if accepted else resilience.FLAGGED
            verdicts.append(
                ValidationVerdict(
                    prediction=int(prediction),
                    joint_discrepancy=float(joint),
                    per_layer=row,
                    accepted=accepted,
                    status=status,
                    skipped_layers=names,
                )
            )
        return verdicts

    # -- observability ---------------------------------------------------------

    @property
    def rejection_rate(self) -> float:
        """Fraction of *scored* inputs rejected; NaN before any scoring.

        Quarantined inputs are excluded — they were never scored, and are
        tallied separately under ``stats["quarantined"]``. Returns
        ``float("nan")`` (rather than raising) when nothing has been
        scored yet, so dashboards can poll it unconditionally.
        """
        with self._lock:
            total = self.stats["accepted"] + self.stats["rejected"]
            rejected = self.stats["rejected"]
        if total == 0:
            return float("nan")
        return rejected / total

    def health(self) -> dict:
        """Operator snapshot: per-layer breaker states plus verdict tallies.

        ``layers`` maps each validated layer's name to its circuit-breaker
        snapshot (state, failure counts, times opened), the last recorded
        error, and how many batches were served while it was skipped.
        ``status`` rolls the breaker states up into one operator word:
        ``"ok"`` (every layer breaker closed), ``"degraded"`` (at least
        one open or half-open), or ``"failing"`` (every layer breaker
        open — nothing can currently be scored).
        ``counts`` mirrors ``stats``; ``quarantined`` and
        ``rejection_rate`` are surfaced at the top level for dashboards.
        ``metrics`` embeds the current observability registry snapshot
        (``{}`` when ``REPRO_OBS=0``), so one ``health()`` poll carries
        both the monitor's own bookkeeping and the process-wide metrics.

        The snapshot is taken under the monitor's lock, so the verdict
        tallies and per-layer bookkeeping are mutually consistent even
        while serving threads are mid-``classify`` — a degraded verdict
        never shows up in ``degraded`` without its accepted/rejected
        half, and ``rejection_rate`` always matches ``counts``.
        """
        with self._lock:
            layers = {}
            for position in range(len(self.validator.validators)):
                health = self._layer_health(position)
                layers[self._layer_name(position)] = {
                    **health.breaker.snapshot(),
                    "last_error": health.last_error,
                    "skipped_batches": health.skipped_batches,
                }
            counts = dict(self.stats)
        scored = counts["accepted"] + counts["rejected"]
        rate = counts["rejected"] / scored if scored else float("nan")
        states = [snapshot["state"] for snapshot in layers.values()]
        if states and all(state == CircuitBreaker.OPEN for state in states):
            status = "failing"
        elif any(state != CircuitBreaker.CLOSED for state in states):
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "layers": layers,
            "counts": counts,
            "quarantined": counts["quarantined"],
            "rejection_rate": rate,
            "metrics": obs.get_registry().snapshot() if obs.enabled() else {},
        }
