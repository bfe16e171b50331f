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

import functools
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import obs
from repro.core import resilience
from repro.core.resilience import CircuitBreaker, DegradedModeWarning, InputGuard
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


#: Every live monitor. ``monitor_breaker_state`` has one series per layer
#: name for the whole process, so it shows the worst state over the live
#: monitors that validate that layer: building a candidate monitor must not
#: hide the serving monitor's open breaker.
_LIVE_MONITORS: weakref.WeakSet = weakref.WeakSet()
_LIVE_LOCK = threading.Lock()


def _publish_state(layer: str) -> None:
    """Set ``layer``'s gauge to the worst breaker state over live monitors."""
    with _LIVE_LOCK:
        worst = max(
            (
                BREAKER_STATE_CODES[health.breaker.last_state]
                for monitor in _LIVE_MONITORS
                for health in monitor._layers
                if health.name == layer
            ),
            default=BREAKER_STATE_CODES[CircuitBreaker.CLOSED],
        )
        _breaker_state_gauge().labels(layer=layer).set(worst)


def _publish_transition(layer: str, old_state: str, new_state: str) -> None:
    obs.counter(
        "monitor_breaker_transitions_total",
        help="Circuit-breaker state transitions per layer",
        labels=("layer", "to"),
    ).labels(layer=layer, to=new_state).inc()
    _publish_state(layer)


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

    @classmethod
    def unscored(
        cls, status: str, reason: str, n_layers: int, detail: dict | None = None
    ) -> "ValidationVerdict":
        """A verdict for an input that was never scored.

        ``prediction`` is ``-1``, ``joint_discrepancy`` NaN and
        ``per_layer`` ``n_layers`` NaNs (at least one); the monitor's
        quarantines and the server's queue-level rejections all take
        this shape.
        """
        return cls(
            prediction=-1,
            joint_discrepancy=float("nan"),
            per_layer=np.full(max(n_layers, 1), np.nan),
            accepted=False,
            status=status,
            reason=reason,
            detail=detail,
        )


@dataclass
class _LayerHealth:
    """Per-layer failure bookkeeping surfaced by ``RuntimeMonitor.health``."""

    name: str
    breaker: CircuitBreaker
    last_error: str | None = None
    skipped_batches: int = 0


class RuntimeMonitor:
    """Wraps a fitted :class:`DeepValidator` into a guarded classifier.

    The monitor is thread-safe: any number of threads (the
    :mod:`repro.serve` worker and any direct callers) may call :meth:`classify`
    concurrently. Verdict tallies, the per-layer skip counts and breaker
    state transitions are serialised by locks held only around
    bookkeeping — the forward pass and kernel scoring run unlocked, so
    concurrent batches overlap. The per-layer health entries (one
    breaker per validated layer) are built once, at construction: the
    layer set is fixed once the validator is fitted. :meth:`health`
    returns an atomic snapshot.

    Parameters
    ----------
    validator:
        A fitted ``DeepValidator`` with a calibrated ``epsilon``; an
        unfitted one raises ``ValueError``.
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
        if not validator.validators:
            # The per-layer breakers are built from the fitted layer set;
            # a monitor built before the fit would score without them.
            raise ValueError("RuntimeMonitor needs a fitted DeepValidator")
        self.validator = validator
        self.on_reject = on_reject
        self.guard = guard if guard is not None else InputGuard()
        # Guards the verdict tallies and the per-layer skip counts.
        # Scoring itself (forward pass + kernels) runs outside the lock,
        # so concurrent batches overlap freely.
        self._lock = threading.RLock()
        clock = clock if clock is not None else time.monotonic
        self._layers = [
            _LayerHealth(
                layer.layer_name,
                CircuitBreaker(
                    failure_threshold=breaker_threshold,
                    cooldown=breaker_cooldown,
                    clock=clock,
                    on_transition=functools.partial(
                        _publish_transition, layer.layer_name
                    ),
                ),
            )
            for layer in validator.validators
        ]
        with _LIVE_LOCK:
            _LIVE_MONITORS.add(self)
        for layer in self._layers:
            _publish_state(layer.name)
        self.stats = {
            "accepted": 0,
            "rejected": 0,
            "quarantined": 0,
            "degraded": 0,
        }

    # -- internals -------------------------------------------------------------

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
            n_layers = len(self._layers)
            if report.batch_reason is not None:
                return self._finish(
                    [
                        ValidationVerdict.unscored(
                            resilience.QUARANTINED, report.batch_reason, n_layers
                        )
                        for _ in range(report.count)
                    ]
                )
            batch = report.images
            ok_mask = report.ok_mask
            scored = self._score(batch[ok_mask]) if ok_mask.any() else []
            verdicts: list[ValidationVerdict] = []
            scored_iter = iter(scored)
            for index in range(report.count):
                reason = report.sample_reasons.get(index)
                if reason is not None:
                    verdicts.append(
                        ValidationVerdict.unscored(
                            resilience.QUARANTINED, reason, n_layers
                        )
                    )
                else:
                    verdicts.append(next(scored_iter))
            return self._finish(verdicts)

    def _score(self, images: np.ndarray) -> list[ValidationVerdict]:
        """Score guard-approved images, isolating substrate failures."""
        layers = self._layers
        skip: set[int] = set()
        with self._lock:
            for position, layer in enumerate(layers):
                if not layer.breaker.allow():
                    skip.add(position)
                    layer.skipped_batches += 1
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
            reason = f"scoring failed: {type(exc).__name__}: {exc}"
            return [
                ValidationVerdict.unscored(resilience.QUARANTINED, reason, len(layers))
                for _ in range(len(images))
            ]

        # A layer that raised, or whose column contains non-finite values
        # (e.g. NaN activations upstream), failed for this batch.
        dropped = set(skip)
        for position, layer in enumerate(layers):
            if position in skip:
                continue
            error = errors.get(position)
            if error is None and np.isfinite(per_layer[:, position]).all():
                layer.breaker.record_success()
                continue
            layer.last_error = (
                f"{type(error).__name__}: {error}"
                if error is not None
                else "non-finite discrepancies"
            )
            layer.breaker.record_failure()
            dropped.add(position)

        names: tuple[str, ...] = ()
        if dropped:
            names = tuple(sorted(layers[p].name for p in dropped))
            if len(dropped) >= len(layers):
                emit_warning(
                    f"all {len(layers)} layer validators unavailable "
                    f"({', '.join(names)}); quarantining the batch",
                    DegradedModeWarning,
                )
                return [
                    ValidationVerdict.unscored(
                        resilience.QUARANTINED,
                        "no healthy layer validators",
                        len(layers),
                    )
                    for _ in range(len(images))
                ]
            emit_warning(
                "degraded-mode scoring: skipped layer validators "
                f"{', '.join(names)}",
                DegradedModeWarning,
            )

        joints = self.validator.combine(per_layer, dropped)
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
            layers = {
                layer.name: {
                    **layer.breaker.snapshot(),
                    "last_error": layer.last_error,
                    "skipped_batches": layer.skipped_batches,
                }
                for layer in self._layers
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
