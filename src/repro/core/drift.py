"""Operational drift detection over the discrepancy stream.

Section IV-D6's early-warning story, systematised: a deployed system does
not only care about flagging individual inputs — a *rising rejection rate*
(or rising discrepancy level) signals that the whole operating environment
has shifted and the system is running at elevated risk. This module
monitors the stream of joint discrepancies with an exponentially weighted
moving average and raises an alarm when the level leaves the band
calibrated on clean traffic.

The monitor is thread-safe, so any number of feeding threads can share
one: the EWMA recurrence runs under a lock, and interleaved
``observe``/``observe_batch`` calls from any number of threads produce
the same stream some serial ordering of those calls would.
``observe_batch`` evaluates the recurrence as one vectorized linear filter
rather than a per-sample Python loop, bit-identical to repeated
``observe`` calls.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter


@dataclass
class DriftState:
    """Snapshot of the drift monitor after an observation."""

    level: float
    threshold: float
    alarming: bool
    observations: int


class DiscrepancyDriftMonitor:
    """EWMA monitor over joint discrepancies with a clean-calibrated alarm.

    Parameters
    ----------
    alpha:
        EWMA smoothing factor in (0, 1]; smaller = smoother, slower.
    sigmas:
        Alarm threshold in calibration standard deviations above the
        calibration mean of the *smoothed* level.
    warmup:
        Observations required before alarms may fire (EWMA burn-in).
    """

    def __init__(self, alpha: float = 0.1, sigmas: float = 4.0, warmup: int = 10) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if sigmas <= 0:
            raise ValueError(f"sigmas must be positive, got {sigmas}")
        if warmup < 1:
            raise ValueError(f"warmup must be >= 1, got {warmup}")
        self.alpha = alpha
        self.sigmas = sigmas
        self.warmup = warmup
        self._threshold: float | None = None
        self._level: float | None = None
        self._count = 0
        self._lock = threading.Lock()

    # -- calibration -----------------------------------------------------------

    def calibrate(self, clean_discrepancies: np.ndarray) -> float:
        """Set the alarm threshold from clean-traffic discrepancies.

        The EWMA of i.i.d. clean scores has mean ``mu`` and standard
        deviation ``sigma * sqrt(alpha / (2 - alpha))``; the threshold sits
        ``sigmas`` of those above the mean.
        """
        scores = np.asarray(clean_discrepancies, dtype=np.float64)
        if len(scores) < 2:
            raise ValueError("need at least two clean scores to calibrate")
        mu = float(scores.mean())
        sigma = float(scores.std())
        ewma_sigma = sigma * np.sqrt(self.alpha / (2.0 - self.alpha))
        with self._lock:
            self._threshold = mu + self.sigmas * ewma_sigma
            self._calibration_mean = mu
            self._level = mu
            self._count = 0
            return self._threshold

    @property
    def calibrated(self) -> bool:
        """Whether :meth:`calibrate` has run (alarms cannot fire before)."""
        return self._threshold is not None

    @property
    def threshold(self) -> float:
        if self._threshold is None:
            raise RuntimeError("monitor is not calibrated")
        return self._threshold

    # -- streaming --------------------------------------------------------------

    def observe(self, discrepancy: float) -> DriftState:
        """Feed one joint-discrepancy observation; returns the new state."""
        with self._lock:
            if self._threshold is None:
                raise RuntimeError("monitor is not calibrated")
            self._level = (1 - self.alpha) * self._level + self.alpha * float(discrepancy)
            self._count += 1
            alarming = self._count >= self.warmup and self._level > self._threshold
            return DriftState(
                level=self._level,
                threshold=self._threshold,
                alarming=alarming,
                observations=self._count,
            )

    def observe_batch(self, discrepancies: np.ndarray) -> list[DriftState]:
        """Feed a sequence of observations in order, as one vectorized step.

        The EWMA recurrence ``y[n] = (1-alpha)*y[n-1] + alpha*x[n]`` is a
        first-order IIR filter; evaluated through
        :func:`scipy.signal.lfilter` (direct form II transposed computes
        exactly ``alpha*x[n] + (1-alpha)*y[n-1]``, and IEEE-754 addition
        is commutative) the whole batch is bit-identical to a serial loop
        of :meth:`observe` calls. One lock acquisition covers the batch,
        so concurrent feeders interleave at batch granularity.
        """
        values = np.asarray(discrepancies, dtype=np.float64)
        if values.ndim != 1:
            values = values.ravel()
        if len(values) == 0:
            return []
        with self._lock:
            if self._threshold is None:
                raise RuntimeError("monitor is not calibrated")
            levels, _ = lfilter(
                [self.alpha],
                [1.0, -(1.0 - self.alpha)],
                values,
                zi=np.array([(1.0 - self.alpha) * self._level]),
            )
            counts = self._count + np.arange(1, len(values) + 1)
            alarms = (counts >= self.warmup) & (levels > self._threshold)
            self._level = float(levels[-1])
            self._count = int(counts[-1])
            return [
                DriftState(
                    level=float(level),
                    threshold=self._threshold,
                    alarming=bool(alarming),
                    observations=int(count),
                )
                for level, alarming, count in zip(levels, alarms, counts)
            ]

    def reset_stream(self) -> None:
        """Restart the stream (keeping the calibration)."""
        with self._lock:
            if self._threshold is None:
                raise RuntimeError("monitor is not calibrated")
            self._count = 0
            self._level = self._calibration_mean
