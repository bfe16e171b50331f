"""Bounded-queue micro-batching: coalesce single-image requests into batches.

The paper's deployment story is a guarded classifier serving one image per
request, but the packed-GEMM engine only pays off when images are scored
together. :class:`MicroBatcher` bridges the two: producers :meth:`offer`
single requests into a bounded queue; the consumer (worker) thread calls
:meth:`next_batch`, which takes the oldest request and keeps gathering
until ``max_batch`` requests are in hand, the batch's arrivals go quiet,
or ``max_wait_ms`` has elapsed since the batch was opened — latency is
bounded by the wait window, throughput by the batch width.

Backpressure is explicit: a full queue makes :meth:`offer` return
``False`` immediately (the server turns that into a structured
``OVERLOADED`` verdict) instead of letting requests pile up unboundedly.

The window is a deadline, fixed when the batch opens, and the upper bound
on waiting. A batch also ends when its arrivals go quiet: every request is
stamped on arrival, and once a batch holds two or more, it flushes at
``last arrival + QUIET_GAPS x mean gap`` between its own arrivals if that
comes before the deadline. A consumer with a partial batch blocks for
exactly the time left until the earlier of the two (an arrival or
:meth:`~MicroBatcher.close` wakes it early, and it recomputes). A single
arrival has no gap to measure and waits for the deadline. The quiet rule
in ``docs/serving.md`` explains the choice of four gaps: open-loop traffic
keeps its batching, while a burst that nothing else will join, such as a
closed-loop client's outstanding window, stops idling until the deadline.

The clock is injectable (default ``time.monotonic``). Deadline arithmetic
— "has this batch's wait window expired?" — runs entirely on the injected
clock, so tests drive flush decisions deterministically with a
:class:`~repro.obs.tracing.ManualClock`; only the *blocking* between
arrivals uses real condition-variable waits. With a manual clock that
never advances, a lone request waits until the batch fills or the
batcher closes, while two or more read as a zero-gap burst and flush at
once — deterministic-flush tests should pre-fill the queue or set
``max_wait_ms=0``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable

from repro import obs

#: A batch of two or more arrivals flushes once this many of its own mean
#: inter-arrival gaps have passed since its last arrival.
QUIET_GAPS = 4


def _queue_depth_gauge():
    return obs.gauge(
        "serve_queue_depth",
        help="Requests currently waiting in the micro-batcher queue",
    )


def _flush_counter():
    return obs.counter(
        "serve_batch_flush_total",
        help="Micro-batches handed out, by what ended them",
        labels=("reason",),
    )


class Ewma:
    """A thread-safe exponentially-weighted moving average.

    The serving layer's load-shedding estimator: cheap to update on every
    request, biased toward recent behaviour (``alpha`` is the weight of
    the newest sample), and honest about cold starts — :attr:`value` is
    ``None`` until the first observation, so the server never sheds on a
    made-up number.
    """

    __slots__ = ("alpha", "_value", "_lock")

    def __init__(self, alpha: float = 0.2) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._value: float | None = None
        self._lock = threading.Lock()

    def observe(self, sample: float) -> float:
        """Fold one sample in; returns the updated average."""
        sample = float(sample)
        with self._lock:
            if self._value is None:
                self._value = sample
            else:
                self._value += self.alpha * (sample - self._value)
            return self._value

    @property
    def value(self) -> float | None:
        """Current average, or ``None`` before any observation."""
        with self._lock:
            return self._value

    def __repr__(self) -> str:
        return f"Ewma(alpha={self.alpha}, value={self.value})"


class MicroBatcher:
    """A bounded request queue that hands out coalesced batches.

    Parameters
    ----------
    max_batch:
        Most requests returned in one :meth:`next_batch` call.
    max_wait_ms:
        The longest an opened batch waits for more arrivals before flushing
        partial (milliseconds, measured on ``clock``); a batch whose
        arrivals go quiet flushes sooner. ``0`` flushes whatever is queued
        immediately.
    queue_depth:
        Bound on queued (not yet batched) requests; :meth:`offer` refuses
        beyond it.
    clock:
        Monotonic time source for the arrival stamps and the wait-window
        arithmetic.
    """

    def __init__(
        self,
        max_batch: int = 32,
        max_wait_ms: float = 2.0,
        queue_depth: int = 256,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        self.max_batch = max_batch
        self.max_wait_ms = max_wait_ms
        self.queue_depth = queue_depth
        self.clock = clock if clock is not None else time.monotonic
        # (arrival stamp, item) pairs, so a stamp cannot drift from its item.
        self._queue: deque = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False

    def __len__(self) -> int:
        with self._lock:
            return len(self._queue)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def offer(self, item) -> bool:
        """Enqueue one request; ``False`` when the queue is full (backpressure).

        Raises ``RuntimeError`` after :meth:`close` — producers must stop
        before the queue drains, or their requests would silently vanish.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("cannot offer to a closed MicroBatcher")
            if len(self._queue) >= self.queue_depth:
                return False
            self._queue.append((self.clock(), item))
            _queue_depth_gauge().set(len(self._queue))
            self._not_empty.notify()
            return True

    def next_batch(self) -> list | None:
        """Block for the next coalesced batch; ``None`` once closed and drained.

        The first dequeued request opens the batch and sets its deadline
        (``max_wait_ms`` after opening, on the injected clock). Requests
        already queued are absorbed immediately; the deadline only governs
        how long to linger for *future* arrivals. With two or more
        arrivals in hand, the batch also has a quiet limit,
        ``QUIET_GAPS`` mean gaps after its last arrival (the mean over its
        own arrivals, ``(last - first) / (n - 1)``). The consumer blocks
        for exactly the time left until the earlier limit, and recomputes
        after each arrival. Flush happens on whichever comes first:
        ``max_batch`` requests gathered, the quiet limit, the deadline, or
        the batcher closing; ``serve_batch_flush_total{reason}`` counts
        which.
        """
        with self._not_empty:
            while not self._queue and not self._closed:
                self._not_empty.wait()
            if not self._queue:
                return None  # closed and drained
            first, item = self._queue.popleft()
            batch = [item]
            deadline = self.clock() + self.max_wait_ms / 1000.0
            while len(batch) < self.max_batch:
                if self._queue:
                    last, item = self._queue.popleft()
                    batch.append(item)
                    continue
                if self._closed:
                    reason = "closed"
                    break
                limit, reason = deadline, "deadline"
                if len(batch) > 1:
                    quiet = last + QUIET_GAPS * (last - first) / (len(batch) - 1)
                    if quiet < deadline:
                        limit, reason = quiet, "quiet"
                remaining = limit - self.clock()
                if remaining <= 0:
                    break
                # An arrival or close() notifies; otherwise the wait ends at
                # the limit. (An injected clock that has not advanced just
                # re-arms the wait for the window it still shows.)
                self._not_empty.wait(timeout=remaining)
            else:  # the loop condition failed: max_batch gathered
                reason = "full"
            _queue_depth_gauge().set(len(self._queue))
            _flush_counter().labels(reason=reason).inc()
            return batch

    def requeue(self, items) -> None:
        """Readmit in-flight items at the *front* of the queue.

        The worker-death recovery path: a dying worker's undelivered
        tickets go back ahead of newer arrivals so a crash costs latency,
        not ordering. Unlike :meth:`offer` this works on a closed batcher
        (the items were admitted before the close) and ignores
        ``queue_depth`` — the items already held a slot when they were
        first admitted, so readmission cannot grow the server's footprint
        beyond what backpressure allowed. Readmitted items are stamped with
        the requeue time, so two or more of them read as a zero-gap burst
        and flush as soon as they are gathered.
        """
        items = list(items)
        if not items:
            return
        with self._lock:
            now = self.clock()
            for item in reversed(items):
                self._queue.appendleft((now, item))
            _queue_depth_gauge().set(len(self._queue))
            self._not_empty.notify_all()

    def drain(self) -> list:
        """Remove and return everything still queued (post-close sweep).

        The server calls this after the worker has been joined so
        requests stranded by a dead worker can be resolved with a
        structured shutdown verdict instead of leaking pending futures.
        """
        with self._lock:
            items = [item for _, item in self._queue]
            self._queue.clear()
            _queue_depth_gauge().set(0)
            return items

    def close(self) -> None:
        """Refuse further offers; wake consumers so they drain and exit."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()

    def __repr__(self) -> str:
        return (
            f"MicroBatcher(max_batch={self.max_batch}, "
            f"max_wait_ms={self.max_wait_ms}, queue_depth={self.queue_depth}, "
            f"queued={len(self)}, closed={self.closed})"
        )
