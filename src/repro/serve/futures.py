"""Per-request futures for the micro-batching validation server.

A deliberately small, dependency-free future: one producer (a serve
worker) resolves it exactly once with either a verdict or an exception;
any number of consumers block on :meth:`VerdictFuture.result`. Compared
to ``concurrent.futures.Future`` it drops cancellation and callback
machinery the serving layer doesn't need, and raises a serve-specific
:class:`ResultTimeout` so callers can distinguish "my wait expired" from
the structured queue-level rejections (``OVERLOADED`` / ``EXPIRED``
verdicts, which resolve the future normally).
"""

from __future__ import annotations

import threading


class ResultTimeout(TimeoutError):
    """Raised by :meth:`VerdictFuture.result` when its wait times out.

    The request itself is still in flight — the future may resolve later;
    only this particular wait gave up.
    """


class VerdictFuture:
    """A write-once slot a serve worker fills with one request's verdict."""

    __slots__ = ("_event", "_value", "_exception", "_lock")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._value = None
        self._exception: BaseException | None = None
        self._lock = threading.Lock()

    def done(self) -> bool:
        """Whether a verdict (or failure) has landed."""
        return self._event.is_set()

    def result(self, timeout: float | None = None):
        """Block until resolved; returns the verdict or re-raises a failure.

        ``timeout`` is in seconds (real time — waiting threads cannot run
        on an injected clock); on expiry :class:`ResultTimeout` is raised
        and the future stays valid for a later wait.
        """
        if not self._event.wait(timeout):
            raise ResultTimeout(
                f"verdict not available within {timeout}s (request still in flight)"
            )
        if self._exception is not None:
            raise self._exception
        return self._value

    # -- producer side (the serve worker only) --------------------------------

    def _try_resolve(self, value) -> bool:
        """Resolve if still pending; ``False`` when someone beat us to it.

        The supervision layer needs first-writer-wins semantics: a
        restarted worker retrying a requeued ticket can race the server's
        close-time drain sweep, and exactly one of them may land.
        """
        with self._lock:
            if self._event.is_set():
                return False
            self._value = value
            self._event.set()
            return True

    def _try_fail(self, exception: BaseException) -> bool:
        """Fail if still pending; ``False`` when already resolved."""
        with self._lock:
            if self._event.is_set():
                return False
            self._exception = exception
            self._event.set()
            return True

    def __repr__(self) -> str:
        state = "resolved" if self.done() else "pending"
        return f"VerdictFuture({state})"
