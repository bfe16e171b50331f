"""Per-plan workspace pools: reusable scratch buffers for compiled inference.

A compiled :class:`~repro.infer.plan.InferencePlan` performs the same buffer
allocations on every call — im2col column blocks, padded-input staging,
GEMM outputs, pooling argmax scratch, gather indices. :class:`WorkspacePool`
keeps those buffers alive between calls, keyed by ``(step, role, shape,
dtype)``, so steady-state inference allocates nothing but the probe outputs
it hands to the caller.

Buffers are **per thread**: each thread that runs the shared plan (the
serving worker, direct callers) gets its own buffer set, owned only by a
``threading.local``, so concurrent ``classify`` calls can never tear each
other's scratch space and a thread's buffers are freed when it exits.
Reuse is observable via the ``infer_workspace_reuse_total{result=hit|miss}``
counter.
"""

from __future__ import annotations

import threading

import numpy as np

from repro import obs


def _reuse_counter():
    return obs.counter(
        "infer_workspace_reuse_total",
        help="Inference-plan workspace buffer requests by reuse outcome",
        labels=("result",),
    )


class _ThreadBuffers:
    """One thread's buffer set. Only its owning thread ever touches it."""

    __slots__ = ("buffers", "hits", "misses", "flushed_hits", "flushed_misses")

    def __init__(self) -> None:
        self.buffers: dict = {}
        self.hits = 0
        self.misses = 0
        self.flushed_hits = 0
        self.flushed_misses = 0


class WorkspacePool:
    """Thread-local scratch buffers for one compiled plan.

    Distinct chunk widths (a stream's final short chunk, different callers'
    batch sizes) key distinct buffers, so a plan serving mixed batch shapes
    holds one buffer per (step, role, shape, dtype) it has actually seen.
    A live thread's buffer count is bounded by the plan's step count times
    the number of distinct chunk shapes.
    """

    def __init__(self) -> None:
        self._local = threading.local()

    def _pool(self) -> _ThreadBuffers:
        pool = getattr(self._local, "pool", None)
        if pool is None:
            pool = self._local.pool = _ThreadBuffers()
        return pool

    # -- buffer checkout -------------------------------------------------------

    def scratch(self, key: tuple, shape: tuple[int, ...], dtype) -> np.ndarray:
        """An uninitialised C-contiguous buffer of exactly (shape, dtype).

        Contents are whatever the previous use of this key left behind —
        callers must fully overwrite them.
        """
        pool = self._pool()
        full_key = (key, shape, np.dtype(dtype).str)
        buf = pool.buffers.get(full_key)
        if buf is None:
            buf = np.empty(shape, dtype)
            pool.buffers[full_key] = buf
            pool.misses += 1
        else:
            pool.hits += 1
        return buf

    def zeroed(self, key: tuple, shape: tuple[int, ...], dtype) -> tuple[np.ndarray, bool]:
        """A buffer that was zero-filled when first allocated.

        Returns ``(buffer, reused)``. On reuse the buffer holds whatever the
        caller wrote into it last time *plus* untouched zeros everywhere it
        never wrote — the contract the padded-input staging buffer needs
        (its border is written exactly once, then only the interior is
        refreshed per call).
        """
        pool = self._pool()
        full_key = (key, shape, np.dtype(dtype).str)
        buf = pool.buffers.get(full_key)
        if buf is None:
            buf = np.zeros(shape, dtype)
            pool.buffers[full_key] = buf
            pool.misses += 1
            return buf, False
        pool.hits += 1
        return buf, True

    def flush_metrics(self) -> None:
        """Publish this thread's checkout counts since the last flush.

        Buffer checkouts happen dozens of times per forward; incrementing a
        labelled counter per checkout would dominate small-model inference.
        Counts accumulate as plain ints on the thread's pool and are pushed
        to ``infer_workspace_reuse_total`` once per chunk.
        """
        pool = self._pool()
        hits = pool.hits - pool.flushed_hits
        misses = pool.misses - pool.flushed_misses
        if not hits and not misses:
            return
        counter = _reuse_counter()
        if hits:
            counter.labels(result="hit").inc(hits)
        if misses:
            counter.labels(result="miss").inc(misses)
        pool.flushed_hits = pool.hits
        pool.flushed_misses = pool.misses

    # -- introspection ---------------------------------------------------------

    def buffers(self) -> dict[tuple, np.ndarray]:
        """The calling thread's buffers, keyed ``(key, shape, dtype)``."""
        return dict(self._pool().buffers)
