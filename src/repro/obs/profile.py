"""Lightweight profiling hooks: stage-labelled wall-time histograms.

``profile_section("fit.solve")`` times the enclosed block against the
current tracer's clock (so a :class:`~repro.obs.tracing.ManualClock` drives
it deterministically in tests) and records the duration into the
``profile_stage_seconds`` histogram under a ``stage`` label; ``@profiled``
does the same around a function call. Both respect the ``REPRO_OBS=0`` kill
switch — disabled, they reduce to a shared no-op context manager / the bare
function call, with no clock reads and no registry traffic.

Usage::

    from repro.obs import profile_section, profiled

    with profile_section("fit.extract"):
        features = extract_task_features(...)

    @profiled("engine.forward")        # or bare @profiled: stage = qualname
    def hidden_representations(...): ...
"""

from __future__ import annotations

import functools
from typing import Callable

__all__ = ["profile_section", "profiled", "STAGE_HISTOGRAM"]

#: Name of the histogram family every profiling hook records into.
STAGE_HISTOGRAM = "profile_stage_seconds"


class _NullSection:
    """Reusable, reentrant no-op context manager for the disabled path."""

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SECTION = _NullSection()


def _timed(stage: str):
    from repro import obs

    return obs.timed(
        obs.histogram(
            STAGE_HISTOGRAM,
            help="Wall-clock seconds spent in profiled stages",
            labels=("stage",),
        ).labels(stage=stage)
    )


def profile_section(stage: str):
    """Context manager timing the enclosed block into ``profile_stage_seconds``.

    With observability disabled this returns a shared no-op context and
    costs one flag check — safe on hot paths.
    """
    from repro import obs

    if not obs.enabled():
        return _NULL_SECTION
    return _timed(stage)


def profiled(stage: str | Callable | None = None):
    """Decorator form of :func:`profile_section`.

    ``@profiled`` (bare) labels the stage with the function's qualified
    name; ``@profiled("my.stage")`` pins it explicitly. The kill switch is
    consulted per call, not at decoration time, so flipping ``REPRO_OBS``
    at runtime takes effect without re-importing instrumented modules.
    """
    if callable(stage):  # bare @profiled
        return profiled(None)(stage)
    label = stage

    def decorate(fn: Callable) -> Callable:
        name = label if label is not None else fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            from repro import obs

            if not obs.enabled():
                return fn(*args, **kwargs)
            with _timed(name):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
