"""Centralised warning emission with strict-mode escalation.

Resilience warnings (:class:`~repro.core.resilience.DegradedModeWarning`)
signal that the system kept running in a reduced mode. In production that is exactly right; in an
experiment run it can silently change what is being measured. Routing every
such warning through :func:`emit_warning` gives operators one switch:
``REPRO_STRICT=1`` turns any degraded-mode warning into a raised exception,
so experiment pipelines fail loudly instead of quietly measuring a
fallback path.
"""

from __future__ import annotations

import os
import warnings

#: Environment variable that escalates resilience warnings to errors.
STRICT_ENV = "REPRO_STRICT"

#: Values of ``REPRO_STRICT`` treated as "off".
_FALSY = {"", "0", "false", "no", "off"}


def strict_mode() -> bool:
    """Whether ``REPRO_STRICT`` requests escalation of warnings to errors."""
    return os.environ.get(STRICT_ENV, "").strip().lower() not in _FALSY


def emit_warning(
    message: str,
    category: type[Warning] = RuntimeWarning,
    stacklevel: int = 2,
) -> None:
    """Emit ``message`` as a warning, or raise it under ``REPRO_STRICT=1``.

    ``Warning`` subclasses ``Exception``, so in strict mode the warning
    class itself is raised — callers can catch exactly the category they
    would otherwise have filtered.
    """
    if strict_mode():
        raise category(message)
    warnings.warn(message, category, stacklevel=stacklevel + 1)
