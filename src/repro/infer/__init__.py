"""Compiled inference fast path.

`plan_for(model)` hands back a cached :class:`~repro.infer.plan.InferencePlan`
for a ``ProbedSequential`` — compiling one on first use — or ``None`` when
the model contains modules the compiler cannot lower (callers then stay on
the Tensor path; see docs/inference.md for the fallback rules).

Plans are cached per model object in a ``WeakKeyDictionary`` keyed by a
*structure token* (stage/child module identities and types), so replacing a
stage module recompiles while in-place weight updates reuse the plan; the
cache never keeps a model alive, and plans are never stored on the model
itself (model pickling — validator bundles — is unaffected).

The Tensor forward stays, bit-identical, for models the compiler cannot
lower, for ``compiled=False`` callers, and as the differential suite's
oracle; there is no process-wide switch between the two forwards.
"""

from __future__ import annotations

import threading
import weakref

from repro import obs
from repro.infer.plan import InferencePlan, UnsupportedModuleError, compile_plan
from repro.infer.workspace import WorkspacePool

__all__ = [
    "InferencePlan",
    "UnsupportedModuleError",
    "WorkspacePool",
    "compile_plan",
    "plan_for",
]

_plans: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_plans_lock = threading.Lock()


def _compile_histogram():
    return obs.histogram(
        "infer_plan_compile_seconds",
        help="Wall time to compile an InferencePlan from a probed model",
    )


def _structure_token(model) -> tuple:
    """Identity-and-type fingerprint of the model's module tree.

    In-place weight updates leave the token unchanged (plans read weights
    at call time); swapping any stage or child module changes it, forcing a
    recompile on next use.
    """
    parts: list[tuple] = []

    def walk(module, path: str) -> None:
        parts.append((path, id(module), type(module).__name__))
        for name, child in module._modules.items():
            walk(child, f"{path}.{name}")

    walk(model, "")
    return tuple(parts)


def plan_for(model, require: bool = False) -> InferencePlan | None:
    """The cached compiled plan for ``model``, or ``None`` when unsupported.

    With ``require=True`` an unsupported model raises
    :class:`UnsupportedModuleError` instead of returning ``None`` (used by
    ``compiled=True`` callers that must not silently fall back).
    """
    token = _structure_token(model)
    with _plans_lock:
        cached = _plans.get(model)
        if cached is not None and cached[0] == token:
            plan = cached[1]
            if plan is not None:
                return plan
            if not require:
                return None
            # fall through: recompile to surface the real error
        try:
            with obs.timed(_compile_histogram()):
                plan = compile_plan(model)
        except UnsupportedModuleError:
            _plans[model] = (token, None)
            if require:
                raise
            return None
        _plans[model] = (token, plan)
        return plan
