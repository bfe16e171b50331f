"""Test-support subpackage: deterministic fault injection for resilience tests.

Nothing here runs in production serving paths; :mod:`repro.testing.faults`
exists so the resilience and checkpoint suites (and operators rehearsing
incident response) can inject the failure modes the stack claims to
survive — NaN activations, corrupt artifacts, failing scorers,
mid-pipeline process deaths, and dying serve workers — deterministically
and reversibly. Every injector patches through one seam
(:func:`unittest.mock.patch.object`), counts calls in one locked window
and yields a stats dict. :mod:`repro.testing.chaos` arms any of them,
through the one builder :meth:`ChaosPlan.fault`, in seeded, clock-driven
soak runs against the serving stack (see ``docs/serving.md``).
"""

from repro.testing.chaos import ChaosPlan, SoakInvariantError, SoakReport, run_soak

from repro.testing.faults import (
    InjectedBatcherError,
    InjectedCrashError,
    InjectedWorkerDeath,
    corrupt_artifact,
    corrupt_bundle,
    crash_at_epoch,
    crash_at_task,
    fail_packed_scorer,
    hang_classify,
    kill_worker,
    nan_activations,
    raise_in_batcher,
    slow_classify,
    slow_layer,
)

__all__ = [
    "ChaosPlan",
    "InjectedBatcherError",
    "InjectedCrashError",
    "InjectedWorkerDeath",
    "SoakInvariantError",
    "SoakReport",
    "corrupt_artifact",
    "corrupt_bundle",
    "crash_at_epoch",
    "crash_at_task",
    "fail_packed_scorer",
    "hang_classify",
    "kill_worker",
    "nan_activations",
    "raise_in_batcher",
    "run_soak",
    "slow_classify",
    "slow_layer",
]
