"""repro.serve — dependency-free concurrent serving for the runtime monitor.

Micro-batched validation-as-a-service: single-image requests are coalesced
into packed batches (``MicroBatcher``), scored by one supervised worker
thread through a thread-safe ``RuntimeMonitor``, and answered via
per-request ``VerdictFuture``\\ s, with explicit backpressure and adaptive
load shedding (``OVERLOADED``), queue deadlines (``EXPIRED``), and a
``WorkerSupervisor`` that restarts a dead worker with capped backoff and
fails fast when restarts stop helping. See ``docs/serving.md``.

Deployments update in place: ``RolloutController`` hot-swaps the serving
monitor between batches from versioned validator bundles, with shadow
canary scoring and automatic rollback. See
``docs/rollout.md``.
"""

from repro.serve.batcher import Ewma, MicroBatcher
from repro.serve.futures import ResultTimeout, VerdictFuture
from repro.serve.rollout import (
    IDLE,
    PROMOTED,
    ROLLED_BACK,
    ROLLOUT_STATE_CODES,
    SHADOW,
    RolloutConfig,
    RolloutController,
    RolloutError,
)
from repro.serve.server import (
    EXPIRED,
    OVERLOADED,
    SHED_REASONS,
    ServeConfig,
    ValidationServer,
)
from repro.serve.supervisor import SupervisorConfig, WorkerSupervisor

__all__ = [
    "EXPIRED",
    "IDLE",
    "OVERLOADED",
    "PROMOTED",
    "ROLLED_BACK",
    "ROLLOUT_STATE_CODES",
    "SHADOW",
    "SHED_REASONS",
    "Ewma",
    "MicroBatcher",
    "ResultTimeout",
    "RolloutConfig",
    "RolloutController",
    "RolloutError",
    "ServeConfig",
    "SupervisorConfig",
    "ValidationServer",
    "VerdictFuture",
    "WorkerSupervisor",
]
