"""Meta-test: the settable surface of the serving stack stays closed.

Every setting is a promise: it has to be documented, validated and
tested, and a setting nobody sets is code that only looks alive. This
test pins the field names of the serving configs and the validator's
fitting config, and the parameters of
the monitor, its input guard and the rollout controller, so adding a
setting (or bringing a removed one back) shows up as a deliberate edit
to the pins below.
"""

import dataclasses
import inspect

import pytest

from repro.core.monitor import RuntimeMonitor
from repro.core.resilience import InputGuard
from repro.core.validator import ValidatorConfig
from repro.serve.rollout import RolloutConfig, RolloutController
from repro.serve.server import ServeConfig
from repro.serve.supervisor import SupervisorConfig

#: Config dataclass → its field names, in declaration order.
CONFIG_FIELDS = {
    ServeConfig: (
        "max_batch",
        "max_wait_ms",
        "queue_depth",
        "default_timeout_ms",
        "latency_slo_ms",
        "supervision",
    ),
    SupervisorConfig: (
        "restart_budget",
        "restart_window_s",
        "heartbeat_timeout_s",
        "poll_interval_s",
        "max_batch_retries",
    ),
    RolloutConfig: (
        "shadow_sample_every",
        "min_shadow_batches",
        "max_flag_rate_divergence",
        "max_candidate_failures",
    ),
    ValidatorConfig: (
        "nu",
        "kernel",
        "gamma",
        "max_per_class",
        "layers",
        "combiner",
        "weights",
        "standardize",
        "filter_misclassified",
        "per_class",
        "seed",
    ),
}

#: Constructor → its parameter names after ``self``, in order.
INIT_PARAMETERS = {
    RuntimeMonitor: (
        "validator",
        "on_reject",
        "guard",
        "breaker_threshold",
        "breaker_cooldown",
        "clock",
    ),
    InputGuard: ("expected_shape", "value_range"),
    RolloutController: ("server", "store", "config", "monitor_factory"),
}


@pytest.mark.parametrize("config", list(CONFIG_FIELDS), ids=lambda c: c.__name__)
def test_config_fields_are_pinned(config):
    fields = tuple(field.name for field in dataclasses.fields(config))
    assert fields == CONFIG_FIELDS[config]


@pytest.mark.parametrize("owner", list(INIT_PARAMETERS), ids=lambda c: c.__name__)
def test_init_parameters_are_pinned(owner):
    parameters = tuple(inspect.signature(owner.__init__).parameters)[1:]
    assert parameters == INIT_PARAMETERS[owner]
