"""Bit-identical resume properties under injected kills.

The checkpoint layer's core invariant: a run killed at an arbitrary point
and resumed from its checkpoint/journal produces **byte-equal** results to
the run that was never interrupted. Hypothesis drives the kill point (the
epoch *k* for training, the task index *j* for Algorithm 1 fitting), the
workload size, and the seed; the deterministic profile in ``conftest.py``
keeps draws reproducible across machines.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fitting import solve_tasks
from repro.core.validator import ValidatorConfig
from repro.nn import Adam, Trainer
from repro.testing import InjectedCrashError, crash_at_epoch, crash_at_task
from repro.utils.cache import CheckpointStore
from tests.helpers import easy_image_task, make_tiny_model

pytestmark = pytest.mark.checkpoint


def _train(epochs, seed, store=None, crash_epoch=None, resume=False):
    """One training run; returns (model, optimizer, report or None)."""
    model = make_tiny_model(seed=seed)
    optimizer = Adam(model.parameters(), lr=3e-3)
    trainer = Trainer(model, optimizer, batch_size=16, rng=seed)
    x, y = easy_image_task(60, seed=seed + 1)
    if crash_epoch is not None:
        with crash_at_epoch(trainer, crash_epoch) as stats:
            with pytest.raises(InjectedCrashError):
                trainer.fit(x, y, epochs=epochs, checkpoint=store)
        assert stats["crashed"]
        return model, optimizer, None
    report = trainer.fit(
        x, y, epochs=epochs, checkpoint=store, resume=resume
    )
    return model, optimizer, report


def _state_bytes(stateful):
    return {name: value.tobytes() for name, value in stateful.state_dict().items()}


def _optimizer_bytes(optimizer):
    state = optimizer.state_dict()
    return (
        state["scalars"],
        {
            name: [buf.tobytes() for buf in bufs]
            for name, bufs in state["slots"].items()
        },
    )


@settings(max_examples=8, deadline=None)
@given(
    epochs=st.integers(min_value=2, max_value=4),
    data=st.data(),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_kill_at_epoch_k_resumes_bit_identically(epochs, data, seed):
    kill_at = data.draw(
        st.integers(min_value=1, max_value=epochs - 1), label="kill_at"
    )
    # Reference: the run that is never interrupted (and never checkpoints,
    # proving snapshotting itself does not perturb the stream).
    ref_model, ref_opt, ref_report = _train(epochs, seed)
    with tempfile.TemporaryDirectory() as tmp:
        store = CheckpointStore(Path(tmp))
        # Victim: killed at the start of epoch ``kill_at`` (0-based), so
        # epochs 0..kill_at-1 made it to the store.
        _train(epochs, seed, store=store, crash_epoch=kill_at)
        # Survivor: brand-new model/optimizer/trainer objects, restored
        # purely from the on-disk snapshot.
        model, optimizer, report = _train(epochs, seed, store=store, resume=True)
    assert _state_bytes(model) == _state_bytes(ref_model)
    assert _optimizer_bytes(optimizer) == _optimizer_bytes(ref_opt)
    assert report.epoch_losses == ref_report.epoch_losses
    assert report.epoch_accuracies == ref_report.epoch_accuracies


def _features(n_tasks, rows, seed):
    rng = np.random.default_rng(seed)
    return {
        (pos, klass): rng.normal(size=(rows, 4))
        for pos in range(2)
        for klass in range((n_tasks + 1) // 2)
    }


def _solution_bytes(solutions):
    return {
        key: (
            svm.support_rows_.tobytes(),
            svm.dual_coef_.tobytes(),
            svm.rho_,
            svm.norm_w_,
        )
        for key, (svm,) in solutions.items()
    }


@pytest.mark.parametrize("kills", [1, 4])
@settings(max_examples=5, deadline=None)
@given(data=st.data(), seed=st.integers(min_value=0, max_value=10_000))
def test_kill_at_task_j_resumes_bit_identically(kills, data, seed):
    features = _features(
        data.draw(
            st.integers(min_value=max(4, kills + 1), max_value=8), label="n_tasks"
        ),
        data.draw(st.integers(min_value=12, max_value=24), label="rows"),
        seed,
    )
    # ``kills`` successive crashes, the i-th after kill_points[i] journaled
    # solves in total; every resume replays the journal and solves onward.
    kill_points = data.draw(
        st.lists(
            st.integers(min_value=1, max_value=len(features) - 1),
            min_size=kills,
            max_size=kills,
            unique=True,
        ).map(sorted),
        label="kill_points",
    )
    config = ValidatorConfig(nu=0.2)
    reference = solve_tasks(features, config)
    with tempfile.TemporaryDirectory() as tmp:
        journal = CheckpointStore(Path(tmp)).journal("fit")
        for kill_at in kill_points:
            with crash_at_task(kill_at - len(journal.replay())):
                with pytest.raises(InjectedCrashError):
                    solve_tasks(features, config, journal=journal)
            assert len(journal.replay()) == kill_at  # exactly j solves survived the kill
        resumed = solve_tasks(features, config, journal=journal)
    assert _solution_bytes(resumed) == _solution_bytes(reference)
