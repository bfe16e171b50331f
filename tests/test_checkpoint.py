"""Unit tests for the crash-safe checkpoint layer.

Covers the store/journal primitives, optimizer and RNG state round-trips,
the serialize suffix fix, trainer edge cases, and the recovery path of
``solve_tasks`` (journal resume, replay, and stale-journal discard).
Bit-identity *properties* live in
``test_checkpoint_resume.py``.
"""

import hashlib
import os
import pickle
import struct

import numpy as np
import pytest

from repro.core.fitting import solve_tasks
from repro.core.validator import ValidatorConfig
from repro.nn import Adadelta, Adam, SGD, Trainer, load_state_dict, save_state_dict
from repro.nn.trainer import TrainingReport
from repro.testing import (
    InjectedCrashError,
    crash_at_epoch,
    crash_at_task,
)
from repro.utils.cache import (
    CheckpointError,
    CheckpointIntegrityError,
    CheckpointStore,
    TaskJournal,
    _stable_hash,
    default_checkpoint_store,
)
from repro.utils.rng import get_rng_state, new_rng, set_rng_state
from tests.helpers import easy_image_task, make_tiny_model


def frame(value):
    """One frame around ``value``'s pickle, built by hand: 8-byte big-endian
    length, sha256, body — the bytes every store wrote since frames began."""
    body = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    return struct.pack(">Q32s", len(body), hashlib.sha256(body).digest()) + body


@pytest.mark.checkpoint
class TestCheckpointStore:
    def test_save_load_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        state = {"epoch": 3, "weights": np.arange(12.0).reshape(3, 4)}
        store.save("trainer", state)
        loaded = store.load("trainer")
        assert loaded["epoch"] == 3
        np.testing.assert_array_equal(loaded["weights"], state["weights"])

    def test_save_is_atomic_no_temp_left(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("a", list(range(100)))
        store.save("a", list(range(200)))  # overwrite stages + replaces
        assert not list(tmp_path.glob("*.tmp"))
        # The digest travels inside the .pkl file itself — one file per
        # snapshot, so no crash window can tear payload from integrity.
        assert [p.name for p in tmp_path.iterdir()] == ["a.pkl"]
        assert store.load("a") == list(range(200))

    def test_corrupt_checkpoint_quarantined(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("a", {"x": 1})
        path = store.path_for("a")
        payload = bytearray(path.read_bytes())
        payload[len(payload) // 2] ^= 0x40
        path.write_bytes(bytes(payload))
        with pytest.raises(CheckpointIntegrityError):
            store.load("a")
        assert not store.exists("a")
        assert list((tmp_path / CheckpointStore.QUARANTINE_DIR).glob("a.pkl.*"))

    def test_truncated_checkpoint_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("a", 42)
        path = store.path_for("a")
        with open(path, "r+b") as fh:
            fh.truncate(path.stat().st_size - 3)  # torn payload
        with pytest.raises(CheckpointIntegrityError):
            store.load("a")
        store.save("b", 42)
        path = store.path_for("b")
        with open(path, "r+b") as fh:
            fh.truncate(10)  # torn frame header
        with pytest.raises(CheckpointIntegrityError):
            store.load("b")

    def test_failed_overwrite_preserves_previous_snapshot(self, tmp_path, monkeypatch):
        # The crash window the single-file format closes: dying anywhere
        # inside save() must leave the previous snapshot loadable.
        store = CheckpointStore(tmp_path)
        store.save("a", "good")
        import repro.utils.cache as cache_mod

        def exploding_replace(src, dst):
            raise OSError("injected crash during rename")

        monkeypatch.setattr(cache_mod.os, "replace", exploding_replace)
        with pytest.raises(OSError):
            store.save("a", "newer")
        monkeypatch.undo()
        assert store.load("a") == "good"

    def test_load_or_none_treats_damage_as_absent(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.load_or_none("missing") is None
        store.save("a", 1)
        store.path_for("a").write_bytes(b"not a pickle at all")
        assert store.load_or_none("a") is None  # corrupt -> start fresh

    def test_load_or_none_treats_a_vanished_file_as_absent(self, tmp_path, monkeypatch):
        # Another process may quarantine or discard the entry between any
        # check and the read; the read's FileNotFoundError means "absent".
        import repro.utils.cache as cache_mod

        store = CheckpointStore(tmp_path)
        store.save("a", 1)
        store.save(cache_mod.cache_key("thing", {}), "old")
        real = cache_mod.read_frame_file
        vanishing = {"a.pkl", store.path_for(cache_mod.cache_key("thing", {})).name}

        def vanishes_once(path, frames=1):
            if path.name in vanishing:
                vanishing.remove(path.name)
                raise FileNotFoundError(path)
            return real(path, frames)

        monkeypatch.setattr(cache_mod, "read_frame_file", vanishes_once)
        assert store.load_or_none("a") is None
        assert store.get_or_build("thing", {}, lambda: "rebuilt") == "rebuilt"
        assert store.load_or_none("a") == 1

    def test_get_or_build_caches_none(self, tmp_path):
        store = CheckpointStore(tmp_path)
        calls = []
        assert store.get_or_build("nothing", {}, lambda: calls.append(1)) is None
        assert store.get_or_build("nothing", {}, lambda: calls.append(1)) is None
        assert calls == [1]

    def test_existing_cache_files_hit_without_a_rebuild(self, tmp_path):
        # Cache entries written before the stores merged are named
        # <name>-<config hash>.pkl and hold one frame: they must still hit.
        config = {"dataset": "synth-mnist", "profile": "tiny", "seed": 0, "v": 1}
        (tmp_path / f"classifier-{_stable_hash(config)}.pkl").write_bytes(frame({"w": 3}))

        def build():
            raise AssertionError("an existing cache entry was rebuilt")

        assert CheckpointStore(tmp_path).get_or_build("classifier", config, build) == {"w": 3}

    def test_discard(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("a", 1)
        assert store.discard("a") is True
        assert store.discard("a") is False
        assert not store.path_for("a").exists()

    def test_name_validation(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(ValueError):
            store.save("../escape", 1)
        with pytest.raises(ValueError):
            store.journal("a/b")

    def test_frame_bytes_are_unchanged(self, tmp_path):
        # Snapshots and journals written by earlier code must still load:
        # pin the byte layout, built by hand in ``frame``.
        store = CheckpointStore(tmp_path)
        store.path_for("old").write_bytes(frame({"epoch": 7}))
        assert store.load("old") == {"epoch": 7}
        store.save("new", {"epoch": 7})
        assert store.path_for("new").read_bytes() == frame({"epoch": 7})

        journal = store.journal("old")
        journal.path.write_bytes(frame(("__task-journal-header__", "fp")) + frame("a") + frame("b"))
        assert journal.header() == "fp"
        assert journal.replay() == ["a", "b"]
        journal.append("c")
        assert journal.path.read_bytes().endswith(frame("c"))

    def test_default_store_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "ck"))
        store = default_checkpoint_store()
        assert store.root == tmp_path / "ck"


@pytest.mark.checkpoint
class TestTaskJournal:
    def test_append_replay_roundtrip(self, tmp_path):
        journal = TaskJournal(tmp_path / "j.journal")
        records = [((0, k), f"solution-{k}") for k in range(5)]
        for record in records:
            journal.append(record)
        assert journal.replay() == records
        assert len(journal.replay()) == 5

    def test_torn_tail_dropped(self, tmp_path):
        journal = TaskJournal(tmp_path / "j.journal")
        journal.append("one")
        journal.append("two")
        intact_size = journal.path.stat().st_size
        journal.append("three")
        # Truncate mid-frame: the classic crash-during-append artifact.
        torn = (intact_size + journal.path.stat().st_size) // 2
        with open(journal.path, "r+b") as fh:
            fh.truncate(torn)
        assert journal.replay() == ["one", "two"]
        # Appending after a torn tail... the torn bytes would corrupt
        # framing, so resume flows clear+rewrite or replay-then-continue
        # on a fresh journal; here we just pin that replay stays stable.
        assert journal.replay() == ["one", "two"]

    def test_mid_file_corruption_raises(self, tmp_path):
        journal = TaskJournal(tmp_path / "j.journal")
        journal.append("aaaa")
        journal.append("bbbb")
        payload = bytearray(journal.path.read_bytes())
        payload[45] ^= 0xFF  # inside the first record's pickle body
        journal.path.write_bytes(bytes(payload))
        with pytest.raises(CheckpointIntegrityError):
            journal.replay()

    def test_clear(self, tmp_path):
        journal = TaskJournal(tmp_path / "j.journal")
        journal.append(1)
        assert journal.clear() is True
        assert journal.replay() == []
        assert journal.clear() is False

    def test_empty_journal_replays_empty(self, tmp_path):
        assert TaskJournal(tmp_path / "nope.journal").replay() == []

    def test_header_roundtrip_and_replay_skips_it(self, tmp_path):
        journal = TaskJournal(tmp_path / "j.journal")
        assert journal.header() is None  # missing journal: no header
        journal.write_header("fingerprint-1")
        journal.append("record")
        assert journal.header() == "fingerprint-1"
        assert journal.replay() == ["record"]
        assert len(journal.replay()) == 1  # the header frame is not a record

    def test_header_requires_fresh_journal(self, tmp_path):
        journal = TaskJournal(tmp_path / "j.journal")
        journal.append("record")
        with pytest.raises(CheckpointError, match="existing journal"):
            journal.write_header("late")

    def test_headerless_journal_reports_none(self, tmp_path):
        journal = TaskJournal(tmp_path / "j.journal")
        journal.append(("some", "record"))
        assert journal.header() is None
        assert journal.replay() == [("some", "record")]


class TestRngState:
    def test_roundtrip_continues_identical_stream(self):
        gen = new_rng(7)
        gen.permutation(50)
        state = get_rng_state(gen)
        first = gen.permutation(50)
        set_rng_state(gen, state)
        np.testing.assert_array_equal(first, gen.permutation(50))

    def test_snapshot_is_isolated_from_later_draws(self):
        gen = new_rng(3)
        state = get_rng_state(gen)
        reference = dict(state)
        gen.standard_normal(100)
        assert state == reference  # deep-copied out
        set_rng_state(gen, state)
        gen.standard_normal(10)  # deep-copied in: snapshot still reusable
        set_rng_state(gen, state)

    def test_state_survives_pickle(self):
        gen = new_rng(11)
        gen.integers(0, 100, size=20)
        state = pickle.loads(pickle.dumps(get_rng_state(gen)))
        other = new_rng(0)
        set_rng_state(other, state)
        np.testing.assert_array_equal(
            gen.integers(0, 100, size=20), other.integers(0, 100, size=20)
        )


def _fit_some_steps(optimizer_cls, steps, preload=None, **kwargs):
    """Train a tiny model a few steps; returns (model, optimizer)."""
    model = make_tiny_model(seed=4)
    optimizer = optimizer_cls(model.parameters(), **kwargs)
    if preload is not None:
        model.load_state_dict(preload[0])
        optimizer.load_state_dict(preload[1])
    x, y = easy_image_task(48, seed=9)
    trainer = Trainer(model, optimizer, batch_size=16, rng=2)
    if steps:
        trainer.fit(x, y, epochs=steps)
    return model, optimizer


class TestOptimizerState:
    @pytest.mark.parametrize(
        "optimizer_cls,kwargs",
        [
            (SGD, {"lr": 0.05, "momentum": 0.9}),
            (Adam, {"lr": 1e-3}),
            (Adadelta, {"lr": 1.0, "rho": 0.95}),
        ],
    )
    def test_roundtrip_resumes_identically(self, optimizer_cls, kwargs):
        # Reference: 2 epochs straight through.
        ref_model, ref_opt = _fit_some_steps(optimizer_cls, 2, **kwargs)
        # Restored: 1 epoch, snapshot, restore into fresh objects, 1 more.
        mid_model, mid_opt = _fit_some_steps(optimizer_cls, 1, **kwargs)
        snapshot = (mid_model.state_dict(), mid_opt.state_dict())
        # The second epoch must replay the same shuffles: re-seed the rng
        # by replaying epoch 1's permutation draw on a fresh trainer.
        model = make_tiny_model(seed=4)
        optimizer = optimizer_cls(model.parameters(), **kwargs)
        model.load_state_dict(snapshot[0])
        optimizer.load_state_dict(snapshot[1])
        x, y = easy_image_task(48, seed=9)
        gen = new_rng(2)
        gen.permutation(len(x))  # consume epoch 1's draw
        trainer = Trainer(model, optimizer, batch_size=16, rng=gen)
        trainer.fit(x, y, epochs=1)
        for (name, a), (_, b) in zip(
            sorted(ref_model.state_dict().items()), sorted(model.state_dict().items())
        ):
            assert a.tobytes() == b.tobytes(), name

    def test_state_dict_copies_buffers(self):
        model = make_tiny_model()
        optimizer = Adam(model.parameters())
        state = optimizer.state_dict()
        state["slots"]["_m"][0][...] = 99.0
        assert not np.any(optimizer._m[0] == 99.0)

    def test_mismatched_slots_rejected(self):
        model = make_tiny_model()
        sgd = SGD(model.parameters(), momentum=0.9)
        adam = Adam(model.parameters())
        with pytest.raises(KeyError):
            adam.load_state_dict(sgd.state_dict())

    def test_mismatched_shapes_rejected(self):
        model = make_tiny_model()
        optimizer = SGD(model.parameters(), momentum=0.9)
        state = optimizer.state_dict()
        state["slots"]["_velocity"][0] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            optimizer.load_state_dict(state)

    def test_buffer_count_mismatch_rejected(self):
        model = make_tiny_model()
        optimizer = SGD(model.parameters(), momentum=0.9)
        state = optimizer.state_dict()
        state["slots"]["_velocity"].pop()
        with pytest.raises(ValueError):
            optimizer.load_state_dict(state)


class TestSerializeSuffix:
    def test_bare_stem_roundtrips(self, tmp_path, trained_tiny_model):
        model, _, _, test_x, _ = trained_tiny_model
        stem = tmp_path / "weights"  # no suffix: the historical crash
        written = save_state_dict(model, stem)
        assert written == tmp_path / "weights.npz"
        clone = make_tiny_model(seed=55)
        load_state_dict(clone, stem)  # same bare stem loads back
        np.testing.assert_allclose(
            clone.predict_proba(test_x[:4]), model.predict_proba(test_x[:4]), atol=1e-6
        )

    def test_explicit_suffix_unchanged(self, tmp_path, trained_tiny_model):
        model, *_ = trained_tiny_model
        path = tmp_path / "model.npz"
        assert save_state_dict(model, path) == path
        assert path.exists()

    def test_save_is_atomic(self, tmp_path, trained_tiny_model):
        model, *_ = trained_tiny_model
        save_state_dict(model, tmp_path / "m")
        save_state_dict(model, tmp_path / "m")  # overwrite goes via replace
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.npz"]


class TestTrainerEdgeCases:
    def test_empty_dataset_raises(self):
        model = make_tiny_model()
        trainer = Trainer(model, Adam(model.parameters()))
        with pytest.raises(ValueError, match="empty dataset"):
            trainer.fit(
                np.zeros((0, 1, 12, 12)), np.zeros(0, dtype=np.int64), epochs=3
            )

    def test_zero_epochs_short_circuits(self):
        model = make_tiny_model()
        trainer = Trainer(model, Adam(model.parameters()))
        x, y = easy_image_task(8, seed=0)
        report = trainer.fit(x, y, epochs=0)
        assert report == TrainingReport()

    def test_resume_without_store_rejected(self):
        model = make_tiny_model()
        trainer = Trainer(model, Adam(model.parameters()))
        x, y = easy_image_task(8, seed=0)
        with pytest.raises(ValueError, match="resume"):
            trainer.fit(x, y, epochs=1, resume=True)

    def test_resume_on_different_dataset_size_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        x, y = easy_image_task(32, seed=0)
        model = make_tiny_model()
        trainer = Trainer(model, Adam(model.parameters()), batch_size=16, rng=0)
        trainer.fit(x, y, epochs=1, checkpoint=store)
        other = Trainer(model, Adam(model.parameters()), batch_size=16, rng=0)
        with pytest.raises(ValueError, match="resume"):
            other.fit(x[:16], y[:16], epochs=2, checkpoint=store, resume=True)

    def test_checkpoint_path_accepted(self, tmp_path):
        x, y = easy_image_task(16, seed=0)
        model = make_tiny_model()
        trainer = Trainer(model, Adam(model.parameters()), batch_size=8, rng=0)
        trainer.fit(x, y, epochs=2, checkpoint=tmp_path / "ck", checkpoint_name="t")
        assert (tmp_path / "ck" / "t.pkl").exists()

    def test_epochs_zero_resume_returns_restored_history(self, tmp_path):
        # "Nothing left to train" must answer consistently: with a
        # snapshot, epochs=0 + resume returns the restored history, not
        # an empty report.
        store = CheckpointStore(tmp_path)
        x, y = easy_image_task(16, seed=0)
        model = make_tiny_model()
        trainer = Trainer(model, Adam(model.parameters()), batch_size=8, rng=0)
        report = trainer.fit(x, y, epochs=2, checkpoint=store)
        again = trainer.fit(x, y, epochs=0, checkpoint=store, resume=True)
        assert again.epoch_losses == report.epoch_losses

    def test_completed_checkpoint_resumes_to_noop(self, tmp_path):
        store = CheckpointStore(tmp_path)
        x, y = easy_image_task(16, seed=0)
        model = make_tiny_model()
        trainer = Trainer(model, Adam(model.parameters()), batch_size=8, rng=0)
        report = trainer.fit(x, y, epochs=2, checkpoint=store)
        before = {k: v.tobytes() for k, v in model.state_dict().items()}
        again = trainer.fit(x, y, epochs=2, checkpoint=store, resume=True)
        assert again.epoch_losses == report.epoch_losses
        after = {k: v.tobytes() for k, v in model.state_dict().items()}
        assert before == after  # no extra epochs ran


def _task_features(tasks=6, rows=18, dims=4, seed=0):
    rng = np.random.default_rng(seed)
    return {
        (pos, klass): rng.normal(size=(rows, dims))
        for pos in range(2)
        for klass in range(tasks // 2)
    }


def _assert_solutions_equal(a, b):
    assert sorted(a) == sorted(b)
    for key in a:
        (svm_a,), (svm_b,) = a[key], b[key]
        scaler_a, scaler_b = svm_a.scaler_, svm_b.scaler_
        assert svm_a.support_rows_.tobytes() == svm_b.support_rows_.tobytes()
        assert svm_a.dual_coef_.tobytes() == svm_b.dual_coef_.tobytes()
        assert svm_a.rho_ == svm_b.rho_
        assert svm_a.norm_w_ == svm_b.norm_w_
        assert scaler_a.mean_.tobytes() == scaler_b.mean_.tobytes()
        assert scaler_a.scale_.tobytes() == scaler_b.scale_.tobytes()


@pytest.mark.faults
@pytest.mark.checkpoint
class TestSolveTasksRecovery:
    def test_journal_resume_after_coordinator_crash(self, tmp_path):
        features = _task_features()
        config = ValidatorConfig(nu=0.2)
        reference = solve_tasks(features, config)
        journal = TaskJournal(tmp_path / "fit.journal")
        with crash_at_task(4) as stats:
            with pytest.raises(InjectedCrashError):
                solve_tasks(features, config, journal=journal)
        assert stats["crashed"] and len(journal.replay()) == 4
        resumed = solve_tasks(features, config, journal=journal)
        _assert_solutions_equal(reference, resumed)
        # Resume solved only the missing tasks: journal now holds all six.
        assert len(journal.replay()) == len(features)

    def test_journal_replay_skips_completed_solves(self, tmp_path, monkeypatch):
        features = _task_features()
        config = ValidatorConfig(nu=0.2)
        journal = TaskJournal(tmp_path / "fit.journal")
        solve_tasks(features, config, journal=journal)
        import repro.core.fitting as fitting

        def exploding(*args):  # pragma: no cover - must not be hit
            raise AssertionError("fully-journaled fit must not re-solve")

        monkeypatch.setattr(fitting, "_solve_fit_task", exploding)
        replayed = solve_tasks(features, config, journal=journal)
        assert sorted(replayed) == sorted(features)

    def test_legacy_headerless_journal_discarded(self, tmp_path):
        # A journal with no fingerprint header cannot be attributed to
        # this solve: it is cleared and rebuilt, never merged.
        features = _task_features()
        config = ValidatorConfig(nu=0.2)
        journal = TaskJournal(tmp_path / "fit.journal")
        journal.append(((99, 99), "stale"))
        solutions = solve_tasks(features, config, journal=journal)
        assert (99, 99) not in solutions
        assert journal.header() is not None  # re-stamped for this solve
        assert len(journal.replay()) == len(features)  # stale record gone

    def _count_resolves(self, monkeypatch):
        # Replayed solutions are merged directly; only fresh solves pass
        # through the _record_solution seam, so its keys are the re-solves.
        import repro.core.fitting as fitting

        solved: list = []
        original = fitting._record_solution

        def counting(key, solution, solutions, journal):
            solved.append(key)
            return original(key, solution, solutions, journal)

        monkeypatch.setattr(fitting, "_record_solution", counting)
        return solved

    def test_journal_for_different_config_discarded(self, tmp_path, monkeypatch):
        features = _task_features()
        journal = TaskJournal(tmp_path / "fit.journal")
        solve_tasks(features, ValidatorConfig(nu=0.2), journal=journal)
        # Same journal name, different solver settings: the fingerprint
        # header mismatches, so nothing may replay into the new solve.
        solved = self._count_resolves(monkeypatch)
        solve_tasks(features, ValidatorConfig(nu=0.5), journal=journal)
        assert sorted(solved) == sorted(features)

    def test_journal_of_older_record_format_discarded(self, tmp_path, monkeypatch):
        # A journal stamped with the fingerprint formula that predates the
        # record-format tag, for the same features and config, holds
        # records of another shape: it is cleared and every task re-solved.
        import hashlib

        from repro.core.fitting import _solve_config
        from repro.utils.cache import hash_array

        features = _task_features()
        config = ValidatorConfig(nu=0.2)
        digest = hashlib.sha256()
        digest.update(repr(sorted(_solve_config(config).items())).encode())
        for key in sorted(features):
            digest.update(repr(key).encode())
            digest.update(hash_array(features[key]).encode())
        journal = TaskJournal(tmp_path / "fit.journal")
        journal.write_header(digest.hexdigest())
        for key in sorted(features):
            journal.append((key, "older-format record"))
        solved = self._count_resolves(monkeypatch)
        solutions = solve_tasks(features, config, journal=journal)
        assert sorted(solved) == sorted(features)
        _assert_solutions_equal(solutions, solve_tasks(features, config))
        assert len(journal.replay()) == len(features)

    def test_journal_for_different_features_discarded(self, tmp_path, monkeypatch):
        config = ValidatorConfig(nu=0.2)
        journal = TaskJournal(tmp_path / "fit.journal")
        solve_tasks(_task_features(seed=0), config, journal=journal)
        solved = self._count_resolves(monkeypatch)
        features = _task_features(seed=1)  # same keys, different data
        solve_tasks(features, config, journal=journal)
        assert sorted(solved) == sorted(features)
