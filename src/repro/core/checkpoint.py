"""Crash-safe checkpointing for the offline pipelines.

The serving path became fault-tolerant in the resilience layer; this module
gives the *artifact-producing* pipelines — classifier training, Algorithm 1
fitting, and the experiment CLI — the same discipline. A crash, OOM-kill,
or power cut at epoch 39/40 must cost one epoch, not the whole run, and a
resumed run must be **bit-identical** to an uninterrupted one, just as the
in-process fitting pipeline is bit-identical to per-layer
``LayerValidator.fit``.

Two primitives, both written in the self-verifying frame of
:mod:`repro.utils.cache` (8-byte length, sha256, body) and through its
helpers (stage to a uniquely-named temp file, ``os.replace`` into place,
sha256 verified on read, corrupt files quarantined):

* :class:`CheckpointStore` — atomic whole-state snapshots. Each snapshot
  is one file holding one frame around the pickle, which lands in a
  single ``os.replace``, so ``save`` never leaves a torn checkpoint (the
  previous snapshot survives any crash mid-write — there is no separate
  integrity file that could land out of step with the payload) and
  ``load_or_none`` treats a corrupt snapshot as absent, so a resume after
  the worst-case crash simply restarts the interrupted stage from the
  last good snapshot.
* :class:`TaskJournal` — an append-only, per-record-checksummed journal
  for pipelines made of many small independent results (the ``(layer,
  class)`` solves of Algorithm 1, the per-experiment reports of the CLI).
  Each record is framed with its length and sha256 digest and fsynced on
  append; :meth:`TaskJournal.replay` returns every intact record and
  silently drops a torn tail — exactly the record that was mid-write when
  the process died.

Checkpoints capture RNG bit-state via :func:`repro.utils.rng.get_rng_state`
/ :func:`~repro.utils.rng.set_rng_state`, which is what makes resume
bit-identical rather than merely approximate: the restored generator
continues the exact stream the interrupted run would have drawn.
"""

from __future__ import annotations

import os
import pickle
import re
from pathlib import Path
from typing import Any, Iterator

from repro import obs
from repro.utils.cache import (
    QUARANTINE_DIR,
    UNPICKLE_ERRORS,
    FrameError,
    default_cache,
    frame_header,
    quarantine_file,
    read_frame,
    read_frame_file,
    write_atomic,
)


def _loads_counter():
    return obs.counter(
        "checkpoint_loads_total",
        help="Checkpoint snapshot reads by outcome",
        labels=("result",),
    )


class CheckpointError(RuntimeError):
    """Base class for checkpoint-store failures."""


class CheckpointIntegrityError(CheckpointError):
    """A checkpoint or journal record failed its checksum verification."""


_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

#: First element of the frame a journal header is wrapped in; see
#: :meth:`TaskJournal.write_header`.
_HEADER_SENTINEL = "__task-journal-header__"


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(
            f"checkpoint name must match {_NAME_RE.pattern}, got {name!r}"
        )
    return name


class CheckpointStore:
    """Atomic, integrity-checked snapshots of arbitrary picklable state.

    Keys are flat names; each snapshot is a single self-verifying file —
    one frame around the pickle. Writes are atomic (temp +
    ``os.replace``), and because the digest travels inside the same file
    there is no crash window in which a good snapshot's payload and
    integrity record diverge: the store always holds either the previous
    complete snapshot or the new one. Reads verify the embedded
    digest before unpickling; a corrupt entry is quarantined for
    post-mortem rather than half-loaded.
    """

    QUARANTINE_DIR = QUARANTINE_DIR

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, name: str) -> Path:
        """On-disk path of the snapshot called ``name``."""
        return self.root / f"{_check_name(name)}.ckpt"

    def exists(self, name: str) -> bool:
        """Whether a snapshot called ``name`` is present."""
        return self.path_for(name).exists()

    def save(self, name: str, state: Any) -> None:
        """Atomically snapshot ``state`` under ``name``.

        Payload and digest are framed into one file and renamed into
        place in a single ``os.replace`` — a crash at any instant leaves
        either the previous snapshot or the complete new one, never a
        payload whose integrity record is out of step.
        """
        payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        write_atomic(self.path_for(name), frame_header(payload), payload)
        obs.counter(
            "checkpoint_saves_total", help="Checkpoint snapshots written"
        ).inc()

    def load(self, name: str) -> Any:
        """Verify and unpickle the snapshot called ``name``.

        Raises :class:`FileNotFoundError` if absent, and
        :class:`CheckpointIntegrityError` (after quarantining the entry)
        if the frame is truncated or the bytes fail verification.
        """
        path = self.path_for(name)
        try:
            [(payload, _)] = read_frame_file(path)
        except FrameError as exc:
            self.quarantine(name)
            _loads_counter().labels(result="corrupt").inc()
            raise CheckpointIntegrityError(
                f"{path.name}: {exc}; entry quarantined"
            ) from None
        state = pickle.loads(payload)
        _loads_counter().labels(result="ok").inc()
        return state

    def load_or_none(self, name: str) -> Any:
        """The resume entry point: the snapshot, or ``None`` if unusable.

        A missing snapshot means "start fresh"; a corrupt one is
        quarantined and likewise treated as absent — resuming from
        damaged state would break the bit-identity contract, so the
        caller restarts the stage instead.
        """
        if not self.exists(name):
            return None
        try:
            return self.load(name)
        except CheckpointIntegrityError:
            return None
        except UNPICKLE_ERRORS:
            self.quarantine(name)
            return None

    def discard(self, name: str) -> bool:
        """Remove the snapshot for ``name``; returns whether one existed."""
        path = self.path_for(name)
        if path.exists():
            path.unlink()
            return True
        return False

    def quarantine(self, name: str) -> Path | None:
        """Move a corrupt snapshot into ``.quarantine/`` for post-mortem."""
        return quarantine_file(self.path_for(name), self.root)

    def journal(self, name: str) -> "TaskJournal":
        """The append-only journal called ``name`` inside this store."""
        return TaskJournal(self.root / f"{_check_name(name)}.journal")


class TaskJournal:
    """An append-only journal of picklable records, safe against torn tails.

    Each :meth:`append` writes one self-verifying frame — payload length,
    sha256 digest, pickled payload — and fsyncs it, so a record either
    lands completely or not at all from the reader's point of view.
    :meth:`replay` yields every intact record in append order and stops at
    a torn tail (the frame that was mid-write when the process died); a
    *complete* frame whose digest fails is storage rot, not a crash, and
    raises :class:`CheckpointIntegrityError` instead of silently dropping
    every record after it.

    A journal may additionally carry a *header* — an identity stamp
    (:meth:`write_header` / :meth:`header`) written as frame 0 of a fresh
    journal and excluded from :meth:`replay`. Resumable pipelines store a
    fingerprint of the config/data their records were computed from, so a
    stale journal under a reused name is detected and discarded instead
    of silently replayed into a run it does not belong to.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def exists(self) -> bool:
        """Whether any journal file is present on disk."""
        return self.path.exists()

    def append(self, record: Any) -> None:
        """Durably append one record (length + digest + pickle, fsynced)."""
        payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        with open(self.path, "ab") as fh:
            fh.write(frame_header(payload))
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        obs.counter(
            "journal_appends_total", help="Journal records durably appended"
        ).inc()

    def write_header(self, header: Any) -> None:
        """Stamp ``header`` as frame 0 of a *fresh* journal.

        The header identifies what the journal's records were computed
        from (callers typically store a config/data fingerprint) and is
        skipped by :meth:`replay`. Stamping an existing journal would
        misattribute its records, so that raises :class:`CheckpointError`
        — :meth:`clear` first.
        """
        if self.path.exists():
            raise CheckpointError(
                f"{self.path.name}: cannot stamp a header onto an existing "
                "journal; clear() it first"
            )
        self.append((_HEADER_SENTINEL, header))

    def header(self) -> Any:
        """Frame 0's header value, or ``None`` if the journal has none."""
        first = next(self._iter_frames(), None)
        return first[1] if self._is_header(first) else None

    @staticmethod
    def _is_header(record: Any) -> bool:
        return (
            isinstance(record, tuple)
            and len(record) == 2
            and record[0] == _HEADER_SENTINEL
        )

    def replay(self) -> list[Any]:
        """Every intact record, in append order; a torn tail is dropped.

        The header frame, if any, is not a record and is skipped.
        """
        records = list(self._iter_frames())
        if records and self._is_header(records[0]):
            del records[0]
        obs.counter(
            "journal_replayed_records_total",
            help="Intact journal records yielded by replay",
        ).inc(len(records))
        return records

    def _iter_frames(self) -> Iterator[Any]:
        """Yield every intact frame (header included); see :meth:`replay`."""
        if not self.path.exists():
            return
        with open(self.path, "rb") as fh:
            while True:
                try:
                    frame = read_frame(fh)
                except FrameError:
                    raise CheckpointIntegrityError(
                        f"{self.path.name}: journal record failed its checksum "
                        "(storage corruption, not a torn write)"
                    ) from None
                if frame is None:
                    return  # clean end, or a torn tail that was mid-write
                yield pickle.loads(frame[0])

    def clear(self) -> bool:
        """Delete the journal file; returns whether one existed."""
        if self.path.exists():
            self.path.unlink()
            return True
        return False


def default_checkpoint_store() -> CheckpointStore:
    """The repository-wide store: ``$REPRO_CHECKPOINT_DIR`` or
    ``.checkpoints/`` under the artifact-cache root (so relocating the
    cache with ``REPRO_CACHE_DIR`` relocates the checkpoints with it)."""
    root = os.environ.get("REPRO_CHECKPOINT_DIR")
    if root is None:
        return CheckpointStore(default_cache().root / ".checkpoints")
    return CheckpointStore(root)
