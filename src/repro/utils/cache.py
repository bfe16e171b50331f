"""Caching utilities: the one store for framed pickles, content hashing,
and the self-verifying file frame every on-disk artifact is written in.

Training even a small CNN in pure numpy takes tens of seconds, so every
expensive artifact (trained models, fitted validators, searched corner-case
suites) is cached on disk keyed by a stable hash of its configuration, and
the long pipelines that build them checkpoint as they go: a crash at epoch
39/40 must cost one epoch, and a resumed run must be **bit-identical** to
an uninterrupted one.

Cache entries, checkpoint snapshots, journal records and validator
bundles are all written in one frame (body length, body sha256, body) by
the helpers below, which stage and rename files into place, verify them
before anything is unpickled, and quarantine them when corrupt. On top of
them sit two primitives:

* :class:`CheckpointStore` — a directory of framed pickles under flat
  names, ``<name>.pkl``. It holds checkpoint snapshots by name and cache
  entries by :func:`cache_key` (``<name>-<config hash>``) through
  :meth:`CheckpointStore.get_or_build`; an unreadable entry is quarantined
  and treated as missing. :func:`default_cache` (``.artifacts/`` or
  ``$REPRO_CACHE_DIR``) and :func:`default_checkpoint_store` are stores.
* :class:`TaskJournal` — an append-only, per-record-checksummed journal
  for pipelines made of many small independent results (the ``(layer,
  class)`` solves of Algorithm 1, the per-experiment reports of the CLI).
  :meth:`TaskJournal.replay` returns every intact record and drops a torn
  tail — exactly the record that was mid-write when the process died.

Checkpoints capture RNG bit-state via :func:`repro.utils.rng.get_rng_state`
/ :func:`~repro.utils.rng.set_rng_state`, which is what makes resume
bit-identical rather than merely approximate. This module imports nothing
from ``repro.core`` or ``repro.nn``, which import it at load time.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import struct
import time
import uuid
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterator

import numpy as np

from repro import obs


def _encode_opaque(value: Any) -> dict:
    """JSON stand-in for a non-serialisable config value: type + repr.

    ``json.dumps(default=str)`` used to collapse distinct non-JSON values
    whose ``str()`` coincide (e.g. ``Decimal("1")`` and the string
    ``"1"``, or two enum members from different enums with the same
    member name) into the same artifact key — silent cache aliasing.
    Encoding the fully-qualified type alongside ``repr`` keeps the key
    stable across runs while separating values that merely print alike.
    """
    kind = type(value)
    return {
        "__opaque__": f"{kind.__module__}.{kind.__qualname__}",
        "__repr__": repr(value),
    }


def _stable_hash(config: Any) -> str:
    """Hash an arbitrary JSON-serialisable config into a short hex key.

    Values JSON cannot serialise are encoded as type + repr (see
    :func:`_encode_opaque`); pure-JSON configs hash exactly as before, so
    existing on-disk artifact keys stay valid.
    """
    payload = json.dumps(config, sort_keys=True, default=_encode_opaque).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


def hash_array(*arrays: np.ndarray) -> str:
    """Content hash of one or more arrays, suitable as a cache or journal key.

    Includes shape and dtype so that e.g. a (4, 9) float32 batch and its
    (36,) flattened view hash differently.
    """
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


#: Frame header: 8-byte big-endian body length + the body's 32-byte sha256.
FRAME_HEADER = struct.Struct(">Q32s")

#: Subdirectory (under a store's root) that corrupt files are moved to.
QUARANTINE_DIR = ".quarantine"

#: How many quarantined files a store's ``.quarantine/`` keeps; each move
#: deletes the older ones.
QUARANTINE_KEEP = 16

#: What unpickling verified bytes raises when they are not a pickle of a
#: class this code still has (a foreign file, a renamed class).
UNPICKLE_ERRORS = (pickle.UnpicklingError, EOFError, AttributeError,
                   ImportError, IndexError, ValueError)


class FrameError(RuntimeError):
    """Bytes on disk are not the intact frames they should be."""


def frame_header(body: bytes, digest: bytes | None = None) -> bytes:
    """The header that frames ``body``; pass ``digest`` if its sha256 is known."""
    if digest is None:
        digest = hashlib.sha256(body).digest()
    return FRAME_HEADER.pack(len(body), digest)


def write_atomic(path: Path, *chunks: bytes) -> None:
    """Write ``chunks`` to a unique (pid + random) temp file, fsync, and
    rename it into place: concurrent writers never share a staging file,
    and readers see the old file or the complete new one."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # only on a failed write; replace consumed it
            tmp.unlink()


def read_frame(fh: BinaryIO) -> tuple[bytes, bytes] | None:
    """The next frame in ``fh`` as ``(body, digest)``, or ``None`` at its end.

    A frame cut short (the tail a crash left mid-write) also reads as the
    end. A complete frame whose body does not hash to its digest raises
    :class:`FrameError`.
    """
    header = fh.read(FRAME_HEADER.size)
    if len(header) < FRAME_HEADER.size:
        return None
    length, digest = FRAME_HEADER.unpack(header)
    if length > os.fstat(fh.fileno()).st_size - fh.tell():
        return None  # never allocate a length the file cannot hold
    body = fh.read(length)
    if hashlib.sha256(body).digest() != digest:
        raise FrameError("checksum mismatch")
    return body, digest


def read_frame_file(path: Path, frames: int = 1) -> list[tuple[bytes, bytes]]:
    """``(body, digest)`` of each of the ``frames`` frames that make up ``path``.

    :class:`FrameError` if a digest fails, the file ends early, or bytes
    follow the last frame.
    """
    with open(path, "rb") as fh:
        found = []
        for index in range(frames):
            frame = read_frame(fh)
            if frame is None:
                raise FrameError(
                    f"truncated: ends before frame {index + 1} of {frames} is complete"
                )
            found.append(frame)
        if fh.read(1):
            raise FrameError("bytes follow the last frame")
    return found


def _quarantined_at(path: Path) -> int:
    """When ``path`` was quarantined, in ns, read from its name's last
    suffix; files named without a stamp sort as oldest."""
    stamp = path.name.rsplit(".", 1)[-1].split("-", 1)[0]
    return int(stamp) if len(stamp) == 20 and stamp.isdigit() else 0


def quarantine_file(path: Path, root: Path) -> Path | None:
    """Move a corrupt file into ``root/.quarantine/``; its new path, or ``None``.

    The new name is the old one plus a suffix of the quarantine time (ns)
    and a unique tag, so repeated corruption never clobbers evidence.
    After each move only the newest ``QUARANTINE_KEEP`` files of that
    ``.quarantine/`` stay; older ones are deleted, so a store that keeps
    meeting corrupt files does not grow without bound. Each file actually
    moved counts once in ``checkpoint_quarantines_total``, whichever store
    (cache, checkpoint or bundle) it came from.
    """
    hole = root / QUARANTINE_DIR
    hole.mkdir(parents=True, exist_ok=True)
    destination = hole / (
        f"{path.name}.{time.time_ns():020d}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    )
    try:
        os.replace(path, destination)
    except FileNotFoundError:
        return None
    obs.counter(
        "checkpoint_quarantines_total",
        help="Corrupt cache entries, checkpoint snapshots and bundles moved to quarantine",
    ).inc()
    held = sorted(hole.iterdir(), key=lambda p: (_quarantined_at(p), p.name))
    for stale in held[:-QUARANTINE_KEEP]:
        stale.unlink(missing_ok=True)
    return destination


def cache_key(name: str, config: Any) -> str:
    """The store key of the cache entry for ``(name, config)``."""
    return f"{name}-{_stable_hash(config)}"


def _unlink(path: Path) -> bool:
    """Delete ``path``; whether it was there to delete."""
    try:
        path.unlink()
    except FileNotFoundError:
        return False
    return True


def _loads_counter():
    return obs.counter(
        "checkpoint_loads_total",
        help="Cache entry and checkpoint snapshot reads by outcome",
        labels=("result",),
    )


class CheckpointError(RuntimeError):
    """Base class for checkpoint-store failures."""


class CheckpointIntegrityError(CheckpointError):
    """A store entry or journal record failed its checksum verification."""


_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

#: First element of the frame a journal header is wrapped in; see
#: :meth:`TaskJournal.write_header`.
_HEADER_SENTINEL = "__task-journal-header__"

#: What :meth:`CheckpointStore._load_or` returns for a missing or
#: unreadable entry when a cached value may itself be ``None``.
_MISSING = object()


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(
            f"checkpoint name must match {_NAME_RE.pattern}, got {name!r}"
        )
    return name


class CheckpointStore:
    """Atomic, integrity-checked framed pickles under flat names.

    Each entry is one file, ``<name>.pkl``, holding one frame around the
    pickle. Writes are atomic (temp + ``os.replace``), and because the
    digest travels inside the same file there is no crash window in which
    an entry's payload and integrity record diverge: the store holds
    either the previous complete entry or the new one. Reads verify the
    digest before unpickling; a corrupt entry is quarantined — moved into
    ``.quarantine/`` for post-mortem — rather than half-loaded.
    """

    QUARANTINE_DIR = QUARANTINE_DIR

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, name: str) -> Path:
        """On-disk path of the entry called ``name``."""
        return self.root / f"{_check_name(name)}.pkl"

    def exists(self, name: str) -> bool:
        """Whether an entry called ``name`` is present."""
        return self.path_for(name).exists()

    def save(self, name: str, state: Any) -> None:
        """Atomically pickle ``state`` under ``name`` as one frame."""
        payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        write_atomic(self.path_for(name), frame_header(payload), payload)
        obs.counter(
            "checkpoint_saves_total", help="Cache entries and checkpoint snapshots written"
        ).inc()

    def load(self, name: str) -> Any:
        """Verify and unpickle the entry called ``name``.

        Raises :class:`FileNotFoundError` if absent, and
        :class:`CheckpointIntegrityError` (after quarantining the entry)
        if the frame is truncated, overlong or fails verification.
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

    def _load_or(self, name: str, missing: Any) -> Any:
        """The entry, or ``missing`` if it is absent or unusable.

        A corrupt or unpicklable entry (a foreign file, a pickle of a class
        that has since changed) is quarantined. There is no existence
        pre-check: an entry another process removes before the read is
        simply absent.
        """
        try:
            return self.load(name)
        except (FileNotFoundError, CheckpointIntegrityError):
            return missing
        except UNPICKLE_ERRORS:
            self.quarantine(name)
            return missing

    def load_or_none(self, name: str) -> Any:
        """The resume entry point: the snapshot, or ``None`` if unusable.

        Resuming from damaged state would break the bit-identity
        contract, so the caller restarts the stage instead.
        """
        return self._load_or(name, None)

    def get_or_build(self, name: str, config: Any, build: Callable[[], Any]) -> Any:
        """The cache entry for ``(name, config)``, built and saved on a miss.

        ``config`` must be JSON-serialisable (other values are keyed by
        type and ``repr``). An entry that is missing, corrupt or
        unpicklable is a miss, so a damaged cache rebuilds rather than
        poisoning every future run.
        """
        key = cache_key(name, config)
        value = self._load_or(key, _MISSING)
        if value is _MISSING:
            value = build()
            self.save(key, value)
        return value

    def discard(self, name: str) -> bool:
        """Remove the entry called ``name``; returns whether one existed."""
        return _unlink(self.path_for(name))

    def clear(self) -> int:
        """Delete every entry; returns the number removed.

        Journals and quarantined evidence under ``.quarantine/`` are left.
        """
        return sum(_unlink(path) for path in self.root.glob("*.pkl"))

    def quarantine(self, name: str) -> Path | None:
        """Move a corrupt entry into ``.quarantine/`` for post-mortem."""
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
        return _unlink(self.path)


def default_cache() -> CheckpointStore:
    """The repository-wide cache (``.artifacts/`` or ``$REPRO_CACHE_DIR``)."""
    root = os.environ.get("REPRO_CACHE_DIR")
    if root is None:
        root = Path(__file__).resolve().parents[3] / ".artifacts"
    return CheckpointStore(root)


def default_checkpoint_store() -> CheckpointStore:
    """The repository-wide checkpoint store: ``$REPRO_CHECKPOINT_DIR`` or
    ``.checkpoints/`` under the cache root (so relocating the cache with
    ``REPRO_CACHE_DIR`` relocates the checkpoints with it)."""
    root = os.environ.get("REPRO_CHECKPOINT_DIR")
    if root is None:
        return CheckpointStore(default_cache().root / ".checkpoints")
    return CheckpointStore(root)
