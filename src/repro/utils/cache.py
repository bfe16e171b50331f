"""Caching utilities: the on-disk artifact cache, content hashing, and the
self-verifying file frame every on-disk artifact is written in.

Training even a small CNN in pure numpy takes tens of seconds, so every
expensive artifact (trained models, fitted validators, searched corner-case
suites) is cached on disk keyed by a stable hash of its configuration.
Entries are pickled; the cache directory defaults to ``.artifacts/`` at the
repository root and can be relocated with the ``REPRO_CACHE_DIR``
environment variable.

Cache entries, checkpoint snapshots, journal records and validator
bundles are all written in one frame (body length, body sha256, body) by
the helpers below, which stage and rename files into place, verify them
before anything is unpickled, and quarantine them when corrupt. This
module imports nothing from ``repro.core``, which imports it at load time.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import struct
import time
import uuid
from pathlib import Path
from typing import Any, BinaryIO, Callable

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


class ArtifactIntegrityError(RuntimeError):
    """A cached artifact failed its content-checksum verification."""


class ArtifactCache:
    """A content-addressed pickle cache with integrity verification.

    Keys are ``(name, config)`` pairs; ``config`` must be JSON-serialisable
    (anything else is stringified, which is fine as long as the string is
    stable across runs).

    Each entry is one file holding one frame around the pickle, so the
    digest lands in the same ``os.replace`` as the bytes it covers.
    :meth:`load` verifies it before unpickling, and an entry that fails
    is *quarantined* — moved into a ``.quarantine/`` subdirectory for
    post-mortem inspection — rather than half-loaded or silently deleted.
    """

    QUARANTINE_DIR = QUARANTINE_DIR

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, name: str, config: Any) -> Path:
        """Deterministic cache path for a (name, config) pair."""
        return self.root / f"{name}-{_stable_hash(config)}.pkl"

    def contains(self, name: str, config: Any) -> bool:
        """Whether a cached entry exists for (name, config)."""
        return self.path_for(name, config).exists()

    def load(self, name: str, config: Any) -> Any:
        """Verify and unpickle the cached value for (name, config).

        A truncated, bit-flipped or overlong entry is quarantined and
        raises :class:`ArtifactIntegrityError` — it is never half-loaded.
        """
        path = self.path_for(name, config)
        try:
            [(body, _)] = read_frame_file(path)
        except FrameError as exc:
            self.quarantine(name, config)
            raise ArtifactIntegrityError(
                f"{path.name}: {exc}; entry quarantined"
            ) from None
        return pickle.loads(body)

    def store(self, name: str, config: Any, value: Any) -> None:
        """Pickle ``value`` under (name, config) as one frame, atomically."""
        body = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        write_atomic(self.path_for(name, config), frame_header(body), body)

    def discard(self, name: str, config: Any) -> bool:
        """Remove the entry for (name, config); returns whether one existed."""
        path = self.path_for(name, config)
        if path.exists():
            path.unlink()
            return True
        return False

    def quarantine(self, name: str, config: Any) -> Path | None:
        """Move the entry for (name, config) into ``.quarantine/``."""
        return quarantine_file(self.path_for(name, config), self.root)

    def get_or_build(self, name: str, config: Any, build: Callable[[], Any]) -> Any:
        """Return the cached value for ``(name, config)``, building it once.

        A cache entry that fails integrity verification (bit-flipped,
        truncated or overlong bytes) or that cannot be unpickled (a foreign
        file, an artifact pickled against a class that has since changed)
        is treated as a miss: the entry is quarantined and rebuilt rather
        than poisoning every future run.
        """
        if self.contains(name, config):
            try:
                return self.load(name, config)
            except ArtifactIntegrityError:
                pass  # load already quarantined the entry
            except UNPICKLE_ERRORS:
                self.quarantine(name, config)
        value = build()
        self.store(name, config, value)
        return value

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed.

        Quarantined evidence under ``.quarantine/`` is left untouched.
        """
        removed = 0
        for path in self.root.glob("*.pkl"):
            path.unlink()
            removed += 1
        return removed


def default_cache() -> ArtifactCache:
    """The repository-wide cache (``.artifacts/`` or ``$REPRO_CACHE_DIR``)."""
    root = os.environ.get("REPRO_CACHE_DIR")
    if root is None:
        root = Path(__file__).resolve().parents[3] / ".artifacts"
    return ArtifactCache(root)
