"""Caching utilities: the on-disk artifact cache and content hashing.

Training even a small CNN in pure numpy takes tens of seconds, so every
expensive artifact (trained models, fitted validators, searched corner-case
suites) is cached on disk keyed by a stable hash of its configuration.
Entries are pickled; the cache directory defaults to ``.artifacts/`` at the
repository root and can be relocated with the ``REPRO_CACHE_DIR``
environment variable.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import uuid
from pathlib import Path
from typing import Any, Callable

import json

import numpy as np


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


class ArtifactIntegrityError(RuntimeError):
    """A cached artifact failed its content-checksum verification."""


class _HashingWriter:
    """File-object wrapper that feeds every written byte to a digest."""

    def __init__(self, fh) -> None:
        self._fh = fh
        self.digest = hashlib.sha256()

    def write(self, data) -> int:
        self.digest.update(data)
        return self._fh.write(data)


class ArtifactCache:
    """A content-addressed pickle cache with integrity verification.

    Keys are ``(name, config)`` pairs; ``config`` must be JSON-serialisable
    (anything else is stringified, which is fine as long as the string is
    stable across runs).

    Every stored pickle gets a ``<file>.sha256`` sidecar with the digest of
    its bytes; :meth:`load` verifies it, and an entry whose sidecar is
    missing, stale, or whose pickle no longer matches is *quarantined* —
    moved into a ``.quarantine/`` subdirectory for post-mortem inspection —
    rather than half-loaded or silently deleted.
    """

    #: Subdirectory (under the cache root) that corrupt entries are moved to.
    QUARANTINE_DIR = ".quarantine"

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, name: str, config: Any) -> Path:
        """Deterministic cache path for a (name, config) pair."""
        return self.root / f"{name}-{_stable_hash(config)}.pkl"

    def checksum_path_for(self, name: str, config: Any) -> Path:
        """Path of the checksum sidecar written beside each pickle."""
        path = self.path_for(name, config)
        return path.with_name(path.name + ".sha256")

    def contains(self, name: str, config: Any) -> bool:
        """Whether a cached entry exists for (name, config)."""
        return self.path_for(name, config).exists()

    def load(self, name: str, config: Any, verify: bool = True) -> Any:
        """Unpickle the cached value for (name, config), verifying integrity.

        With ``verify`` (the default), the pickle's bytes are hashed and
        compared to the ``.sha256`` sidecar before unpickling. A missing
        sidecar or a mismatched digest quarantines the entry and raises
        :class:`ArtifactIntegrityError` — a truncated or bit-flipped
        artifact is never half-loaded. ``verify=False`` restores the
        trusting pre-checksum behaviour.
        """
        path = self.path_for(name, config)
        if not verify:
            with open(path, "rb") as fh:
                return pickle.load(fh)
        with open(path, "rb") as fh:
            payload = fh.read()
        sidecar = self.checksum_path_for(name, config)
        if not sidecar.exists():
            self.quarantine(name, config)
            raise ArtifactIntegrityError(
                f"{path.name}: checksum sidecar missing; entry quarantined"
            )
        expected = sidecar.read_text().strip()
        actual = hashlib.sha256(payload).hexdigest()
        if actual != expected:
            self.quarantine(name, config)
            raise ArtifactIntegrityError(
                f"{path.name}: checksum mismatch (expected {expected[:12]}…, "
                f"got {actual[:12]}…); entry quarantined"
            )
        return pickle.loads(payload)

    def store(self, name: str, config: Any, value: Any) -> None:
        """Pickle ``value`` under (name, config), atomically, with checksum.

        The temp file carries a per-write unique suffix (pid + random), so
        concurrent processes building the same artifact each write their
        own staging file and the final ``os.replace`` promotes a complete
        pickle — never a half-written one another writer clobbered. The
        digest is computed while writing and landed in a ``.sha256``
        sidecar (same staging discipline) after the pickle is promoted; a
        crash between the two leaves a sidecar-less entry, which
        :meth:`get_or_build` treats as stale and rebuilds.
        """
        path = self.path_for(name, config)
        tmp = path.with_name(f"{path.name}.{os.getpid()}-{uuid.uuid4().hex}.tmp")
        try:
            with open(tmp, "wb") as fh:
                writer = _HashingWriter(fh)
                pickle.dump(value, writer, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        finally:
            if tmp.exists():  # only on a failed write; replace consumed it
                tmp.unlink()
        sidecar = self.checksum_path_for(name, config)
        sidecar_tmp = sidecar.with_name(f"{sidecar.name}.{os.getpid()}-{uuid.uuid4().hex}.tmp")
        try:
            sidecar_tmp.write_text(writer.digest.hexdigest() + "\n")
            os.replace(sidecar_tmp, sidecar)
        finally:
            if sidecar_tmp.exists():
                sidecar_tmp.unlink()

    def discard(self, name: str, config: Any) -> bool:
        """Remove the entry for (name, config); returns whether one existed."""
        path = self.path_for(name, config)
        sidecar = self.checksum_path_for(name, config)
        if sidecar.exists():
            sidecar.unlink()
        if path.exists():
            path.unlink()
            return True
        return False

    def quarantine(self, name: str, config: Any) -> Path | None:
        """Move a corrupt entry (and sidecar) into ``.quarantine/``.

        Returns the quarantined pickle's new path, or ``None`` if no entry
        existed. Quarantined files keep their name plus a unique suffix,
        so repeated corruption of the same key never clobbers evidence.
        """
        path = self.path_for(name, config)
        if not path.exists():
            return None
        hole = self.root / self.QUARANTINE_DIR
        hole.mkdir(parents=True, exist_ok=True)
        token = f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
        destination = hole / f"{path.name}.{token}"
        os.replace(path, destination)
        sidecar = self.checksum_path_for(name, config)
        if sidecar.exists():
            os.replace(sidecar, hole / f"{sidecar.name}.{token}")
        return destination

    def get_or_build(self, name: str, config: Any, build: Callable[[], Any]) -> Any:
        """Return the cached value for ``(name, config)``, building it once.

        A cache entry that fails integrity verification (missing or stale
        checksum sidecar, bit-flipped or truncated bytes) or that cannot
        be unpickled (a foreign file, an artifact pickled against a class
        that has since changed) is treated as a miss: the entry is
        quarantined and rebuilt rather than poisoning every future run.
        """
        if self.contains(name, config):
            try:
                return self.load(name, config)
            except ArtifactIntegrityError:
                pass  # load already quarantined the entry
            except (pickle.UnpicklingError, EOFError, AttributeError,
                    ImportError, IndexError, ValueError):
                self.quarantine(name, config)
        value = build()
        self.store(name, config, value)
        return value

    def clear(self) -> int:
        """Delete every cache entry; returns the number of pickles removed.

        Checksum sidecars are removed alongside their pickles; quarantined
        evidence under ``.quarantine/`` is left untouched.
        """
        removed = 0
        for path in self.root.glob("*.pkl"):
            path.unlink()
            removed += 1
        for sidecar in self.root.glob("*.pkl.sha256"):
            sidecar.unlink()
        return removed


def default_cache() -> ArtifactCache:
    """The repository-wide cache (``.artifacts/`` or ``$REPRO_CACHE_DIR``)."""
    root = os.environ.get("REPRO_CACHE_DIR")
    if root is None:
        root = Path(__file__).resolve().parents[3] / ".artifacts"
    return ArtifactCache(root)
