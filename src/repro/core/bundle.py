"""Versioned, self-verifying validator bundles: the deployable artifact.

A fitted :class:`~repro.core.validator.DeepValidator` is only half of a
deployment — the other half is everything that makes its verdicts
trustworthy: the calibrated threshold ``epsilon``, the per-layer
contributions degraded-mode rescaling depends on, and a fingerprint that
pins *which fit* produced them. A refit that ships without those (or with
a poisoned version of them — a NaN threshold, a truncated pickle, a
manifest that no longer matches its payload) must be refused at the door,
not discovered in production flag rates.

:class:`ValidatorBundle` packages all of it into one versioned unit:

* the **payload** — the pickled fitted validator, byte-for-byte what was
  packed, whose SVMs each store their support rows once, as fitted;
* the **manifest** — version, fit fingerprint (sha256 of the payload),
  the calibrated threshold, the validated layer names, and the per-layer
  contributions, duplicated *outside* the pickle so an operator can
  inspect a bundle without unpickling (and so :meth:`ValidatorBundle.verify`
  can cross-check the two);
* two check layers — :meth:`~ValidatorBundle.verify` (integrity: does the
  payload match the fingerprint, does the manifest agree with the
  unpickled validator) and :meth:`~ValidatorBundle.validate` (semantics:
  is the threshold finite, is every layer actually fitted, are the
  contributions usable).

:class:`BundleStore` keeps each bundle in one file of two frames (the
self-verifying frame of :mod:`repro.utils.cache`): the manifest as JSON,
then the raw payload, whose frame digest is the fit fingerprint. The
payload is hashed once when it is packed, and once more when a stored
bundle is loaded; every byte of the file is verified before anything in
it is unpickled, and a corrupt bundle file is quarantined, never
half-loaded; a loaded bundle keeps the digest, not the payload. Files in
the earlier format (one frame around a pickled dict) are refused as
corrupt and quarantined. The serve-layer
:class:`~repro.serve.rollout.RolloutController` consumes these bundles to
hot-swap a live server's monitor with shadow scoring and automatic
rollback; see ``docs/rollout.md``.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import re
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.utils.cache import (
    FrameError,
    _check_name,
    frame_header,
    quarantine_file,
    read_frame_file,
    write_atomic,
)


class BundleError(RuntimeError):
    """Base class for validator-bundle failures."""


class BundleIntegrityError(BundleError):
    """A bundle's bytes, fingerprint, and manifest do not agree."""


class BundleValidationError(BundleError):
    """A bundle is intact but semantically unfit to serve (e.g. NaN epsilon)."""


#: On-disk key pattern: ``bundle-<name>-v<version>`` (the file adds ``.ckpt``).
_KEY_RE = re.compile(r"^bundle-(?P<name>[A-Za-z0-9][A-Za-z0-9._-]*)-v(?P<version>\d+)$")


def _fingerprint(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _decode_manifest(head: bytes) -> "BundleManifest":
    """The manifest in a bundle file's first frame (JSON, never a pickle)."""
    try:
        fields = json.loads(head)
        fields["layer_names"] = tuple(fields["layer_names"])
        if fields["layer_contributions"] is not None:
            fields["layer_contributions"] = tuple(fields["layer_contributions"])
        return BundleManifest(**fields)
    except (ValueError, TypeError, KeyError) as exc:
        raise FrameError(
            f"not a validator bundle ({type(exc).__name__}: {exc})"
        ) from None


@dataclass(frozen=True)
class BundleManifest:
    """Inspectable identity of a bundle, duplicated outside the pickle.

    ``fingerprint`` is the sha256 of the pickled-validator payload — the
    *fit fingerprint*: two bundles with the same fingerprint carry the
    exact same fitted artifact, and a payload that no longer hashes to it
    has been tampered with or rotted. ``epsilon``, ``layer_names``, and
    ``layer_contributions`` mirror the validator's calibrated state so
    :meth:`ValidatorBundle.verify` can detect a manifest/payload split.
    """

    name: str
    version: int
    fingerprint: str
    epsilon: float
    combiner: str
    layer_names: tuple[str, ...]
    layer_contributions: tuple[float, ...] | None
    correctly_classified: int
    total_training_images: int
    note: str = ""

    @property
    def key(self) -> str:
        """The store key (and rollback-latch identity): ``<name>@v<version>``."""
        return f"{self.name}@v{self.version}"


class ValidatorBundle:
    """One deployable unit: manifest + pickled fitted validator payload."""

    def __init__(self, manifest: BundleManifest, payload: bytes) -> None:
        self.manifest = manifest
        self._payload = payload
        self._digest: str | None = None  # sha256 of the payload, hashed once
        self._validator = None  # lazily unpickled

    # -- construction ----------------------------------------------------------

    @classmethod
    def pack(
        cls, validator, version: int, name: str = "validator", note: str = ""
    ) -> "ValidatorBundle":
        """Freeze a fitted, calibrated validator into a versioned bundle.

        Raises :class:`BundleValidationError` immediately when the
        validator is unfit to deploy (unfitted layers, non-finite
        ``epsilon``, broken contributions) — a poisoned artifact must
        fail at pack time, not after it ships.
        """
        _check_name(name)
        if not isinstance(version, int) or version < 1:
            raise ValueError(f"version must be a positive int, got {version!r}")
        payload = pickle.dumps(validator, protocol=pickle.HIGHEST_PROTOCOL)
        digest = _fingerprint(payload)
        contributions = getattr(validator, "layer_contributions", None)
        manifest = BundleManifest(
            name=name,
            version=version,
            fingerprint=digest,
            epsilon=float(validator.epsilon),
            combiner=validator.config.combiner,
            layer_names=tuple(v.layer_name for v in validator.validators),
            layer_contributions=(
                None
                if contributions is None
                else tuple(float(c) for c in np.asarray(contributions).ravel())
            ),
            correctly_classified=validator.fit_summary.correctly_classified,
            total_training_images=validator.fit_summary.total_training_images,
            note=note,
        )
        # Deliberately NOT caching the original validator object: the
        # bundle must serve exactly what it stores. validate() below runs
        # against the unpickled payload, so a fit that does not survive
        # the round trip fails at pack time — and a candidate monitor
        # built from this bundle never aliases the live incumbent.
        bundle = cls(manifest, payload)
        bundle._digest = digest
        bundle.validate()
        return bundle

    # -- access ----------------------------------------------------------------

    @property
    def payload(self) -> bytes | None:
        """The pickled fitted validator (read-only: its digest is cached);
        ``None`` once :meth:`BundleStore.load` has verified and unpickled it."""
        return self._payload

    @property
    def validator(self):
        """The fitted validator, unpickled from the payload on first access."""
        if self._validator is None:
            self._validator = pickle.loads(self.payload)
        return self._validator

    def monitor(self, **kwargs):
        """A fresh :class:`~repro.core.monitor.RuntimeMonitor` over the bundle.

        Convenience for rollout controllers and operators; ``kwargs`` pass
        through to the monitor constructor (guard, breaker tuning, clock).
        """
        from repro.core.monitor import RuntimeMonitor

        return RuntimeMonitor(self.validator, **kwargs)

    # -- the two check layers --------------------------------------------------

    def verify(self) -> "ValidatorBundle":
        """Integrity: payload ↔ fingerprint ↔ manifest must all agree.

        Raises :class:`BundleIntegrityError` when the payload no longer
        hashes to the manifest's fit fingerprint, does not unpickle into a
        validator, or the unpickled validator disagrees with the
        manifest's threshold or layer list — either way the bundle is not
        the artifact its manifest claims. The payload is hashed at most
        once per bundle object.
        """
        if self._digest is None:
            self._digest = _fingerprint(self._payload)
        if self._digest != self.manifest.fingerprint:
            raise BundleIntegrityError(
                f"bundle {self.manifest.key}: payload fingerprint {self._digest[:12]}… "
                f"does not match the manifest's fit fingerprint "
                f"{self.manifest.fingerprint[:12]}…"
            )
        try:
            validator = self.validator
            epsilon = float(validator.epsilon)
            names = tuple(v.layer_name for v in validator.validators)
        except Exception as exc:  # a payload that does not unpickle to a validator
            raise BundleIntegrityError(
                f"bundle {self.manifest.key}: payload failed to unpickle "
                f"({type(exc).__name__}: {exc})"
            ) from exc
        if epsilon != self.manifest.epsilon and not (
            np.isnan(epsilon) and np.isnan(self.manifest.epsilon)
        ):
            raise BundleIntegrityError(
                f"bundle {self.manifest.key}: manifest epsilon "
                f"{self.manifest.epsilon} != validator epsilon {epsilon}"
            )
        if names != self.manifest.layer_names:
            raise BundleIntegrityError(
                f"bundle {self.manifest.key}: manifest layers "
                f"{self.manifest.layer_names} != validator layers {names}"
            )
        return self

    def validate(self) -> "ValidatorBundle":
        """Semantics: is this bundle fit to serve?

        Raises :class:`BundleValidationError` on a non-finite calibrated
        threshold, an empty or partially-unfitted layer set, or recorded
        per-layer contributions that degraded-mode scoring could not use
        (non-finite, wrong length, or summing to zero). These are exactly
        the poisons a bad refit produces; every one of them would
        otherwise surface as silently wrong verdicts.
        """
        validator = self.validator
        if not validator.validators:
            raise BundleValidationError(
                f"bundle {self.manifest.key}: validator has no fitted layers"
            )
        if not np.isfinite(validator.epsilon):
            raise BundleValidationError(
                f"bundle {self.manifest.key}: calibrated threshold is "
                f"{validator.epsilon!r} (non-finite); refusing to deploy a "
                "monitor that can never flag (or never accept)"
            )
        for layer in validator.validators:
            svms = getattr(layer, "_svms", None)
            if not svms or any(getattr(s, "support_rows_", None) is None for s in svms.values()):
                raise BundleValidationError(
                    f"bundle {self.manifest.key}: layer {layer.layer_name!r} has no "
                    "fitted class SVMs with stored support rows (none, unfitted, or "
                    "an older stored form); refit it"
                )
        contributions = getattr(validator, "layer_contributions", None)
        if contributions is not None:
            contributions = np.asarray(contributions, dtype=np.float64)
            if (
                contributions.shape != (len(validator.validators),)
                or not np.isfinite(contributions).all()
                or contributions.sum() <= 0
            ):
                raise BundleValidationError(
                    f"bundle {self.manifest.key}: per-layer contributions "
                    f"{contributions!r} are unusable for degraded-mode rescaling"
                )
        return self

    def __repr__(self) -> str:
        return (
            f"ValidatorBundle({self.manifest.key}, "
            f"fingerprint={self.manifest.fingerprint[:12]}…, "
            f"epsilon={self.manifest.epsilon:.4f}, "
            f"layers={len(self.manifest.layer_names)})"
        )


class BundleStore:
    """A versioned shelf of bundle files under one directory.

    Each saved bundle is one file, ``bundle-<name>-v<version>.ckpt``, of
    two frames: the manifest as JSON, then the raw payload, whose frame
    digest is the manifest's fit fingerprint. :meth:`load` verifies both
    frames, cross-checks manifest and validator
    (:meth:`ValidatorBundle.verify`), then runs
    :meth:`ValidatorBundle.validate`, so a bundle handed to a rollout is
    intact *and* fit to serve.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def key_for(self, name: str, version: int) -> str:
        """The file stem of one ``(name, version)`` bundle."""
        return f"bundle-{_check_name(name)}-v{int(version)}"

    def path_for(self, name: str, version: int) -> Path:
        """On-disk path of one bundle (fault injectors corrupt this file)."""
        return self.root / f"{self.key_for(name, version)}.ckpt"

    def exists(self, name: str, version: int) -> bool:
        """Whether ``(name, version)`` is currently on the shelf."""
        return self.path_for(name, version).exists()

    def save(self, bundle: ValidatorBundle) -> Path:
        """Atomically persist a packed bundle (verified + validated first),
        reusing its payload digest: saving neither re-pickles nor re-hashes."""
        bundle.verify().validate()
        if bundle.payload is None:
            raise BundleError(f"bundle {bundle.manifest.key} was loaded: it keeps only its digest")
        path = self.path_for(bundle.manifest.name, bundle.manifest.version)
        if path.exists():
            raise BundleError(
                f"bundle {bundle.manifest.key} already exists; bundles are "
                "immutable — bump the version instead of overwriting"
            )
        head = json.dumps(asdict(bundle.manifest)).encode()
        digest = bytes.fromhex(bundle.manifest.fingerprint)
        write_atomic(
            path,
            frame_header(head), head,
            frame_header(bundle.payload, digest), bundle.payload,
        )
        return path

    def load(self, name: str, version: int) -> ValidatorBundle:
        """Load, integrity-check, and semantically validate one bundle.

        Raises :class:`FileNotFoundError` when absent,
        :class:`BundleIntegrityError` when a frame, the manifest, the
        fingerprint, or the manifest/validator cross-checks fail (a file
        whose frames or manifest are corrupt is quarantined), and
        :class:`BundleValidationError` when the bundle is intact but unfit
        to serve. The bundle returned keeps the digest, not the payload.
        """
        path = self.path_for(name, version)
        try:
            (head, _), (payload, digest) = read_frame_file(path, frames=2)
            manifest = _decode_manifest(head)
        except FrameError as exc:
            quarantine_file(path, self.root)
            raise BundleIntegrityError(
                f"bundle {name}@v{version}: {exc}; file quarantined"
            ) from None
        if manifest.name != name or manifest.version != int(version):
            raise BundleIntegrityError(
                f"bundle {name}@v{version}: manifest identifies itself as "
                f"{manifest.key}"
            )
        bundle = ValidatorBundle(manifest, payload)
        bundle._digest = digest.hex()  # read_frame_file just hashed it
        bundle.verify().validate()
        bundle._payload = None
        return bundle

    def versions(self, name: str) -> list[int]:
        """All saved versions of ``name``, ascending."""
        _check_name(name)
        found = []
        for path in self.root.glob(f"bundle-{name}-v*.ckpt"):
            match = _KEY_RE.match(path.stem)
            if match and match.group("name") == name:
                found.append(int(match.group("version")))
        return sorted(found)

    def latest(self, name: str) -> ValidatorBundle | None:
        """The highest-versioned bundle of ``name``, or ``None``."""
        versions = self.versions(name)
        if not versions:
            return None
        return self.load(name, versions[-1])

    def __repr__(self) -> str:
        return f"BundleStore(root={self.root})"
