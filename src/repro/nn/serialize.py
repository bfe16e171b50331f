"""State-dict (de)serialisation to ``.npz`` files.

Paths are normalised to carry the ``.npz`` suffix in *both* directions:
``numpy.savez`` historically appended the suffix on save, so
``save_state_dict(model, "foo")`` wrote ``foo.npz`` while
``load_state_dict(model, "foo")`` looked for a literal ``foo`` and failed.
Saves are also atomic (:func:`repro.utils.cache.write_atomic`), so a
crash mid-save never leaves a torn archive under the official name.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from repro.nn.module import Module
from repro.utils.cache import write_atomic


def _npz_path(path: str | Path) -> Path:
    """Normalise ``path`` to end in ``.npz`` (numpy's save-side behaviour)."""
    path = Path(path)
    if path.suffix == ".npz":
        return path
    return path.with_name(path.name + ".npz")


def save_state_dict(model: Module, path: str | Path) -> Path:
    """Atomically save a model's parameters and buffers to ``.npz``.

    Returns the actual path written (``path`` with the ``.npz`` suffix
    appended if it was missing), so callers that passed a bare stem know
    where the archive landed.
    """
    path = _npz_path(path)
    archive = io.BytesIO()
    np.savez_compressed(archive, **model.state_dict())
    write_atomic(path, archive.getvalue())
    return path


def load_state_dict(model: Module, path: str | Path) -> Module:
    """Load parameters and buffers saved by :func:`save_state_dict`.

    Accepts the same path that was passed to :func:`save_state_dict`,
    with or without the ``.npz`` suffix.
    """
    with np.load(str(_npz_path(path))) as archive:
        state = {name: archive[name] for name in archive.files}
    model.load_state_dict(state)
    return model
