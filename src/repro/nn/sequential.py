"""Sequential containers, including the probe-aware variant.

Deep Validation treats a classifier as a stack of *stages* (the paper's
"layers"): each stage's output is a hidden representation to validate.
:class:`ProbedSequential` makes those stage outputs first-class.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.nn.layers import Softmax
from repro.nn.module import Module


class Sequential(Module):
    """A plain ordered stack of modules."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._order: list[str] = []
        for index, module in enumerate(modules):
            name = f"layer{index}"
            setattr(self, name, module)
            self._order.append(name)

    def __iter__(self):
        return (getattr(self, name) for name in self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, index: int) -> Module:
        return getattr(self, self._order[index])

    def forward(self, x: Tensor) -> Tensor:
        """Apply the stacked modules in order."""
        for module in self:
            x = module(x)
        return x

    def __repr__(self) -> str:
        inner = ", ".join(repr(m) for m in self)
        return f"Sequential({inner})"


class ProbedSequential(Module):
    """A classifier built from named stages with probeable outputs.

    Parameters
    ----------
    stages:
        ``(name, module)`` pairs. The final stage must map features to class
        probabilities (conventionally ending in :class:`Softmax`); every
        earlier stage output is a probe point — the hidden representations
        that Deep Validation's validators consume.
    """

    def __init__(self, stages: Sequence[tuple[str, Module]]) -> None:
        super().__init__()
        if len(stages) < 2:
            raise ValueError("a probed classifier needs at least two stages")
        self._stage_names: list[str] = []
        for name, module in stages:
            if name in self._stage_names:
                raise ValueError(f"duplicate stage name {name!r}")
            setattr(self, name, module)
            self._stage_names.append(name)

    # -- structure ----------------------------------------------------------

    @property
    def stage_names(self) -> list[str]:
        return list(self._stage_names)

    @property
    def probe_names(self) -> list[str]:
        """Names of the hidden stages (all but the final softmax stage)."""
        return self._stage_names[:-1]

    def stage(self, name: str) -> Module:
        """Look up a stage module by name."""
        if name not in self._stage_names:
            raise KeyError(f"unknown stage {name!r}")
        return getattr(self, name)

    # -- forward passes -------------------------------------------------------

    def forward(self, x: Tensor) -> Tensor:
        """Run every stage in order, returning class probabilities."""
        for name in self._stage_names:
            x = getattr(self, name)(x)
        return x

    def forward_probes(self, x: Tensor) -> tuple[Tensor, list[Tensor]]:
        """Run the model returning ``(probabilities, hidden stage outputs)``."""
        probes: list[Tensor] = []
        for name in self._stage_names[:-1]:
            x = getattr(self, name)(x)
            probes.append(x)
        final = getattr(self, self._stage_names[-1])(x)
        return final, probes

    def forward_logits(self, x: Tensor) -> Tensor:
        """Run the model up to (but excluding) the final softmax.

        Attacks and the cross-entropy loss need true logits. The final stage
        must either be a bare :class:`Softmax` or a :class:`Sequential`
        whose last module is one; anything else raises ``TypeError`` rather
        than silently returning a non-logit.
        """
        final = getattr(self, self._stage_names[-1])
        for name in self._stage_names[:-1]:
            x = getattr(self, name)(x)
        if isinstance(final, Softmax):
            return x
        if isinstance(final, Sequential) and len(final) > 0 and isinstance(
            final[len(final) - 1], Softmax
        ):
            for module in list(final)[:-1]:
                x = module(x)
            return x
        raise TypeError(
            "forward_logits requires the final stage to be (or end in) "
            f"Softmax, got {type(final).__name__}"
        )

    # -- numpy-facing inference helpers ---------------------------------------
    #
    # These route through the compiled inference plan (repro.infer) when the
    # model is fully lowerable, falling back to the Tensor forward otherwise.
    # Both paths are bit-identical for the same chunking (docs/inference.md);
    # ``compiled=True`` demands the plan (raising UnsupportedModuleError),
    # ``compiled=False`` pins the Tensor path, ``None`` picks automatically.

    def _inference_plan(self, compiled: bool | None):
        if compiled is False:
            return None
        from repro import infer

        return infer.plan_for(self, require=compiled is True)

    @staticmethod
    def _as_float32(images: np.ndarray) -> np.ndarray:
        # One up-front cast instead of a per-chunk astype; float32 input
        # passes through untouched (Tensor construction below never copies
        # a float array).
        images = np.asarray(images)
        if images.dtype != np.float32:
            images = images.astype(np.float32)
        return images

    def predict_proba(
        self, images: np.ndarray, batch_size: int = 256, compiled: bool | None = None
    ) -> np.ndarray:
        """Class probabilities for a batch of images, without tape recording."""
        self.eval()
        plan = self._inference_plan(compiled)
        if plan is not None:
            return plan.predict_proba(images, batch_size=batch_size)
        images = self._as_float32(images)
        outputs = []
        with no_grad():
            for start in range(0, len(images), batch_size):
                batch = Tensor(images[start : start + batch_size])
                outputs.append(self.forward(batch).data)
        return np.concatenate(outputs, axis=0)

    def predict(self, images: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Predicted labels for a batch of images."""
        return self.predict_proba(images, batch_size=batch_size).argmax(axis=1)

    def iter_hidden_representations(
        self, images: np.ndarray, batch_size: int = 256, compiled: bool | None = None
    ):
        """Stream ``(start, probabilities, reps)`` per ``batch_size`` chunk.

        The memory-bounded counterpart of :meth:`hidden_representations`:
        nothing is accumulated, so consumers that only keep a subset of
        rows — the fitting pipeline gathers at most ``max_per_class`` rows
        per (layer, class) — hold one chunk of activations at a time.
        Chunk boundaries match :meth:`hidden_representations` for the same
        ``batch_size``, keeping float32 forward results reproducible
        between the streaming and materialising paths — and, via the
        differential suite, bit-identical between the compiled plan and
        the Tensor fallback. This method is the single chokepoint every
        representation consumer flows through (fault injectors patch it on
        instances), so plan routing lives here, not in callers.
        """
        self.eval()
        plan = self._inference_plan(compiled)
        if plan is not None:
            yield from plan.iter_chunks(images, batch_size=batch_size)
            return
        images = self._as_float32(images)
        for start in range(0, len(images), batch_size):
            with no_grad():
                batch = Tensor(images[start : start + batch_size])
                out, probes = self.forward_probes(batch)
            yield (
                start,
                out.data,
                # ascontiguousarray so the flattened rep has the same memory
                # layout the compiled plan emits: downstream scoring GEMMs
                # are layout-sensitive at the last bit, and handing one path
                # a strided view would make plan-on/off scores differ at
                # ~1e-15. (For conv probes the reshape is a strided view
                # anyway — the copy was previously paid inside the GEMM.)
                [
                    np.ascontiguousarray(probe.data.reshape(probe.shape[0], -1))
                    for probe in probes
                ],
            )

    def hidden_representations(
        self, images: np.ndarray, batch_size: int = 256, compiled: bool | None = None
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Predictions plus flattened hidden representations per probe.

        Returns ``(probabilities, reps)`` where ``reps[i]`` has shape
        ``(N, features_i)`` — the probe outputs flattened per sample, which
        is the exact representation the one-class SVM validators are fitted
        on. Materialises every chunk of :meth:`iter_hidden_representations`;
        callers that need only a row subset should consume the iterator
        directly.
        """
        if compiled is None:
            # Default-signature call so instance-level patches of the
            # iterator (fault injection) keep intercepting this path.
            chunks = self.iter_hidden_representations(images, batch_size)
        else:
            chunks = self.iter_hidden_representations(
                images, batch_size, compiled=compiled
            )
        probs: list[np.ndarray] = []
        reps: list[list[np.ndarray]] = [[] for _ in self.probe_names]
        for _, out, probes in chunks:
            probs.append(out)
            for slot, probe in zip(reps, probes):
                slot.append(probe)
        if not probs:
            # Zero-image batch: the chunk loop never ran, but callers still
            # need correctly-shaped (0, C) / (0, F) arrays. One forward over
            # the empty batch recovers every output width.
            self.eval()
            with no_grad():
                out, probes = self.forward_probes(Tensor(self._as_float32(images)))
            return (
                out.data,
                [
                    probe.data.reshape(0, int(np.prod(probe.shape[1:], dtype=np.int64)))
                    for probe in probes
                ],
            )
        if len(probs) == 1:
            # One chunk: its arrays are fresh per chunk and never alias the
            # plan's workspace, so hand them over without a copy.
            return probs[0], [slot[0] for slot in reps]
        return (
            np.concatenate(probs, axis=0),
            [np.concatenate(slot, axis=0) for slot in reps],
        )

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._stage_names
        )
        return f"ProbedSequential({inner})"
