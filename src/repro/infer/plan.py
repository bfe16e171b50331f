"""Ahead-of-time inference plans: tape-free forwards for probed classifiers.

`compile_plan` walks a :class:`~repro.nn.sequential.ProbedSequential` once
and lowers each stage to a list of :class:`Step` objects — plain-numpy
kernels (conv-as-GEMM, pooling, eval batch norm, activations, dense) with
no ``Tensor`` construction, tape closures, or per-op object churn. The
resulting :class:`InferencePlan` replays that sequence per chunk, reusing
im2col columns, padded staging, GEMM outputs, and pooling scratch through a
:class:`~repro.infer.workspace.WorkspacePool`, and writes every probe
*directly* into the flattened ``(N, features)`` layout the packed SVM
scorer consumes — the reshape copy between model and `ValidationEngine`
disappears.

Determinism contract
--------------------
A plan's chunk outputs are **bit-identical** to the Tensor path's for the
same chunking: same op order, same operand dtypes (including the float64
promotions the Tensor path incurs from 0-d scalar wrapping in batch norm
and global average pooling), same reduction layouts. Steps read module
parameters (``module.weight.data``) at call time, so in-place optimizer
updates and ``load_state_dict`` are always visible — a plan caches
*structure*, never weights. ``tests/test_infer_differential.py`` pins the
contract across the zoo and hypothesis-generated geometries.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.autograd.im2col import conv_block_rows
from repro.infer.kernels import (
    batchnorm_eval,
    conv_output_size,
    conv_slab,
    conv_source,
    im2col_rows,
    max_pool_fold,
    pool_cols_pooled,
    write_nchw,
)
from repro.infer.workspace import WorkspacePool


class UnsupportedModuleError(TypeError):
    """A module the plan compiler cannot lower; callers fall back to Tensor."""


def _prod(values) -> int:
    out = 1
    for v in values:
        out *= int(v)
    return out


def _pooled_like(x: np.ndarray, ws: WorkspacePool, key: tuple):
    """Pooled destination for an elementwise op that preserves ``x``'s layout.

    Returns ``(source, dest, view)`` such that ``ufunc(source, out=dest)``
    followed by reading ``view`` equals ``ufunc(x)`` — without forcing a
    layout change. Mid-stage arrays are usually transpose views of a pooled
    contiguous base (the conv GEMM buffer); computing on the base and
    re-striding the pooled result keeps the fast contiguous ufunc loop,
    exactly like numpy's allocating form, which also preserves input
    layout. Returns ``None`` when ``x``'s layout cannot be pooled (callers
    fall back to the allocating ufunc).
    """
    if x.flags.c_contiguous:
        dest = ws.scratch(key, x.shape, x.dtype)
        return x, dest, dest
    base = x.base
    if (
        isinstance(base, np.ndarray)
        and base.flags.c_contiguous
        and base.dtype == x.dtype
        and base.size == x.size
        and x.__array_interface__["data"][0] == base.__array_interface__["data"][0]
    ):
        dest = ws.scratch(key, base.shape, base.dtype)
        view = np.lib.stride_tricks.as_strided(dest, shape=x.shape, strides=x.strides)
        return base, dest, view
    return None


# -- steps ---------------------------------------------------------------------


class Step:
    """One lowered module in a compiled plan.

    Steps are stateless between calls: they hold a workspace key and a
    module reference, read parameters at run time, and keep all scratch in
    the caller's :class:`WorkspacePool`.
    """

    #: Whether this step, first in a stage, should read the previous
    #: stage's contiguous NCHW probe rather than the layout that stage
    #: computed in (see :meth:`InferencePlan._forward_chunk`).
    reads_probe = False

    def out_spec(self, x):
        """``(shape, dtype)`` of the output for input ``x``.

        ``None`` marks a view/pass-through step that cannot write into a
        caller-provided buffer (its output aliases its input).
        """
        raise NotImplementedError

    def run(self, x, ws: WorkspacePool, out=None):
        """Execute the step on ``x``.

        With ``out`` (a contiguous buffer of exactly :meth:`out_spec`'s
        shape/dtype) the result is also written there. Either way the step
        may return a pooled buffer or a view — valid only until the next
        chunk — in whatever layout it computed in (channel-major for convs
        and pools).
        """
        raise NotImplementedError


class ConvStep(Step):
    """``Conv2d`` lowered to im2col + one GEMM per row block, mirroring ``ops.conv2d``.

    The epilogue adds the bias and, when :attr:`relu` is set (a ``ReLU``
    folded in by :func:`compile_plan`), clamps at zero, in place over the
    whole GEMM buffer.
    """

    def __init__(self, key: str, module) -> None:
        self.key = key
        self.module = module
        self.relu = False

    def _geometry(self, x):
        m = self.module
        batch, _, height, width = x.shape
        out_h = conv_output_size(height, m.kernel, m.stride, m.pad)
        out_w = conv_output_size(width, m.kernel, m.stride, m.pad)
        return batch, out_h, out_w

    def out_spec(self, x):
        m = self.module
        batch, out_h, out_w = self._geometry(x)
        dtype = np.result_type(x.dtype, m.weight.data.dtype)
        return (batch, m.out_channels, out_h, out_w), dtype

    def run(self, x, ws: WorkspacePool, out=None):
        m = self.module
        kernel = m.kernel
        batch, out_h, out_w = self._geometry(x)
        weight = m.weight.data
        filters = weight.shape[0]
        weight_mat = weight.reshape(filters, -1)
        source = conv_source(x, m.pad, ws, (self.key,))
        gemm = ws.scratch(
            (self.key, "gemm"),
            (filters, out_h * out_w * batch),
            np.result_type(x.dtype, weight.dtype),
        )
        # One GEMM per row block of columns, by the rule ``ops.conv2d``
        # uses: the block widths reach BLAS unchanged, so results match.
        channels = x.shape[1]
        rows = conv_block_rows(channels, kernel, out_w, batch, x.itemsize, out_h)
        span = out_w * batch
        pointwise = kernel == 1 and m.stride == 1
        slab = None
        if channels == 1 and kernel > 1:
            # One row per block: output row y's columns are the K*K
            # contiguous slab rows from stride*K*y, read in place.
            slab = conv_slab(source, kernel, m.stride, out_w, out_h, ws, (self.key,))
            slab_step = m.stride * kernel
        elif not pointwise:
            buf = ws.scratch((self.key, "cols"), (weight_mat.shape[1] * rows * span,), x.dtype)
        for y0 in range(0, out_h, rows):
            y1 = min(y0 + rows, out_h)
            block = slice(y0 * span, y1 * span)
            if slab is not None:
                cols = slab[slab_step * y0 : slab_step * y0 + kernel * kernel]
            elif pointwise:
                # The channel-major source *is* the column matrix.
                cols = source.reshape(channels, -1)[:, block]
            else:
                cols = im2col_rows(source, kernel, m.stride, out_w, y0, y1 - y0, buf)
            np.matmul(weight_mat, cols, out=gemm[:, block])
        if m.bias is not None:
            # Bias added in GEMM coordinates (channel-major, before the
            # NCHW transpose): every output element pairs the same two
            # operands as the Tensor path's post-transpose broadcast add,
            # so results are bit-identical — but the loop runs contiguous.
            np.add(gemm, m.bias.data.reshape(filters, 1), out=gemm)
        if self.relu:
            np.maximum(gemm, 0.0, out=gemm)
        view = gemm.reshape(filters, out_h, out_w, batch).transpose(3, 0, 1, 2)
        if out is not None:
            write_nchw(out, view)
        return view


class DenseStep(Step):
    """``Dense``: one GEMM plus a broadcast bias add (and a folded ReLU)."""

    def __init__(self, key: str, module) -> None:
        self.key = key
        self.module = module
        self.relu = False

    def out_spec(self, x):
        m = self.module
        dtype = np.result_type(x.dtype, m.weight.data.dtype, m.bias.data.dtype)
        return (x.shape[0], m.out_features), dtype

    def run(self, x, ws: WorkspacePool, out=None):
        m = self.module
        weight, bias = m.weight.data, m.bias.data
        if out is None:
            out = ws.scratch(
                (self.key, "out"),
                (x.shape[0], weight.shape[1]),
                np.result_type(x.dtype, weight.dtype, bias.dtype),
            )
        np.matmul(x, weight, out=out)
        np.add(out, bias, out=out)
        if self.relu:
            np.maximum(out, 0.0, out=out)
        return out


class ReluStep(Step):
    """``relu`` computed on the contiguous base of layout-carrying views.

    Only for a ``ReLU`` that no conv or dense step of its stage directly
    precedes; :func:`compile_plan` folds the others into that step.
    """

    def __init__(self, key: str) -> None:
        self.key = key

    def out_spec(self, x):
        return x.shape, x.dtype

    def run(self, x, ws: WorkspacePool, out=None):
        pooled = _pooled_like(x, ws, (self.key, "out"))
        if pooled is None:
            result = np.maximum(x, 0.0)
            if out is None:
                return result
            return write_nchw(out, result)
        source, dest, view = pooled
        # Compute on the contiguous base, then (stage tails only) pay the
        # one layout materialisation the probe needs as a tiled copy — the
        # Tensor path pays the same transpose in its probe reshape-copy,
        # untiled.
        np.maximum(source, 0.0, out=dest)
        if out is not None:
            write_nchw(out, view)
        return view


class TanhStep(Step):
    """``tanh``, same layout handling as :class:`ReluStep`."""

    def __init__(self, key: str) -> None:
        self.key = key

    def out_spec(self, x):
        return x.shape, x.dtype

    def run(self, x, ws: WorkspacePool, out=None):
        pooled = _pooled_like(x, ws, (self.key, "out"))
        if pooled is None:
            result = np.tanh(x)
            if out is None:
                return result
            return write_nchw(out, result)
        source, dest, view = pooled
        np.tanh(source, out=dest)
        if out is not None:
            write_nchw(out, view)
        return view


class SoftmaxStep(Step):
    """Stable softmax over the last axis, mirroring ``ops.softmax``."""

    def __init__(self, key: str) -> None:
        self.key = key

    def out_spec(self, x):
        return x.shape, x.dtype

    def run(self, x, ws: WorkspacePool, out=None):
        if out is None:
            out = ws.scratch((self.key, "out"), x.shape, x.dtype)
        np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
        np.exp(out, out=out)
        np.divide(out, out.sum(axis=-1, keepdims=True), out=out)
        return out


class FlattenStep(Step):
    """``Flatten`` to a contiguous (N, F) array (usually a zero-copy view).

    When the input is a layout-carrying view that still reshapes without a
    copy (a transpose with singleton axes), the result is staged into a
    contiguous scratch buffer: the GEMM downstream is layout-sensitive in
    its last bits, and :class:`~repro.nn.layers.Flatten` guarantees its
    consumer a C-contiguous operand.
    """

    # Reshaping the contiguous probe is free; a channel-major view would
    # need a second transpose copy of the same values.
    reads_probe = True

    def __init__(self, key: str) -> None:
        self.key = key

    def out_spec(self, x):
        return None

    def run(self, x, ws: WorkspacePool, out=None):
        flat = x.reshape(x.shape[0], _prod(x.shape[1:]))
        if flat.flags.c_contiguous:
            return flat
        staged = ws.scratch((self.key, "contig"), flat.shape, flat.dtype)
        staged[...] = flat
        return staged


class PassStep(Step):
    """Identity at inference time (``Identity``, eval-mode ``Dropout``)."""

    def __init__(self, key: str) -> None:
        self.key = key

    def out_spec(self, x):
        return None

    def run(self, x, ws: WorkspacePool, out=None):
        return x


class MaxPoolStep(Step):
    """``max_pool2d`` as a window fold — no columns, argmax, or gather index."""

    def __init__(self, key: str, kernel: int, stride: int) -> None:
        self.key = key
        self.kernel = kernel
        self.stride = stride

    def _geometry(self, x):
        batch, channels, height, width = x.shape
        out_h = conv_output_size(height, self.kernel, self.stride, 0)
        out_w = conv_output_size(width, self.kernel, self.stride, 0)
        return batch, channels, out_h, out_w

    def out_spec(self, x):
        return self._geometry(x), x.dtype

    def run(self, x, ws: WorkspacePool, out=None):
        acc = max_pool_fold(x, self.kernel, self.stride, ws, (self.key,))
        view = acc.transpose(3, 0, 1, 2)
        if out is not None:
            write_nchw(out, view)
        return view


class AvgPoolStep(Step):
    """``avg_pool2d`` with a pooled column-mean buffer."""

    def __init__(self, key: str, kernel: int, stride: int) -> None:
        self.key = key
        self.kernel = kernel
        self.stride = stride

    def _geometry(self, x):
        batch, channels, height, width = x.shape
        out_h = conv_output_size(height, self.kernel, self.stride, 0)
        out_w = conv_output_size(width, self.kernel, self.stride, 0)
        return batch, channels, out_h, out_w

    def out_spec(self, x):
        return self._geometry(x), x.dtype

    def run(self, x, ws: WorkspacePool, out=None):
        batch, channels, out_h, out_w = self._geometry(x)
        cols = pool_cols_pooled(x, self.kernel, self.stride, ws, (self.key,))
        mean = ws.scratch((self.key, "mean"), (cols.shape[1],), cols.dtype)
        np.mean(cols, axis=0, out=mean)
        view = mean.reshape(out_h, out_w, channels, batch).transpose(3, 2, 0, 1)
        if out is None:
            return view
        out[...] = view
        return out


class GlobalAvgPoolStep(Step):
    """Spatial mean as sum × 0-d float64 reciprocal, matching ``Tensor.mean``."""

    def __init__(self, key: str) -> None:
        self.key = key

    def out_spec(self, x):
        return (x.shape[0], x.shape[1]), np.result_type(x.dtype, np.float64)

    def run(self, x, ws: WorkspacePool, out=None):
        height, width = x.shape[2], x.shape[3]
        summed = x.sum(axis=(2, 3))
        if out is None:
            out = ws.scratch(
                (self.key, "out"),
                summed.shape,
                np.result_type(summed.dtype, np.float64),
            )
        np.multiply(summed, np.asarray(1.0 / (height * width)), out=out)
        return out


class BatchNormStep(Step):
    """Eval-mode ``BatchNorm2d`` (running statistics; float64 via 0-d eps)."""

    def __init__(self, key: str, module) -> None:
        self.key = key
        self.module = module

    def out_spec(self, x):
        return x.shape, np.result_type(x.dtype, np.float64)

    def run(self, x, ws: WorkspacePool, out=None):
        result = batchnorm_eval(x, self.module)
        if out is None:
            return result
        return write_nchw(out, result)


class DenseLayerStep(Step):
    """DenseNet layer: ``concat([x, relu(bn(conv(x)))], axis=1)``."""

    def __init__(self, key: str, module) -> None:
        self.key = key
        self.module = module
        self.conv = ConvStep(f"{key}.conv", module.conv)

    def out_spec(self, x):
        batch, channels, height, width = x.shape
        dtype = np.result_type(x.dtype, np.float64)
        return (batch, channels + self.module.growth, height, width), dtype

    def run(self, x, ws: WorkspacePool, out=None):
        new = batchnorm_eval(self.conv.run(x, ws), self.module.bn)
        np.maximum(new, 0.0, out=new)
        if out is None:
            shape, dtype = self.out_spec(x)
            out = ws.scratch((self.key, "out"), shape, dtype)
        np.concatenate([x, new], axis=1, out=out)
        return out


class TransitionStep(Step):
    """DenseNet transition: ``avg_pool2d(relu(bn(conv1x1(x))), kernel=2)``."""

    def __init__(self, key: str, module) -> None:
        self.key = key
        self.module = module
        self.conv = ConvStep(f"{key}.conv", module.conv)
        self.pool = AvgPoolStep(f"{key}.pool", kernel=2, stride=2)

    def out_spec(self, x):
        batch, _, height, width = x.shape  # the 1x1 conv preserves spatial size
        out_h = conv_output_size(height, 2, 2, 0)
        out_w = conv_output_size(width, 2, 2, 0)
        dtype = np.result_type(x.dtype, np.float64)
        return (batch, self.module.out_channels, out_h, out_w), dtype

    def run(self, x, ws: WorkspacePool, out=None):
        pre = batchnorm_eval(self.conv.run(x, ws), self.module.bn)
        np.maximum(pre, 0.0, out=pre)
        return self.pool.run(pre, ws, out=out)


# -- compilation ----------------------------------------------------------------


def _lower(module, key: str, steps: list) -> None:
    """Append the step sequence for ``module`` to ``steps`` (depth-first)."""
    from repro.nn.conv import Conv2d
    from repro.nn.layers import Dense, Dropout, Flatten, Identity, ReLU, Softmax, Tanh
    from repro.nn.norm import BatchNorm2d
    from repro.nn.pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d
    from repro.nn.sequential import Sequential
    from repro.zoo.densenet import DenseLayer, TransitionLayer

    if isinstance(module, Sequential):
        for position, child in enumerate(module):
            _lower(child, f"{key}.{position}", steps)
    elif isinstance(module, Conv2d):
        steps.append(ConvStep(key, module))
    elif isinstance(module, Dense):
        steps.append(DenseStep(key, module))
    elif isinstance(module, ReLU):
        previous = steps[-1] if steps else None
        if isinstance(previous, (ConvStep, DenseStep)) and not previous.relu:
            # Fold into the GEMM step's epilogue: ``max`` is exact, so the
            # values are the Tensor path's, without a pass and a buffer.
            previous.relu = True
        else:
            steps.append(ReluStep(key))
    elif isinstance(module, Tanh):
        steps.append(TanhStep(key))
    elif isinstance(module, Softmax):
        steps.append(SoftmaxStep(key))
    elif isinstance(module, Flatten):
        steps.append(FlattenStep(key))
    elif isinstance(module, (Identity, Dropout)):
        steps.append(PassStep(key))
    elif isinstance(module, MaxPool2d):
        steps.append(MaxPoolStep(key, module.kernel, module.stride))
    elif isinstance(module, AvgPool2d):
        steps.append(AvgPoolStep(key, module.kernel, module.stride))
    elif isinstance(module, GlobalAvgPool2d):
        steps.append(GlobalAvgPoolStep(key))
    elif isinstance(module, BatchNorm2d):
        steps.append(BatchNormStep(key, module))
    elif isinstance(module, DenseLayer):
        steps.append(DenseLayerStep(key, module))
    elif isinstance(module, TransitionLayer):
        steps.append(TransitionStep(key, module))
    else:
        raise UnsupportedModuleError(
            f"no inference-plan lowering for {type(module).__name__} at {key!r}"
        )


def compile_plan(model) -> "InferencePlan":
    """Lower every stage of a ``ProbedSequential`` into an `InferencePlan`.

    Raises :class:`UnsupportedModuleError` when any stage contains a module
    without a lowering — callers (see :func:`repro.infer.plan_for`) fall
    back to the Tensor path rather than partially compiling.
    """
    stages: list[tuple[str, list]] = []
    for name in model.stage_names:
        steps: list = []
        _lower(getattr(model, name), name, steps)
        if not steps:
            raise UnsupportedModuleError(f"stage {name!r} lowered to no steps")
        stages.append((name, steps))
    return InferencePlan(stages)


# -- execution ------------------------------------------------------------------


class InferencePlan:
    """A compiled forward: per-stage step lists plus a workspace pool.

    One plan may be shared by any number of threads — workspace buffers are
    per-thread (see :class:`WorkspacePool`), and steps themselves are
    stateless between calls.
    """

    def __init__(self, stages: list[tuple[str, list]]) -> None:
        self.stages = stages
        self.workspace = WorkspacePool()

    @property
    def stage_names(self) -> list[str]:
        return [name for name, _ in self.stages]

    def iter_chunks(self, images: np.ndarray, batch_size: int = 256, want_probes: bool = True):
        """Stream ``(start, probabilities, probes)`` per ``batch_size`` chunk.

        Matches ``ProbedSequential.iter_hidden_representations`` exactly:
        same chunk boundaries, bit-identical probabilities, and probes
        already flattened to ``(chunk, features)``. Yielded arrays are
        freshly allocated — they never alias workspace buffers, so callers
        may hold them across chunks (the engine accumulates then
        concatenates).
        """
        images = np.asarray(images)
        if images.dtype != np.float32:
            # Single up-front cast; already-float32 input is ingested
            # zero-copy (the Tensor path re-ran astype per chunk).
            images = images.astype(np.float32)
        for start in range(0, len(images), batch_size):
            chunk = images[start : start + batch_size]
            with obs.span("infer.forward", batch=len(chunk)):
                probs, probes = self._forward_chunk(chunk, want_probes)
            self.workspace.flush_metrics()
            yield start, probs, probes

    def predict_proba(self, images: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Class probabilities only (hidden stages stay in pooled buffers)."""
        outputs = [
            probs
            for _, probs, _ in self.iter_chunks(
                images, batch_size=batch_size, want_probes=False
            )
        ]
        return np.concatenate(outputs, axis=0)

    def _forward_chunk(self, chunk: np.ndarray, want_probes: bool):
        ws = self.workspace
        batch = len(chunk)
        x = chunk
        probes: list[np.ndarray] = []
        final = len(self.stages) - 1
        for position, (_, steps) in enumerate(self.stages):
            for step in steps[:-1]:
                x = step.run(x, ws)
            last = steps[-1]
            is_final = position == final
            if not (is_final or want_probes):
                x = last.run(x, ws)
                continue
            spec = last.out_spec(x)
            if spec is not None:
                shape, dtype = spec
                # Fused probe extraction: the stage tail writes straight
                # into the flattened (N, features) buffer the scorer reads.
                flat = np.empty((shape[0], _prod(shape[1:])), dtype=dtype)
                probe = flat.reshape(shape)
                x = last.run(x, ws, out=probe)
                # The next stage reads the layout this tail computed in
                # (channel-major after convs and pools, so its convs and
                # pools need no staging copy), unless it starts by
                # flattening the probe.
                if not is_final and self.stages[position + 1][1][0].reads_probe:
                    x = probe
            else:
                x = last.run(x, ws)
                flat = x.reshape(batch, -1).copy()
                x = flat.reshape(x.shape)
            if is_final:
                return x, probes
            probes.append(flat)
        raise RuntimeError("plan has no stages")  # unreachable: ctor enforces >= 2
