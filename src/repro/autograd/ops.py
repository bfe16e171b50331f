"""Differentiable operations beyond basic :class:`Tensor` arithmetic.

All image ops use NCHW layout. Convolution and pooling are lowered through
:mod:`repro.autograd.im2col` so the inner loops stay inside BLAS.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.im2col import col2im, conv_block_rows, conv_output_size, im2col
from repro.autograd.tensor import Tensor


# -- elementwise -----------------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit, max(x, 0)."""
    x = Tensor.as_tensor(x)
    data = np.maximum(x.data, 0.0)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate_grad(grad * (x.data > 0))

    return Tensor.from_op(data, (x,), backward)


def exp(x: Tensor) -> Tensor:
    """Elementwise exponential."""
    x = Tensor.as_tensor(x)
    data = np.exp(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate_grad(grad * data)

    return Tensor.from_op(data, (x,), backward)


def log(x: Tensor) -> Tensor:
    """Elementwise natural logarithm."""
    x = Tensor.as_tensor(x)
    data = np.log(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate_grad(grad / x.data)

    return Tensor.from_op(data, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    """Elementwise hyperbolic tangent."""
    x = Tensor.as_tensor(x)
    data = np.tanh(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate_grad(grad * (1.0 - data**2))

    return Tensor.from_op(data, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic sigmoid."""
    x = Tensor.as_tensor(x)
    data = 1.0 / (1.0 + np.exp(-x.data))

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate_grad(grad * data * (1.0 - data))

    return Tensor.from_op(data, (x,), backward)


def sqrt(x: Tensor) -> Tensor:
    """Elementwise square root."""
    return x**0.5


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise maximum; ties send the gradient to the first operand."""
    a, b = Tensor.as_tensor(a), Tensor.as_tensor(b)
    data = np.maximum(a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        mask = a.data >= b.data
        if a.requires_grad:
            a.accumulate_grad(grad * mask)
        if b.requires_grad:
            b.accumulate_grad(grad * ~mask)

    return Tensor.from_op(data, (a, b), backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable selection; ``condition`` is a plain boolean array."""
    a, b = Tensor.as_tensor(a), Tensor.as_tensor(b)
    cond = np.asarray(condition, dtype=bool)
    data = np.where(cond, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(grad * cond)
        if b.requires_grad:
            b.accumulate_grad(grad * ~cond)

    return Tensor.from_op(data, (a, b), backward)


# -- softmax family -----------------------------------------------------------------


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    x = Tensor.as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - logsumexp

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            softmax_vals = np.exp(data)
            x.accumulate_grad(grad - softmax_vals * grad.sum(axis=axis, keepdims=True))

    return Tensor.from_op(data, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x = Tensor.as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    data = exps / exps.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            inner = (grad * data).sum(axis=axis, keepdims=True)
            x.accumulate_grad(data * (grad - inner))

    return Tensor.from_op(data, (x,), backward)


# -- structural ------------------------------------------------------------------------


def concat(tensors: list[Tensor], axis: int = 1) -> Tensor:
    """Concatenate along ``axis`` (used by dense blocks)."""
    tensors = [Tensor.as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    extents = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + extents)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                tensor.accumulate_grad(grad[tuple(index)])

    return Tensor.from_op(data, tuple(tensors), backward)


def pad2d(x: Tensor, pad: int) -> Tensor:
    """Zero-pad the two trailing spatial axes of an NCHW tensor."""
    x = Tensor.as_tensor(x)
    if pad == 0:
        return x
    data = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant")

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate_grad(grad[:, :, pad:-pad, pad:-pad])

    return Tensor.from_op(data, (x,), backward)


# -- convolution and pooling --------------------------------------------------------------


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    pad: int = 0,
) -> Tensor:
    """2-D cross-correlation of ``x`` (N, C, H, W) with ``weight`` (F, C, K, K)."""
    x, weight = Tensor.as_tensor(x), Tensor.as_tensor(weight)
    batch, in_channels, height, width = x.shape
    filters, weight_channels, kernel, kernel_w = weight.shape
    if kernel != kernel_w:
        raise ValueError(f"only square kernels supported, got {weight.shape}")
    if weight_channels != in_channels:
        raise ValueError(
            f"weight expects {weight_channels} input channels, input has {in_channels}"
        )
    out_h = conv_output_size(height, kernel, stride, pad)
    out_w = conv_output_size(width, kernel, stride, pad)

    cols = im2col(x.data, kernel, stride, pad)  # (C*K*K, out_h*out_w*N)
    weight_mat = weight.data.reshape(filters, -1)  # (F, C*K*K)
    out = np.empty((filters, cols.shape[1]), np.result_type(weight_mat, cols))
    # One GEMM per row block, with the compiled plan's block rule and
    # operand layout (a contiguous block; for 1x1/stride-1 a slice of the
    # source), so the two forwards agree to the last bit.
    rows = conv_block_rows(in_channels, kernel, out_w, batch, cols.itemsize, out_h)
    span = out_w * batch
    for y0 in range(0, out_h, rows):
        block = slice(y0 * span, min(y0 + rows, out_h) * span)
        operand = cols[:, block]
        if kernel > 1 or stride > 1:
            operand = np.ascontiguousarray(operand)
        np.matmul(weight_mat, operand, out=out[:, block])
    out = out.reshape(filters, out_h, out_w, batch).transpose(3, 0, 1, 2)
    if bias is not None:
        out = out + bias.data.reshape(1, filters, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        grad_mat = grad.transpose(1, 2, 3, 0).reshape(filters, -1)
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(grad.sum(axis=(0, 2, 3)))
        if weight.requires_grad:
            weight.accumulate_grad((grad_mat @ cols.T).reshape(weight.shape))
        if x.requires_grad:
            dcols = weight_mat.T @ grad_mat
            x.accumulate_grad(col2im(dcols, x.shape, kernel, stride, pad))

    return Tensor.from_op(out, parents, backward)


def max_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Max pooling over non-overlapping (by default) square windows."""
    x = Tensor.as_tensor(x)
    stride = kernel if stride is None else stride
    batch, channels, height, width = x.shape
    out_h = conv_output_size(height, kernel, stride, 0)
    out_w = conv_output_size(width, kernel, stride, 0)

    # Treat each channel as an independent single-channel image so argmax is
    # taken within one window of one channel.
    reshaped = x.data.reshape(batch * channels, 1, height, width)
    cols = im2col(reshaped, kernel, stride, 0)  # (K*K, N*C*out_h*out_w)
    arg = cols.argmax(axis=0)
    # One gather index shared by the forward gather and the backward
    # scatter (it was previously rebuilt by both, every call).
    index = np.arange(cols.shape[1])
    out = cols[arg, index]
    out = out.reshape(out_h, out_w, batch, channels).transpose(2, 3, 0, 1)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        dcols = np.zeros_like(cols)
        flat = grad.transpose(2, 3, 0, 1).reshape(-1)
        dcols[arg, index] = flat
        dx = col2im(dcols, (batch * channels, 1, height, width), kernel, stride, 0)
        x.accumulate_grad(dx.reshape(x.shape))

    return Tensor.from_op(out, (x,), backward)


def avg_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Average pooling over square windows (used by DenseNet transitions)."""
    x = Tensor.as_tensor(x)
    stride = kernel if stride is None else stride
    batch, channels, height, width = x.shape
    out_h = conv_output_size(height, kernel, stride, 0)
    out_w = conv_output_size(width, kernel, stride, 0)

    reshaped = x.data.reshape(batch * channels, 1, height, width)
    cols = im2col(reshaped, kernel, stride, 0)
    out = cols.mean(axis=0)
    out = out.reshape(out_h, out_w, batch, channels).transpose(2, 3, 0, 1)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        flat = grad.transpose(2, 3, 0, 1).reshape(-1)
        dcols = np.broadcast_to(flat / (kernel * kernel), cols.shape).copy()
        dx = col2im(dcols, (batch * channels, 1, height, width), kernel, stride, 0)
        x.accumulate_grad(dx.reshape(x.shape))

    return Tensor.from_op(out, (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Mean over the spatial axes, returning (N, C)."""
    return x.mean(axis=(2, 3))


def upsample2d(x: Tensor, factor: int = 2) -> Tensor:
    """Nearest-neighbour spatial upsampling of an NCHW tensor.

    The adjoint (backward) sums each ``factor`` × ``factor`` block of the
    output gradient back onto its source pixel.
    """
    x = Tensor.as_tensor(x)
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    if x.ndim != 4:
        raise ValueError(f"upsample2d expects NCHW input, got shape {x.shape}")
    data = np.repeat(np.repeat(x.data, factor, axis=2), factor, axis=3)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        batch, channels, height, width = x.shape
        blocks = grad.reshape(batch, channels, height, factor, width, factor)
        x.accumulate_grad(blocks.sum(axis=(3, 5)))

    return Tensor.from_op(data, (x,), backward)
