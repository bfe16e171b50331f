"""Pure-numpy forward kernels for compiled inference plans.

Every kernel here mirrors its autograd counterpart in
:mod:`repro.autograd.ops` **operation for operation** — same operand
shapes, same operand dtypes (including numpy's scalar-promotion quirks:
``float32 + 0-d float64`` widens under NEP 50, exactly as the ``Tensor``
path's Python-float wrapping does), same op order. That is the plan's
determinism contract: a compiled forward is bit-identical to the tape
forward for the same chunking, so thresholds calibrated and artifacts
cached against one path remain valid for the other.

Where the tape path allocates, these kernels write into
:class:`~repro.infer.workspace.WorkspacePool` buffers via ``out=`` ufunc /
GEMM variants — which numpy computes with the same loops as the
allocating forms (pinned by ``tests/test_infer_differential.py``).
"""

from __future__ import annotations

import numpy as np

from repro.autograd.im2col import conv_output_size
from repro.infer.workspace import WorkspacePool

__all__ = [
    "conv_output_size",
    "channel_major",
    "write_nchw",
    "conv_source",
    "im2col_rows",
    "conv_slab",
    "pool_cols_pooled",
    "max_pool_fold",
    "batchnorm_eval",
]


def channel_major(x: np.ndarray) -> np.ndarray | None:
    """``x`` (N, C, H, W) rearranged to a contiguous (C, H, W, N) view, or None.

    The im2col column layout is spatial-position-major, *batch-minor* — its
    innermost axis is N. Building columns from NCHW memory therefore pays a
    strided transpose pass per kernel offset; from (C, H, W, N) memory every
    copy is runs of N contiguous elements. Conv GEMM outputs (and the
    elementwise views the plan threads between them) already sit in exactly
    that layout, so mid-network this view costs nothing.
    """
    view = x.transpose(1, 2, 3, 0)
    return view if view.flags.c_contiguous else None


def _as_channel_major(
    x: np.ndarray, ws: WorkspacePool, key: tuple
) -> np.ndarray:
    cm = channel_major(x)
    if cm is not None:
        return cm
    batch, channels, height, width = x.shape
    staged = ws.scratch(key, (channels, height, width, batch), x.dtype)
    staged[...] = x.transpose(1, 2, 3, 0)
    return staged


#: Elements per :func:`write_nchw` tile (32 KiB of float32).
WRITE_TILE_ELEMENTS = 8192


def write_nchw(out: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Copy ``x`` into the C-contiguous NCHW buffer ``out``, tiled when possible.

    Mid-network activations live as NCHW transpose views over channel-major
    bases; materialising them (the probe write) is a big strided transpose,
    where a plain ``out[...] = x`` reads 4 useful bytes per cache line. When
    ``x`` carries a contiguous channel-major base, this copies in tiles of
    ``min(N, 256)`` images by about :data:`WRITE_TILE_ELEMENTS` ``//`` that
    many features, so a tile stays cache-resident at every batch width (a
    16-image batch reads 512-feature strips, a 256-image one 32-feature
    strips). Values are a pure copy either way, so bit-identity is
    unaffected.
    """
    if x.ndim == 4 and out.flags.c_contiguous and out.dtype == x.dtype:
        flipped = x.transpose(1, 2, 3, 0)
        if flipped.flags.c_contiguous:
            images = x.shape[0]
            features = x.size // images if images else 0
            if features:
                src = flipped.reshape(features, images)
                dst = out.reshape(images, features)
                tile_n = min(images, 256)
                tile_f = max(1, WRITE_TILE_ELEMENTS // tile_n)
                for j0 in range(0, features, tile_f):
                    sj = src[j0 : j0 + tile_f]
                    for i0 in range(0, images, tile_n):
                        dst[i0 : i0 + tile_n, j0 : j0 + tile_f] = sj[
                            :, i0 : i0 + tile_n
                        ].T
            return out
    out[...] = x
    return out


def conv_source(
    images: np.ndarray, pad: int, ws: WorkspacePool, key: tuple
) -> np.ndarray:
    """``images`` (N, C, H, W) as the zero-padded channel-major array
    ``(C, H + 2*pad, W + 2*pad, N)`` that :func:`im2col_rows` reads.

    A channel-major input with no padding is read in place; otherwise the
    input is copied once, straight into the pooled padded buffer when there
    is padding. That buffer's zero border is written once at allocation;
    only the interior is refreshed on reuse.
    """
    if pad == 0:
        return _as_channel_major(images, ws, (*key, "chwn"))
    batch, channels, height, width = images.shape
    padded, _ = ws.zeroed(
        (*key, "pad"),
        (channels, height + 2 * pad, width + 2 * pad, batch),
        images.dtype,
    )
    padded[:, pad:-pad, pad:-pad, :] = images.transpose(1, 2, 3, 0)
    return padded


def im2col_rows(
    source: np.ndarray,
    kernel: int,
    stride: int,
    out_w: int,
    y0: int,
    rows: int,
    out: np.ndarray,
) -> np.ndarray:
    """The :func:`repro.autograd.im2col.im2col` columns of output rows
    ``[y0, y0 + rows)``, built from a :func:`conv_source` array.

    Identical values and column layout to the matching column slice of the
    full matrix — ``(C*K*K, rows*out_w*N)``, spatial-position-major,
    batch-minor — written C-contiguous into the front of the flat buffer
    ``out``. Reading a channel-major source, each of the K² window copies
    moves contiguous runs of N.
    """
    channels, _, _, batch = source.shape
    size = channels * kernel * kernel * rows * out_w * batch
    cols = out[:size].reshape(channels, kernel, kernel, rows, out_w, batch)
    for ky in range(kernel):
        y_start = ky + stride * y0
        y_rows = slice(y_start, y_start + stride * rows, stride)
        for kx in range(kernel):
            x_cols = slice(kx, kx + stride * out_w, stride)
            cols[:, ky, kx] = source[:, y_rows, x_cols, :]
    return cols.reshape(channels * kernel * kernel, -1)


def conv_slab(
    source: np.ndarray,
    kernel: int,
    stride: int,
    out_w: int,
    out_h: int,
    ws: WorkspacePool,
    key: tuple,
) -> np.ndarray:
    """The columns of a single-channel :func:`conv_source` as a K-row slab.

    ``slab[r, kx] = source[0, r, kx : kx + stride*out_w : stride]``, shape
    ``(rows, K, out_w, N)`` over the ``stride*(out_h - 1) + K`` input rows
    the conv reads, returned flat as ``(rows*K, out_w*N)``. Output row
    ``y``'s K² column rows (ky, kx) are then slab rows ``(stride*y + ky)*K
    + kx``: the contiguous ``K*K`` rows from ``stride*K*y``, equal in value
    and layout to ``im2col_rows(source, K, stride, out_w, y, 1, ...)``. The
    slab copies each input row K times, where the columns copy it K² times.
    """
    _, _, _, batch = source.shape
    rows = stride * (out_h - 1) + kernel
    slab = ws.scratch((*key, "slab"), (rows, kernel, out_w, batch), source.dtype)
    for kx in range(kernel):
        slab[:, kx] = source[0, :rows, kx : kx + stride * out_w : stride, :]
    return slab.reshape(rows * kernel, out_w * batch)


def pool_cols_pooled(
    x: np.ndarray,
    kernel: int,
    stride: int,
    ws: WorkspacePool,
    key: tuple,
) -> np.ndarray:
    """Pooling window columns ``(K*K, out_h*out_w*C*N)`` from pooled buffers.

    Column *order* is (out_h, out_w, channel, image) — a permutation of the
    Tensor path's (out_h, out_w, image, channel) — chosen so the copies run
    batch-contiguous from a channel-major source. Window reductions
    (argmax, mean) are per-column, so every per-window result is
    bit-identical; callers un-permute via
    ``.reshape(out_h, out_w, C, N).transpose(3, 2, 0, 1)``. Row order
    within a column is (ky, kx), matching ``ops.max_pool2d``, so argmax
    tie-breaking and NaN propagation are preserved exactly.
    """
    batch, channels, height, width = x.shape
    out_h = conv_output_size(height, kernel, stride, 0)
    out_w = conv_output_size(width, kernel, stride, 0)
    source = _as_channel_major(x, ws, (*key, "chwn"))
    cols = ws.scratch(
        (*key, "pcols"),
        (kernel, kernel, out_h, out_w, channels, batch),
        x.dtype,
    )
    for ky in range(kernel):
        y_stop = ky + stride * out_h
        for kx in range(kernel):
            x_stop = kx + stride * out_w
            window = source[:, ky:y_stop:stride, kx:x_stop:stride, :]
            cols[ky, kx] = window.transpose(1, 2, 0, 3)
    return cols.reshape(kernel * kernel, -1)


def max_pool_fold(
    x: np.ndarray,
    kernel: int,
    stride: int,
    ws: WorkspacePool,
    key: tuple,
) -> np.ndarray:
    """Max pooling as a left fold of ``np.maximum`` over window offsets.

    Folding in (ky, kx) order visits each window's elements in exactly the
    row order of ``ops.max_pool2d``'s column matrix, so every output
    compares equal (``==``, NaNs in the same positions) to the Tensor
    path's argmax-and-gather — without materialising columns, an argmax
    scratch, or a gather index (~20× cheaper at probe sizes). The one
    representational freedom: a window whose maximum is a zero mixing
    ``-0.0``/``+0.0`` (or holding several NaN payloads) may pick the other
    equal bit pattern than argmax's first-match rule. See
    docs/inference.md's determinism contract.

    Returns the pooled result in channel-major layout ``(C, out_h, out_w,
    N)`` — callers view it as NCHW via ``.transpose(3, 0, 1, 2)``, and
    downstream convs consume the layout for free.
    """
    batch, channels, height, width = x.shape
    out_h = conv_output_size(height, kernel, stride, 0)
    out_w = conv_output_size(width, kernel, stride, 0)
    source = _as_channel_major(x, ws, (*key, "chwn"))
    acc = ws.scratch((*key, "max"), (channels, out_h, out_w, batch), x.dtype)
    first = True
    for ky in range(kernel):
        y_stop = ky + stride * out_h
        for kx in range(kernel):
            x_stop = kx + stride * out_w
            window = source[:, ky:y_stop:stride, kx:x_stop:stride, :]
            if first:
                acc[...] = window
                first = False
            else:
                np.maximum(acc, window, out=acc)
    return acc


def batchnorm_eval(x: np.ndarray, module) -> np.ndarray:
    """Eval-mode batch norm, mirroring ``BatchNorm2d.forward`` exactly.

    The tape path computes ``(x - mean) * ((var + eps) ** -0.5) * gamma +
    beta`` with ``eps`` wrapped as a 0-d float64 array (``Tensor.as_tensor``
    of a Python float), which widens the whole chain to float64 under
    NEP 50 promotion. The mirror reproduces that wrapping rather than
    "fixing" it — bit-identity outranks dtype hygiene here.
    """
    channels = module.channels
    mean = module.running_mean.reshape(1, channels, 1, 1)
    var = module.running_var.reshape(1, channels, 1, 1)
    inv = (var + np.asarray(module.eps)) ** -0.5
    out = (x - mean) * inv
    out = out * module.gamma.data.reshape(1, channels, 1, 1)
    out = out + module.beta.data.reshape(1, channels, 1, 1)
    return out
