"""im2col / col2im lowering for convolution and pooling.

Images use NCHW layout. ``im2col`` unrolls every receptive field into a
column so convolution becomes one big matrix multiply. Both directions are
implemented as ``kernel × kernel`` strided-slice copies — the classic
formulation that keeps the inner loops inside vectorised numpy instead of
``np.add.at``-style scatter, which profiles an order of magnitude slower.

Column layout: ``im2col`` returns shape ``(C*K*K, out_h*out_w*N)`` where the
column index runs spatial-position-major, batch-minor. ``col2im`` is its
exact adjoint (scatter-add), which is what the convolution backward pass
needs.

Convolution forwards run their GEMM over *row blocks* of that column
matrix: :func:`conv_block_rows` decides how many output rows one block
holds. The Tensor path (``ops.conv2d``) and the compiled inference plan
(``repro.infer``) both ask it, so they hand BLAS the same block shapes and
stay bit-identical.
"""

from __future__ import annotations

import numpy as np

#: Byte budget for one row block of im2col columns. Blocks this size stay
#: resident in a core's L2 cache between the column build and the GEMM
#: that reads them; a full-chunk column matrix (tens of MB at batch 256)
#: does not. 128 KiB to 1 MiB measured alike on a 2 MiB-L2 core; 2 MiB was
#: slower.
COLUMN_BLOCK_BYTES = 512 * 1024


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Output spatial extent of a conv/pool window sweep."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive conv output extent: size={size} kernel={kernel} "
            f"stride={stride} pad={pad}"
        )
    return out


def conv_block_rows(
    channels: int, kernel: int, out_w: int, batch: int, itemsize: int, out_h: int
) -> int:
    """Output rows per im2col block of a convolution forward.

    A single-input-channel conv with a kernel wider than 1 runs one output
    row per block: the compiled plan reads each row's columns in place from
    a slab of K-fold input rows (see :func:`repro.infer.kernels.conv_slab`),
    which holds every row's columns at once. Any other conv takes as many
    rows as fit :data:`COLUMN_BLOCK_BYTES` of columns (``channels *
    kernel**2`` by ``rows * out_w * batch``), at least one and at most
    ``out_h`` — so when the whole column matrix fits, the forward is one
    block, a single GEMM. BLAS results depend on the operand widths it is
    given, so every conv forward must block by this rule.
    """
    if channels == 1 and kernel > 1:
        return 1
    row_bytes = channels * kernel * kernel * out_w * batch * itemsize
    return max(1, min(out_h, COLUMN_BLOCK_BYTES // max(row_bytes, 1)))


def im2col(
    images: np.ndarray, kernel: int, stride: int = 1, pad: int = 0
) -> np.ndarray:
    """Unroll ``images`` (N, C, H, W) into columns ``(C*K*K, out_h*out_w*N)``."""
    batch, channels, height, width = images.shape
    out_h = conv_output_size(height, kernel, stride, pad)
    out_w = conv_output_size(width, kernel, stride, pad)
    if pad > 0:
        images = np.pad(
            images, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant"
        )
    cols = np.empty(
        (channels, kernel, kernel, out_h, out_w, batch), dtype=images.dtype
    )
    for ky in range(kernel):
        y_stop = ky + stride * out_h
        for kx in range(kernel):
            x_stop = kx + stride * out_w
            patch = images[:, :, ky:y_stop:stride, kx:x_stop:stride]
            cols[:, ky, kx] = patch.transpose(1, 2, 3, 0)
    return cols.reshape(channels * kernel * kernel, -1)


def col2im(
    cols: np.ndarray,
    shape: tuple[int, int, int, int],
    kernel: int,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Scatter-add columns back to image space (the adjoint of ``im2col``)."""
    batch, channels, height, width = shape
    out_h = conv_output_size(height, kernel, stride, pad)
    out_w = conv_output_size(width, kernel, stride, pad)
    padded_h, padded_w = height + 2 * pad, width + 2 * pad
    padded = np.zeros((batch, channels, padded_h, padded_w), dtype=cols.dtype)
    cols = cols.reshape(channels, kernel, kernel, out_h, out_w, batch)
    for ky in range(kernel):
        y_stop = ky + stride * out_h
        for kx in range(kernel):
            x_stop = kx + stride * out_w
            padded[:, :, ky:y_stop:stride, kx:x_stop:stride] += cols[
                :, ky, kx
            ].transpose(3, 0, 1, 2)
    if pad == 0:
        return padded
    return padded[:, :, pad:-pad, pad:-pad]
