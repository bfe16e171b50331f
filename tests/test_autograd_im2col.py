"""Tests for the im2col/col2im lowering."""

import numpy as np
import pytest

from repro.autograd import im2col as im2col_module
from repro.autograd.im2col import col2im, conv_block_rows, conv_output_size, im2col


class TestConvOutputSize:
    def test_basic(self):
        assert conv_output_size(28, 5, 1, 0) == 24
        assert conv_output_size(28, 3, 2, 1) == 14

    def test_rejects_nonpositive_output(self):
        with pytest.raises(ValueError):
            conv_output_size(2, 5, 1, 0)


class TestConvBlockRows:
    def test_all_rows_when_the_columns_fit(self):
        # 2 channels x 3x3 kernel x 10 wide x 4 images x 4 bytes = 2880 B/row.
        assert conv_block_rows(2, 3, 10, 4, 4, 10) == 10

    def test_rows_that_fit_the_budget(self, monkeypatch):
        monkeypatch.setattr(im2col_module, "COLUMN_BLOCK_BYTES", 3 * 2880 + 100)
        assert conv_block_rows(2, 3, 10, 4, 4, 10) == 3

    def test_at_least_one_row(self, monkeypatch):
        monkeypatch.setattr(im2col_module, "COLUMN_BLOCK_BYTES", 1)
        assert conv_block_rows(2, 3, 10, 4, 4, 10) == 1

    def test_empty_batch_is_one_block(self):
        assert conv_block_rows(2, 3, 10, 0, 4, 10) == 10

    @pytest.mark.parametrize("batch", [0, 1, 16, 256])
    def test_one_input_channel_is_one_row_per_block(self, batch):
        # The slab holds every row's columns; each row is its own GEMM.
        assert conv_block_rows(1, 5, 24, batch, 4, 24) == 1
        assert conv_block_rows(1, 2, 10, batch, 8, 10) == 1

    def test_one_input_channel_pointwise_keeps_the_budget(self):
        assert conv_block_rows(1, 1, 10, 4, 4, 10) == 10


class TestIm2col:
    def test_shape(self):
        images = np.zeros((2, 3, 8, 8))
        cols = im2col(images, kernel=3, stride=1, pad=0)
        assert cols.shape == (3 * 9, 6 * 6 * 2)

    def test_kernel_one_is_reshape(self):
        rng = np.random.default_rng(0)
        images = rng.normal(size=(2, 3, 4, 4))
        cols = im2col(images, kernel=1)
        # Column (l, n) ordering: spatial-major, batch-minor.
        reconstructed = cols.reshape(3, 4, 4, 2).transpose(3, 0, 1, 2)
        np.testing.assert_allclose(reconstructed, images)

    def test_single_window_equals_flat_patch(self):
        rng = np.random.default_rng(1)
        images = rng.normal(size=(1, 2, 3, 3))
        cols = im2col(images, kernel=3)
        assert cols.shape == (18, 1)
        np.testing.assert_allclose(cols[:, 0], images[0].reshape(-1))

    def test_padding_adds_zero_windows(self):
        images = np.ones((1, 1, 2, 2))
        cols = im2col(images, kernel=2, stride=1, pad=1)
        # Top-left window covers three padded zeros and one real pixel.
        assert cols[:, 0].sum() == 1.0


class TestCol2im:
    def test_adjoint_property(self):
        """col2im is the exact adjoint of im2col: <im2col(x), y> == <x, col2im(y)>."""
        rng = np.random.default_rng(2)
        shape = (2, 3, 6, 6)
        x = rng.normal(size=shape)
        for kernel, stride, pad in [(3, 1, 0), (2, 2, 0), (3, 2, 1)]:
            cols = im2col(x, kernel, stride, pad)
            y = rng.normal(size=cols.shape)
            lhs = float((cols * y).sum())
            rhs = float((x * col2im(y, shape, kernel, stride, pad)).sum())
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_non_overlapping_windows_roundtrip(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 2, 4, 4))
        cols = im2col(x, kernel=2, stride=2)
        np.testing.assert_allclose(col2im(cols, x.shape, 2, 2), x)

    def test_overlap_counts_contributions(self):
        x = np.ones((1, 1, 3, 3))
        cols = im2col(x, kernel=2, stride=1)
        back = col2im(cols, x.shape, 2, 1)
        # Centre pixel appears in all four windows.
        assert back[0, 0, 1, 1] == 4.0
        assert back[0, 0, 0, 0] == 1.0
