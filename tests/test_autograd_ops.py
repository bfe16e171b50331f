"""Unit tests for differentiable ops: values and gradients."""

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    avg_pool2d,
    concat,
    conv2d,
    exp,
    gradcheck,
    log,
    log_softmax,
    max_pool2d,
    maximum,
    pad2d,
    relu,
    sigmoid,
    softmax,
    tanh,
    where,
)
from repro.autograd import im2col as im2col_module
from repro.autograd.ops import global_avg_pool2d


def randn(*shape, seed=0, grad=True):
    data = np.random.default_rng(seed).normal(size=shape)
    return Tensor(data, requires_grad=grad)


class TestElementwise:
    def test_relu_values(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(out.data, [0.0, 0.0, 2.0])

    def test_relu_gradient(self):
        assert gradcheck(relu, [randn(4, 5, seed=1)])

    def test_exp_log_inverse(self):
        x = Tensor([0.5, 1.5])
        np.testing.assert_allclose(log(exp(x)).data, x.data, atol=1e-12)

    def test_exp_gradient(self):
        assert gradcheck(exp, [randn(3, 3, seed=2)])

    def test_log_gradient(self):
        x = Tensor(np.random.default_rng(3).uniform(0.5, 2.0, (3, 3)), requires_grad=True)
        assert gradcheck(log, [x])

    def test_tanh_range_and_gradient(self):
        x = randn(10, seed=4)
        assert np.all(np.abs(tanh(x).data) < 1.0)
        assert gradcheck(tanh, [x])

    def test_sigmoid_range_and_gradient(self):
        x = randn(10, seed=5)
        out = sigmoid(x)
        assert np.all((out.data > 0) & (out.data < 1))
        assert gradcheck(sigmoid, [x])

    def test_maximum_values(self):
        out = maximum(Tensor([1.0, 4.0]), Tensor([3.0, 2.0]))
        np.testing.assert_allclose(out.data, [3.0, 4.0])

    def test_maximum_gradient(self):
        assert gradcheck(maximum, [randn(6, seed=6), randn(6, seed=7)])

    def test_where_selects(self):
        out = where(np.array([True, False]), Tensor([1.0, 1.0]), Tensor([2.0, 2.0]))
        np.testing.assert_allclose(out.data, [1.0, 2.0])

    def test_where_gradient(self):
        cond = np.random.default_rng(8).random(8) > 0.5
        assert gradcheck(
            lambda a, b: where(cond, a, b), [randn(8, seed=9), randn(8, seed=10)]
        )


class TestSoftmaxFamily:
    def test_softmax_sums_to_one(self):
        out = softmax(randn(4, 7, seed=11, grad=False))
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(4))

    def test_softmax_stability_with_large_logits(self):
        out = softmax(Tensor([[1000.0, 1000.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_log_softmax_matches_log_of_softmax(self):
        x = randn(3, 5, seed=12, grad=False)
        np.testing.assert_allclose(
            log_softmax(x).data, np.log(softmax(x).data), atol=1e-12
        )

    def test_softmax_gradient(self):
        assert gradcheck(softmax, [randn(3, 5, seed=13)])

    def test_log_softmax_gradient(self):
        assert gradcheck(log_softmax, [randn(3, 5, seed=14)])

    def test_softmax_axis_argument(self):
        x = randn(2, 3, 4, seed=15, grad=False)
        np.testing.assert_allclose(softmax(x, axis=1).data.sum(axis=1), np.ones((2, 4)))


class TestStructural:
    def test_concat_values(self):
        out = concat([Tensor(np.zeros((2, 2))), Tensor(np.ones((2, 3)))], axis=1)
        assert out.shape == (2, 5)

    def test_concat_gradient(self):
        assert gradcheck(
            lambda a, b: concat([a, b], axis=0), [randn(2, 3, seed=16), randn(4, 3, seed=17)]
        )

    def test_pad2d_shape_and_zero_border(self):
        out = pad2d(Tensor(np.ones((1, 1, 2, 2))), 1)
        assert out.shape == (1, 1, 4, 4)
        assert out.data[0, 0, 0, 0] == 0.0
        assert out.data[0, 0, 1, 1] == 1.0

    def test_pad2d_zero_is_identity(self):
        x = Tensor(np.ones((1, 1, 2, 2)))
        assert pad2d(x, 0) is x


class TestConv:
    def test_conv_matches_naive_reference(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=1, pad=0).data
        # Naive direct convolution.
        expected = np.zeros((2, 4, 4, 4))
        for n in range(2):
            for f in range(4):
                for i in range(4):
                    for j in range(4):
                        patch = x[n, :, i : i + 3, j : j + 3]
                        expected[n, f, i, j] = (patch * w[f]).sum() + b[f]
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_conv_stride_and_pad_shapes(self):
        x = Tensor(np.zeros((1, 2, 8, 8)))
        w = Tensor(np.zeros((3, 2, 3, 3)))
        assert conv2d(x, w, stride=2, pad=1).shape == (1, 3, 4, 4)

    def test_conv_rejects_rectangular_kernel(self):
        with pytest.raises(ValueError):
            conv2d(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 2, 3))))

    def test_conv_rejects_channel_mismatch(self):
        with pytest.raises(ValueError):
            conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 2, 2))))

    def test_conv_gradients_all_inputs(self):
        x = randn(2, 2, 5, 5, seed=19)
        w = randn(3, 2, 3, 3, seed=20)
        b = randn(3, seed=21)
        assert gradcheck(lambda x, w, b: conv2d(x, w, b, stride=2, pad=1), [x, w, b])

    def test_conv_gradients_across_row_blocks(self, monkeypatch):
        # A one-byte budget runs the forward GEMM one output row at a time.
        monkeypatch.setattr(im2col_module, "COLUMN_BLOCK_BYTES", 1)
        x = randn(2, 2, 5, 5, seed=22)
        w = randn(3, 2, 3, 3, seed=23)
        b = randn(3, seed=24)
        assert gradcheck(lambda x, w, b: conv2d(x, w, b, stride=1, pad=1), [x, w, b])


class TestPooling:
    def test_max_pool_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = max_pool2d(x, 2)
        np.testing.assert_allclose(out.data[0, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_max_pool_channels_independent(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(2, 3, 4, 4))
        out = max_pool2d(Tensor(x), 2).data
        for c in range(3):
            single = max_pool2d(Tensor(x[:, c : c + 1]), 2).data
            np.testing.assert_allclose(out[:, c : c + 1], single)

    def test_avg_pool_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = avg_pool2d(x, 2)
        np.testing.assert_allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_pool_gradients(self):
        x = randn(2, 2, 6, 6, seed=23)
        assert gradcheck(lambda t: max_pool2d(t, 3), [x])
        assert gradcheck(lambda t: avg_pool2d(t, 2), [x])

    def test_max_pool_stride_override(self):
        x = Tensor(np.zeros((1, 1, 6, 6)))
        assert max_pool2d(x, 2, stride=1).shape == (1, 1, 5, 5)

    def test_global_avg_pool(self):
        x = Tensor(np.ones((2, 3, 4, 4)))
        out = global_avg_pool2d(x)
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out.data, 1.0)
