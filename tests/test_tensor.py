import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skipdet.tensor import (ShapeError, Tensor, _col2im_batch, _conv2d_batch, _im2col_batch,
                            _maxpool2_backward, _maxpool2_batch, conv2d, maxpool2,
                            pointwise, tensor)

import oracles


def assert_same_bits(got, want):
    """Equal shape, dtype and bit pattern, so -0.0 and +0.0 differ too."""
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


class TestTensorType:
    def test_float32_row_major(self):
        t = tensor([[1, 2], [3, 4]])
        assert t.data.dtype == np.float32
        assert t.data.flags["C_CONTIGUOUS"]
        assert t.shape == (2, 2)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            tensor([1.0, float("nan")])
        with pytest.raises(ValueError):
            tensor([1.0, float("inf")])

    def test_rejects_rank_5(self):
        with pytest.raises(ShapeError):
            tensor(np.zeros((1, 1, 1, 1, 1)))

    def test_scalar_becomes_vector(self):
        assert tensor(5.0).shape == (1,)

    def test_rejects_zero_extent(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((0, 3)))


class TestConv2d:
    def test_identity_kernel(self):
        out = conv2d(Tensor.full((1, 3, 3), 1.0), tensor([[[[1.0]]]]), [0.0])
        assert out.shape == (1, 3, 3)
        assert np.array_equal(out.data, np.ones((1, 3, 3), np.float32))

    def test_diagonal_kernel_with_bias(self):
        x = tensor([[[1.0, 2.0], [3.0, 4.0]]])
        k = tensor([[[[1.0, 0.0], [0.0, 1.0]]]])
        out = conv2d(x, k, [0.5])
        assert out.shape == (1, 1, 1)
        assert out.data[0, 0, 0] == np.float32(5.5)

    def test_strided_output_shape(self):
        out = conv2d(Tensor.zeros((3, 8, 8)), Tensor.zeros((4, 3, 3, 3)),
                     [0.0] * 4, stride=2, pad=1)
        assert out.shape == (4, 4, 4)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        for stride, pad in ((1, 0), (1, 1), (2, 1), (3, 2)):
            x = Tensor(rng.normal(size=(3, 9, 11)).astype(np.float32))
            k = Tensor(rng.normal(size=(4, 3, 3, 3)).astype(np.float32))
            b = rng.normal(size=4).astype(np.float32)
            got = conv2d(x, k, b, stride=stride, pad=pad)
            want = oracles.naive_conv2d(x.data, k.data, b, stride, pad)
            assert got.shape == want.shape
            np.testing.assert_allclose(got.data, want, atol=1e-4)

    def test_channel_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 4, 4\).*\(1, 3, 2, 2\)"):
            conv2d(Tensor.zeros((2, 4, 4)), Tensor.zeros((1, 3, 2, 2)), [0.0])

    def test_non_finite_result_raises(self):
        # each product is finite, but their sum overflows float32
        kernel = Tensor.full((1, 2, 1, 1), 3e38)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="must be finite"):
            conv2d(Tensor.full((2, 3, 3), 1.0), kernel, [0.0])

    def test_non_positive_output_extent(self):
        with pytest.raises(ShapeError, match="non-positive"):
            conv2d(Tensor.zeros((1, 2, 2)), Tensor.zeros((1, 1, 5, 5)), [0.0])

    def test_bad_bias_length(self):
        with pytest.raises(ShapeError, match="bias"):
            conv2d(Tensor.zeros((1, 2, 2)), Tensor.zeros((2, 1, 1, 1)), [0.0])

    def test_repeat_calls_bit_identical(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(4, 16, 16)).astype(np.float32))
        k = Tensor(rng.normal(size=(8, 4, 3, 3)).astype(np.float32))
        b = rng.normal(size=8).astype(np.float32)
        a = conv2d(x, k, b, pad=1)
        for _ in range(3):
            assert np.array_equal(a.data, conv2d(x, k, b, pad=1).data)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31), st.floats(-3, 3), st.floats(-3, 3))
    def test_linearity(self, seed, a, b):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(2, 6, 6)).astype(np.float32))
        y = Tensor(rng.normal(size=(2, 6, 6)).astype(np.float32))
        k = Tensor(rng.normal(size=(3, 2, 3, 3)).astype(np.float32))
        zero = [0.0] * 3
        mixed = conv2d(Tensor(np.float32(a) * x.data + np.float32(b) * y.data), k, zero, pad=1)
        parts = (np.float32(a) * conv2d(x, k, zero, pad=1).data
                 + np.float32(b) * conv2d(y, k, zero, pad=1).data)
        np.testing.assert_allclose(mixed.data, parts, atol=1e-4)


class TestPointwise:
    def test_sigmoid_of_zero(self):
        out = pointwise(Tensor.zeros((2, 3, 3)), "sigmoid")
        assert np.all(out.data == np.float32(0.5))

    def test_leaky_relu(self):
        out = pointwise(tensor([-1.0, 2.0]), "leaky-relu", alpha=0.1)
        np.testing.assert_array_equal(out.data, np.float32([-0.1, 2.0]))

    def test_abs_symmetry(self):
        out = pointwise(tensor([-0.3, 0.3]), "abs")
        np.testing.assert_array_equal(out.data, np.float32([0.3, 0.3]))

    def test_clamp01(self):
        out = pointwise(tensor([-0.5, 0.25, 1.5]), "clamp01")
        np.testing.assert_array_equal(out.data, np.float32([0.0, 0.25, 1.0]))

    def test_tanh_matches_numpy(self):
        x = tensor([-2.0, 0.0, 2.0])
        np.testing.assert_allclose(pointwise(x, "tanh").data, np.tanh(x.data), rtol=1e-6)

    def test_sigmoid_extreme_values_finite(self):
        out = pointwise(tensor([-100.0, 100.0]), "sigmoid")
        assert out.data[0] == 0.0 and out.data[1] == 1.0

    def test_non_finite_result_raises(self):
        x = Tensor.full((1, 2, 2), -3e38)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="must be finite"):
            pointwise(x, "leaky-relu", alpha=10.0)

    def test_unknown_fn(self):
        with pytest.raises(ValueError, match="unknown pointwise"):
            pointwise(tensor([1.0]), "relu6")

    def test_shape_preserved(self):
        x = Tensor.zeros((2, 5, 7))
        assert pointwise(x, "tanh").shape == x.shape


class TestMaxpool2:
    def test_single_window(self):
        out = maxpool2(tensor([[[1.0, 2.0], [3.0, 4.0]]]))
        assert out.shape == (1, 1, 1)
        assert out.data[0, 0, 0] == 4.0

    def test_constant_tensor(self):
        out = maxpool2(Tensor.full((3, 4, 6), 0.7))
        assert out.shape == (3, 2, 3)
        assert np.all(out.data == np.float32(0.7))

    def test_counting_tensor(self):
        x = tensor(np.arange(1, 17, dtype=np.float32).reshape(1, 4, 4))
        np.testing.assert_array_equal(maxpool2(x).data,
                                      np.float32([[[6, 8], [14, 16]]]))

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(3, 8, 10)).astype(np.float32))
        np.testing.assert_array_equal(maxpool2(x).data,
                                      oracles.naive_maxpool2(x.data).astype(np.float32))

    def test_odd_extent_rejected(self):
        with pytest.raises(ShapeError, match="even"):
            maxpool2(Tensor.zeros((1, 3, 4)))


def tied_batch(rng, shape):
    """Values with many ties: rounded normals, signed zeros, constant windows."""
    x = np.round(rng.normal(size=shape)).astype(np.float32)
    x[rng.random(shape) < 0.3] = 0.0
    x[rng.random(shape) < 0.3] = -0.0
    x[:, :, :2, :2] = 1.0
    x[:, :, 2:4, :2] = -0.0
    return x


class TestKernelsMatchEarlierKernels:
    """The strided kernels reproduce the gather/scatter/argmax ones bit for bit."""

    @pytest.mark.parametrize("batch", [1, 8])
    @pytest.mark.parametrize("hw", [(7, 10), (5, 5), (9, 4)])
    @pytest.mark.parametrize("pad", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_conv_columns_and_gradients(self, k, stride, pad, hw, batch):
        rng = np.random.default_rng(k * 100 + stride * 10 + pad)
        c, f = 3, 4
        x = rng.normal(size=(batch, c) + hw).astype(np.float32)
        kernel = rng.normal(size=(f, c, k, k)).astype(np.float32)
        bias = rng.normal(size=f).astype(np.float32)
        cols, ho, wo = _im2col_batch(x, k, k, stride, pad)
        want_cols, want_ho, want_wo = oracles.gather_im2col_batch(x, k, k, stride, pad)
        assert (ho, wo) == (want_ho, want_wo)
        assert cols.flags["C_CONTIGUOUS"]
        assert_same_bits(cols, want_cols)

        out, _ = _conv2d_batch(x, kernel, bias, stride, pad)
        want = np.matmul(kernel.reshape(f, -1), want_cols) + bias[None, :, None]
        assert_same_bits(out, want.reshape(batch, f, ho, wo))

        dcols = rng.normal(size=cols.shape).astype(np.float32)
        got = _col2im_batch(dcols, c, hw[0], hw[1], k, k, stride, pad)
        assert_same_bits(got, oracles.bincount_col2im_batch(
            dcols, c, hw[0], hw[1], k, k, stride, pad))

    @pytest.mark.parametrize("batch", [1, 8])
    @pytest.mark.parametrize("hw", [(6, 10), (2, 2), (8, 4)])
    @pytest.mark.parametrize("ties", [False, True])
    def test_pool_values_and_routing(self, ties, hw, batch):
        rng = np.random.default_rng(hw[0] * 10 + hw[1] + batch)
        shape = (batch, 3) + hw
        x = tied_batch(rng, shape) if ties else rng.normal(size=shape).astype(np.float32)
        pooled = _maxpool2_batch(x)
        want, am = oracles.argmax_maxpool2_batch(x)
        assert_same_bits(pooled, want)
        grad_out = rng.normal(size=pooled.shape).astype(np.float32)
        assert_same_bits(_maxpool2_backward(grad_out, x, pooled),
                         oracles.argmax_maxpool2_backward(grad_out, am, x.shape))

    def test_pool_constant_windows_route_to_first_position(self):
        x = np.zeros((1, 1, 2, 4), np.float32)
        x[0, 0, :, 2:] = -0.0
        x[0, 0, 1, 3] = 0.0
        pooled = _maxpool2_batch(x)
        assert_same_bits(pooled, np.float32([[[[0.0, -0.0]]]]))
        grad = _maxpool2_backward(np.float32([[[[2.0, 3.0]]]]), x, pooled)
        np.testing.assert_array_equal(grad, np.float32([[[[2, 0, 3, 0], [0, 0, 0, 0]]]]))
