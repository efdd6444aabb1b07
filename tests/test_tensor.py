import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skipdet.tensor import (BAND_ALIGN, CALL_COLUMNS, POINTWISE_FNS, ShapeError, Tensor,
                            _banded_product, _col2im_batch, _conv2d_batch, _conv2d_rows,
                            _maxpool2_backward, _maxpool2_batch, _pointwise_grad,
                            _pointwise_raw, _sigmoid, conv2d, maxpool2, pointwise, tensor)

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
    @pytest.mark.parametrize("hw", [(7, 10), (5, 5), (9, 4), (19, 17)])
    @pytest.mark.parametrize("pad", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_conv_columns_and_gradients(self, k, stride, pad, hw, batch):
        rng = np.random.default_rng(k * 100 + stride * 10 + pad)
        c, f = 3, 4
        x = rng.normal(size=(batch, c) + hw).astype(np.float32)
        kernel = rng.normal(size=(f, c, k, k)).astype(np.float32)
        bias = rng.normal(size=f).astype(np.float32)
        out, cols = _conv2d_batch(x, kernel, bias, stride, pad)
        want_cols, ho, wo = oracles.gather_im2col_batch(x, k, k, stride, pad)
        assert out.shape == (batch, f, ho, wo)
        assert cols.flags["C_CONTIGUOUS"]
        assert_same_bits(cols, want_cols)

        # The product in the rule's calls, each made from its own buffer.
        want = oracles.call_product(kernel.reshape(f, -1), want_cols, bias, CALL_COLUMNS)
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

    @pytest.mark.parametrize("batch", [1, 8])
    def test_pool_every_tie_window(self, batch):
        # All 7**4 = 2401 windows over signed zeros, ones and subnormals,
        # laid out on a 49x49 grid of windows, shuffled per batch item.
        values = np.float32([0.0, -0.0, 1.0, -1.0, 1e-45, -1e-45, 2.0])
        windows = np.stack(np.meshgrid(*[np.arange(7)] * 4, indexing="ij"), -1).reshape(-1, 4)
        rng = np.random.default_rng(batch)
        order = [np.arange(len(windows))] + [rng.permutation(len(windows))
                                             for _ in range(batch - 1)]
        w = values[windows[np.stack(order)]].reshape(batch, 1, 49, 49, 2, 2)
        x = np.ascontiguousarray(w.transpose(0, 1, 2, 4, 3, 5).reshape(batch, 1, 98, 98))
        pooled = _maxpool2_batch(x)
        assert_same_bits(pooled, oracles.running_max_maxpool2_batch(x))
        assert_same_bits(pooled, oracles.argmax_maxpool2_batch(x)[0])

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("pad", [0, 1])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_conv_columns_of_a_strided_slice(self, k, pad, stride):
        # The window view uses the input's own strides, not C-order ones.
        big = np.random.default_rng(k + 10 * pad + 100 * stride).normal(
            size=(3, 4, 15, 22)).astype(np.float32)
        x = big[::2, 1:, 1::2, ::3]
        assert not x.flags["C_CONTIGUOUS"]
        kernel = np.ones((2, x.shape[1], k, k), np.float32)
        out, cols = _conv2d_batch(x, kernel, np.zeros(2, np.float32), stride, pad)
        want_cols, ho, wo = oracles.gather_im2col_batch(x, k, k, stride, pad)
        assert out.shape[2:] == (ho, wo)
        assert_same_bits(cols, want_cols)

    def test_pool_constant_windows_route_to_first_position(self):
        x = np.zeros((1, 1, 2, 4), np.float32)
        x[0, 0, :, 2:] = -0.0
        x[0, 0, 1, 3] = 0.0
        pooled = _maxpool2_batch(x)
        assert_same_bits(pooled, np.float32([[[[0.0, -0.0]]]]))
        grad = _maxpool2_backward(np.float32([[[[2.0, 3.0]]]]), x, pooled)
        np.testing.assert_array_equal(grad, np.float32([[[[2, 0, 3, 0], [0, 0, 0, 0]]]]))


def signed_extremes(rng, shape):
    """Normals with ±0.0 and ±3e38 planted, so sign and overflow both show."""
    x = (4 * rng.normal(size=shape)).astype(np.float32)
    flat = x.reshape(-1)
    flat[:6] = [0.0, -0.0, 3e38, -3e38, -0.0, 0.0]
    rng.shuffle(flat)
    return x


class TestLeakyReluMatchesEarlierKernel:
    """The branch-free leaky relu reproduces the select-based one bit for bit."""

    @pytest.mark.parametrize("alpha", [0.0, 0.1, 1.0, 2.5, -0.5])
    def test_out_of_place_and_in_place(self, alpha):
        rng = np.random.default_rng(7)
        x = signed_extremes(rng, (2, 3, 5, 7))
        before = x.copy()
        with np.errstate(over="ignore"):
            want = oracles.where_leaky_relu(x, alpha)
            got = _pointwise_raw(x, "leaky-relu", alpha)
            assert_same_bits(got, want)
            assert_same_bits(x, before)
            buf = x.copy()
            assert _pointwise_raw(buf, "leaky-relu", alpha, in_place=True) is buf
            assert_same_bits(buf, want)
        assert_same_bits(_pointwise_grad(x, got, "leaky-relu", alpha),
                         oracles.where_leaky_relu_grad(x, alpha))

    @pytest.mark.parametrize("fn", POINTWISE_FNS)
    def test_in_place_matches_fresh(self, fn):
        x = signed_extremes(np.random.default_rng(8), (3, 4, 6))
        with np.errstate(over="ignore"):
            want = _pointwise_raw(x, fn, 0.1)
            buf = x.copy()
            assert _pointwise_raw(buf, fn, 0.1, in_place=True) is buf
        assert_same_bits(buf, want)


class TestSigmoidMatchesEarlierKernel:
    """The select-based sigmoid reproduces the sign-split one bit for bit."""

    # ±0, the ends of float32 exp (±88.7, ±104), the flush to zero below
    # about -69, and 3e38, whose negation exp takes to exactly zero
    EDGES = (0.0, -0.0, 88.7, -88.7, 104.0, -104.0, 3e38, -3e38,
             -68.0, -69.0, -69.08, -69.1, -70.0, -87.3, -87.4, -103.9)

    @pytest.mark.parametrize("seed", range(3))
    def test_contiguous_strided_and_in_place(self, seed):
        rng = np.random.default_rng(seed)
        flat = np.concatenate([np.float32(self.EDGES),
                               np.linspace(-110, 110, 4000, dtype=np.float32),
                               (8 * rng.normal(size=2984)).astype(np.float32)])
        rng.shuffle(flat)
        views = (lambda x: x, lambda x: x[:, ::2], lambda x: x[..., 1::3],
                 lambda x: x.transpose(3, 1, 0, 2), lambda x: x[0, :, 4, :2])
        for view in views:
            v = view(flat.reshape(2, 5, 20, 35).copy())
            want = oracles.split_sigmoid(v.copy())
            before = v.copy()
            assert_same_bits(_sigmoid(v), want)
            assert_same_bits(v, before)
            out = np.full_like(v, np.nan)
            assert _sigmoid(v, out) is out
            assert_same_bits(out, want)
            buf = v.copy()
            assert _sigmoid(buf, buf) is buf
            assert_same_bits(buf, want)
            assert _sigmoid(v, v) is v
            assert_same_bits(v, want)

    def test_edges(self):
        x = np.float32(self.EDGES)
        got = _sigmoid(x)
        assert_same_bits(got, oracles.split_sigmoid(x))
        assert_same_bits(got[:2], np.float32([0.5, 0.5]))
        assert (got[x > 88] == 1).all() and (got[x <= -69.1] == 0).all()
        assert 0 < got[x == -69.0][0] < 1e-29


def tiny_conv_shapes():
    """(filters, column length, Ho, Wo) of each of ``tiny``'s convs."""
    from skipdet import zoo
    net = zoo.load_bundled("tiny")
    return [(layer.out_channels, layer.in_channels * layer.kernel_size ** 2) + shape[1:]
            for layer, shape in zip(net.layers, net.layer_shapes()) if layer.kind == "conv"]


class TestBands:
    """Every BLAS call of a conv's product has ``CALL_COLUMNS`` columns
    counted from its first, the last padded to whole 16-column groups, so
    any rectangle of outputs recomputed alone has the bits of the whole
    conv."""

    @pytest.mark.parametrize("seed", range(4))
    def test_band_alone_equals_the_banded_call(self, seed):
        # The banded call makes the rule's calls of CALL_COLUMNS columns.
        # And the BLAS fact the reuse rests on: any column range of a
        # product, computed alone with zero columns appended up to whole
        # groups, has the bits of the same columns in those calls, wherever
        # its buffers sit and whatever their leading dimension. Random
        # shapes and tiny's conv shapes, each with random ranges, its first
        # call, the two columns around its first call edge, its last group,
        # whole or partial, and all its columns.
        rng = np.random.default_rng(seed)
        shapes = [(int(rng.integers(1, 65)), int(rng.integers(1, 200)),
                   int(rng.integers(1, 40)), int(rng.integers(1, 70))) for _ in range(50)]
        for n, (f, k, ho, wo) in enumerate(shapes + tiny_conv_shapes()):
            kernel = rng.normal(size=(f, k)).astype(np.float32)
            cols = rng.normal(size=(1, k, ho * wo)).astype(np.float32)
            zero = np.zeros(f, np.float32)
            out = _banded_product(kernel, cols, zero)
            assert_same_bits(out, oracles.call_product(kernel, cols, zero, CALL_COLUMNS))
            size = ho * wo
            ranges = [(size - (size % BAND_ALIGN or BAND_ALIGN), size), (0, size),
                      (0, min(size, CALL_COLUMNS))]
            if size > CALL_COLUMNS:
                ranges.append((CALL_COLUMNS - 1, CALL_COLUMNS + 1))
            for _ in range(1 if n < len(shapes) else 10):
                c0 = int(rng.integers(size))
                ranges.append((c0, int(rng.integers(c0 + 1, size + 1))))
            for c0, c1 in ranges:
                width = -(-(c1 - c0) // BAND_ALIGN) * BAND_ALIGN
                lead = width + int(rng.integers(1, 9))
                fresh = np.zeros(k * lead + 1, np.float32)[1:].reshape(k, lead)[:, :width]
                fresh[:, :c1 - c0] = cols[0, :, c0:c1]
                got = np.empty(f * lead + 1, np.float32)[1:].reshape(f, lead)[:, :width]
                np.matmul(kernel, fresh, out=got)
                assert_same_bits(got[:, :c1 - c0], out[0, :, c0:c1])

    @pytest.mark.parametrize("k,stride,pad", [(1, 1, 0), (1, 2, 1), (2, 1, 0), (3, 1, 1),
                                              (3, 2, 2), (5, 1, 2), (5, 2, 0)])
    def test_rows_equal_the_whole_conv(self, k, stride, pad):
        # Any run of rows as wide as the map, computed alone in calls
        # counted from its own first output, has the whole conv's bits, and
        # reads only the input rows its windows see: runs of the rows before
        # the whole conv's first call edge, runs that start or end at the
        # row that edge falls in, and runs of random rows.
        rng = np.random.default_rng(k * 10 + stride + pad)
        x = rng.normal(size=(1, 3, 181, 17)).astype(np.float32)
        kernel = rng.normal(size=(4, 3, k, k)).astype(np.float32)
        bias = rng.normal(size=4).astype(np.float32)
        whole, _ = _conv2d_batch(x, kernel, bias, stride, pad)
        ho, wo = whole.shape[2:]
        rows = CALL_COLUMNS // wo  # the row the first call edge falls in
        assert 0 < rows and ho * wo > 2 * CALL_COLUMNS  # several calls
        runs = [(r0, min(r0 + rows, ho)) for r0 in range(0, ho, rows)]
        runs += [(1, 2), (ho - 1, ho), (rows - 1, rows + 1), (1, 2 * rows + 1), (1, ho), (0, ho)]
        for _ in range(10):
            r0 = int(rng.integers(ho))
            runs.append((r0, int(rng.integers(r0 + 1, ho + 1))))
        for r0, r1 in runs:
            seen = np.zeros(x.shape[2], bool)
            seen[max(r0 * stride - pad, 0):max((r1 - 1) * stride - pad + k, 0)] = True
            masked = np.where(seen[:, None], x, np.float32(np.nan))
            block, _ = _conv2d_rows(masked, kernel, bias, stride, pad, r0, r1, 0, wo)
            assert block.flags.c_contiguous and block.shape == (1, 4, r1 - r0, wo)
            assert_same_bits(block, whole[:, :, r0:r1])


CHECKS = [
    pytest.param(lambda: Tensor(np.zeros((1,) * 5)), ShapeError,
                 "tensor rank must be 1..4", id="tensor-rank"),
    pytest.param(lambda: Tensor(np.zeros((2, 0))), ShapeError,
                 "tensor extents must be positive", id="tensor-extents"),
    pytest.param(lambda: Tensor([1.0, np.inf]), ValueError,
                 "tensor values must be finite", id="tensor-finite"),
    pytest.param(lambda: pointwise(Tensor.zeros((2,)), "relu"), ValueError,
                 "unknown pointwise function 'relu'", id="pointwise-fn"),
    pytest.param(lambda: conv2d(Tensor.zeros((1, 3, 3, 3)), Tensor.zeros((1, 3, 1, 1)), [0.0]),
                 ShapeError, "conv2d input must be [C,H,W]", id="conv-input-rank"),
    pytest.param(lambda: conv2d(Tensor.zeros((3, 3, 3)), Tensor.zeros((3, 1, 1)), [0.0]),
                 ShapeError, "conv2d kernel must be [F,C,kh,kw]", id="conv-kernel-rank"),
    pytest.param(lambda: conv2d(Tensor.zeros((3, 3, 3)), Tensor.zeros((1, 3, 1, 1)), [0.0],
                                stride=0),
                 ValueError, "stride must be positive", id="conv-stride"),
    pytest.param(lambda: conv2d(Tensor.zeros((3, 3, 3)), Tensor.zeros((1, 3, 1, 1)), [0.0],
                                pad=-1),
                 ValueError, "pad must be non-negative", id="conv-pad"),
    pytest.param(lambda: conv2d(Tensor.zeros((3, 3, 3)), Tensor.zeros((1, 2, 1, 1)), [0.0]),
                 ShapeError, "channel mismatch", id="conv-channels"),
    pytest.param(lambda: conv2d(Tensor.zeros((3, 3, 3)), Tensor.zeros((2, 3, 1, 1)), [0.0]),
                 ShapeError, "bias has 1 values, kernel has 2 filters", id="conv-bias"),
    pytest.param(lambda: conv2d(Tensor.zeros((3, 3, 3)), Tensor.zeros((1, 3, 4, 4)), [0.0]),
                 ShapeError, "non-positive output extent 0x0", id="conv-extent"),
    pytest.param(lambda: maxpool2(Tensor.zeros((1, 2, 2, 2))), ShapeError,
                 "maxpool2 input must be [C,H,W]", id="pool-rank"),
    pytest.param(lambda: maxpool2(Tensor.zeros((1, 2, 3))), ShapeError,
                 "maxpool2 needs even spatial extents", id="pool-extents"),
]


@pytest.mark.parametrize("make,error,prefix", CHECKS)
def test_checks_raise_their_documented_errors(make, error, prefix):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error and str(info.value).startswith(prefix)
