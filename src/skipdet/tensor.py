"""Dense float32 tensor primitives: convolution, activations, pooling.

Every operation here is a pure function: inputs are never mutated and no
hidden state is kept, not even a per-shape cache, so calls are safe from
any number of threads. The strided convolution and pooling kernels are
bit-identical to the gather/scatter/argmax kernels kept as oracles in
``tests/oracles.py``: same values, same tie routing, same gradients.
Convolution is cross-correlation (no kernel flip), the convention used by
mainstream detector frameworks. Values are 32-bit floats throughout. The
one finiteness check is ``Tensor``'s constructor, which every public
operation returns through: a non-finite result raises
``ValueError("tensor values must be finite")``. The raw-array kernels below
check nothing; their callers validate shapes once, at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

__all__ = [
    "POINTWISE_FNS",
    "ShapeError",
    "Tensor",
    "conv2d",
    "maxpool2",
    "pointwise",
    "tensor",
]


class ShapeError(ValueError):
    """Shapes incompatible with the requested operation."""


@dataclass(frozen=True, eq=False)
class Tensor:
    """Row-major float32 array of rank 1 to 4 with positive extents.

    Shape conventions: ``[channels, height, width]`` for images and
    ``[out_channels, in_channels, k_h, k_w]`` for convolution kernels.
    The wrapped array is treated as immutable; operations always allocate
    fresh tensors.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(np.asarray(self.data, dtype=np.float32))
        if arr.ndim < 1 or arr.ndim > 4:
            raise ShapeError(f"tensor rank must be 1..4, got {arr.ndim}")
        if min(arr.shape) < 1:
            raise ShapeError(f"tensor extents must be positive, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("tensor values must be finite")
        object.__setattr__(self, "data", arr)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.data.shape)

    @property
    def size(self) -> int:
        return int(self.data.size)

    def __array__(self, dtype=None, copy=None):
        return self.data if dtype is None else self.data.astype(dtype)

    @classmethod
    def zeros(cls, shape: Sequence[int]) -> "Tensor":
        return cls(np.zeros(tuple(shape), dtype=np.float32))

    @classmethod
    def full(cls, shape: Sequence[int], value: float) -> "Tensor":
        return cls(np.full(tuple(shape), value, dtype=np.float32))


def tensor(values) -> Tensor:
    """Build a Tensor from a nested sequence, scalar array, or Tensor."""
    if isinstance(values, Tensor):
        return values
    return Tensor(np.asarray(values))


# ---------------------------------------------------------------------------
# im2col machinery, shared by the public ops and the training engine.
# ---------------------------------------------------------------------------

def conv_output_extent(extent: int, k: int, stride: int, pad: int) -> int:
    return (extent + 2 * pad - k) // stride + 1


def _pad_batch(x: np.ndarray, pad: int) -> np.ndarray:
    if pad == 0:
        return x
    # np.pad's set-up costs more than the copy at these sizes.
    b, c, h, w = x.shape
    xp = np.zeros((b, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    xp[:, :, pad:-pad, pad:-pad] = x
    return xp


def _im2col_batch(x: np.ndarray, kh: int, kw: int, stride: int, pad: int):
    """[B,C,H,W] to columns [B, C*kh*kw, Ho*Wo]; rows run (c, ky, kx)."""
    b, c = x.shape[:2]
    win = np.lib.stride_tricks.sliding_window_view(_pad_batch(x, pad), (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    ho, wo = win.shape[2], win.shape[3]
    # The C-contiguous copy keeps the matmul below on the BLAS fast path.
    cols = np.ascontiguousarray(win.transpose(0, 1, 4, 5, 2, 3))
    return cols.reshape(b, c * kh * kw, ho * wo), ho, wo


def _conv2d_batch(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray,
                  stride: int, pad: int):
    """Batched cross-correlation on raw arrays; returns (out, cols).

    ``x`` is [B,C,H,W], the result [B,F,Ho,Wo]. ``cols`` is returned so the
    training engine can reuse it for the kernel gradient.
    """
    b = x.shape[0]
    f, _, kh, kw = kernel.shape
    cols, ho, wo = _im2col_batch(x, kh, kw, stride, pad)
    out = np.matmul(kernel.reshape(f, -1), cols)
    out += bias[None, :, None]
    return out.reshape(b, f, ho, wo), cols


def _col2im_batch(dcols: np.ndarray, c: int, h: int, w: int,
                  kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """Sum column gradients back into [B,C,H,W] images.

    float64 strided adds in (ky, kx) order, then one rounding to float32.
    """
    b = dcols.shape[0]
    ho = conv_output_extent(h, kh, stride, pad)
    wo = conv_output_extent(w, kw, stride, pad)
    d = dcols.reshape(b, c, kh, kw, ho, wo)
    acc = np.zeros((b, c, h + 2 * pad, w + 2 * pad))
    for ky in range(kh):
        for kx in range(kw):
            acc[:, :, ky:ky + stride * ho:stride, kx:kx + stride * wo:stride] += d[:, :, ky, kx]
    return acc[:, :, pad:pad + h, pad:pad + w].astype(np.float32)


# 2x2 window positions in row-major order: under ties the first maximum in
# this order wins, which keeps the gradient routing deterministic.
_POOL_WINDOW = ((0, 0), (0, 1), (1, 0), (1, 1))


def _maxpool2_batch(x: np.ndarray) -> np.ndarray:
    """Batched 2x2 max pooling over even [B,C,H,W] extents."""
    out = x[:, :, 0::2, 0::2]
    for dy, dx in _POOL_WINDOW[1:]:
        # np.maximum returns its second operand on a tie (seen only between
        # -0.0 and +0.0), so the running maximum goes second.
        out = np.maximum(x[:, :, dy::2, dx::2], out)
    return out


def _maxpool2_backward(grad_out: np.ndarray, x: np.ndarray,
                       pooled: np.ndarray) -> np.ndarray:
    grad = np.empty_like(x)
    free = np.ones(pooled.shape, dtype=bool)
    for dy, dx in _POOL_WINDOW:
        hit = x[:, :, dy::2, dx::2] == pooled
        hit &= free
        grad[:, :, dy::2, dx::2] = np.where(hit, grad_out, np.float32(0))
        free &= ~hit
    return grad


# ---------------------------------------------------------------------------
# Pointwise functions.
# ---------------------------------------------------------------------------

POINTWISE_FNS = ("leaky-relu", "sigmoid", "tanh", "abs", "clamp01")


def _sigmoid(arr: np.ndarray) -> np.ndarray:
    # Split by sign so exp never overflows; flush the deep-saturation tail
    # to exactly zero, since subnormal outputs poison downstream matmul
    # performance on x86 and carry no information at float32 scale.
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ez = np.exp(arr[~pos])
    out[~pos] = ez / (1.0 + ez)
    out[out < 1e-30] = 0.0
    return out


def _pointwise_raw(arr: np.ndarray, fn: str, alpha: float) -> np.ndarray:
    if fn == "leaky-relu":
        return np.where(arr >= 0, arr, np.float32(alpha) * arr)
    if fn == "sigmoid":
        return _sigmoid(arr)
    if fn == "tanh":
        return np.tanh(arr)
    if fn == "abs":
        return np.abs(arr)
    if fn == "clamp01":
        return np.clip(arr, 0.0, 1.0)
    raise ValueError(f"unknown pointwise function {fn!r}, expected one of {POINTWISE_FNS}")


def _pointwise_grad(pre: np.ndarray, post: np.ndarray, fn: str, alpha: float) -> np.ndarray:
    """Elementwise derivative factor for fn, given pre- and post-activation.

    At the kink points of the piecewise functions the derivative of the
    right-continuous branch is used (abs at 0 gives 0, clamp01 gives 0 at
    both edges), keeping backward passes deterministic.
    """
    if fn == "leaky-relu":
        return np.where(pre >= 0, np.float32(1.0), np.float32(alpha))
    if fn == "sigmoid":
        return post * (1.0 - post)
    if fn == "tanh":
        return 1.0 - post * post
    if fn == "abs":
        return np.sign(pre)
    if fn == "clamp01":
        return ((pre > 0) & (pre < 1)).astype(np.float32)
    raise ValueError(f"unknown pointwise function {fn!r}")


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------

BiasLike = Union[Tensor, np.ndarray, Sequence[float]]


def conv2d(x: Tensor, kernel: Tensor, bias: BiasLike,
           stride: int = 1, pad: int = 0) -> Tensor:
    """Cross-correlate a [C,H,W] tensor with [F,C,kh,kw] kernels plus bias.

    The output extent is ``floor((H + 2*pad - kh)/stride) + 1`` per axis and
    must be at least 1. Each output value is the windowed sum of products
    plus the filter's bias; the summation order per output element is fixed,
    so repeated calls are bit-identical.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"conv2d input must be [C,H,W], got shape {x.shape}")
    if kernel.data.ndim != 4:
        raise ShapeError(f"conv2d kernel must be [F,C,kh,kw], got shape {kernel.shape}")
    if stride < 1:
        raise ValueError(f"stride must be positive, got {stride}")
    if pad < 0:
        raise ValueError(f"pad must be non-negative, got {pad}")
    c, h, w = x.shape
    f, ck, kh, kw = kernel.shape
    if ck != c:
        raise ShapeError(
            f"channel mismatch: input shape {x.shape} has {c} channels but "
            f"kernel shape {kernel.shape} expects {ck}")
    bias_arr = np.ascontiguousarray(np.asarray(bias, dtype=np.float32)).reshape(-1)
    if bias_arr.size != f:
        raise ShapeError(f"bias has {bias_arr.size} values, kernel has {f} filters")
    ho = conv_output_extent(h, kh, stride, pad)
    wo = conv_output_extent(w, kw, stride, pad)
    if ho < 1 or wo < 1:
        raise ShapeError(
            f"non-positive output extent {ho}x{wo} for input {x.shape}, "
            f"kernel {kernel.shape}, stride {stride}, pad {pad}")
    out, _ = _conv2d_batch(x.data[None], kernel.data, bias_arr, stride, pad)
    return Tensor(out[0])


def pointwise(x: Tensor, fn: str, alpha: float = 0.1) -> Tensor:
    """Apply an elementwise function; ``alpha`` is the leaky-relu slope."""
    return Tensor(_pointwise_raw(x.data, fn, alpha))


def maxpool2(x: Tensor) -> Tensor:
    """Max over non-overlapping 2x2 windows; height and width must be even."""
    if x.data.ndim != 3:
        raise ShapeError(f"maxpool2 input must be [C,H,W], got shape {x.shape}")
    _, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2 needs even spatial extents, got {h}x{w}")
    return Tensor(_maxpool2_batch(x.data[None])[0])
