"""Dense float32 tensor primitives: convolution, activations, pooling.

Every public operation is a pure function: inputs are never mutated, each
result is a fresh tensor, and no hidden state is kept, not even a per-shape
cache, so calls are safe from any number of threads. The raw-array kernels
below keep that rule with one exception: an activation asked to work in
place (``_pointwise_raw(..., in_place=True)``, or the raw leaky-relu kernel
given ``out``) writes into a buffer its caller hands it and must own. The
strided convolution and pooling kernels are bit-identical to the
gather/scatter/argmax kernels kept as oracles in ``tests/oracles.py``: same
values, same tie routing, same gradients; so are the branch-free leaky relu
to the ``np.where`` select kept there and the sigmoid to its sign split.
Convolution is cross-correlation (no kernel flip), the convention used by
mainstream detector frameworks. Values are 32-bit floats throughout. The
one finiteness check is ``Tensor``'s constructor, which every public
operation returns through: a non-finite result raises
``ValueError("tensor values must be finite")``. The one way around it is
the private ``Tensor._trusted``, for ``ppm.frame_from_image``, whose bytes
divided by 255 are finite by construction. The raw-array kernels below
check nothing; their callers validate shapes once, at the boundary.

Each kernel makes only the arrays its arithmetic needs. There is one
convolution kernel, ``_conv2d_rows``, which computes any rectangle of
output rows and columns: a whole conv is that kernel over the whole map,
and a reused forward runs it over each rectangle it recomputes. Its
columns are one copy of one strided window view of the padded input it
reads. One rule cuts every conv product into BLAS calls, whether of a
whole map, a rectangle or a training batch: calls of ``CALL_COLUMNS``
columns, a multiple of ``BAND_ALIGN`` (16), counted from the product's
first column, the last call's columns padded with zeros up to whole
groups (``_banded_product``). Any rectangle then has the whole conv's
bits where a product's columns in whole groups of 16 have the same bits
whatever the call's column count. That rests on a measurement, not on a
BLAS guarantee: with OpenBLAS 0.3.31 it held on the SkylakeX kernel (also
run for ``OPENBLAS_CORETYPE`` Cooperlake and SapphireRapids), the
Sandybridge, Nehalem and Katmai kernels, and failed on the Haswell
kernel (also run for Zen), which OpenBLAS picks on AVX2 cores without
AVX-512. ``CALL_COLUMNS`` is a speed choice only: calls of 16 columns
made the convs of a full ``tiny`` forward 1.25 times as slow as calls
of 144.
A 2x2 max pool is two ``np.maximum`` passes, across columns and then
across rows; ``tests/oracles.py`` also keeps a running-maximum pool, one
pass per window position, as a reference. No kernel keeps a workspace
across calls: a forward's transient columns are what lift glibc's dynamic
mmap threshold above a streamed run's per-frame arrays, and buffers kept
between frames left those arrays mapped and faulted in again on every
frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

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

    @classmethod
    def _trusted(cls, arr: np.ndarray) -> "Tensor":
        """Wrap a C-contiguous float32 array its caller made finite, unscanned."""
        t = object.__new__(cls)
        object.__setattr__(t, "data", arr)
        return t

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
# Raw kernels, shared by the public ops and the training engine.
# ---------------------------------------------------------------------------

def conv_output_extent(extent: int, k: int, stride: int, pad: int) -> int:
    return (extent + 2 * pad - k) // stride + 1


# Every BLAS call of a conv product but the last has CALL_COLUMNS columns, a
# multiple of BAND_ALIGN, and the last is padded to whole BAND_ALIGN groups;
# see _banded_product.
BAND_ALIGN = 16
CALL_COLUMNS = 144


def _banded_product(kernel: np.ndarray, cols: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """``kernel @ cols + bias`` ([B,F,N]) as a new array, one matmul per
    ``CALL_COLUMNS`` columns counted from the first, and one over the
    columns left, with zero columns appended up to whole ``BAND_ALIGN``
    groups and their products dropped. So every BLAS call has whole groups
    only.

    The whole calls go to one ``np.matmul`` over a [B, calls, ...] view,
    which makes the same BLAS calls as a loop would, for half the time of a
    loop or of one call over all the columns at ``tiny``'s first conv.
    Splitting the last axis of ``cols`` and the result, whose elements are
    adjacent, always gives views.
    """
    b, k, n = cols.shape
    f = kernel.shape[0]
    whole = n - n % CALL_COLUMNS
    out = np.empty((b, f, n), np.float32)
    if whole:
        calls = whole // CALL_COLUMNS
        np.matmul(kernel, cols[..., :whole].reshape(b, k, calls, CALL_COLUMNS).swapaxes(1, 2),
                  out=out[..., :whole].reshape(b, f, calls, CALL_COLUMNS).swapaxes(1, 2))
    if whole < n:
        rest = np.zeros((b, k, -(-(n - whole) // BAND_ALIGN) * BAND_ALIGN), np.float32)
        rest[..., :n - whole] = cols[..., whole:]
        out[..., whole:] = np.matmul(kernel, rest)[..., :n - whole]
    out += bias[None, :, None]
    return out


def _conv2d_rows(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray,
                 stride: int, pad: int, r0: int, r1: int, c0: int, c1: int):
    """The one convolution kernel: the output rectangle of rows ``[r0, r1)``
    and columns ``[c0, c1)`` of the cross-correlation of [B,C,H,W] ``x``
    with [F,C,kh,kw] ``kernel`` plus ``bias``, as ``(out, cols)``: ``out`` a
    fresh [B,F,r1-r0,c1-c0] array and ``cols`` its columns
    [B, C*kh*kw, (r1-r0)*(c1-c0)], whose rows run (c, ky, kx).

    The input window that rectangle reads is copied into one fresh
    zero-padded buffer. The columns are one C-contiguous copy, which keeps
    the matmul on the BLAS fast path, of one view [B,C,kh,kw,r1-r0,c1-c0]
    over that buffer, made by the plain constructor in a seventh of
    ``as_strided``'s time. Its product runs in ``_banded_product``'s calls
    of ``CALL_COLUMNS`` columns counted from the rectangle's first output,
    each with whole ``BAND_ALIGN`` groups only, so any rectangle has the
    bits of the whole conv on the kernels the module docstring names.
    """
    b, c, h, w = x.shape
    f, _, kh, kw = kernel.shape
    top, bottom = r0 * stride - pad, (r1 - 1) * stride - pad + kh
    left, right = c0 * stride - pad, (c1 - 1) * stride - pad + kw
    lo, hi = max(top, 0), min(bottom, h)
    first, last = max(left, 0), min(right, w)
    # np.pad's set-up costs more than the copy at these sizes.
    window = np.zeros((b, c, bottom - top, right - left), np.float32)
    window[:, :, lo - top:hi - top, first - left:last - left] = x[:, :, lo:hi, first:last]
    sb, sc, sy, sx = window.strides
    view = np.ndarray((b, c, kh, kw, r1 - r0, c1 - c0), np.float32, window, 0,
                      (sb, sc, sy, sx, sy * stride, sx * stride))
    cols = np.ascontiguousarray(view).reshape(b, c * kh * kw, (r1 - r0) * (c1 - c0))
    out = _banded_product(kernel.reshape(f, -1), cols, bias)
    return out.reshape(b, f, r1 - r0, c1 - c0), cols


def _conv2d_batch(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray,
                  stride: int, pad: int):
    """Batched cross-correlation on raw arrays: ``_conv2d_rows`` over the
    whole output map; returns (out, cols), and the training engine reuses
    ``cols`` for the kernel gradient.

    Each batch item's product runs in calls of ``CALL_COLUMNS`` columns
    counted from its first column, as every conv product does. The bits
    can differ in the last place from one plain matmul over all the
    columns, which leaves a last partial 16-column group unpadded.
    """
    _, _, h, w = x.shape
    _, _, kh, kw = kernel.shape
    ho, wo = conv_output_extent(h, kh, stride, pad), conv_output_extent(w, kw, stride, pad)
    return _conv2d_rows(x, kernel, bias, stride, pad, 0, ho, 0, wo)


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


def _maxpool2_batch(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Batched 2x2 max pooling over even [B,C,H,W] extents, in two passes,
    into ``out`` if given, else a fresh array.

    The first pass takes the larger of each row's column pair, the second
    the larger of each pair of those rows, whose inner loops run over
    contiguous memory. np.maximum returns its second operand on a tie (seen
    only between -0.0 and +0.0), so the element earlier in ``_POOL_WINDOW``
    order always goes second, and the first maximum in that order wins.
    """
    cols = np.maximum(x[..., 1::2], x[..., 0::2])
    return np.maximum(cols[:, :, 1::2], cols[:, :, 0::2], out=out)


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


def _sigmoid(arr: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    # With e = exp(-|x|), which never overflows: 1 / (1 + e) for x >= 0 and
    # e / (1 + e) below. Flush the deep-saturation tail to exactly zero,
    # since subnormal outputs poison downstream matmul performance on x86 and
    # carry no information at float32 scale. ``out`` may be ``arr`` itself:
    # both operands of the divide are computed before it writes.
    ez = np.exp(-np.abs(arr))
    out = np.divide(np.where(arr >= 0, np.float32(1), ez), 1 + ez, out=out)
    out[out < 1e-30] = 0.0
    return out


def _leaky_relu(arr: np.ndarray, alpha: float,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """Leaky relu into ``out`` (which may be ``arr`` itself) or a fresh array.

    Bit for bit ``np.where(arr >= 0, arr, alpha * arr)`` on finite input,
    signed zeros included, but without a per-element branch: on mixed-sign
    data that select, like a ``where=``-masked multiply, took about 25x as
    long as this pair of vector ops on an x86 VM. For ``alpha <= 1``,
    ``alpha * arr`` is never above ``arr`` where ``arr >= 0`` and never
    below it where ``arr < 0``, so the larger of the two is the select; for
    ``alpha > 1`` the smaller is. The two tie only on equal values or on
    zeros of opposite sign (``alpha < 0``), and np.maximum and np.minimum
    then return their second operand, ``arr``, as the pool kernel relies on
    too. At ``alpha == 0`` an input of +inf gives NaN (0 * inf).
    """
    scaled = arr * np.float32(alpha)
    pick = np.maximum if alpha <= 1 else np.minimum
    return pick(scaled, arr, out=scaled if out is None else out)


def _pointwise_raw(arr: np.ndarray, fn: str, alpha: float,
                   in_place: bool = False) -> np.ndarray:
    """``fn`` elementwise: into a fresh array, or into ``arr`` if ``in_place``."""
    out = arr if in_place else None
    if fn == "leaky-relu":
        return _leaky_relu(arr, alpha, out)
    if fn == "sigmoid":
        return _sigmoid(arr, out)
    if fn == "tanh":
        return np.tanh(arr, out=out)
    if fn == "abs":
        return np.abs(arr, out=out)
    if fn == "clamp01":
        return np.clip(arr, 0.0, 1.0, out=out)
    raise ValueError(f"unknown pointwise function {fn!r}, expected one of {POINTWISE_FNS}")


def _pointwise_grad(pre: np.ndarray, post: np.ndarray, fn: str, alpha: float) -> np.ndarray:
    """Elementwise derivative factor for fn, given pre- and post-activation.

    At the kink points of the piecewise functions the derivative of the
    right-continuous branch is used (abs at 0 gives 0, clamp01 gives 0 at
    both edges), keeping backward passes deterministic.
    """
    if fn == "leaky-relu":
        # A lookup indexed by the sign test: same values as a select, no branch.
        return np.float32([alpha, 1.0])[(pre >= 0).view(np.uint8)]
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
