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
mainstream detector frameworks; a 1x1 one at stride 1 without padding
uses its input as its columns. Values are 32-bit floats throughout. The
one finiteness check is ``Tensor``'s constructor, which every public
operation returns through: a non-finite result raises
``ValueError("tensor values must be finite")``. The one way around it is
the private ``Tensor._trusted``, for ``ppm.frame_from_image``, whose bytes
divided by 255 are finite by construction. The raw-array kernels below
check nothing; their callers validate shapes once, at the boundary.

Each kernel makes only the arrays its arithmetic needs. A convolution's
columns are one copy of one strided window view of its padded input, and
its product runs in fixed bands of output rows, one BLAS call each: a
band's bits depend only on its own columns, so ``_conv2d_row_blocks`` can
recompute any run of bands alone with the bits of the whole conv. A band
is the fewest rows, at least ``BAND_ROWS`` (3), that hold a multiple of
``BAND_ALIGN`` (16) outputs (``band_rows``). Both bounds were measured on
OpenBLAS 0.3.31 on an AVX-512 core: there a product's columns in whole
groups of 16 have the same bits whatever the call's column count, while
a last partial group's can differ, so bands of whole groups give every
column the bits a larger band gives it; and bands of one row made the
product of ``tiny``'s 48-wide conv 1.3 times as slow as bands of three.
A 2x2 max pool is two ``np.maximum`` passes, across columns and then
across rows; ``tests/oracles.py`` also keeps a running-maximum pool, one
pass per window position, as a reference. No kernel keeps a workspace
across calls: a forward's transient columns are what lift glibc's dynamic
mmap threshold above a streamed run's per-frame arrays, and buffers kept
between frames left those arrays mapped and faulted in again on every
frame.
"""

from __future__ import annotations

import math
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
    if kh == kw == stride == 1 and pad == 0:
        # A 1x1 window's columns are the input itself.
        return x.reshape(b, c, -1), x.shape[2], x.shape[3]
    xp = _pad_batch(x, pad)
    ho = conv_output_extent(x.shape[2], kh, stride, pad)
    wo = conv_output_extent(x.shape[3], kw, stride, pad)
    # One view [B,C,kh,kw,Ho,Wo] over the padded input's buffer, made by the
    # plain constructor in a seventh of ``as_strided``'s time. It needs one
    # C-contiguous buffer, so another layout is copied first (no caller in
    # the package passes one). The view's C-contiguous copy is the columns,
    # and keeps the matmul on the BLAS fast path.
    if not xp.flags.c_contiguous:
        xp = np.ascontiguousarray(xp)
    sb, sc, sy, sx = xp.strides
    win = np.ndarray((b, c, kh, kw, ho, wo), np.float32, xp, 0,
                     (sb, sc, sy, sx, sy * stride, sx * stride))
    cols = np.ascontiguousarray(win)
    return cols.reshape(b, c * kh * kw, ho * wo), ho, wo


# A convolution's matmul bands hold at least BAND_ROWS output rows and a
# multiple of BAND_ALIGN outputs; see band_rows.
BAND_ROWS = 3
BAND_ALIGN = 16


def band_rows(wo: int) -> int:
    """Output rows in each matmul band of a convolution ``wo`` outputs wide:
    the fewest, at least ``BAND_ROWS``, that hold a multiple of
    ``BAND_ALIGN`` outputs (``tiny``: 3, 3, 4 and 4 rows, 8 for the 6x6
    1x1 conv, so one band there)."""
    step = BAND_ALIGN // math.gcd(wo, BAND_ALIGN)
    return -(-BAND_ROWS // step) * step


def _banded_product(kernel: np.ndarray, cols: np.ndarray, bias: np.ndarray,
                    wo: int) -> np.ndarray:
    """``kernel @ cols + bias`` ([B,F,N]) as a new array, one matmul per band
    of ``band_rows(wo)`` output rows counted from the first column.

    A product of one band or less is one plain ``np.matmul``. Otherwise the
    whole bands go to one ``np.matmul`` over a [B, bands, ...] view, which
    makes the same BLAS call per band as a loop would, for half the time of
    a loop or of one call over all the columns at ``tiny``'s first conv.
    Splitting the last axis of ``cols`` and the result, whose elements are
    adjacent, always gives views.
    """
    b, n = cols.shape[0], cols.shape[-1]
    f = kernel.shape[0]
    step = band_rows(wo) * wo
    if n <= step:
        out = np.matmul(kernel, cols)
    else:
        out = np.empty((b, f, n), np.float32)
        whole = n - n % step
        np.matmul(kernel, cols[..., :whole].reshape(b, -1, whole // step, step).swapaxes(1, 2),
                  out=out[..., :whole].reshape(b, f, whole // step, step).swapaxes(1, 2))
        if whole < n:
            np.matmul(kernel, cols[..., whole:], out=out[..., whole:])
    out += bias[None, :, None]
    return out


def _conv2d_batch(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray,
                  stride: int, pad: int):
    """Batched cross-correlation on raw arrays; returns (out, cols).

    ``x`` is [B,C,H,W], the result [B,F,Ho,Wo]. The product runs in fixed
    bands of output rows, one matmul each (``_banded_product``), so a
    band's bits depend only on its own columns: ``_conv2d_row_blocks``
    recomputes whole bands alone with the same bits. The bits can differ
    in the last place from one matmul over all the columns, as BLAS blocks
    a longer product differently.

    ``cols`` is returned so the training engine can reuse it for the kernel
    gradient. For a 1x1 kernel at stride 1 without padding ``cols`` is a
    view of ``x``, so a cached ``cols`` stays valid only while nothing
    writes ``x``; the training engine never writes a layer's input.
    """
    b = x.shape[0]
    f, _, kh, kw = kernel.shape
    cols, ho, wo = _im2col_batch(x, kh, kw, stride, pad)
    out = _banded_product(kernel.reshape(f, -1), cols, bias, wo)
    return out.reshape(b, f, ho, wo), cols


def _conv2d_bands(runs: Sequence, ho: int, wo: int) -> list:
    """The output rows in ``runs`` (ascending ``[r0, r1)`` pairs) of a
    convolution ``ho`` by ``wo`` outputs, each widened to the edges of the
    matmul bands it touches, with runs that then meet merged: the rows
    ``_conv2d_row_blocks`` computes for them."""
    band = band_rows(wo)
    bands: list = []
    for a, z in runs:
        r0, r1 = a // band * band, min(-(-z // band) * band, ho)
        if bands and r0 <= bands[-1][1]:
            bands[-1] = (bands[-1][0], max(r1, bands[-1][1]))
        else:
            bands.append((r0, r1))
    return bands


def _conv2d_row_blocks(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray,
                       stride: int, pad: int, bands: Sequence) -> list:
    """The output rows in ``bands`` (``_conv2d_bands``'s runs) of
    ``_conv2d_batch(x, ...)``, with its bits, as ``(r0, r1, block)``
    triples: each block a fresh C-contiguous [B,F,r1-r0,Wo] array.

    Each run starts at a band edge and ends at one or at the last row, so
    every band is one matmul of the whole conv's shape, and a row in a
    block only because it shares a band with a changed one has the bits
    the whole conv gives it. Only the input rows the blocks see are read.
    """
    b, c, h, w = x.shape
    f, _, kh, kw = kernel.shape
    wo = conv_output_extent(w, kw, stride, pad)
    blocks = []
    for r0, r1 in bands:
        top, bottom = r0 * stride - pad, (r1 - 1) * stride - pad + kh
        lo, hi = max(top, 0), min(bottom, h)
        rows = np.zeros((b, c, bottom - top, w + 2 * pad), np.float32)
        rows[:, :, lo - top:hi - top, pad:pad + w] = x[:, :, lo:hi]
        cols, _, _ = _im2col_batch(rows, kh, kw, stride, 0)
        block = _banded_product(kernel.reshape(f, -1), cols, bias, wo)
        blocks.append((r0, r1, block.reshape(b, f, r1 - r0, wo)))
    return blocks


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
    """Batched 2x2 max pooling over even [B,C,H,W] extents, in two passes.

    The first pass takes the larger of each row's column pair, the second
    the larger of each pair of those rows, whose inner loops run over
    contiguous memory. np.maximum returns its second operand on a tie (seen
    only between -0.0 and +0.0), so the element earlier in ``_POOL_WINDOW``
    order always goes second, and the first maximum in that order wins.
    """
    cols = np.maximum(x[..., 1::2], x[..., 0::2])
    return np.maximum(cols[:, :, 1::2], cols[:, :, 0::2])


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
