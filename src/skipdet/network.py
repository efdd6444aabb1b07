"""Forward inference and stochastic-gradient training for descriptor nets.

Each layer is a linear part (conv, 2x2 max pool or none), then its
activation if any: a conv's ``act`` or a pointwise layer's ``fn``.
Inference runs one loop, which can record layer outputs and reuse an
earlier record; :func:`forward` states the reuse rule. Training walks
``net.layers`` forward keeping one record per layer, then backward over
the records; there is no general autodiff. Two losses are available:

* ``squared-error``: mean squared difference against a target tensor of the
  output's shape.
* ``detector-composite``: :func:`detector.composite_loss` over a raw head
  output; the detector module owns the head's layout.

With a fixed seed, training is bit-exactly reproducible for one numpy
build on one BLAS kernel. Synapses whose mask is zero are pinned at exactly
zero for the whole run: their gradient is discarded and the mask is
re-applied after every update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import detector
from .netdef import LayerSpec, LayerWeights, NetworkDescriptor, WeightStore
from .tensor import (
    ShapeError,
    Tensor,
    _col2im_batch,
    _conv2d_batch,
    _conv2d_rows,
    _maxpool2_backward,
    _maxpool2_batch,
    _pointwise_grad,
    _pointwise_raw,
)

__all__ = [
    "LOSSES",
    "TrainConfig",
    "TrainingDivergence",
    "evaluate_loss",
    "forward",
    "init_weights",
    "loss_gradients",
    "train_sgd",
]

LOSSES = ("squared-error", "detector-composite")


@dataclass(frozen=True)
class TrainConfig:
    """Plain-SGD settings. ``epochs=0`` makes training a no-op."""

    learning_rate: float
    epochs: int
    batch_size: int = 8
    seed: int = 0
    loss: str = "squared-error"

    def __post_init__(self) -> None:
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning rate must be positive and finite, got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be positive, got {self.batch_size}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}, got {self.loss!r}")


class TrainingDivergence(RuntimeError):
    """Loss became non-finite during training."""

    def __init__(self, epoch: int, loss: float):
        super().__init__(f"training diverged at epoch {epoch}: loss={loss}")
        self.epoch = epoch
        self.loss = loss


# ---------------------------------------------------------------------------
# Forward / backward engine. Weights travel as {layer_index: (kernel, bias)}
# raw float32 arrays so the trainer can update them in place.
# ---------------------------------------------------------------------------

def _weights_map(store: WeightStore) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    return {i: (lw.kernel.data, lw.bias.data) for i, lw in store.items()}


def _activation(layer: LayerSpec) -> Optional[str]:
    """The pointwise function that ends a layer; None if it has none."""
    if layer.kind == "pointwise":
        return layer.fn
    if layer.kind != "conv" or layer.activation == "linear":
        return None
    return "leaky-relu" if layer.activation == "leaky" else layer.activation


def _infer_layer(layer: LayerSpec, weights: dict, i: int, x: np.ndarray) -> np.ndarray:
    """Layer i's inference output; writes only arrays it allocated."""
    fn = _activation(layer)
    if layer.kind == "conv":
        out = _conv2d_batch(x, *weights[i], layer.stride, layer.pad)[0]
        if fn is not None:
            _pointwise_raw(out, fn, layer.alpha, in_place=True)
        return out
    if layer.kind == "maxpool2":
        return _maxpool2_batch(x)
    if layer.kind == "pointwise":
        return _pointwise_raw(x, fn, layer.alpha)
    return x


def _forward_batch(net: NetworkDescriptor, weights: dict, xb: np.ndarray,
                   caches: list) -> np.ndarray:
    """The training forward on a [B,C,H,W] batch: appends layer i's record
    ``(input, cols, pre, post)`` as ``caches[i]`` for backward, where
    ``cols`` is a conv's columns, else None, and ``pre`` the linear part's
    output. ``xb`` is never written."""
    out = xb
    for i, layer in enumerate(net.layers):
        fn = _activation(layer)
        x, cols = out, None
        if layer.kind == "conv":
            pre, cols = _conv2d_batch(x, *weights[i], layer.stride, layer.pad)
        else:
            pre = _maxpool2_batch(x) if layer.kind == "maxpool2" else x
        out = pre if fn is None else _pointwise_raw(pre, fn, layer.alpha)
        caches.append((x, cols, pre, out))
    return out


def _backward_batch(net: NetworkDescriptor, weights: dict, caches: list,
                    grad_out: np.ndarray) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Gradients of every kernel and bias from the per-layer records. Each
    record is dropped once walked, so its arrays are freed before the layers
    below run; layer 0's input gradient is never made, as nothing reads it.
    ``grad_out`` is never written."""
    grads: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    g = grad_out
    for i in reversed(range(len(net.layers))):
        layer = net.layers[i]
        if i == 0 and layer.kind != "conv":
            break
        x, cols, pre, post = caches[i]
        caches[i] = None
        fn = _activation(layer)
        if fn is not None:
            # In place once g is an array this pass made, never grad_out.
            g = np.multiply(g, _pointwise_grad(pre, post, fn, layer.alpha),
                            out=None if g is grad_out else g)
        if layer.kind == "conv":
            kernel = weights[i][0]
            g2 = g.reshape(g.shape[0], g.shape[1], -1)
            dk = np.matmul(g2, cols.transpose(0, 2, 1)).sum(axis=0)
            grads[i] = (dk.reshape(kernel.shape), g2.sum(axis=(0, 2)))
            if i > 0:
                dcols = np.matmul(kernel.reshape(kernel.shape[0], -1).T, g2)
                g = _col2im_batch(dcols, *x.shape[1:], layer.kernel_size,
                                  layer.kernel_size, layer.stride, layer.pad)
        elif layer.kind == "maxpool2":
            g = _maxpool2_backward(g, x, pre)
    return grads


def _rows_seen(layer: LayerSpec, runs: list, out_shape: tuple) -> list:
    """The runs ``(a, b, c0, c1)`` of a layer's output rows ``[a, b)``,
    each with its columns ``[c0, c1)``, that a change in its input runs
    ``runs`` reaches, merged: for a conv, the rows and columns whose windows
    see one, and for a 2x2 max pool, whose windows are two pixels at stride
    2, each run halved in both; runs whose rows meet merge, with the
    columns of both. A pointwise layer or the head keeps its runs."""
    if layer.kind == "conv":
        s, p, k = layer.stride, layer.pad, layer.kernel_size
    elif layer.kind == "maxpool2":
        s, p, k = 2, 0, 2
    else:
        return runs
    ho, wo = out_shape[2], out_shape[3]
    merged: list = []
    for a, b, c0, c1 in runs:
        # The first output whose window reaches a is ceil((a + p - k + 1) / s);
        # conditionals, not max and min, halve this loop's time.
        lo, hi = (a + p - k + s) // s, (b - 1 + p) // s + 1
        left, right = (c0 + p - k + s) // s, (c1 - 1 + p) // s + 1
        lo, left = (lo if lo > 0 else 0), (left if left > 0 else 0)
        hi, right = (hi if hi < ho else ho), (right if right < wo else wo)
        if lo >= hi or left >= right:
            continue
        if merged and lo <= merged[-1][1]:
            m0, m1, n0, n1 = merged[-1]
            merged[-1] = (m0, max(hi, m1), min(left, n0), max(right, n1))
        else:
            merged.append((lo, hi, left, right))
    return merged


def _conv_rows(layer: LayerSpec, weights: dict, i: int, x: np.ndarray,
               was: np.ndarray, runs: list, pooled: bool = False) -> np.ndarray:
    """Conv layer i's output, activation included, or with ``pooled`` the
    output of the 2x2 max pool that reads it next, with the bits a full
    forward gives it. Each rectangle in ``runs`` is one ``_conv2d_rows``
    block, activated; pooled, the block spans twice the rectangle's rows
    and columns and is then pooled. Everything else is copied from ``was``,
    the reference's output, and a block that covers the map is the output."""
    fn, n = _activation(layer), 2 if pooled else 1
    blocks = []
    for run in runs:
        block = _conv2d_rows(x, *weights[i], layer.stride, layer.pad, *[n * v for v in run])[0]
        if fn is not None:
            _pointwise_raw(block, fn, layer.alpha, in_place=True)
        blocks.append(_maxpool2_batch(block) if pooled else block)
    if blocks[0].shape == was.shape:
        return blocks[0]
    # Made after the blocks: made after the first block only, tiny's first
    # conv read 4-5 us slower on a reused forward. One copy of the whole
    # record, then the blocks, took half the time of copying around them.
    out = was.copy()
    for (r0, r1, c0, c1), block in zip(runs, blocks):
        out[:, :, r0:r1, c0:c1] = block
    return out


def _pooled_convs(net: NetworkDescriptor) -> set:
    """The convs that a 2x2 max pool reads next: a reused forward runs each
    with its pool (``_conv_rows``), and a record keeps None in its place."""
    layers = net.layers
    return {i for i in range(len(layers) - 1)
            if layers[i].kind == "conv" and layers[i + 1].kind == "maxpool2"}


def _changed_rows(x: np.ndarray, was: np.ndarray) -> list:
    """The runs ``(a, b, c0, c1)`` of rows ``[a, b)`` in which two [B,C,H,W]
    arrays differ in any bit, so that -0.0 and +0.0 differ, each with the
    columns ``[c0, c1)`` from its first to its last differing one."""
    b, c, h, w = x.shape
    differ = np.not_equal(x.view(np.uint32), was.view(np.uint32)).reshape(b * c, h * w)
    pixels = np.logical_or.reduce(differ, axis=0).reshape(h, w)
    changed = np.zeros(h + 2, np.int8)
    changed[1:-1] = pixels.any(axis=1)
    edges = np.flatnonzero(changed[1:] != changed[:-1]).tolist()
    runs = []
    for a, z in zip(edges[0::2], edges[1::2]):
        cols = pixels[a:z].any(axis=0)
        runs.append((a, z, int(cols.argmax()), w - int(cols[::-1].argmax())))
    return runs


def _infer(net: NetworkDescriptor, weights: dict, xb: np.ndarray,
           record: Optional[list] = None,
           reference: Optional[Sequence] = None) -> np.ndarray:
    """The network on a [B,C,H,W] batch, for inference: see :func:`forward`
    for ``record`` and ``reference``. Each conv's columns are dropped after
    its matmul and its activation is written into its own fresh output, so
    the transient heap stays under the allocator's trim point and is not
    faulted in again on every call (about 500 minor faults per ``tiny``
    forward). ``xb`` is never written."""
    runs = None if reference is None else _changed_rows(xb, reference[0])
    pooled = () if record is None and runs is None else _pooled_convs(net)
    out = xb
    if record is not None:
        out = xb.view()
        out.flags.writeable = False
        record.append(out)
    for i, layer in enumerate(net.layers):
        if runs is None:
            out = _infer_layer(layer, weights, i, out)
        elif i in pooled:
            # Run with its pool at i + 1; ``out`` stays this conv's input.
            h, w = reference[i + 2].shape[2:]
            runs = _rows_seen(layer, runs, (1, 1, 2 * h, 2 * w))
        else:
            was = reference[i + 1]
            runs = _rows_seen(layer, runs, was.shape)
            if not runs:
                out = was
            elif i - 1 in pooled:
                out = _conv_rows(net.layers[i - 1], weights, i - 1, out, was, runs, pooled=True)
            elif layer.kind == "conv":
                out = _conv_rows(layer, weights, i, out, was, runs)
            else:
                out = _infer_layer(layer, weights, i, out)
        if record is not None:
            out.flags.writeable = False
            record.append(None if i in pooled else out)
    return out


def forward(net: NetworkDescriptor, store: WeightStore, x: Tensor, *,
            record: Optional[list] = None,
            reference: Optional[Sequence[np.ndarray]] = None) -> Tensor:
    """Run the network on one [C,H,W] input.

    Deterministic: identical inputs, weights, and masks produce bit-identical
    outputs. Masked synapses are zero in the store and so contribute exactly
    zero. The store and the input shape are checked here; the layers are
    not, because the descriptor proved their shapes when it was built. A
    non-finite output raises ``ValueError``. Activations are applied in
    place on buffers the forward itself allocated; ``x`` and the store are
    never written.

    ``record``, a list, gets the input and each layer's output as read-only
    [1,C,H,W] arrays, but None in place of each conv's output that a 2x2
    max pool reads next, full forward or reused; the returned tensor views
    the last. Passing an earlier call's record as ``reference`` reuses it. This is the one
    statement of the reuse rule:

    * The input is compared with the record's own input, ``reference[0]``,
      bit for bit, so -0.0 and +0.0 differ; a pixel is unchanged only when
      all its bits are equal, as in the noise-free clips the benchmark
      streams. Each run of rows with a changed pixel is one rectangle:
      those rows, and the columns from the run's first changed pixel to its
      last.
    * The rectangles are walked through the layers as they run: a conv's
      are the outputs whose windows see one, a 2x2 pool halves them, and a
      pointwise layer or the head keeps them; rectangles whose rows meet
      merge into one that spans the columns of both. A layer that no
      rectangle reaches returns the recorded output, and a reached
      pointwise layer, head, or pool that no conv feeds directly runs its
      plain kernel. A reached conv runs its one kernel,
      ``tensor._conv2d_rows``, over each rectangle as it is. A conv that a
      2x2 pool reads next runs with it instead: over each of the pool's
      rectangles doubled in rows and columns, the whole windows the pool
      reads, it runs that kernel, activates the block and pools it, so its
      whole output is never built. Everything else is copied from the
      record, and a rectangle that covers the map is the layer's output.
    * The output has the bits of a full forward where the ``tensor``
      module's bit rule holds: a full forward runs the same kernels over
      the whole map, a max is exact, and every conv product, whole or in a rectangle, runs
      in BLAS calls of ``tensor.CALL_COLUMNS`` columns counted from its
      first, the last padded to whole 16-column groups. The rule held on
      the OpenBLAS SkylakeX kernel (also run for Cooperlake and
      SapphireRapids), Sandybridge, Nehalem and Katmai kernels and fails
      on the Haswell kernel (also run for Zen), which OpenBLAS picks on
      AVX2 cores without AVX-512; there a reused forward's bits can differ
      from a full one's. With no changed pixel the output is the recorded
      output. Any record made with the same ``net`` and ``store`` will do,
      whichever input it was made from; only its shapes are checked.
    * With noise in every row every layer runs over its whole map after
      the compare: over the 36 reused forwards of a noisy clip (``synth
      noise=0.015``) a reused forward took 12-15% longer than one without
      ``record`` or ``reference`` (three in-process A/B runs on one pinned
      CPU; 711 against 616 us in one).

    A ``tiny`` record holds about 140 KB besides its input.
    """
    store.validate_for(net)
    if x.shape != net.input_shape:
        raise ShapeError(f"input shape {x.shape} does not match network input {net.input_shape}")
    if reference is not None:
        pooled = _pooled_convs(net)
        shapes = [None if i - 1 in pooled else (1,) + s
                  for i, s in enumerate([net.input_shape] + net.layer_shapes())]
        got = [getattr(r, "shape", None) for r in reference]
        if got != shapes:
            raise ShapeError(f"reference record of shapes {got} "
                             f"does not match the network's {shapes}")
    return Tensor(_infer(net, _weights_map(store), x.data[None], record, reference)[0])


def init_weights(net: NetworkDescriptor, seed: int = 0) -> WeightStore:
    """Deterministic initial weights: He-scale signed-constant kernels.

    Every kernel entry gets the layer's He magnitude with a random sign,
    which trains as well as Gaussian init here while keeping weight
    magnitudes commensurate, so magnitude-based pruning stays meaningful.
    Biases start at zero, except that the conv layer feeding a detect-head
    gets the objectness prior of :func:`detector.init_objectness_bias`.
    """
    rng = np.random.default_rng(seed)
    conv_indices = net.conv_indices()
    head = net.detect_head()
    head_conv = max(conv_indices) if head is not None and conv_indices else None
    layers = {}
    for i in conv_indices:
        layer = net.layers[i]
        shape = layer.kernel_shape
        std = np.sqrt(2.0 / (shape[1] * shape[2] * shape[3]))
        kernel = (std * np.sign(rng.random(shape) - 0.5)).astype(np.float32)
        bias = np.zeros(shape[0], dtype=np.float32)
        if i == head_conv:
            detector.init_objectness_bias(bias, head.anchors)
        layers[i] = LayerWeights(Tensor(kernel), Tensor(bias))
    return WeightStore(layers)


# ---------------------------------------------------------------------------
# Losses. Each returns (scalar loss, gradient w.r.t. the raw output batch).
# ---------------------------------------------------------------------------

def _squared_error(pred: np.ndarray, target: np.ndarray):
    with np.errstate(over="ignore", invalid="ignore"):
        diff = pred - target
        loss = float(np.mean(diff.astype(np.float64) ** 2))
        grad = (np.float32(2.0 / diff.size) * diff).astype(np.float32)
    return loss, grad


def _loss_fn(net: NetworkDescriptor, loss: str):
    if loss not in LOSSES:
        raise ValueError(f"loss must be one of {LOSSES}, got {loss!r}")
    if loss == "squared-error":
        return _squared_error
    head = net.detect_head()
    if head is None:
        raise ValueError("detector-composite loss requires a detect-head layer")
    return lambda p, t: detector.composite_loss(p, t, head.anchors)


def _stack_dataset(net: NetworkDescriptor, dataset: Sequence[tuple[Tensor, Tensor]]):
    if not dataset:
        raise ValueError("dataset must be non-empty")
    out_shape = net.output_shape
    for n, (x, t) in enumerate(dataset):
        if x.shape != net.input_shape:
            raise ShapeError(
                f"dataset item {n}: input shape {x.shape} != network input {net.input_shape}")
        if t.shape != out_shape:
            raise ShapeError(
                f"dataset item {n}: target shape {t.shape} != network output {out_shape}")
    xs = np.stack([x.data for x, _ in dataset])
    ts = np.stack([t.data for _, t in dataset])
    return xs, ts


def evaluate_loss(net: NetworkDescriptor, store: WeightStore,
                  dataset: Sequence[tuple[Tensor, Tensor]], loss: str) -> float:
    """Mean loss of the network over a dataset, without touching weights."""
    store.validate_for(net)
    xs, ts = _stack_dataset(net, dataset)
    out = _infer(net, _weights_map(store), xs)
    return _loss_fn(net, loss)(out, ts)[0]


def _batch_gradients(net: NetworkDescriptor, weights: dict, xb: np.ndarray,
                     tb: np.ndarray, loss_fn):
    """One batch's loss and gradients: forward, loss, backward."""
    caches: list = []
    with np.errstate(over="ignore", invalid="ignore"):
        value, grad_out = loss_fn(_forward_batch(net, weights, xb, caches), tb)
        return value, _backward_batch(net, weights, caches, grad_out)


def loss_gradients(net: NetworkDescriptor, store: WeightStore,
                   dataset: Sequence[tuple[Tensor, Tensor]], loss: str):
    """Loss and its analytic gradients per conv layer: {index: (dk, db)}."""
    store.validate_for(net)
    xs, ts = _stack_dataset(net, dataset)
    return _batch_gradients(net, _weights_map(store), xs, ts, _loss_fn(net, loss))


def train_sgd(net: NetworkDescriptor, store: WeightStore,
              dataset: Sequence[tuple[Tensor, Tensor]], cfg: TrainConfig) -> WeightStore:
    """Plain stochastic gradient descent; returns a new weight store.

    Samples are shuffled each epoch from the config seed. Raises
    :class:`TrainingDivergence` when a batch loss stops being finite.
    """
    store.validate_for(net)
    xs, ts = _stack_dataset(net, dataset)
    if cfg.epochs == 0:
        return store
    loss_fn = _loss_fn(net, cfg.loss)
    work = {i: (lw.kernel.data.copy(), lw.bias.data.copy()) for i, lw in store.items()}
    masks = {i: lw.mask for i, lw in store.items() if lw.mask is not None}
    for i, mask in masks.items():
        work[i][0][mask == 0] = 0.0
    rng = np.random.default_rng(cfg.seed)
    lr = np.float32(cfg.learning_rate)
    n = xs.shape[0]
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            chunk = order[start:start + cfg.batch_size]
            value, grads = _batch_gradients(net, work, xs[chunk], ts[chunk], loss_fn)
            if not np.isfinite(value):
                raise TrainingDivergence(epoch, value)
            with np.errstate(over="ignore", invalid="ignore"):
                for i, (dk, db) in grads.items():
                    kernel, bias = work[i]
                    kernel -= lr * dk
                    bias -= lr * db
                    if i in masks:
                        kernel[masks[i] == 0] = 0.0
    return WeightStore({i: LayerWeights(Tensor(kernel), Tensor(bias), masks.get(i))
                        for i, (kernel, bias) in work.items()})
