"""Forward inference and stochastic-gradient training for descriptor nets.

Each layer is a linear part (conv, 2x2 max pool or none), then its
activation if any: a conv's ``act`` or a pointwise layer's ``fn``.
Inference can record every layer's output and, given an earlier record,
recompute only the rows a changed input row reaches (see :func:`forward`),
with the bits of a full forward. Training
walks ``net.layers`` forward keeping one record per layer, then backward
over the records; there is no general autodiff. Two losses are available:

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
    _conv2d_bands,
    _conv2d_row_blocks,
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
                   caches: Optional[list] = None) -> np.ndarray:
    """The network on a [B,C,H,W] batch; ``caches`` collects what backward needs.

    Training appends layer i's record ``(input, cols, pre, post)`` as
    ``caches[i]``: ``cols`` is a conv's columns, else None, and ``pre`` the
    linear part's output. Inference drops each conv's columns after its
    matmul and writes its activation into the conv's own fresh output, so
    the transient heap stays under the allocator's trim point and is not
    faulted in again on every call (about 500 minor faults per ``tiny``
    forward). ``xb`` is never written.
    """
    out = xb
    for i, layer in enumerate(net.layers):
        if caches is None:
            out = _infer_layer(layer, weights, i, out)
            continue
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
    below run; layer 0's input gradient is never made, as nothing reads it."""
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
            g = g * _pointwise_grad(pre, post, fn, layer.alpha)
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


def _rows_seen(layer: LayerSpec, runs: list, out_shape: tuple, pools: int = 0) -> list:
    """The runs ``[a, b)`` of a conv's output rows whose windows see a row
    in ``runs``, merged. ``runs`` may count rows before the ``pools`` 2x2
    max pools that precede the conv, each of which halves a run; a
    pointwise layer keeps its runs. The conv also recomputes the rest of
    the matmul bands these rows touch (``_conv2d_bands``), with the
    bits they already had."""
    s, p, k, ho = layer.stride, layer.pad, layer.kernel_size, out_shape[2]
    merged: list = []
    for a, b in runs:
        a, b = a >> pools, ((b - 1) >> pools) + 1
        lo, hi = max(-(-(a + p - k + 1) // s), 0), min((b - 1 + p) // s + 1, ho)
        if lo >= hi:
            continue
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    return merged


def _conv_rows(layer: LayerSpec, weights: dict, i: int, x: np.ndarray,
               was: np.ndarray, bands: list) -> np.ndarray:
    """Conv layer i's output, activation included, with the bits
    ``_forward_batch`` gives it: the rows in ``bands`` (matmul bands, as
    ``_conv2d_bands`` gives them) are computed and activated as fresh
    blocks, and the other rows are copied from ``was``, the reference's
    output."""
    fn = _activation(layer)
    out = np.empty_like(was)
    done = 0
    for r0, r1, block in _conv2d_row_blocks(x, *weights[i], layer.stride, layer.pad, bands):
        if fn is not None:
            _pointwise_raw(block, fn, layer.alpha, in_place=True)
        out[:, :, done:r0] = was[:, :, done:r0]
        out[:, :, r0:r1] = block
        done = r1
    out[:, :, done:] = was[:, :, done:]
    return out


def _reuse_plan(net: NetworkDescriptor, runs: list, reference: Sequence) -> list:
    """Per layer, what a reusing forward computes, given the ``runs`` of
    input rows that changed: ``[]`` where no changed row reaches the layer,
    whose output is then the reference's; None where it runs its plain
    kernel, as a pool, a pointwise layer, the head and a conv whose bands
    cover its map do; else the matmul bands a conv computes. The changed
    rows are carried to the next conv, which halves them once per pool
    between (``_rows_seen``)."""
    plan, pools = [], 0
    for layer, was in zip(net.layers, reference[1:]):
        if runs and layer.kind == "conv":
            runs, pools = _rows_seen(layer, runs, was.shape, pools), 0
        if not runs:
            plan.append([])
        elif layer.kind == "conv":
            bands = _conv2d_bands(runs, was.shape[2], was.shape[3])
            plan.append(None if bands == [(0, was.shape[2])] else bands)
        else:
            plan.append(None)
            pools += layer.kind == "maxpool2"
    return plan


def _changed_rows(x: np.ndarray, was: np.ndarray) -> list:
    """The runs ``[a, b)`` of rows in which two [B,C,H,W] arrays differ in
    any bit, so that -0.0 and +0.0 differ."""
    b, c, h, w = x.shape
    differ = np.not_equal(x.view(np.uint32), was.view(np.uint32)).reshape(b * c, h * w)
    changed = np.zeros(h + 2, np.int8)
    changed[1:-1] = np.logical_or.reduce(differ, axis=0).reshape(h, w).any(axis=1)
    edges = np.flatnonzero(changed[1:] != changed[:-1]).tolist()
    return list(zip(edges[0::2], edges[1::2]))


def _reusing_forward(net: NetworkDescriptor, weights: dict, xb: np.ndarray,
                     record: list, reference: Optional[Sequence]) -> np.ndarray:
    """Inference that appends its input and each layer's output to
    ``record``, all read-only. With a ``reference`` record, each layer
    does what ``_reuse_plan`` gives it: a layer no changed input row
    reaches is the reference's output, one that must compute its whole map
    runs its plain kernel, which gives the bits of recomputing its changed
    rows without a copy of the reference, and a conv computes only its
    planned bands (``_conv_rows``)."""
    if reference is None:
        plan = [None] * len(net.layers)
    else:
        plan = _reuse_plan(net, _changed_rows(xb, reference[0]), reference)
    out = xb.view()
    out.flags.writeable = False
    record.append(out)
    for i, (layer, bands) in enumerate(zip(net.layers, plan)):
        if bands is None:
            out = _infer_layer(layer, weights, i, out)
        elif not bands:
            out = reference[i + 1]
        else:
            out = _conv_rows(layer, weights, i, out, reference[i + 1], bands)
        out.flags.writeable = False
        record.append(out)
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
    [1,C,H,W] arrays; the returned tensor views the last. Passing an
    earlier call's record as ``reference`` reuses it. A layer that no input
    row whose bits differ from the recorded input's can reach returns the
    recorded output. A conv computes only the matmul bands holding the
    rows such an input row reaches (its window rows, halved by each pool
    on the way, kept by a pointwise layer) and copies its other rows from
    the record; a band's other rows keep their bits. A conv whose bands
    cover its map, and every pool and pointwise layer, runs its plain
    kernel. The output has the bits of a full forward, and with no changed
    row it is the recorded output. Rows count as unchanged only when their
    bits are equal, as in the noise-free clips the benchmark streams. With
    noise in every row every layer runs its plain kernel after the compare:
    over the 36 reused forwards of a noisy clip (``synth noise=0.015``) a
    reused forward took 12-15% longer than one without ``record`` or
    ``reference`` (three in-process A/B runs on one pinned CPU; 711 against
    616 us in one). The reference must come
    from the same ``net`` and ``store``; only its shapes are checked. A
    ``tiny`` record holds about 0.7 MB besides its input.
    """
    store.validate_for(net)
    if x.shape != net.input_shape:
        raise ShapeError(f"input shape {x.shape} does not match network input {net.input_shape}")
    weights = _weights_map(store)
    if record is None and reference is None:
        return Tensor(_forward_batch(net, weights, x.data[None])[0])
    if reference is not None:
        shapes = [(1,) + s for s in [net.input_shape] + net.layer_shapes()]
        if [r.shape for r in reference] != shapes:
            raise ShapeError(f"reference record of shapes {[r.shape for r in reference]} "
                             f"does not match the network's {shapes}")
    out = _reusing_forward(net, weights, x.data[None], [] if record is None else record,
                           reference)
    return Tensor(out[0])


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
    out = _forward_batch(net, _weights_map(store), xs)
    return _loss_fn(net, loss)(out, ts)[0]


def _batch_gradients(net: NetworkDescriptor, weights: dict, xb: np.ndarray,
                     tb: np.ndarray, loss_fn, finite_only: bool = False):
    """One batch's loss and gradients (None, skipping the backward pass, if
    ``finite_only`` and the loss is not finite): forward, loss, backward."""
    caches: list = []
    with np.errstate(over="ignore", invalid="ignore"):
        value, grad_out = loss_fn(_forward_batch(net, weights, xb, caches), tb)
        if finite_only and not np.isfinite(value):
            return value, None
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
            value, grads = _batch_gradients(net, work, xs[chunk], ts[chunk], loss_fn,
                                            finite_only=True)
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
