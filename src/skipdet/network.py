"""Forward inference and stochastic-gradient training for descriptor nets.

Backpropagation covers exactly the layer set used here (conv, pointwise,
maxpool2, detect-head); there is no general autodiff. Two losses are
available:

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


def _conv_fn(layer: LayerSpec) -> Optional[str]:
    """The pointwise function of a conv's activation; None for linear."""
    if layer.activation == "linear":
        return None
    return "leaky-relu" if layer.activation == "leaky" else layer.activation


def _forward_batch(net: NetworkDescriptor, weights: dict, xb: np.ndarray,
                   caches: Optional[list] = None) -> np.ndarray:
    """The network on a [B,C,H,W] batch; ``caches`` collects what backward needs.

    Without caches (inference) each conv's im2col columns are dropped after
    its matmul and its activation is written into the conv's own fresh
    output. The transient heap then stays under the allocator's trim point,
    so it is kept from one call to the next instead of being returned to
    the OS and faulted in again (about 500 minor faults per ``tiny``
    forward). Training keeps columns, pre- and post-activation. ``xb`` is
    never written.
    """
    out = xb
    for i, layer in enumerate(net.layers):
        if layer.kind == "conv":
            kernel, bias = weights[i]
            fn = _conv_fn(layer)
            if caches is None:
                out = _conv2d_batch(out, kernel, bias, layer.stride, layer.pad)[0]
                if fn is not None:
                    _pointwise_raw(out, fn, layer.alpha, in_place=True)
            else:
                pre, cols = _conv2d_batch(out, kernel, bias, layer.stride, layer.pad)
                post = pre if fn is None else _pointwise_raw(pre, fn, layer.alpha)
                caches.append(("conv", i, out.shape, cols, pre, post))
                out = post
        elif layer.kind == "maxpool2":
            pooled = _maxpool2_batch(out)
            if caches is not None:
                caches.append(("maxpool2", i, out, pooled))
            out = pooled
        elif layer.kind == "pointwise":
            post = _pointwise_raw(out, layer.fn, layer.alpha)
            if caches is not None:
                caches.append(("pointwise", i, out, post))
            out = post
        elif caches is not None:  # detect-head
            caches.append(("detect-head", i))
    return out


def _backward_batch(net: NetworkDescriptor, weights: dict, caches: list,
                    grad_out: np.ndarray) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Gradients of the loss w.r.t. every kernel and bias.

    The input gradient of the earliest layer is never materialized since
    nothing consumes it.
    """
    grads: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    g = grad_out
    for pos, cache in enumerate(reversed(caches)):
        is_first = pos == len(caches) - 1
        kind = cache[0]
        if kind == "conv":
            _, i, in_shape, cols, pre, post = cache
            layer = net.layers[i]
            fn = _conv_fn(layer)
            if fn is not None:
                g = g * _pointwise_grad(pre, post, fn, layer.alpha)
            b, f = g.shape[0], g.shape[1]
            g2 = g.reshape(b, f, -1)
            dk = np.matmul(g2, cols.transpose(0, 2, 1)).sum(axis=0)
            db = g2.sum(axis=(0, 2))
            kernel, _ = weights[i]
            grads[i] = (dk.reshape(kernel.shape), db)
            if not is_first:
                dcols = np.matmul(kernel.reshape(f, -1).T, g2)
                g = _col2im_batch(dcols, in_shape[1], in_shape[2], in_shape[3],
                                  layer.kernel_size, layer.kernel_size,
                                  layer.stride, layer.pad)
        elif kind == "maxpool2":
            _, i, x, pooled = cache
            if not is_first:
                g = _maxpool2_backward(g, x, pooled)
        elif kind == "pointwise":
            _, i, pre, post = cache
            layer = net.layers[i]
            if not is_first:
                g = g * _pointwise_grad(pre, post, layer.fn, layer.alpha)
        # detect-head: identity
    return grads


def forward(net: NetworkDescriptor, store: WeightStore, x: Tensor) -> Tensor:
    """Run the network on one [C,H,W] input.

    Deterministic: identical inputs, weights, and masks produce bit-identical
    outputs. Masked synapses are zero in the store and so contribute exactly
    zero. The store and the input shape are checked here; the layers are
    not, because the descriptor proved their shapes when it was built. A
    non-finite output raises ``ValueError``. Activations are applied in
    place on buffers the forward itself allocated; ``x`` and the store are
    never written.
    """
    store.validate_for(net)
    if x.shape != net.input_shape:
        raise ShapeError(f"input shape {x.shape} does not match network input {net.input_shape}")
    out = _forward_batch(net, _weights_map(store), x.data[None])
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
    value, _ = _loss_fn(net, loss)(out, ts)
    return value


def loss_gradients(net: NetworkDescriptor, store: WeightStore,
                   dataset: Sequence[tuple[Tensor, Tensor]], loss: str):
    """Loss and its analytic gradients per conv layer: {index: (dk, db)}."""
    store.validate_for(net)
    xs, ts = _stack_dataset(net, dataset)
    weights = _weights_map(store)
    caches: list = []
    out = _forward_batch(net, weights, xs, caches)
    value, grad_out = _loss_fn(net, loss)(out, ts)
    grads = _backward_batch(net, weights, caches, grad_out)
    return value, grads


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
            caches: list = []
            with np.errstate(over="ignore", invalid="ignore"):
                out = _forward_batch(net, work, xs[chunk], caches)
                value, grad_out = loss_fn(out, ts[chunk])
            if not np.isfinite(value):
                raise TrainingDivergence(epoch, value)
            with np.errstate(over="ignore", invalid="ignore"):
                grads = _backward_batch(net, work, caches, grad_out)
                for i, (dk, db) in grads.items():
                    kernel, bias = work[i]
                    kernel -= lr * dk
                    bias -= lr * db
                    mask = masks.get(i)
                    if mask is not None:
                        kernel[mask == 0] = 0.0
    layers = {}
    for i, lw in store.items():
        kernel, bias = work[i]
        layers[i] = LayerWeights(Tensor(kernel), Tensor(bias), masks.get(i))
    return WeightStore(layers)
