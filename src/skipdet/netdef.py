"""Architecture descriptors, sparsity masks, parameter/FLOP accounting, and
the FNET v1 container format.

FNET v1 layout
--------------
A text header followed by optional binary sections::

    FNET v1\\n
    name=<string>\\n
    input=<channels>,<height>,<width>\\n
    layers=<count>\\n
    layer.<i>=<kind>;<key>=<value>;...    one line per layer, i ascending
    WEIGHTS\\n                            present iff weights are stored
    <float32 little-endian values>
    MASKS\\n                              present iff any layer line says mask=1
    <packed mask bits>

The weight bytes hold, for every conv layer in layer order, the kernel
values in row-major order followed by the bias values. Mask bytes hold one
bit per kernel value (1 = synapse present), packed 8 per byte least
significant bit first, each layer padded to a byte boundary; only layers
flagged ``mask=1`` contribute. Round-trips are bit-exact by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Optional

import numpy as np

from .tensor import POINTWISE_FNS, ShapeError, Tensor, conv_output_extent

__all__ = [
    "CONV_ACTIVATIONS",
    "FnetFormatError",
    "LayerSpec",
    "LayerWeights",
    "NetworkDescriptor",
    "WeightStore",
    "count_flops",
    "count_params",
    "decode_network",
    "effective_flops",
    "encode_network",
    "load_network",
    "save_network",
]

CONV_ACTIVATIONS = ("linear", "leaky", "sigmoid", "tanh")


@dataclass(frozen=True)
class LayerSpec:
    """One layer of an architecture.

    ``kind`` is one of ``conv``, ``maxpool2``, ``pointwise`` or
    ``detect-head``; only the fields relevant to the kind are meaningful.
    ``alpha``, stored as a Python float, is the leaky slope for conv
    activations and leaky-relu pointwise layers. A detect-head relabels a
    ``[A*(5+C), S, S]`` tensor as a detection grid and carries no weights.
    """

    kind: str
    in_channels: int = 0
    out_channels: int = 0
    kernel_size: int = 0
    stride: int = 1
    pad: int = 0
    activation: str = "linear"
    alpha: float = 0.1
    fn: str = "abs"
    grid: int = 0
    anchors: int = 0
    classes: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        object.__setattr__(self, "alpha", float(self.alpha))
        if self.kind == "conv":
            if min(self.in_channels, self.out_channels, self.kernel_size, self.stride) < 1:
                raise ValueError(f"conv layer extents must be positive: {self}")
            if self.pad < 0:
                raise ValueError(f"conv pad must be non-negative: {self}")
            if self.activation not in CONV_ACTIVATIONS:
                raise ValueError(
                    f"conv activation must be one of {CONV_ACTIVATIONS}, got {self.activation!r}")
        elif self.kind == "pointwise":
            if self.fn not in POINTWISE_FNS:
                raise ValueError(f"pointwise fn must be one of {POINTWISE_FNS}, got {self.fn!r}")
        elif self.kind == "detect-head":
            if min(self.grid, self.anchors, self.classes) < 1:
                raise ValueError(f"detect-head extents must be positive: {self}")
        elif self.kind != "maxpool2":
            raise ValueError(f"unknown layer kind {self.kind!r}")

    @staticmethod
    def conv(in_channels: int, out_channels: int, kernel_size: int,
             stride: int = 1, pad: int = 0, activation: str = "linear",
             alpha: float = 0.1) -> "LayerSpec":
        return LayerSpec("conv", in_channels=in_channels, out_channels=out_channels,
                         kernel_size=kernel_size, stride=stride, pad=pad,
                         activation=activation, alpha=alpha)

    @staticmethod
    def maxpool2() -> "LayerSpec":
        return LayerSpec("maxpool2")

    @staticmethod
    def pointwise(fn: str, alpha: float = 0.1) -> "LayerSpec":
        return LayerSpec("pointwise", fn=fn, alpha=alpha)

    @staticmethod
    def detect_head(grid: int, anchors: int, classes: int) -> "LayerSpec":
        return LayerSpec("detect-head", grid=grid, anchors=anchors, classes=classes)

    @property
    def kernel_shape(self) -> tuple[int, int, int, int]:
        if self.kind != "conv":
            raise ValueError(f"{self.kind} layers have no kernel")
        return (self.out_channels, self.in_channels, self.kernel_size, self.kernel_size)


def _propagate(shape: tuple[int, int, int], layer: LayerSpec, index: int) -> tuple[int, int, int]:
    c, h, w = shape
    if layer.kind == "conv":
        if c != layer.in_channels:
            raise ShapeError(
                f"layer {index} (conv): expects {layer.in_channels} input "
                f"channels but receives {c}")
        ho = conv_output_extent(h, layer.kernel_size, layer.stride, layer.pad)
        wo = conv_output_extent(w, layer.kernel_size, layer.stride, layer.pad)
        if ho < 1 or wo < 1:
            raise ShapeError(f"layer {index} (conv): non-positive output extent {ho}x{wo}")
        return (layer.out_channels, ho, wo)
    if layer.kind == "maxpool2":
        if h % 2 or w % 2:
            raise ShapeError(f"layer {index} (maxpool2): odd spatial extent {h}x{w}")
        return (c, h // 2, w // 2)
    if layer.kind == "pointwise":
        return shape
    # detect-head: pure relabeling, shape must already match the grid.
    expected = (layer.anchors * (5 + layer.classes), layer.grid, layer.grid)
    if shape != expected:
        raise ShapeError(
            f"layer {index} (detect-head): expects input shape {expected} "
            f"for S={layer.grid}, A={layer.anchors}, C={layer.classes}, got {shape}")
    return shape


@dataclass(frozen=True)
class NetworkDescriptor:
    """Named, ordered layer list with a declared input shape.

    Construction validates that the input shape propagates through every
    layer without contradiction, and keeps the shapes it proves. An empty
    layer list is permitted so that counting functions have a well-defined
    zero case.
    """

    name: str
    input_shape: tuple[int, int, int]
    layers: tuple[LayerSpec, ...]
    _shapes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name or any(ch in self.name for ch in "\n\r="):
            raise ValueError(f"descriptor name must be non-empty without '=' or newlines: {self.name!r}")
        object.__setattr__(self, "input_shape", tuple(int(d) for d in self.input_shape))
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "_shapes", tuple(self._propagate_from(self.input_shape)))

    def _propagate_from(self, input_shape: tuple) -> list[tuple[int, int, int]]:
        shape = tuple(int(d) for d in input_shape)
        if len(shape) != 3 or min(shape) < 1:
            raise ShapeError(f"input shape must be 3 positive extents, got {shape}")
        shapes = []
        for i, layer in enumerate(self.layers):
            shape = _propagate(shape, layer, i)
            shapes.append(shape)
        return shapes

    def layer_shapes(self, input_shape: Optional[tuple] = None) -> list[tuple[int, int, int]]:
        """Output shape after each layer, from ``input_shape``, validating
        compatibility; by default a copy of the shapes proved at
        construction for the declared input."""
        if input_shape is None:
            return list(self._shapes)
        return self._propagate_from(input_shape)

    @property
    def output_shape(self) -> tuple[int, int, int]:
        return self._shapes[-1] if self._shapes else self.input_shape

    def conv_indices(self) -> list[int]:
        return [i for i, layer in enumerate(self.layers) if layer.kind == "conv"]

    def detect_head(self) -> Optional[LayerSpec]:
        for layer in self.layers:
            if layer.kind == "detect-head":
                return layer
        return None


@dataclass(frozen=True, eq=False)
class LayerWeights:
    """Kernel, bias, and optional binary mask for one conv layer.

    The mask has the kernel's shape with values in {0,1}; the kernel is
    exactly zero wherever the mask is zero. Biases are never masked. The
    mask kept is a read-only copy, so a caller that changes its own array
    afterwards changes neither the weights nor their parameter count.
    """

    kernel: Tensor
    bias: Tensor
    mask: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.kernel.data.ndim != 4:
            raise ShapeError(f"kernel must be rank 4, got shape {self.kernel.shape}")
        if self.bias.data.ndim != 1 or self.bias.shape[0] != self.kernel.shape[0]:
            raise ShapeError(
                f"bias shape {self.bias.shape} does not match kernel filters {self.kernel.shape[0]}")
        if self.mask is not None:
            mask = np.array(self.mask, dtype=np.uint8, order="C")
            if mask.shape != self.kernel.shape:
                raise ShapeError(f"mask shape {mask.shape} != kernel shape {self.kernel.shape}")
            if not np.isin(mask, (0, 1)).all():
                raise ValueError("mask values must be 0 or 1")
            if np.any(self.kernel.data[mask == 0] != 0.0):
                raise ValueError("kernel must be zero wherever the mask is zero")
            mask.flags.writeable = False
            object.__setattr__(self, "mask", mask)

    def param_count(self) -> int:
        kernels = int(self.mask.sum()) if self.mask is not None else self.kernel.size
        return kernels + self.bias.size

    def masked_with(self, mask: np.ndarray) -> "LayerWeights":
        """New weights with ``mask`` applied; masked kernel entries become 0."""
        mask = np.asarray(mask, dtype=np.uint8)
        kernel = Tensor(self.kernel.data * mask)
        return LayerWeights(kernel, self.bias, mask)


class WeightStore:
    """Weights for the conv layers of a descriptor, keyed by layer index.

    Stores are treated as immutable values after construction; training and
    evolution return new stores.
    """

    def __init__(self, layers: Mapping[int, LayerWeights]):
        self._layers = {int(k): v for k, v in sorted(layers.items())}

    def __contains__(self, index: int) -> bool:
        return index in self._layers

    def __getitem__(self, index: int) -> LayerWeights:
        return self._layers[index]

    def __len__(self) -> int:
        return len(self._layers)

    def indices(self) -> list[int]:
        return list(self._layers)

    def items(self) -> Iterator[tuple[int, LayerWeights]]:
        return iter(self._layers.items())

    def has_masks(self) -> bool:
        return any(lw.mask is not None for lw in self._layers.values())

    def validate_for(self, net: NetworkDescriptor) -> None:
        """Check completeness and shape agreement against a descriptor."""
        for i in net.conv_indices():
            layer = net.layers[i]
            if i not in self._layers:
                raise ShapeError(f"layer {i} (conv): no weights in store")
            lw = self._layers[i]
            if lw.kernel.shape != layer.kernel_shape:
                raise ShapeError(
                    f"layer {i} (conv): kernel shape {lw.kernel.shape} does not "
                    f"match descriptor {layer.kernel_shape}")

    def with_masks(self, masks: Mapping[int, np.ndarray]) -> "WeightStore":
        layers = dict(self._layers)
        for idx, mask in masks.items():
            layers[idx] = layers[idx].masked_with(mask)
        return WeightStore(layers)

    def equals(self, other: "WeightStore") -> bool:
        """Bit-exact equality of kernels, biases, and masks."""
        if self.indices() != other.indices():
            return False
        for idx, lw in self.items():
            ow = other[idx]
            if not np.array_equal(lw.kernel.data, ow.kernel.data):
                return False
            if not np.array_equal(lw.bias.data, ow.bias.data):
                return False
            if (lw.mask is None) != (ow.mask is None):
                return False
            if lw.mask is not None and not np.array_equal(lw.mask, ow.mask):
                return False
        return True


# ---------------------------------------------------------------------------
# Accounting.
# ---------------------------------------------------------------------------

def count_params(net: NetworkDescriptor, store: Optional[WeightStore] = None) -> int:
    """Number of parameters: kernel entries plus biases over conv layers.

    With a store, pruned synapses (mask 0) do not count; biases always do.
    """
    if store is not None:
        store.validate_for(net)
    total = 0
    for i in net.conv_indices():
        layer = net.layers[i]
        if store is not None:
            total += store[i].param_count()
        else:
            f, c, kh, kw = layer.kernel_shape
            total += f * c * kh * kw + f
    return total


def _conv_flops(layer: LayerSpec, out_shape: tuple[int, int, int]) -> int:
    # One multiply-accumulate = 2 FLOPs; bias and activation are not counted.
    _, ho, wo = out_shape
    k = layer.kernel_size
    return 2 * k * k * layer.in_channels * layer.out_channels * ho * wo


def _layer_flops(net: NetworkDescriptor,
                 input_shape: tuple[int, int, int]) -> Iterator[tuple[int, LayerSpec, int]]:
    """Yield (index, layer, dense FLOPs) per conv, pool and pointwise layer.

    Shapes propagate from ``input_shape``; a detect-head costs nothing and
    is not yielded.
    """
    for i, (layer, shape) in enumerate(zip(net.layers, net.layer_shapes(input_shape))):
        if layer.kind == "conv":
            yield i, layer, _conv_flops(layer, shape)
        elif layer.kind in ("maxpool2", "pointwise"):
            yield i, layer, shape[0] * shape[1] * shape[2]


def count_flops(net: NetworkDescriptor, input_shape: tuple[int, int, int]) -> int:
    """Dense forward cost in FLOPs at the given input shape.

    Conv layers cost ``2*k*k*C_in*C_out*H_out*W_out`` (multiply and add
    counted separately); pooling and pointwise layers cost one op per output
    element; a detect-head is a free relabeling. Sparsity masks are ignored,
    see :func:`effective_flops`.
    """
    return sum(flops for _, _, flops in _layer_flops(net, input_shape))


def effective_flops(net: NetworkDescriptor, input_shape: tuple[int, int, int],
                    store: WeightStore) -> float:
    """Reporting-only FLOP figure with each conv layer scaled by mask density."""
    store.validate_for(net)
    total = 0.0
    for i, layer, flops in _layer_flops(net, input_shape):
        if layer.kind == "conv" and store[i].mask is not None:
            total += flops * float(store[i].mask.mean())
        else:
            total += flops
    return total


# ---------------------------------------------------------------------------
# FNET v1 serialization.
# ---------------------------------------------------------------------------

_MAGIC = b"FNET v1"


class FnetFormatError(ValueError):
    """Malformed FNET data; ``offset`` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


# Per layer kind, the fields of its layer line in written order: the FNET
# key, the ``LayerSpec`` attribute and the parser of the value. The one float,
# ``alpha``, is a Python float, whose ``str`` is its shortest round-trip repr.
_FIELDS = {
    "conv": (("in", "in_channels", int), ("out", "out_channels", int),
             ("k", "kernel_size", int), ("stride", "stride", int), ("pad", "pad", int),
             ("act", "activation", str), ("alpha", "alpha", float)),
    "maxpool2": (),
    "pointwise": (("fn", "fn", str), ("alpha", "alpha", float)),
    "detect-head": (("s", "grid", int), ("a", "anchors", int), ("c", "classes", int)),
}


def _layer_line(index: int, layer: LayerSpec, masked: bool) -> str:
    parts = [layer.kind]
    parts += [f"{key}={getattr(layer, attr)}" for key, attr, _ in _FIELDS[layer.kind]]
    if masked:
        parts.append("mask=1")
    return f"layer.{index}=" + ";".join(parts)


def encode_network(net: NetworkDescriptor, store: Optional[WeightStore] = None) -> bytes:
    """Serialize to FNET v1 bytes; ``store=None`` writes a descriptor-only file."""
    if store is not None:
        store.validate_for(net)
    masked = {i for i in (store.indices() if store is not None else [])
              if store[i].mask is not None}
    lines = [
        _MAGIC.decode(),
        f"name={net.name}",
        "input=" + ",".join(str(d) for d in net.input_shape),
        f"layers={len(net.layers)}",
    ]
    lines += [_layer_line(i, layer, i in masked) for i, layer in enumerate(net.layers)]
    blob = bytearray(("\n".join(lines) + "\n").encode())
    if store is not None:
        blob += b"WEIGHTS\n"
        for i in net.conv_indices():
            lw = store[i]
            blob += lw.kernel.data.astype("<f4").tobytes()
            blob += lw.bias.data.astype("<f4").tobytes()
        if masked:
            blob += b"MASKS\n"
            for i in net.conv_indices():
                if i in masked:
                    blob += np.packbits(store[i].mask.ravel(), bitorder="little").tobytes()
    return bytes(blob)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def error(self, message: str, offset: Optional[int] = None) -> FnetFormatError:
        return FnetFormatError(message, self.pos if offset is None else offset)

    def line(self, what: str) -> tuple[str, int]:
        start = self.pos
        end = self.data.find(b"\n", start)
        if end < 0:
            raise FnetFormatError(f"truncated file while reading {what}", start)
        self.pos = end + 1
        try:
            return self.data[start:end].decode("ascii"), start
        except UnicodeDecodeError:
            raise FnetFormatError(f"non-ASCII bytes in {what}", start) from None

    def take(self, n: int, what: str) -> bytes:
        if len(self.data) - self.pos < n:
            raise FnetFormatError(
                f"truncated file: {what} needs {n} bytes, {len(self.data) - self.pos} left",
                len(self.data))
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    @property
    def exhausted(self) -> bool:
        return self.pos >= len(self.data)


def _parse_kv(text: str, offset: int, what: str) -> tuple[str, str]:
    if "=" not in text:
        raise FnetFormatError(f"expected key=value for {what}, got {text!r}", offset)
    key, value = text.split("=", 1)
    return key, value


def _parse_layer(value: str, offset: int) -> tuple[LayerSpec, bool]:
    parts = value.split(";")
    kind, fields = parts[0], {}
    for part in parts[1:]:
        k, v = _parse_kv(part, offset, "layer field")
        fields[k] = v
    if kind not in _FIELDS:
        raise FnetFormatError(f"unknown layer kind {kind!r}", offset)
    try:
        spec = LayerSpec(kind, **{attr: parse(fields[key]) for key, attr, parse in _FIELDS[kind]})
    except (KeyError, ValueError) as exc:
        raise FnetFormatError(f"bad layer line {value!r}: {exc}", offset) from None
    return spec, fields.get("mask") == "1"


def decode_network(data: bytes) -> tuple[NetworkDescriptor, Optional[WeightStore]]:
    """Parse FNET v1 bytes into a descriptor and optional weight store."""
    r = _Reader(data)
    magic, off = r.line("magic")
    if magic != _MAGIC.decode():
        raise FnetFormatError(f"bad magic {magic!r}, expected 'FNET v1'", off)

    def header(expected_key: str) -> str:
        text, off = r.line(expected_key)
        key, value = _parse_kv(text, off, expected_key)
        if key != expected_key:
            raise FnetFormatError(f"expected {expected_key}=..., got {key}=...", off)
        return value

    name = header("name")
    input_parts = header("input").split(",")
    try:
        input_shape = tuple(int(p) for p in input_parts)
        n_layers = int(header("layers"))
    except ValueError as exc:
        raise r.error(f"bad header value: {exc}")
    if n_layers < 0:
        raise r.error(f"bad header value: layers={n_layers} is negative")
    layers, mask_flags = [], []
    for i in range(n_layers):
        text, off = r.line(f"layer {i}")
        key, value = _parse_kv(text, off, "layer line")
        if key != f"layer.{i}":
            raise FnetFormatError(f"expected layer.{i}, got {key}", off)
        spec, masked = _parse_layer(value, off)
        layers.append(spec)
        mask_flags.append(masked)
    try:
        net = NetworkDescriptor(name, input_shape, tuple(layers))
    except (ValueError, ShapeError) as exc:
        raise FnetFormatError(f"inconsistent descriptor: {exc}", r.pos) from None

    if r.exhausted:
        return net, None
    sentinel, off = r.line("WEIGHTS sentinel")
    if sentinel != "WEIGHTS":
        raise FnetFormatError(f"expected WEIGHTS sentinel, got {sentinel!r}", off)
    raw: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for i in net.conv_indices():
        shape = net.layers[i].kernel_shape
        n_kernel = math.prod(shape)
        kbytes = r.take(4 * n_kernel, f"layer {i} kernel")
        bbytes = r.take(4 * shape[0], f"layer {i} bias")
        kernel = np.frombuffer(kbytes, dtype="<f4").reshape(shape)
        bias = np.frombuffer(bbytes, dtype="<f4")
        raw[i] = (kernel, bias)
    masks: dict[int, np.ndarray] = {}
    if any(mask_flags):
        sentinel, off = r.line("MASKS sentinel")
        if sentinel != "MASKS":
            raise FnetFormatError(f"expected MASKS sentinel, got {sentinel!r}", off)
        for i in net.conv_indices():
            if not mask_flags[i]:
                continue
            shape = net.layers[i].kernel_shape
            n = math.prod(shape)
            mbytes = r.take((n + 7) // 8, f"layer {i} mask")
            bits = np.unpackbits(np.frombuffer(mbytes, dtype=np.uint8),
                                 count=n, bitorder="little")
            masks[i] = bits.reshape(shape)
    if not r.exhausted:
        raise r.error(f"{len(data) - r.pos} trailing bytes after network data")
    layers_w = {}
    for i, (kernel, bias) in raw.items():
        try:
            layers_w[i] = LayerWeights(Tensor(kernel), Tensor(bias), masks.get(i))
        except (ValueError, ShapeError) as exc:
            raise FnetFormatError(f"layer {i} weights invalid: {exc}", len(data)) from None
    return net, WeightStore(layers_w)


def save_network(path, net: NetworkDescriptor, store: Optional[WeightStore] = None) -> None:
    Path(path).write_bytes(encode_network(net, store))


def load_network(path) -> tuple[NetworkDescriptor, Optional[WeightStore]]:
    """:func:`decode_network` on a file; an ``FnetFormatError`` names the path."""
    try:
        return decode_network(Path(path).read_bytes())
    except FnetFormatError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
