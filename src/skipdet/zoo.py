"""Reference architecture descriptors bundled with the package.

Each bundled name maps to a builder function below; ``load_bundled``
builds the descriptor from it, and an unknown name raises ``KeyError``.

The YOLOv2-VOC and Darknet-19 descriptors model the sequential conv/pool
stack of those architectures (batch-norm folded into the conv weights, and
no passthrough/reorg branch, which a linear layer list cannot express).
"""

from __future__ import annotations

from .netdef import LayerSpec, NetworkDescriptor

__all__ = ["BUNDLED_NAMES", "load_bundled", "tiny_detector",
           "yolov2_voc", "darknet19", "vgg16"]


def _conv3(cin: int, cout: int, alpha: float = 0.1) -> LayerSpec:
    return LayerSpec.conv(cin, cout, 3, stride=1, pad=1, activation="leaky", alpha=alpha)


def _conv1(cin: int, cout: int, alpha: float = 0.1) -> LayerSpec:
    return LayerSpec.conv(cin, cout, 1, stride=1, pad=0, activation="leaky", alpha=alpha)


def _darknet19_backbone() -> list[LayerSpec]:
    mp = LayerSpec.maxpool2()
    return [
        _conv3(3, 32), mp,
        _conv3(32, 64), mp,
        _conv3(64, 128), _conv1(128, 64), _conv3(64, 128), mp,
        _conv3(128, 256), _conv1(256, 128), _conv3(128, 256), mp,
        _conv3(256, 512), _conv1(512, 256), _conv3(256, 512),
        _conv1(512, 256), _conv3(256, 512), mp,
        _conv3(512, 1024), _conv1(1024, 512), _conv3(512, 1024),
        _conv1(1024, 512), _conv3(512, 1024),
    ]


def tiny_detector() -> NetworkDescriptor:
    """Bundled toy detector: 3x96x96 in, four conv+pool blocks, 6x6 grid."""
    mp = LayerSpec.maxpool2()
    layers = [
        _conv3(3, 8), mp,
        _conv3(8, 16), mp,
        _conv3(16, 32), mp,
        _conv3(32, 64), mp,
        LayerSpec.conv(64, 12, 1, activation="linear"),
        LayerSpec.detect_head(grid=6, anchors=2, classes=1),
    ]
    return NetworkDescriptor("tiny", (3, 96, 96), tuple(layers))


def yolov2_voc() -> NetworkDescriptor:
    """YOLOv2 detector for the 20 VOC classes with 5 anchors at 416x416."""
    layers = _darknet19_backbone() + [
        _conv3(1024, 1024), _conv3(1024, 1024), _conv3(1024, 1024),
        LayerSpec.conv(1024, 125, 1, activation="linear"),
        LayerSpec.detect_head(grid=13, anchors=5, classes=20),
    ]
    return NetworkDescriptor("yolov2-voc", (3, 416, 416), tuple(layers))


def darknet19() -> NetworkDescriptor:
    """Darknet-19 classifier conv stack (1000-way conv head) at 224x224."""
    layers = _darknet19_backbone() + [LayerSpec.conv(1024, 1000, 1, activation="linear")]
    return NetworkDescriptor("darknet19", (3, 224, 224), tuple(layers))


def vgg16() -> NetworkDescriptor:
    """VGG-16 conv stack (relu expressed as zero-slope leaky) at 224x224."""
    mp = LayerSpec.maxpool2()
    relu = 0.0
    layers = [
        _conv3(3, 64, relu), _conv3(64, 64, relu), mp,
        _conv3(64, 128, relu), _conv3(128, 128, relu), mp,
        _conv3(128, 256, relu), _conv3(256, 256, relu), _conv3(256, 256, relu), mp,
        _conv3(256, 512, relu), _conv3(512, 512, relu), _conv3(512, 512, relu), mp,
        _conv3(512, 512, relu), _conv3(512, 512, relu), _conv3(512, 512, relu), mp,
    ]
    return NetworkDescriptor("vgg16", (3, 224, 224), tuple(layers))


_BUILDERS = {
    "tiny": tiny_detector,
    "yolov2_voc": yolov2_voc,
    "darknet19": darknet19,
    "vgg16": vgg16,
}

BUNDLED_NAMES = tuple(_BUILDERS)


def load_bundled(name: str) -> NetworkDescriptor:
    if name not in _BUILDERS:
        raise KeyError(f"unknown bundled network {name!r}, have {BUNDLED_NAMES}")
    return _BUILDERS[name]()
