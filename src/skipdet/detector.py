"""Single-shot detection head: grid/anchor decoding, IOU, NMS, k-means
anchor priors, and IOU-based evaluation.

The box transform follows the YOLOv2 parameterization: for grid cell
(i, j) and anchor a with raw values (t_x, t_y, t_w, t_h, t_obj, classes),

    cx = (j + sigmoid(t_x)) / S        w = anchor_w * exp(t_w) / S
    cy = (i + sigmoid(t_y)) / S        h = anchor_h * exp(t_h) / S

objectness is sigmoid(t_obj) and the class is the argmax of the softmax
over the raw class values. Anchors are measured in grid-cell units.
Decode clamps t_w and t_h to [-LOG_SCALE_LIMIT, LOG_SCALE_LIMIT] before
the exp, so no finite map can overflow it or underflow it to a zero extent;
values inside that range decode unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .netdef import NetworkDescriptor
from .tensor import Tensor, _sigmoid

__all__ = [
    "LOG_SCALE_LIMIT",
    "AnchorPrior",
    "ClassProbabilityMap",
    "DetectionBox",
    "build_target_map",
    "decode",
    "evaluate_mean_best_iou",
    "format_detection_line",
    "iou",
    "kmeans_anchors",
    "map_from_output",
    "nms",
    "parse_detection_file",
    "read_detections",
    "write_detections",
]


# A box spans at most e**30 (about 1e13) and at least e**-30 anchor extents.
LOG_SCALE_LIMIT = 30.0


@dataclass(frozen=True)
class AnchorPrior:
    """Canonical box extent in grid-cell units."""

    w: float
    h: float

    def __post_init__(self) -> None:
        if not (0 < self.w < math.inf and 0 < self.h < math.inf):
            raise ValueError(f"anchor extents must be positive and finite, got {self.w}x{self.h}")


@dataclass(frozen=True)
class DetectionBox:
    """One detection in normalized image coordinates, center format."""

    cx: float
    cy: float
    w: float
    h: float
    objectness: float
    class_id: int
    class_score: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.cx <= 1.0 and 0.0 <= self.cy <= 1.0):
            raise ValueError(f"box center ({self.cx}, {self.cy}) outside [0,1]")
        if not (0 < self.w < math.inf and 0 < self.h < math.inf):
            raise ValueError(f"box extents must be positive and finite, got {self.w}x{self.h}")
        if not (0.0 <= self.objectness <= 1.0 and 0.0 <= self.class_score <= 1.0):
            raise ValueError("objectness and class score must lie in [0,1]")
        if self.class_id < 0:
            raise ValueError(f"class id must be non-negative, got {self.class_id}")

    @property
    def score(self) -> float:
        return self.objectness * self.class_score


@dataclass(frozen=True)
class ClassProbabilityMap:
    """Raw detector grid output: S x S cells, A anchor slots, 5+C values each.

    Channel layout is anchor-major: channel ``a*(5+C)+f`` holds field f of
    anchor a, fields ordered (t_x, t_y, t_w, t_h, t_obj, class_0..).
    """

    values: Tensor
    grid: int
    anchors: int
    classes: int

    def __post_init__(self) -> None:
        expected = (self.anchors * (5 + self.classes), self.grid, self.grid)
        if self.values.shape != expected:
            raise ValueError(
                f"map shape {self.values.shape} does not match S={self.grid}, "
                f"A={self.anchors}, C={self.classes} (expected {expected})")


def map_from_output(net: NetworkDescriptor, output: Tensor) -> ClassProbabilityMap:
    """Wrap a network's raw output using its detect-head geometry."""
    head = net.detect_head()
    if head is None:
        raise ValueError(f"network {net.name!r} has no detect-head layer")
    return ClassProbabilityMap(output, head.grid, head.anchors, head.classes)


def decode(cmap: ClassProbabilityMap, anchors: Sequence[AnchorPrior],
           obj_threshold: float) -> list[DetectionBox]:
    """Decode a raw map into boxes, dropping slots below the objectness bar.

    Boxes are emitted in (cell row, cell column, anchor) order, which later
    stages rely on for deterministic tie-breaking.
    """
    if len(anchors) != cmap.anchors:
        raise ValueError(f"map has {cmap.anchors} anchor slots, got {len(anchors)} priors")
    s, a_count, c_count = cmap.grid, cmap.anchors, cmap.classes
    v = cmap.values.data.reshape(a_count, 5 + c_count, s, s)
    sig = _sigmoid(v[:, :2])
    obj = _sigmoid(v[:, 4])
    cls_raw = v[:, 5:]
    shifted = cls_raw - cls_raw.max(axis=1, keepdims=True)
    ez = np.exp(shifted)
    softmax = ez / ez.sum(axis=1, keepdims=True)
    boxes = []
    for i in range(s):
        for j in range(s):
            for a in range(a_count):
                objectness = float(obj[a, i, j])
                if objectness < obj_threshold:
                    continue
                cls = int(np.argmax(softmax[a, :, i, j]))
                t_w = min(max(float(v[a, 2, i, j]), -LOG_SCALE_LIMIT), LOG_SCALE_LIMIT)
                t_h = min(max(float(v[a, 3, i, j]), -LOG_SCALE_LIMIT), LOG_SCALE_LIMIT)
                boxes.append(DetectionBox(
                    cx=(j + float(sig[a, 0, i, j])) / s,
                    cy=(i + float(sig[a, 1, i, j])) / s,
                    w=anchors[a].w * math.exp(t_w) / s,
                    h=anchors[a].h * math.exp(t_h) / s,
                    objectness=objectness,
                    class_id=cls,
                    class_score=float(softmax[a, cls, i, j]),
                ))
    return boxes


def iou(a: DetectionBox, b: DetectionBox) -> float:
    """Intersection over union of two center-format boxes; 0 when disjoint."""
    ax0, ax1 = a.cx - a.w / 2, a.cx + a.w / 2
    ay0, ay1 = a.cy - a.h / 2, a.cy + a.h / 2
    bx0, bx1 = b.cx - b.w / 2, b.cx + b.w / 2
    by0, by1 = b.cy - b.h / 2, b.cy + b.h / 2
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    # areas from the same derived corners, so identical boxes give exactly 1
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    if union <= 0:
        return 0.0
    return min(1.0, inter / union)


def nms(boxes: Sequence[DetectionBox], iou_threshold: float) -> list[DetectionBox]:
    """Greedy per-class non-maximum suppression.

    Repeatedly keeps the box with the highest objectness*class_score and
    discards same-class boxes overlapping it beyond the threshold. Score
    ties resolve to the earlier box in input order (decode order: lower cell
    index, then lower anchor index). Output is sorted by score descending.
    """
    order = sorted(range(len(boxes)), key=lambda idx: -boxes[idx].score)
    suppressed = [False] * len(boxes)
    kept = []
    for pos, idx in enumerate(order):
        if suppressed[idx]:
            continue
        kept.append(idx)
        for later in order[pos + 1:]:
            if suppressed[later] or boxes[later].class_id != boxes[idx].class_id:
                continue
            if iou(boxes[idx], boxes[later]) > iou_threshold:
                suppressed[later] = True
    return [boxes[idx] for idx in kept]


# ---------------------------------------------------------------------------
# Anchor priors via k-means under the co-centered 1-IOU distance.
# ---------------------------------------------------------------------------

def _iou_wh(sizes: np.ndarray, cents: np.ndarray) -> np.ndarray:
    """Pairwise IOU of co-centered boxes: sizes [n,2] vs cents [k,2]."""
    inter = (np.minimum(sizes[:, None, 0], cents[None, :, 0])
             * np.minimum(sizes[:, None, 1], cents[None, :, 1]))
    areas = sizes[:, 0] * sizes[:, 1]
    careas = cents[:, 0] * cents[:, 1]
    return inter / (areas[:, None] + careas[None, :] - inter)


def _lloyd(sizes: np.ndarray, k: int, seed: int, max_iter: int = 100):
    """Lloyd iterations; returns (centroids, per-iteration costs).

    Centroids update to cluster means. A mean step that would raise the
    total cost is rejected and iteration stops there, so the recorded cost
    sequence is non-increasing by construction. Empty clusters re-seed to
    the box currently farthest from its assigned centroid.
    """
    rng = np.random.default_rng(seed)
    cents = sizes[rng.choice(len(sizes), size=k, replace=False)].copy()

    def assign_cost(c):
        d = 1.0 - _iou_wh(sizes, c)
        a = d.argmin(axis=1)
        return a, float(d[np.arange(len(sizes)), a].sum()), d

    assign, cost, dist = assign_cost(cents)
    costs = [cost]
    for _ in range(max_iter):
        for c in range(k):
            if not np.any(assign == c):
                worst = int(dist[np.arange(len(sizes)), assign].argmax())
                cents[c] = sizes[worst]
                assign, cost, dist = assign_cost(cents)
                costs[-1] = cost
        # A cluster can stay empty when boxes are duplicates; keep its
        # centroid rather than averaging nothing.
        new_cents = np.stack([sizes[assign == c].mean(axis=0) if np.any(assign == c)
                              else cents[c] for c in range(k)])
        new_assign, new_cost, new_dist = assign_cost(new_cents)
        if new_cost > cost:
            break
        cents, dist = new_cents, new_dist
        costs.append(new_cost)
        if np.array_equal(new_assign, assign):
            cost = new_cost
            break
        assign, cost = new_assign, new_cost
    return cents, costs


def kmeans_anchors(sizes: Sequence[tuple[float, float]], k: int,
                   seed: int = 0) -> list[AnchorPrior]:
    """Cluster (w, h) pairs into k anchor priors, deterministic per seed.

    Distance is 1 - IOU with the boxes co-centered, so clustering is
    insensitive to box positions and favors shape agreement.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if len(sizes) < k:
        raise ValueError(f"need at least k={k} boxes, got {len(sizes)}")
    arr = np.asarray(sizes, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2 or not (arr > 0).all():
        raise ValueError("sizes must be positive (w, h) pairs")
    cents, _ = _lloyd(arr, k, seed)
    return [AnchorPrior(float(w), float(h)) for w, h in cents]


def evaluate_mean_best_iou(predictions: Sequence[Sequence[DetectionBox]],
                           truth: Sequence[Sequence[DetectionBox]]) -> float:
    """Mean, over all ground-truth boxes, of the best IOU any same-frame
    prediction achieves (0 for frames with no predictions).

    Returns 0.0 when there are no ground-truth boxes at all.
    """
    if len(predictions) != len(truth):
        raise ValueError(
            f"frame count mismatch: {len(predictions)} prediction frames, "
            f"{len(truth)} truth frames")
    best: list[float] = []
    for preds, gts in zip(predictions, truth):
        for gt in gts:
            best.append(max((iou(gt, p) for p in preds), default=0.0))
    return float(np.mean(best)) if best else 0.0


def build_target_map(boxes: Sequence[DetectionBox], grid: int, anchors: Sequence[AnchorPrior],
                     classes: int) -> Tensor:
    """Training target for the composite loss, same layout as the raw map.

    Each truth box claims the best-IOU anchor slot of the cell containing
    its center: sigmoid-space offsets, log-scales relative to the anchor,
    objectness 1, one-hot class. Later boxes overwrite earlier claims of the
    same slot.
    """
    a_count = len(anchors)
    t = np.zeros((a_count, 5 + classes, grid, grid), dtype=np.float32)
    priors = np.asarray([(a.w, a.h) for a in anchors], dtype=np.float64)
    for box in boxes:
        j = min(grid - 1, int(box.cx * grid))
        i = min(grid - 1, int(box.cy * grid))
        bw, bh = box.w * grid, box.h * grid
        a = int(_iou_wh(np.array([[bw, bh]]), priors)[0].argmax())
        t[a, :, i, j] = 0.0
        t[a, 0, i, j] = box.cx * grid - j
        t[a, 1, i, j] = box.cy * grid - i
        t[a, 2, i, j] = math.log(bw / priors[a, 0])
        t[a, 3, i, j] = math.log(bh / priors[a, 1])
        t[a, 4, i, j] = 1.0
        t[a, 5 + box.class_id, i, j] = 1.0
    return Tensor(t.reshape(a_count * (5 + classes), grid, grid))


# ---------------------------------------------------------------------------
# Detection line format: one box per line,
#   frame cx cy w h objectness class_id class_score
# with reals printed to 6 decimal places. An extent below that resolution is
# written as 0.000001, so every written box reads back as a valid box.
# ---------------------------------------------------------------------------

def format_detection_line(frame_index: int, box: DetectionBox) -> str:
    w, h = max(box.w, 1e-6), max(box.h, 1e-6)
    return (f"{frame_index} {box.cx:.6f} {box.cy:.6f} {w:.6f} {h:.6f} "
            f"{box.objectness:.6f} {box.class_id} {box.class_score:.6f}")


def write_detections(path, per_frame: dict[int, Sequence[DetectionBox]]) -> None:
    lines = []
    for frame_index in sorted(per_frame):
        for box in per_frame[frame_index]:
            lines.append(format_detection_line(frame_index, box))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def parse_detection_file(path) -> dict[int, list[DetectionBox]]:
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: byte {exc.start}: cannot decode utf-8: {exc.reason}") from None
    per_frame: dict[int, list[DetectionBox]] = {}
    for n, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 8:
            raise ValueError(f"{path}: line {n}: expected 8 fields, got {len(parts)}")
        try:
            frame = int(parts[0])
            if frame < 0:
                raise ValueError(f"frame index must be non-negative, got {frame}")
            box = DetectionBox(cx=float(parts[1]), cy=float(parts[2]), w=float(parts[3]),
                               h=float(parts[4]), objectness=float(parts[5]),
                               class_id=int(parts[6]), class_score=float(parts[7]))
        except ValueError as exc:
            raise ValueError(f"{path}: line {n}: {exc}") from None
        per_frame.setdefault(frame, []).append(box)
    return per_frame


def read_detections(path, frame_indices: Sequence[int]) -> list[list[DetectionBox]]:
    """Per-frame box lists aligned to ``frame_indices`` (missing frames empty)."""
    per_frame = parse_detection_file(path)
    return [per_frame.get(i, []) for i in frame_indices]
