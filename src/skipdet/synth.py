"""Synthetic rectangle scenes with ground truth.

Motion semantics: the schedule labels every frame 1..T as moving or frozen;
an empty schedule, the default, labels every frame moving. Object positions
advance from frame i-1 to frame i exactly when frame i is labeled moving;
frame 1 renders the initial positions regardless of its label. With zero
noise, each frame of a frozen stretch is bit-identical to its predecessor,
and the number of changed frame transitions equals the number of
moving-labeled frames among 2..T.

Objects are filled rectangles with seeded sizes (15..30% of the short frame
side per axis), bright seeded colors over a dark background, and reflecting
off the frame borders. Everything is quantized to 8 bits exactly as the PPM
files store it, so in-memory frames match disk round-trips bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .detector import DetectionBox, write_detections
from .motion import Frame
from .ppm import frame_from_image, save_frames

__all__ = ["MotionInterval", "SyntheticSceneSpec", "check_velocity",
           "frames_from_scene", "generate_scene", "parse_schedule",
           "random_detection_scenes", "write_scene"]

MAX_NOISE = 0.05


@dataclass(frozen=True)
class MotionInterval:
    start: int  # 1-based, inclusive
    end: int
    moving: bool


def parse_schedule(text: str, frames: int) -> tuple[MotionInterval, ...]:
    """Parse ``1-31:moving,32-50:frozen`` into validated intervals."""
    intervals = []
    for part in text.split(","):
        part = part.strip()
        try:
            span, label = part.split(":")
            start, end = (int(x) for x in span.split("-"))
        except ValueError:
            raise ValueError(f"bad schedule interval {part!r}, expected start-end:moving|frozen") from None
        if label not in ("moving", "frozen"):
            raise ValueError(f"bad schedule label {label!r}, expected moving or frozen")
        intervals.append(MotionInterval(start, end, label == "moving"))
    _validate_schedule(tuple(intervals), frames)
    return tuple(intervals)


def _validate_schedule(intervals: Sequence[MotionInterval], frames: int) -> None:
    cursor = 1
    for start, end in sorted((iv.start, iv.end) for iv in intervals):
        if start != cursor or end < start:
            raise ValueError(
                f"schedule must cover 1..{frames} without gaps or overlap, "
                f"broke at interval {start}-{end} (expected start {cursor})")
        cursor = end + 1
    if cursor != frames + 1:
        raise ValueError(f"schedule covers 1..{cursor - 1}, need 1..{frames}")


def check_velocity(v: Sequence[float]) -> None:
    """Raise ``ValueError`` unless ``v`` is a pair of finite numbers."""
    if len(v) != 2 or not all(math.isfinite(c) for c in v):
        raise ValueError(f"velocity must be a pair of finite numbers, got {tuple(v)!r}")


@dataclass(frozen=True)
class SyntheticSceneSpec:
    """Everything that determines a generated scene, including the seed."""

    frames: int
    width: int = 96
    height: int = 96
    channels: int = 3
    objects: int = 1
    velocities: tuple[tuple[float, float], ...] = ((2.0, 1.0),)
    schedule: tuple[MotionInterval, ...] = ()  # empty: every frame moves
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.frames < 1 or self.width < 8 or self.height < 8:
            raise ValueError("need at least 1 frame and 8x8 pixels")
        if self.channels not in (1, 3):
            raise ValueError(f"channels must be 1 or 3, got {self.channels}")
        if self.objects < 1:
            raise ValueError("need at least one object")
        if not 0.0 <= self.noise <= MAX_NOISE:
            raise ValueError(f"noise amplitude must lie in [0, {MAX_NOISE}], got {self.noise}")
        if len(self.velocities) not in (1, self.objects):
            raise ValueError(
                f"need 1 or {self.objects} velocities, got {len(self.velocities)}")
        for v in self.velocities:
            check_velocity(v)
        object.__setattr__(self, "velocities",
                           tuple((float(vx), float(vy)) for vx, vy in self.velocities))
        if self.schedule:
            _validate_schedule(self.schedule, self.frames)

    def velocity(self, obj: int) -> tuple[float, float]:
        return self.velocities[0] if len(self.velocities) == 1 else self.velocities[obj]

    def moving_labels(self) -> np.ndarray:
        """Boolean label per frame, index 0 unused (frames are 1-based)."""
        labels = np.ones(self.frames + 1, dtype=bool)
        for iv in self.schedule:
            labels[iv.start:iv.end + 1] = iv.moving
        return labels


def generate_scene(spec: SyntheticSceneSpec):
    """Render the scene; returns (uint8 images [H,W,C], truth per frame)."""
    rng = np.random.default_rng(spec.seed)
    h, w, c = spec.height, spec.width, spec.channels
    background = 0.06 + 0.06 * rng.random()

    short = min(h, w)
    sizes, centers, colors = [], [], []
    for _ in range(spec.objects):
        ow = max(4, int(round(rng.uniform(0.15, 0.30) * short)))
        oh = max(4, int(round(rng.uniform(0.15, 0.30) * short)))
        sizes.append((ow, oh))
        centers.append([rng.uniform(ow / 2 + 2, w - ow / 2 - 2),
                        rng.uniform(oh / 2 + 2, h - oh / 2 - 2)])
        colors.append(rng.uniform(0.55, 0.95, size=c))
    velocities = [list(spec.velocity(o)) for o in range(spec.objects)]

    labels = spec.moving_labels()
    images, truth = [], []
    for t in range(1, spec.frames + 1):
        if t > 1 and labels[t]:
            for o in range(spec.objects):
                (ow, oh), ctr, vel = sizes[o], centers[o], velocities[o]
                nx, ny = ctr[0] + vel[0], ctr[1] + vel[1]
                if nx - ow / 2 < 0 or nx + ow / 2 > w:
                    vel[0] = -vel[0]
                    nx = ctr[0] + vel[0]
                if ny - oh / 2 < 0 or ny + oh / 2 > h:
                    vel[1] = -vel[1]
                    ny = ctr[1] + vel[1]
                ctr[0], ctr[1] = nx, ny

        canvas = np.full((h, w, c), background, dtype=np.float64)
        boxes = []
        for o in range(spec.objects):
            ow, oh = sizes[o]
            x0 = int(np.clip(round(centers[o][0] - ow / 2), 0, w - ow))
            y0 = int(np.clip(round(centers[o][1] - oh / 2), 0, h - oh))
            canvas[y0:y0 + oh, x0:x0 + ow] = colors[o]
            boxes.append(DetectionBox(
                cx=(x0 + ow / 2) / w, cy=(y0 + oh / 2) / h,
                w=ow / w, h=oh / h, objectness=1.0, class_id=0, class_score=1.0))
        if spec.noise > 0:
            canvas += rng.uniform(-spec.noise, spec.noise, size=canvas.shape)
        images.append((np.clip(canvas, 0.0, 1.0) * 255.0).round().astype(np.uint8))
        truth.append(boxes)
    return images, truth


def frames_from_scene(images: Sequence[np.ndarray]) -> list[Frame]:
    return [frame_from_image(i, img) for i, img in enumerate(images, start=1)]


def write_scene(spec: SyntheticSceneSpec, out_dir) -> Path:
    """Write numbered PPM frames plus truth.txt; returns the truth path."""
    out_dir = Path(out_dir)
    images, truth = generate_scene(spec)
    save_frames(out_dir, images)
    truth_path = out_dir / "truth.txt"
    write_detections(truth_path, {i: boxes for i, boxes in enumerate(truth, start=1)})
    return truth_path


def random_detection_scenes(count: int, width: int = 96, height: int = 96,
                            channels: int = 3, seed: int = 0, noise: float = 0.015):
    """Independent single-frame scenes for detector training and evaluation.

    Returns (frames, truth) where each frame shows one rectangle at a
    seeded random position, size, and color.
    """
    frames, truth = [], []
    for n in range(count):
        spec = SyntheticSceneSpec(
            frames=1, width=width, height=height, channels=channels, noise=noise,
            seed=(seed * 1_000_003 + n) % 2 ** 64)
        images, boxes = generate_scene(spec)
        frames.append(frame_from_image(n + 1, images[0]))
        truth.append(boxes[0])
    return frames, truth
