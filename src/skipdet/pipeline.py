"""Per-frame orchestration of gating, deep inference, and reference reuse.

The state machine: the first frame always runs deep inference (there is no
reference yet). Afterwards each frame is stacked with the reference frame,
gated by the motion map, and either (a) run through the detector, becoming
the new reference together with its class probability map, or (b) skipped,
in which case the stored reference map is decoded instead. Skipped frames
re-run decode+nms on the cached raw map rather than reusing cached boxes so
threshold changes behave consistently; decode and nms are deterministic, so
bit-equality still holds between a skipped frame and its reference.

``mode="always"`` skips the gate and infers every frame; it is the one
detection path, which the CLI's ``detect`` and evaluation metric also use.

Processing is strictly sequential per video; independent videos can run
concurrently with separate states.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .detector import (AnchorPrior, ClassProbabilityMap, DetectionBox, decode,
                       map_from_output, nms)
from .motion import Frame, GatingPolicy, decide, motion_map, stack_frames
from .netdef import NetworkDescriptor, WeightStore
from .network import forward

__all__ = ["FrameTiming", "PipelineState", "RunReport", "process_frame", "run"]

MODES = ("gated", "always")


@dataclass(frozen=True)
class PipelineState:
    """Reference cache plus counters; immutable, updated by replacement."""

    reference_frame: Optional[Frame] = None
    reference_map: Optional[ClassProbabilityMap] = None
    frames_seen: int = 0
    inferences_run: int = 0
    frames_since_inference: int = 0

    def __post_init__(self) -> None:
        if (self.reference_frame is None) != (self.reference_map is None):
            raise ValueError("reference frame and reference map must be set together")
        if self.inferences_run > self.frames_seen:
            raise ValueError("inference count cannot exceed frame count")


@dataclass(frozen=True)
class FrameTiming:
    """Seconds spent in each stage while processing one frame."""

    gate: float = 0.0
    infer: float = 0.0
    decode: float = 0.0


def process_frame(state: PipelineState, frame: Frame, policy: GatingPolicy,
                  net: NetworkDescriptor, store: WeightStore,
                  anchors: Sequence[AnchorPrior], obj_threshold: float,
                  nms_threshold: float, always: bool = False,
                  ) -> tuple[list[DetectionBox], bool, PipelineState, FrameTiming]:
    """Advance the pipeline by one frame.

    Returns the frame's detections, whether deep inference ran, the new
    state, and per-stage timings. A frame's shape is checked once, by the
    stage that uses it: ``stack_frames`` against the reference, or
    ``forward`` against the network input when there is no reference or in
    always mode. States are immutable, so the caller's state stays usable
    after an error.
    """
    gate_s = 0.0
    gap = state.frames_since_inference + 1
    if state.reference_frame is None or always:
        must_infer = True
    else:
        t0 = time.perf_counter()
        m = motion_map(stack_frames(frame, state.reference_frame), policy)
        must_infer = decide(m, policy, gap)
        gate_s = time.perf_counter() - t0

    infer_s = 0.0
    if must_infer:
        t0 = time.perf_counter()
        cmap = map_from_output(net, forward(net, store, frame.pixels))
        infer_s = time.perf_counter() - t0
        new_state = replace(state, reference_frame=frame, reference_map=cmap,
                            frames_seen=state.frames_seen + 1,
                            inferences_run=state.inferences_run + 1,
                            frames_since_inference=0)
    else:
        cmap = state.reference_map
        new_state = replace(state, frames_seen=state.frames_seen + 1,
                            frames_since_inference=gap)

    t0 = time.perf_counter()
    boxes = nms(decode(cmap, anchors, obj_threshold), nms_threshold)
    decode_s = time.perf_counter() - t0
    return boxes, must_infer, new_state, FrameTiming(gate_s, infer_s, decode_s)


@dataclass
class RunReport:
    """Counters and timings for one pipeline run.

    ``inference_frequency`` is the percentage of frames on which deep
    inference ran; ``decisions`` has one bit per frame in order.
    """

    frames: int
    inferences: int
    inference_frequency: float
    wall_time: dict[str, float]
    frames_per_second: float
    decisions: list[int]
    config: Optional[dict] = None

    def to_json_dict(self) -> dict:
        doc = {
            "frames": self.frames,
            "inferences": self.inferences,
            "inference-frequency": self.inference_frequency,
            "wall-time": {k: round(v, 3) for k, v in self.wall_time.items()},
            "frames-per-second": round(self.frames_per_second, 3),
            "decisions": self.decisions,
        }
        if self.config is not None:
            doc["config"] = self.config
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


def run(frames: Sequence[Frame], net: NetworkDescriptor, store: WeightStore,
        anchors: Sequence[AnchorPrior], policy: GatingPolicy,
        obj_threshold: float, nms_threshold: float, mode: str = "gated",
        ) -> tuple[RunReport, list[list[DetectionBox]]]:
    """Fold :func:`process_frame` over a frame sequence in order.

    Wall time covers the gate, infer, and decode stages only (frame I/O is
    the caller's business); FPS is frames divided by that total. A
    ``ValueError``, ``ArithmeticError`` or ``OSError`` raised for a frame is
    re-raised as the same type with ``frame <index>:`` before its message.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    frames = list(frames)
    if not frames:
        raise ValueError("frame sequence must be non-empty")
    state = PipelineState()
    always = mode == "always"
    decisions: list[int] = []
    detections: list[list[DetectionBox]] = []
    times = {"gate": 0.0, "infer": 0.0, "decode": 0.0}
    for frame in frames:
        try:
            boxes, did_infer, state, timing = process_frame(
                state, frame, policy, net, store, anchors,
                obj_threshold, nms_threshold, always=always)
        except (ArithmeticError, OSError, ValueError) as exc:
            raise type(exc)(f"frame {frame.index}: {exc}") from exc
        decisions.append(1 if did_infer else 0)
        detections.append(boxes)
        times["gate"] += timing.gate
        times["infer"] += timing.infer
        times["decode"] += timing.decode
    total = sum(times.values())
    report = RunReport(
        frames=len(frames),
        inferences=state.inferences_run,
        inference_frequency=100.0 * state.inferences_run / len(frames),
        wall_time=times,
        frames_per_second=len(frames) / total if total > 0 else 0.0,
        decisions=decisions,
    )
    return report, detections
