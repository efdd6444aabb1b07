"""Per-frame orchestration of gating, deep inference, and reference reuse.

The state machine: the first frame always runs deep inference (there is no
reference yet). Afterwards each frame is paired with the reference, gated
by the motion map, and either (a) run through the detector, becoming the
new reference together with its class probability map and its boxes, or
(b) skipped, in which case the reference's boxes are returned again.
The state keeps three values made from the reference, each with the key
it was made under (see :class:`PipelineState`), and uses one only when its
key matches the call:

- the reference's boxes, keyed on the anchors and thresholds that decoded
  them. A skipped frame decoded with other settings re-runs decode+nms on
  the stored reference map and keeps that result instead. Settings count
  by value only: anchors and thresholds are Python floats. Decode and nms
  are deterministic, so a skipped frame's boxes equal a fresh decode of
  the reference map either way.
- the reference's half of the gate's products (``motion.reference_half``),
  keyed on the reference frame (by identity) and the bytes of the gate
  kernel. It is made on the first gated frame after an inference, made
  again when the key does not match (another kernel's values, a kernel
  changed in place, or a state given another reference), and never made
  with ``policy=None``. A gated frame therefore multiplies only its own
  channels, and its map has the bits of the ``[2C,H,W]`` stack's.
- the reference's forward record, keyed on ``net`` and ``store`` by
  identity. A gated inferred frame passes it to ``network.forward`` as
  ``reference``, which states the reuse rule, and records its own forward
  for the next one. A ``tiny`` record holds about 140 KB.

``policy=None`` infers every frame in full, calls no gate function and
keeps no record; it is the one detection path, which the CLI's ``detect``
and evaluation metric use, and the per-frame baseline that gating is
measured against.

Processing is strictly sequential per video; independent videos can run
concurrently with separate states.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .detector import (AnchorPrior, ClassProbabilityMap, DetectionBox, decode,
                       map_from_output, nms)
from .motion import Frame, GatingPolicy, decide, motion_map, reference_half, stack_frames
from .netdef import NetworkDescriptor, WeightStore
from .network import forward

__all__ = ["FrameTiming", "PipelineState", "RunReport", "process_frame", "run"]


@dataclass(frozen=True)
class PipelineState:
    """What the next frame needs: the reference and its map, how old it is,
    and three values made from the reference, each in a tuple with the key
    it was made under and used only when that key matches the call:

    * ``reference_boxes``, ``(settings, boxes)``: the settings are the
      anchors and the two thresholds as Python floats;
    * ``reference_half``, ``(reference frame, gate kernel bytes, half)``:
      the reference's read-only half of the gate's products;
    * ``reference_record``, ``(net, store, arrays)``: the reference's
      forward record (``network.forward``'s ``record``).

    Immutable; one new state per frame.
    """

    reference_frame: Optional[Frame] = None
    reference_map: Optional[ClassProbabilityMap] = None
    frames_since_inference: int = 0
    reference_boxes: Optional[tuple] = None
    reference_half: Optional[tuple] = None
    reference_record: Optional[tuple] = None

    def __post_init__(self) -> None:
        if (self.reference_frame is None) != (self.reference_map is None):
            raise ValueError("reference frame and reference map must be set together")


@dataclass(frozen=True)
class FrameTiming:
    """Seconds spent in each stage while processing one frame."""

    gate: float = 0.0
    infer: float = 0.0
    decode: float = 0.0


def process_frame(state: PipelineState, frame: Frame, policy: Optional[GatingPolicy],
                  net: NetworkDescriptor, store: WeightStore,
                  anchors: Sequence[AnchorPrior], obj_threshold: float,
                  nms_threshold: float,
                  ) -> tuple[list[DetectionBox], bool, PipelineState, FrameTiming]:
    """Advance the pipeline by one frame.

    Returns the frame's detections, whether deep inference ran, the new
    state, and per-stage timings. With ``policy=None`` the frame always
    runs deep inference and the gate is never called. A skipped frame
    returns a new list of the reference's stored boxes, calling neither
    ``decode`` nor ``nms``, when its anchors and thresholds equal the ones
    that made them; otherwise it decodes the reference map and stores the
    result. A gated inferred frame records its forward and reuses the
    state's record when it was made with this ``net`` and ``store``. The
    returned list is the caller's to change. A frame's shape is
    checked once, by the stage that uses it: ``motion_map`` against the
    reference's half, or ``forward`` against the network input when there
    is no reference or no policy. States are immutable, so the caller's
    state stays usable after an error.
    """
    reference, cmap = state.reference_frame, state.reference_map
    boxes, half, record = state.reference_boxes, state.reference_half, state.reference_record
    gate_s = 0.0
    gap = state.frames_since_inference + 1
    if reference is None or policy is None:
        must_infer = True
    else:
        t0 = time.perf_counter()
        kernel = policy.kernel.data.tobytes()
        if half is None or half[0] is not reference or half[1] != kernel:
            half = (reference, kernel, reference_half(reference, policy))
        # The motion map is dropped before inference. Kept alive through the
        # forward, it left the heap's free top within 24 KB of glibc's trim
        # threshold in most process layouts, and some trimmed and re-grew
        # the heap on every run.
        must_infer = decide(motion_map(stack_frames(frame, half[2]), policy), policy, gap)
        gate_s = time.perf_counter() - t0

    infer_s = 0.0
    if must_infer:
        t0 = time.perf_counter()
        if policy is None:
            out, record = forward(net, store, frame.pixels), None
        else:
            kept = record is not None and record[0] is net and record[1] is store
            made: list = []
            out = forward(net, store, frame.pixels, record=made,
                          reference=record[2] if kept else None)
            record = (net, store, tuple(made))
        cmap = map_from_output(net, out)
        infer_s = time.perf_counter() - t0
        reference, gap, boxes, half = frame, 0, None, None

    t0 = time.perf_counter()
    # Python floats: np.float32(0.4) == 0.4, yet the two bars keep different slots.
    settings = (tuple(anchors), float(obj_threshold), float(nms_threshold))
    if boxes is None or boxes[0] != settings:
        boxes = (settings, tuple(nms(decode(cmap, anchors, obj_threshold), nms_threshold)))
    decode_s = time.perf_counter() - t0
    new_state = PipelineState(reference, cmap, gap, boxes, half, record)
    return list(boxes[1]), must_infer, new_state, FrameTiming(gate_s, infer_s, decode_s)


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


def run(frames: Iterable[Frame], net: NetworkDescriptor, store: WeightStore,
        anchors: Sequence[AnchorPrior], policy: Optional[GatingPolicy],
        obj_threshold: float, nms_threshold: float,
        ) -> tuple[RunReport, list[list[DetectionBox]]]:
    """Fold :func:`process_frame` over frames in order.

    ``frames`` may be any iterable, a lazy one included: it is read once,
    one frame at a time, and never held whole, so a run keeps only the
    current frame and the reference alive. ``policy=None`` infers every
    frame. Wall time covers the gate, infer, and decode stages only (frame
    I/O is the caller's business); FPS is frames divided by that total. A
    ``ValueError``, ``ArithmeticError`` or ``OSError`` raised for a frame by
    :func:`process_frame` is re-raised as the same type with
    ``frame <index>:`` before its message; one raised by the iterable
    itself passes through unchanged.
    """
    state = PipelineState()
    decisions: list[int] = []
    detections: list[list[DetectionBox]] = []
    times = {"gate": 0.0, "infer": 0.0, "decode": 0.0}
    for frame in frames:
        try:
            boxes, did_infer, state, timing = process_frame(
                state, frame, policy, net, store, anchors,
                obj_threshold, nms_threshold)
        except (ArithmeticError, OSError, ValueError) as exc:
            raise type(exc)(f"frame {frame.index}: {exc}") from exc
        decisions.append(1 if did_infer else 0)
        detections.append(boxes)
        times["gate"] += timing.gate
        times["infer"] += timing.infer
        times["decode"] += timing.decode
    if not decisions:
        raise ValueError("frame sequence must be non-empty")
    frames_seen = len(decisions)
    total = sum(times.values())
    inferences = sum(decisions)
    report = RunReport(
        frames=frames_seen,
        inferences=inferences,
        inference_frequency=100.0 * inferences / frames_seen,
        wall_time=times,
        frames_per_second=frames_seen / total if total > 0 else 0.0,
        decisions=decisions,
    )
    return report, detections
