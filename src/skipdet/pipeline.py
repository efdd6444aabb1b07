"""Per-frame orchestration of gating, deep inference, and reference reuse.

The state machine: the first frame always runs deep inference (there is no
reference yet). Afterwards each frame is paired with the reference, gated
by the motion map, and either (a) run through the detector, becoming the
new reference together with its class probability map and its boxes, or
(b) skipped, in which case the reference's boxes are returned again.
The state keeps four values made from the reference, each with the key
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
- the pixels and the read-only motion map of the last gated frame mapped
  in full, keyed on that half and the bytes of the gate bias. A bias
  change drops only these. The first gated frame under a key maps in full
  and keeps them. A later one whose bits all equal those pixels (so -0.0
  and +0.0 differ) reuses the map as it is; one that differs in any bit
  maps in full and drops the pixels and the map, so the later frames
  under that key map in full without a compare. The gate maps each pixel
  from the current pixel, the half and the bias alone, so a reused map has
  a fresh map's bits. An inferred frame drops the map before its forward.
- the reference's forward record, keyed on ``net`` and ``store`` by
  identity. A gated inferred frame passes it to ``network.forward`` as
  ``reference``, which states the reuse rule, and records its own forward
  for the next one. A ``tiny`` record holds about 140 KB.

``policy=None`` infers every frame in full, calls no gate function and
keeps no record; it is the one detection path, which the CLI's ``detect``
and evaluation metric use, and the per-frame baseline that gating is
measured against.

A frame's pixels must not be written after the frame is passed to
:func:`process_frame`: the forward's record and the gate's kept pixels are
compared with later frames, and a pixel written in place would read as
unchanged.

Processing is strictly sequential per video; independent videos can run
concurrently with separate states.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .detector import (AnchorPrior, ClassProbabilityMap, DetectionBox, decode,
                       map_from_output, nms)
from .motion import Frame, GatingPolicy, decide, motion_map, reference_half, stack_frames
from .netdef import NetworkDescriptor, WeightStore
from .network import forward

__all__ = ["FrameTiming", "PipelineState", "RunReport", "process_frame", "run"]


@dataclass(frozen=True)
class PipelineState:
    """What the next frame needs: the reference and its map, how old it is,
    and four values made from the reference, each in a tuple with the key
    it was made under and used only when that key matches the call:

    * ``reference_boxes``, ``(settings, boxes)``: the settings are the
      anchors and the two thresholds as Python floats;
    * ``reference_half``, ``(reference frame, gate kernel bytes, half)``:
      the reference's read-only half of the gate's products;
    * ``last_gated``, ``(reference_half, gate bias bytes, pixels, map)``:
      the pixels and read-only motion map of the last gated frame mapped in
      full with that half (by identity) and bias; pixels and map are None
      once a gated frame under that key differed from them;
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
    last_gated: Optional[tuple] = None

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
    reference's half (a frame of another shape never equals the kept
    pixels, so it is mapped), or ``forward`` against the network input when
    there is no reference or no policy. States are immutable, so the
    caller's state stays usable after an error.
    """
    reference, cmap = state.reference_frame, state.reference_map
    boxes, half, record = state.reference_boxes, state.reference_half, state.reference_record
    last = state.last_gated
    gate_s = 0.0
    gap = state.frames_since_inference + 1
    if reference is None or policy is None:
        must_infer = True
    else:
        t0 = time.perf_counter()
        kernel = policy.kernel.data.tobytes()
        if half is None or half[0] is not reference or half[1] != kernel:
            half = (reference, kernel, reference_half(reference, policy))
        m, last = _gate_map(stack_frames(frame, half[2]), policy, half, last)
        must_infer = decide(m, policy, gap)
        gate_s = time.perf_counter() - t0

    infer_s = 0.0
    if must_infer:
        # The motion map is dropped before inference. Kept alive through the
        # forward, it left the heap's free top within 24 KB of glibc's trim
        # threshold in most process layouts, and some trimmed and re-grew
        # the heap on every run.
        m = last = None
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
    new_state = PipelineState(reference, cmap, gap, boxes, half, record, last)
    return list(boxes[1]), must_infer, new_state, FrameTiming(gate_s, infer_s, decode_s)


def _gate_map(stack: tuple, policy: GatingPolicy, half: tuple,
              last: Optional[tuple]) -> tuple:
    """The motion map of ``stack`` and the ``last_gated`` value to keep (see
    :class:`PipelineState`): under the same half and bias a frame whose bits
    all equal the kept pixels reuses the kept map; any other maps in full."""
    current = stack[0]
    bias = policy.bias.data.tobytes()
    if last is None or last[0] is not half or last[1] != bias:
        m = motion_map(stack, policy)
        m.flags.writeable = False
        return m, (half, bias, current, m)
    if last[2] is not None and np.array_equal(current.view(np.uint32),
                                              last[2].view(np.uint32)):
        return last[3], last
    return motion_map(stack, policy), (half, bias, None, None)


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
    current frame, the reference and the gated frame last mapped in full
    alive. ``policy=None`` infers every frame. Wall time covers the gate,
    infer, and decode stages only (frame I/O is the caller's business); FPS
    is frames divided by that total. A ``ValueError``, ``ArithmeticError``
    or ``OSError`` raised for a frame by :func:`process_frame` is re-raised
    as the same type with ``frame <index>:`` before its message; one raised
    by the iterable itself passes through unchanged.
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
