"""Per-frame orchestration of gating, deep inference, and reference reuse.

The state machine: the first frame always runs deep inference (there is no
reference yet). Afterwards each frame is paired with the reference, gated
by the motion map, and either (a) run through the detector, becoming the
new reference together with its class probability map and its boxes, or
(b) skipped, in which case the reference's boxes are returned again.

The state keeps three values made from the reference under one key: the
reference frame, ``net`` and ``store`` (each by identity), the bytes of the
gate kernel and bias (``None`` when ``policy`` is None), and the anchors and
both thresholds as Python floats. A call whose key differs in any part
drops all three, and each is made again only when it is needed:

- the reference's boxes: a skipped frame returns them without calling
  ``decode`` or ``nms``; with none kept it decodes the reference map.
  Decode and nms are deterministic, so the boxes equal a fresh decode
  either way.
- the reference's forward record (``network.forward``'s ``record``): a
  gated inferred frame passes it as ``reference``, which states the reuse
  rule, or runs a full forward with none kept, and records its own forward
  for the next one. ``policy=None`` keeps no record.
- the gate: the reference's half of the gate's products
  (``motion.reference_half``), so a gated frame multiplies only its own
  channels and its map has the bits of the ``[2C,H,W]`` stack's, and the
  pixels and read-only motion map of the first gated frame, mapped in full.
  A later gated frame that holds those very pixels, as frames that
  ``ppm.read_frames`` made from equal rasters do, or whose bits all equal
  them (so -0.0 and +0.0 differ), reuses that map, which has a fresh map's
  bits, since the gate maps each pixel from the current pixel, the half
  and the bias alone. One that differs in any bit maps in full and drops
  the pixels and the map, so the frames up to the next inference map in
  full without a compare.
  An inferred frame drops the map before its forward.

``policy=None`` infers every frame in full and calls no gate function; it is
the one detection path, which the CLI's ``detect`` and evaluation metric
use, and the per-frame baseline that gating is measured against.

A frame's pixels must not be written after the frame is passed to
:func:`process_frame`: the forward's record and the gate's kept pixels are
compared with later frames, and a pixel written in place would read as
unchanged. Frames read from files share the pixels of equal rasters and
hold them read-only, so such a write raises.

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
    and ``kept``, ``(key, boxes, record, gate)``: the values made from the
    reference under ``key`` (see the module docstring), each None until it
    is made; ``gate`` is ``(half, pixels, map)``, whose pixels and map are
    None once a gated frame differed from them.

    Immutable; one new state per frame.
    """

    reference_frame: Optional[Frame] = None
    reference_map: Optional[ClassProbabilityMap] = None
    frames_since_inference: int = 0
    kept: Optional[tuple] = None

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
    runs deep inference and the gate is never called. The state's kept
    values are used only when this call's key matches theirs (see the
    module docstring). The returned list is the caller's to change. A
    frame's shape is checked once, by the stage that uses it: ``motion_map``
    against the reference's half (a frame of another shape never equals the
    kept pixels, so it is mapped), or ``forward`` against the network input
    when there is no reference or no policy. States are immutable, so the
    caller's state stays usable after an error.
    """
    reference, cmap = state.reference_frame, state.reference_map
    gate_bytes = (None if policy is None
                  else (policy.kernel.data.tobytes(), policy.bias.data.tobytes()))
    # Python floats: np.float32(0.4) == 0.4, yet the two bars keep different slots.
    settings = (tuple(anchors), float(obj_threshold), float(nms_threshold))
    key = _key(reference, net, store, gate_bytes, settings)
    boxes = record = gate = None
    if state.kept is not None and state.kept[0] == key:
        _, boxes, record, gate = state.kept
    gate_s = 0.0
    gap = state.frames_since_inference + 1
    if reference is None or policy is None:
        must_infer = True
    else:
        t0 = time.perf_counter()
        half = reference_half(reference, policy) if gate is None else gate[0]
        m, gate = _gate_map(stack_frames(frame, half), policy, gate)
        must_infer = decide(m, policy, gap)
        gate_s = time.perf_counter() - t0

    infer_s = 0.0
    if must_infer:
        # The motion map is dropped before inference. Kept alive through the
        # forward, it left the heap's free top within 24 KB of glibc's trim
        # threshold in most process layouts, and some trimmed and re-grew
        # the heap on every run.
        m = gate = None
        t0 = time.perf_counter()
        if policy is None:
            out = forward(net, store, frame.pixels)
        else:
            made: list = []
            out = forward(net, store, frame.pixels, record=made, reference=record)
            record = tuple(made)
        cmap = map_from_output(net, out)
        infer_s = time.perf_counter() - t0
        reference, gap, boxes = frame, 0, None
        key = _key(frame, net, store, gate_bytes, settings)

    t0 = time.perf_counter()
    if boxes is None:
        boxes = tuple(nms(decode(cmap, anchors, obj_threshold), nms_threshold))
    decode_s = time.perf_counter() - t0
    new_state = PipelineState(reference, cmap, gap, (key, boxes, record, gate))
    return list(boxes), must_infer, new_state, FrameTiming(gate_s, infer_s, decode_s)


def _key(reference: Optional[Frame], net: NetworkDescriptor, store: WeightStore,
         gate_bytes: Optional[tuple], settings: tuple) -> tuple:
    """The key of the state's kept values. The ids compare the reference,
    ``net`` and ``store`` by identity; the objects themselves come last, to
    keep those ids from being reused while the key is kept, and are compared
    only once every id matched, that is, each with itself."""
    return (id(reference), id(net), id(store), gate_bytes, settings, reference, net, store)


def _gate_map(stack: tuple, policy: GatingPolicy, gate: Optional[tuple]) -> tuple:
    """The motion map of ``stack`` and the ``gate`` value to keep (see the
    module docstring): with none kept the frame maps in full and its pixels
    and map are kept; a frame that holds the kept pixels, or whose bits all
    equal them, reuses the kept map; any other maps in full and drops them."""
    current, half = stack
    if gate is None:
        m = motion_map(stack, policy)
        m.flags.writeable = False
        return m, (half, current, m)
    if gate[1] is not None and (current is gate[1] or np.array_equal(
            current.view(np.uint32), gate[1].view(np.uint32))):
        return gate[2], gate
    return motion_map(stack, policy), (half, None, None)


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
    current frame, the reference and the first gated frame after it alive,
    besides what the iterable keeps (``ppm.read_frames`` keeps the previous
    raster's bytes and that frame's pixels).
    ``policy=None`` infers every frame. Wall time covers the gate,
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
