import dataclasses
import gc
import importlib
import itertools
import types
import weakref
from pathlib import Path

import numpy as np
import pytest

from skipdet import pipeline
from skipdet.detector import AnchorPrior, decode, format_detection_line, map_from_output, nms
from skipdet.motion import Frame, GatingPolicy, decide
from skipdet.netdef import LayerSpec, NetworkDescriptor
from skipdet.network import forward, init_weights
from skipdet.pipeline import PipelineState, process_frame, run
from skipdet.synth import MotionInterval, SyntheticSceneSpec, frames_from_scene, generate_scene
from skipdet.tensor import ShapeError, Tensor

import oracles

ANCHORS = [AnchorPrior(0.8, 0.8), AnchorPrior(1.6, 1.6)]
OBJ_THR, NMS_THR = 0.4, 0.5


def mini_net(size=32):
    # two conv+pool blocks down to a (size/4) grid
    grid = size // 4
    return NetworkDescriptor("mini", (3, size, size), (
        LayerSpec.conv(3, 4, 3, pad=1, activation="leaky", alpha=0.1),
        LayerSpec.maxpool2(),
        LayerSpec.conv(4, 8, 3, pad=1, activation="leaky", alpha=0.1),
        LayerSpec.maxpool2(),
        LayerSpec.conv(8, 12, 1),
        LayerSpec.detect_head(grid=grid, anchors=2, classes=1),
    ))


def scene_frames(frames, seed, moving=True, size=32, velocity=(3.0, 2.0)):
    spec = SyntheticSceneSpec(
        frames=frames, width=size, height=size, objects=1,
        velocities=(velocity,),
        schedule=(MotionInterval(1, frames, moving),), noise=0.0, seed=seed)
    images, _ = generate_scene(spec)
    return frames_from_scene(images)


def standalone_detections(net, store, frames):
    """The ungated oracle: detector applied independently per frame."""
    out = []
    for f in frames:
        cmap = map_from_output(net, forward(net, store, f.pixels))
        out.append(nms(decode(cmap, ANCHORS, OBJ_THR), NMS_THR))
    return out


def render(frames, detections):
    lines = []
    for f, boxes in zip(frames, detections):
        lines += [format_detection_line(f.index, b) for b in boxes]
    return "\n".join(lines)


@pytest.fixture(scope="module")
def net_and_store():
    net = mini_net()
    return net, init_weights(net, seed=21)


@pytest.fixture
def gate(monkeypatch):
    # halves: reference_half calls; maps: each map decide receives; mapped:
    # the shape of each pair motion_map maps
    seen = {"halves": 0, "maps": [], "mapped": []}

    def counted_half(*args, fn=pipeline.reference_half):
        seen["halves"] += 1
        return fn(*args)

    def recorded_decide(m, *args, fn=pipeline.decide):
        seen["maps"].append(m.copy())
        return fn(m, *args)

    def recorded_map(stack, policy, fn=pipeline.motion_map):
        seen["mapped"].append(stack[0].shape)
        return fn(stack, policy)
    monkeypatch.setattr(pipeline, "reference_half", counted_half)
    monkeypatch.setattr(pipeline, "decide", recorded_decide)
    monkeypatch.setattr(pipeline, "motion_map", recorded_map)
    return seen


@pytest.fixture
def references(monkeypatch):
    # the ``reference`` each forward call is given
    seen = []

    def spy(net, store, x, **record):
        seen.append(record.get("reference", "no keywords"))
        return forward(net, store, x, **record)

    monkeypatch.setattr(pipeline, "forward", spy)
    return seen


def fresh_map(frame, reference, policy):
    stack = np.concatenate([frame.pixels.data, reference.pixels.data], axis=0)
    return oracles.channel_sum_motion_map(stack, policy.kernel.data, policy.bias.data)


def assert_fresh(state, net, store, frame):
    want = forward(net, store, frame.pixels).data
    assert np.array_equal(state.reference_map.values.data.view(np.uint32),
                          want.view(np.uint32))


def kept_gate(state):
    """The state's kept ``(half, pixels, map)``, or None."""
    return state.kept[3] if state.kept else None


class TestProcessFrame:
    def test_first_frame_always_infers(self, net_and_store):
        net, store = net_and_store
        policy = GatingPolicy.default(3)
        frames = scene_frames(1, seed=0)
        _, did_infer, state, _ = process_frame(
            PipelineState(), frames[0], policy, net, store, ANCHORS, OBJ_THR, NMS_THR)
        assert did_infer is True
        assert state.reference_frame is frames[0]
        assert state.frames_since_inference == 0

    def test_identical_second_frame_skips_bit_identically(self, net_and_store):
        net, store = net_and_store
        policy = GatingPolicy.default(3, pixel_threshold=0.1, area_threshold=0.01)
        f1 = scene_frames(1, seed=1)[0]
        f2 = Frame(2, f1.pixels)
        boxes1, _, state, _ = process_frame(
            PipelineState(), f1, policy, net, store, ANCHORS, OBJ_THR, NMS_THR)
        boxes2, did_infer, state, _ = process_frame(
            state, f2, policy, net, store, ANCHORS, OBJ_THR, NMS_THR)
        assert did_infer is False
        assert boxes2 == boxes1
        assert state.frames_since_inference == 1

    def test_no_policy_infers_without_calling_the_gate(self, net_and_store, monkeypatch):
        net, store = net_and_store
        f1 = scene_frames(1, seed=1)[0]
        f2 = Frame(2, f1.pixels)
        for name in ("reference_half", "stack_frames", "motion_map", "decide"):
            def gate_called(*args, name=name):
                raise AssertionError(f"{name} called with policy=None")
            monkeypatch.setattr(f"skipdet.pipeline.{name}", gate_called)
        boxes1, _, state, _ = process_frame(
            PipelineState(), f1, None, net, store, ANCHORS, OBJ_THR, NMS_THR)
        boxes2, did_infer, state, timing = process_frame(
            state, f2, None, net, store, ANCHORS, OBJ_THR, NMS_THR)
        assert did_infer is True
        assert state.reference_frame is f2
        assert state.frames_since_inference == 0
        assert state.kept[2:] == (None, None)  # no record, no gate
        assert timing.gate == 0.0
        assert boxes2 == boxes1

    def test_error_leaves_state_reusable(self, net_and_store):
        net, store = net_and_store
        policy = GatingPolicy.default(3)
        good = scene_frames(2, seed=2)
        _, _, state, _ = process_frame(
            PipelineState(), good[0], policy, net, store, ANCHORS, OBJ_THR, NMS_THR)
        bad = Frame(5, Tensor.zeros((3, 16, 16)))
        with pytest.raises(ShapeError):
            process_frame(state, bad, policy, net, store, ANCHORS, OBJ_THR, NMS_THR)
        # state still usable for the next valid frame
        _, did_infer, state2, _ = process_frame(
            state, good[1], policy, net, store, ANCHORS, OBJ_THR, NMS_THR)
        assert state2.frames_since_inference == (0 if did_infer else 1)


class TestRun:
    def test_static_sequence_single_inference(self, net_and_store):
        net, store = net_and_store
        frames = scene_frames(50, seed=3, moving=False)
        report, _ = run(frames, net, store, ANCHORS, GatingPolicy.default(3),
                        OBJ_THR, NMS_THR)
        assert report.inferences == 1
        assert report.inference_frequency == pytest.approx(2.0)
        assert report.decisions == [1] + [0] * 49

    def test_always_mode_100_percent(self, net_and_store):
        net, store = net_and_store
        frames = scene_frames(20, seed=4, moving=False)
        report, _ = run(frames, net, store, ANCHORS, None, OBJ_THR, NMS_THR)
        assert report.inference_frequency == 100.0
        assert report.decisions == [1] * 20

    def test_always_mode_equals_standalone_detector(self, net_and_store):
        net, store = net_and_store
        for seed in range(3):
            frames = scene_frames(10, seed=seed)
            _, detections = run(frames, net, store, ANCHORS, None, OBJ_THR, NMS_THR)
            oracle = standalone_detections(net, store, frames)
            assert render(frames, detections) == render(frames, oracle)

    def test_skip_soundness(self, net_and_store):
        # every skipped frame decodes exactly the reference frame's map
        net, store = net_and_store
        spec = SyntheticSceneSpec(
            frames=24, width=32, height=32, velocities=((4.0, 3.0),),
            schedule=(MotionInterval(1, 8, True), MotionInterval(9, 16, False),
                      MotionInterval(17, 24, True)),
            noise=0.0, seed=5)
        frames = frames_from_scene(generate_scene(spec)[0])
        report, detections = run(frames, net, store, ANCHORS, GatingPolicy.default(3),
                                 OBJ_THR, NMS_THR)
        assert 0 < report.inferences < len(frames)
        last_infer = None
        for n, bit in enumerate(report.decisions):
            if bit:
                last_infer = n
            else:
                assert render([frames[n]], [detections[n]]).split() [1:] == \
                    render([frames[last_infer]], [detections[last_infer]]).split()[1:]

    def test_counters_consistent(self, net_and_store):
        net, store = net_and_store
        frames = scene_frames(15, seed=6)
        report, detections = run(frames, net, store, ANCHORS, GatingPolicy.default(3),
                                 OBJ_THR, NMS_THR)
        assert report.inferences == sum(report.decisions)
        assert report.decisions[0] == 1
        assert len(report.decisions) == report.frames == len(frames) == len(detections)
        assert report.inference_frequency == pytest.approx(
            100.0 * report.inferences / report.frames)

    def test_raising_tau_never_increases_inferences(self, net_and_store):
        net, store = net_and_store
        spec = SyntheticSceneSpec(
            frames=30, width=32, height=32, velocities=((2.0, 1.0),),
            schedule=(MotionInterval(1, 15, True), MotionInterval(16, 30, False)),
            noise=0.02, seed=7)
        frames = frames_from_scene(generate_scene(spec)[0])
        last = None
        for tau in (0.0, 0.005, 0.02, 0.1, 0.5, 1.0):
            policy = GatingPolicy.default(3, pixel_threshold=0.1, area_threshold=tau)
            report, _ = run(frames, net, store, ANCHORS, policy,
                            OBJ_THR, NMS_THR)
            if last is not None:
                assert report.inferences <= last
            last = report.inferences

    def test_force_every_bounds_staleness(self, net_and_store):
        net, store = net_and_store
        frames = scene_frames(12, seed=8, moving=False)
        policy = GatingPolicy.default(3, force_every=4)
        report, _ = run(frames, net, store, ANCHORS, policy,
                        OBJ_THR, NMS_THR)
        assert report.decisions == [1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0]
        every = GatingPolicy.default(3, force_every=1)
        report, _ = run(frames, net, store, ANCHORS, every,
                        OBJ_THR, NMS_THR)
        assert report.inference_frequency == 100.0

    def test_error_carries_frame_index(self, net_and_store):
        net, store = net_and_store
        frames = scene_frames(3, seed=9)
        frames[2] = Frame(3, Tensor.zeros((3, 16, 16)))
        for policy in (GatingPolicy.default(3), None):
            with pytest.raises(ShapeError, match="^frame 3: ") as info:
                run(frames, net, store, ANCHORS, policy, OBJ_THR, NMS_THR)
            assert str(info.value).count("frame 3:") == 1

    @pytest.mark.parametrize("error", [FloatingPointError, OverflowError, ValueError])
    def test_forward_error_carries_frame_index(self, net_and_store, monkeypatch, error):
        net, store = net_and_store
        frames = scene_frames(3, seed=9)

        def failing_forward(net, store, x, **record):
            raise error("forward produced non-finite values")

        monkeypatch.setattr("skipdet.pipeline.forward", failing_forward)
        with pytest.raises(error, match="^frame 1: forward produced non-finite values$"):
            run(frames, net, store, ANCHORS, GatingPolicy.default(3),
                OBJ_THR, NMS_THR)

    def test_empty_sequence_rejected(self, net_and_store):
        net, store = net_and_store
        for empty in ([], iter(())):
            with pytest.raises(ValueError, match="non-empty"):
                run(empty, net, store, ANCHORS, GatingPolicy.default(3),
                    OBJ_THR, NMS_THR)

    def test_lazy_frames_equal_a_list(self, net_and_store):
        net, store = net_and_store
        frames = scene_frames(8, seed=14)
        policy = GatingPolicy.default(3)
        listed = run(frames, net, store, ANCHORS, policy, OBJ_THR, NMS_THR)
        lazy = run((f for f in frames), net, store, ANCHORS, policy, OBJ_THR, NMS_THR)
        assert lazy[0].decisions == listed[0].decisions and lazy[0].frames == 8
        assert render(frames, lazy[1]) == render(frames, listed[1])

    def test_report_json_field_names(self, net_and_store):
        net, store = net_and_store
        frames = scene_frames(5, seed=10)
        report, _ = run(frames, net, store, ANCHORS, GatingPolicy.default(3),
                        OBJ_THR, NMS_THR)
        report.config = {"mode": "gated"}
        doc = report.to_json_dict()
        assert set(doc) == {"frames", "inferences", "inference-frequency",
                            "wall-time", "frames-per-second", "decisions", "config"}
        assert set(doc["wall-time"]) == {"gate", "infer", "decode"}


class TestStageTimes:
    def test_each_stage_times_itself_alone(self, net_and_store, monkeypatch):
        # A clock that moves one second per read: a stage that reads it at
        # its start and its end takes exactly 1 s, so a report's times
        # count the frames that ran each stage.
        net, store = net_and_store
        ticks = itertools.count()
        monkeypatch.setattr(pipeline, "time",
                            types.SimpleNamespace(perf_counter=lambda: float(next(ticks))))
        spec = SyntheticSceneSpec(frames=6, width=32, height=32, velocities=((3.0, 2.0),),
                                  schedule=(MotionInterval(1, 3, True),
                                            MotionInterval(4, 6, False)), seed=3)
        frames = frames_from_scene(generate_scene(spec)[0])
        report, _ = run(frames, net, store, ANCHORS, GatingPolicy.default(3), OBJ_THR, NMS_THR)
        assert report.decisions == [1, 1, 1, 0, 0, 0]
        assert report.wall_time == {"gate": 5.0, "infer": 3.0, "decode": 6.0}
        report, _ = run(frames, net, store, ANCHORS, None, OBJ_THR, NMS_THR)
        assert report.wall_time == {"gate": 0.0, "infer": 6.0, "decode": 6.0}


def redecoding_oracle(net, store, frames, decisions, anchors, obj_thr, nms_thr):
    """Each frame's boxes decoded afresh from the map of the last frame that
    inferred, as the pipeline did before it kept the reference's boxes."""
    out = []
    for frame, bit in zip(frames, decisions):
        if bit:
            cmap = map_from_output(net, forward(net, store, frame.pixels))
        out.append(nms(decode(cmap, anchors, obj_thr), nms_thr))
    return out


class TestReuse:
    """A skipped frame returns the reference's boxes without decoding them
    again, unless its key differs from the one they were made under."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"decode": 0, "nms": 0}
        for name in calls:
            def counted(*args, name=name, fn=getattr(pipeline, name)):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(pipeline, name, counted)
        return calls

    def first_frame(self, net, store):
        f1 = scene_frames(1, seed=1)[0]
        policy = GatingPolicy.default(3)
        _, _, state, _ = process_frame(PipelineState(), f1, policy, net, store,
                                       ANCHORS, OBJ_THR, NMS_THR)
        return f1, policy, state

    def test_skipped_frame_calls_neither_decode_nor_nms(self, net_and_store, calls):
        net, store = net_and_store
        f1, policy, state = self.first_frame(net, store)
        assert calls == {"decode": 1, "nms": 1}
        for n in range(2, 5):
            boxes, did_infer, state, _ = process_frame(
                state, Frame(n, f1.pixels), policy, net, store, ANCHORS, OBJ_THR, NMS_THR)
            assert not did_infer
            assert boxes == nms(decode(state.reference_map, ANCHORS, OBJ_THR), NMS_THR)
        assert calls == {"decode": 1, "nms": 1}

    @pytest.mark.parametrize("changed", [
        ("anchors", [AnchorPrior(0.5, 1.1), AnchorPrior(2.0, 1.2)]),
        ("obj_thr", 0.1),
        ("nms_thr", 0.2),
        ("obj_thr", np.float32(OBJ_THR)),  # == OBJ_THR, yet another float value
        ("reference", None),  # an equal-valued reference frame, with its own map
        ("net", mini_net()),  # equal in value, but another object
        ("store", init_weights(mini_net(), seed=22)),
        ("kernel", 2.0),  # both halves scaled in place
        ("bias", 0.03),  # set in place
        ("policy", None),  # the gate, after frames under policy=None
        ("nms_thr", np.float32(0.45)),  # == the 0.45 it replaces, yet another float value
    ])
    def test_changed_settings_redecode_once(self, net_and_store, calls, gate, references,
                                            changed):
        # Frames 1-2 run under the first arguments and 3-6 under the changed
        # ones, each key part changed alone. Frame 3, skipped, decodes and
        # makes the half again, frame 4 reuses both, and frames 5 and 6,
        # moving, infer: 5 in full, as no record is kept, 6 reusing 5's.
        net, store = net_and_store
        part, value = changed
        policy = GatingPolicy.default(3)
        args = {"policy": None if part == "policy" else policy, "net": net, "store": store,
                "anchors": ANCHORS, "obj_thr": OBJ_THR, "nms_thr": 0.45}
        f1, f2, f3 = scene_frames(3, seed=1)
        frames = [f1] + [Frame(n, f1.pixels) for n in (2, 3, 4)] + [f2, f3]
        state, decisions, made, records = PipelineState(), [], [], []
        for n, frame in enumerate(frames, start=1):
            if n == 3 and part == "reference":
                equal = Frame(state.reference_frame.index, state.reference_frame.pixels)
                assert equal == state.reference_frame
                state = dataclasses.replace(state, reference_frame=equal, reference_map=(
                    map_from_output(net, forward(net, store, equal.pixels))))
            elif n == 3 and part == "kernel":
                policy.kernel.data[...] *= np.float32(value)
            elif n == 3 and part == "bias":
                policy.bias.data[...] = value
            elif n == 3:
                args[part] = policy if part == "policy" else value
            reference, gap = state.reference_frame, state.frames_since_inference + 1
            maps = len(gate["maps"])
            boxes, did_infer, state, _ = process_frame(
                state, frame, args["policy"], args["net"], args["store"], args["anchors"],
                args["obj_thr"], args["nms_thr"])
            decisions.append(did_infer)
            made.append((calls["decode"], calls["nms"], gate["halves"]))
            records.append(state.kept[2])
            gated = reference is not None and args["policy"] is not None
            assert len(gate["maps"]) == maps + gated
            if gated:
                want = fresh_map(frame, reference, args["policy"])
                assert np.array_equal(gate["maps"][-1].view(np.uint32), want.view(np.uint32))
                assert did_infer is decide(want, args["policy"], gap)
            if did_infer:
                # frame 6's map is the forward that reuses frame 5's record;
                # test_network checks that it has a full forward's bits
                want = forward(args["net"], args["store"], frame.pixels,
                               reference=records[4] if n == 6 else None).data
                assert np.array_equal(state.reference_map.values.data.view(np.uint32),
                                      want.view(np.uint32))
            assert boxes == nms(decode(state.reference_map, args["anchors"], args["obj_thr"]),
                                args["nms_thr"])
        assert decisions == [True, part == "policy", False, False, True, True]
        decoded, nmsed, halves = zip(*made)
        # made again once on frame 3, reused on frame 4
        assert decoded[2:4] == nmsed[2:4] == (decoded[1] + 1,) * 2
        assert halves[2:4] == (halves[1] + 1,) * 2
        assert references[-2] is None and references[-1] is records[4]
        assert references[:-2] == ([None] if part != "policy" else ["no keywords"] * 2)

    def test_returned_list_is_the_callers(self, net_and_store):
        net, store = net_and_store
        f1 = scene_frames(1, seed=1)[0]
        policy = GatingPolicy.default(3)
        state = PipelineState()
        returned = []
        for n in range(1, 4):
            boxes, _, state, _ = process_frame(
                state, Frame(n, f1.pixels), policy, net, store, ANCHORS, 0.0, NMS_THR)
            returned.append(list(boxes))
            boxes.clear()
        assert returned[0] and returned[0] == returned[1] == returned[2]

    @pytest.mark.parametrize("obj_thr", [0.4, 0.1, 0.0])
    def test_gated_run_equals_redecoding(self, net_and_store, obj_thr):
        net, store = net_and_store
        spec = SyntheticSceneSpec(
            frames=24, width=32, height=32, velocities=((4.0, 3.0),),
            schedule=(MotionInterval(1, 6, True), MotionInterval(7, 14, False),
                      MotionInterval(15, 18, True), MotionInterval(19, 24, False)),
            noise=0.0, seed=13)
        frames = frames_from_scene(generate_scene(spec)[0])
        report, detections = run(frames, net, store, ANCHORS, GatingPolicy.default(3),
                                 obj_thr, NMS_THR)
        assert 0 < report.inferences < len(frames)
        oracle = redecoding_oracle(net, store, frames, report.decisions, ANCHORS,
                                   obj_thr, NMS_THR)
        assert render(frames, detections) == render(frames, oracle)
        assert obj_thr > 0 or all(detections)


class TestReferenceHalf:
    """The state keeps the reference's half of the gate's products, made once
    per key, and the pixels and map of the first gated frame, whose map a
    bit-equal frame reuses; the map that ``decide`` gets equals one of a
    fresh stack."""

    def stream(self, gate, net, store, frames, policies, state=None):
        """Each frame through ``process_frame``, checking that each gated
        frame's map has the oracle's bits and its decision is ``decide``'s
        on that map; returns the decisions and the last state."""
        state, decisions = state or PipelineState(), []
        for frame, policy in zip(frames, policies):
            reference, gap = state.reference_frame, state.frames_since_inference + 1
            maps = len(gate["maps"])
            _, did_infer, state, _ = process_frame(
                state, frame, policy, net, store, ANCHORS, OBJ_THR, NMS_THR)
            gated = reference is not None and policy is not None
            assert len(gate["maps"]) == maps + gated
            if gated:
                want = fresh_map(frame, reference, policy)
                assert np.array_equal(gate["maps"][-1].view(np.uint32), want.view(np.uint32))
                assert did_infer is decide(want, policy, gap)
            assert (kept_gate(state) is None) is did_infer
            decisions.append(did_infer)
        return decisions, state

    def test_kernel_changes_mid_stream(self, net_and_store, gate):
        net, store = net_and_store
        k = np.float32([0.7, 0.2, 0.45])
        w = np.concatenate([k, -k]).reshape(1, 6, 1, 1)
        plain = GatingPolicy.default(3)
        other = GatingPolicy(kernel=Tensor(w), bias=Tensor.zeros((1,)),
                             pixel_threshold=0.05, area_threshold=0.01)
        # another kernel object with the same values: no new half
        copied = GatingPolicy(kernel=Tensor(w.copy()), bias=Tensor.zeros((1,)))
        # the same kernel and bias with other thresholds: no new half
        rethresholded = GatingPolicy(kernel=plain.kernel, bias=plain.bias,
                                     pixel_threshold=0.2, area_threshold=0.01)
        # the same kernel object with another bias: a new half
        rebiased = GatingPolicy(kernel=plain.kernel, bias=Tensor(np.float32([0.03])))
        spec = SyntheticSceneSpec(
            frames=30, width=32, height=32, velocities=((3.0, 2.0),),
            schedule=(MotionInterval(1, 5, True), MotionInterval(6, 14, False),
                      MotionInterval(15, 19, True), MotionInterval(20, 30, False)),
            noise=0.0, seed=14)
        frames = frames_from_scene(generate_scene(spec)[0])
        policies = ([plain] * 6 + [rethresholded] * 2 + [rebiased] * 3 + [other] * 2 + [copied]
                    + [plain] * 6 + [other] * 10)
        state, made_for, halves, kept, decisions = PipelineState(), None, 0, 0, []
        for n, (frame, policy) in enumerate(zip(frames, policies)):
            reference, gap = state.reference_frame, state.frames_since_inference + 1
            _, did_infer, state, _ = process_frame(
                state, frame, policy, net, store, ANCHORS, OBJ_THR, NMS_THR)
            decisions.append(did_infer)
            if reference is not None:
                want = fresh_map(frame, reference, policy)
                assert np.array_equal(gate["maps"][-1].view(np.uint32), want.view(np.uint32))
                assert did_infer is decide(want, policy, gap)
                gate_bytes = policy.kernel.data.tobytes() + policy.bias.data.tobytes()
                if made_for != gate_bytes:
                    halves, made_for = halves + 1, gate_bytes
                elif policy is not policies[n - 1]:
                    kept += 1
            if did_infer:
                made_for = None
        assert len(gate["maps"]) == len(frames) - 1
        assert gate["halves"] == halves
        assert 0 < sum(decisions) < len(frames)
        # in the frozen stretch the gate's bytes changed three times without an
        # inference, and new policy objects with the same bytes kept the half
        assert not any(decisions[7:14])
        assert kept >= 2 and halves >= sum(decisions[:-1]) + 3

    @pytest.mark.parametrize("skipped_first", [False, True])
    def test_wrong_shape_frame_leaves_the_state_reusable(self, net_and_store, gate,
                                                         skipped_first):
        net, store = net_and_store
        policy = GatingPolicy.default(3)
        f1, f2 = scene_frames(2, seed=2)
        _, _, state, _ = process_frame(
            PipelineState(), f1, policy, net, store, ANCHORS, OBJ_THR, NMS_THR)
        if skipped_first:
            _, did_infer, state, _ = process_frame(
                state, Frame(2, f1.pixels), policy, net, store, ANCHORS, OBJ_THR, NMS_THR)
            assert not did_infer and kept_gate(state) is not None
        kept = state.kept
        with pytest.raises(ShapeError, match="mismatch"):
            process_frame(state, Frame(3, Tensor.zeros((3, 16, 16))), policy, net, store,
                          ANCHORS, OBJ_THR, NMS_THR)
        assert state.kept is kept
        _, did_infer, _, _ = process_frame(
            state, f2, policy, net, store, ANCHORS, OBJ_THR, NMS_THR)
        want = fresh_map(f2, f1, policy)
        assert np.array_equal(gate["maps"][-1].view(np.uint32), want.view(np.uint32))
        assert did_infer is decide(want, policy, state.frames_since_inference + 1)
        # one half for f1 when none was kept; the kept one is reused otherwise
        assert gate["halves"] == (1 if skipped_first else 2)

    def test_no_policy_never_builds_the_half(self, net_and_store, gate):
        net, store = net_and_store
        policy = GatingPolicy.default(3)
        f1 = scene_frames(1, seed=1)[0]
        state = PipelineState()
        for n, pol in enumerate([policy, policy, None, None, policy], start=1):
            _, did_infer, state, _ = process_frame(
                state, Frame(n, f1.pixels), pol, net, store, ANCHORS, OBJ_THR, NMS_THR)
            assert did_infer is (n <= 1 or pol is None)
            assert (kept_gate(state) is None) is did_infer
        assert gate["halves"] == 2

    def test_kernel_changed_in_place(self, net_and_store, gate):
        net, store = net_and_store
        w = np.float32([0.5, 0.5, 0.5, -0.5, -0.5, -0.5]).reshape(1, 6, 1, 1)
        policy = GatingPolicy(kernel=Tensor(w), bias=Tensor.zeros((1,)))
        assert policy.kernel.data is w  # the Tensor wraps the caller's array
        f1, f2, f3 = scene_frames(3, seed=3)
        _, _, state, _ = process_frame(
            PipelineState(), f1, policy, net, store, ANCHORS, OBJ_THR, NMS_THR)
        _, did_infer, state, _ = process_frame(
            state, Frame(1, f1.pixels), policy, net, store, ANCHORS, OBJ_THR, NMS_THR)
        assert not did_infer and gate["halves"] == 1
        # each call starts from the state whose half was made before the edits
        for frame, scale in ((f2, 0.25), (f3, 1.0), (f2, 4.0)):
            w[0, 3:] *= np.float32(scale)
            process_frame(state, frame, policy, net, store, ANCHORS, OBJ_THR, NMS_THR)
            want = fresh_map(frame, f1, policy)
            assert np.array_equal(gate["maps"][-1].view(np.uint32), want.view(np.uint32))
        # made again while the values differ from the kept half's; kept once
        # they are back
        assert gate["halves"] == 3

    def test_state_given_another_reference(self, net_and_store, gate):
        net, store = net_and_store
        policy = GatingPolicy.default(3)
        f1, f2, f3 = scene_frames(3, seed=4)
        _, _, state, _ = process_frame(
            PipelineState(), f1, policy, net, store, ANCHORS, OBJ_THR, NMS_THR)
        _, _, state, _ = process_frame(
            state, Frame(1, f1.pixels), policy, net, store, ANCHORS, OBJ_THR, NMS_THR)
        assert kept_gate(state) is not None
        moved = dataclasses.replace(state, reference_frame=f2,
                                    reference_map=map_from_output(
                                        net, forward(net, store, f2.pixels)))
        _, did_infer, _, _ = process_frame(
            moved, f3, policy, net, store, ANCHORS, OBJ_THR, NMS_THR)
        want = fresh_map(f3, f2, policy)
        assert np.array_equal(gate["maps"][-1].view(np.uint32), want.view(np.uint32))
        assert did_infer is decide(want, policy, moved.frames_since_inference + 1)
        assert gate["halves"] == 2

    def test_bias_changed_in_place_remakes_the_half(self, net_and_store, gate):
        net, store = net_and_store
        b = np.zeros(1, np.float32)
        policy = GatingPolicy(kernel=GatingPolicy.default(3).kernel, bias=Tensor(b))
        assert policy.bias.data is b  # the Tensor wraps the caller's array
        f1 = scene_frames(1, seed=8)[0]
        frames = [Frame(n, f1.pixels) for n in range(1, 8)]
        _, state = self.stream(gate, net, store, frames[:3], [policy] * 3)
        assert gate["mapped"] == [(3, 32, 32)] and gate["halves"] == 1
        for frame, bias, halves in zip(frames[3:], (0.03, 0.03, 0.0, 0.0), (2, 2, 3, 3)):
            mapped = len(gate["mapped"])
            changed = b[0] != bias
            b[0] = bias
            decisions, state = self.stream(gate, net, store, [frame], [policy], state)
            assert decisions == [False] and gate["halves"] == halves
            # a new bias makes the half again and maps in full; the same one
            # reuses both
            assert gate["mapped"][mapped:] == ([(3, 32, 32)] if changed else [])
        assert kept_gate(state)[1] is f1.pixels.data

    def test_slow_clip_reuses_only_repeated_frames(self, net_and_store, gate):
        net, store = net_and_store
        policy = GatingPolicy.default(3, area_threshold=0.05)
        frames = scene_frames(16, seed=5, velocity=(0.4, 0.3))
        state, paths = PipelineState(), []
        for frame in frames:
            before, mapped = kept_gate(state), len(gate["mapped"])
            gated = state.reference_frame is not None
            (inferred,), state = self.stream(gate, net, store, [frame], [policy], state)
            maps = gate["mapped"][mapped:]
            if not gated:
                path = "ungated"
            elif before is None:
                path = "first"
                assert maps == [(3, 32, 32)]
                assert inferred or kept_gate(state)[1] is frame.pixels.data
                assert inferred or not kept_gate(state)[2].flags.writeable
            elif before[1] is None:
                path = "after a change"
                assert maps == [(3, 32, 32)]
                assert inferred or kept_gate(state)[1:] == (None, None)
            elif np.array_equal(frame.pixels.data.view(np.uint32), before[1].view(np.uint32)):
                path = "repeat"
                assert maps == [] and (inferred or kept_gate(state) is before)
            else:
                path = "changed"
                assert maps == [(3, 32, 32)]
                assert inferred or kept_gate(state)[1:] == (None, None)
            paths.append((path, inferred))
        assert 1 < sum(inferred for _, inferred in paths) < 8
        # skipped frames took each path: reused a map, differed from the kept
        # pixels without moving enough to infer, and mapped in full after that
        assert {("repeat", False), ("changed", False), ("after a change", False)} <= set(paths)

    def test_noisy_clip_stops_comparing(self, net_and_store, gate):
        net, store = net_and_store
        policy = GatingPolicy.default(3, force_every=6)
        spec = SyntheticSceneSpec(frames=12, width=32, height=32, velocities=((3.0, 2.0),),
                                  schedule=(MotionInterval(1, 12, False),), noise=0.015,
                                  seed=9)
        frames = frames_from_scene(generate_scene(spec)[0])
        decisions, state = self.stream(gate, net, store, frames[:2], [policy] * 2)
        assert kept_gate(state)[1] is frames[1].pixels.data
        # each later frame differs from the one before, so the pixels are
        # dropped until the next inference, and every gated frame maps in full
        more, state = self.stream(gate, net, store, frames[2:], [policy] * 10, state)
        decisions += more
        assert [n for n, d in enumerate(decisions, start=1) if d] == [1, 7]
        assert gate["mapped"] == [(3, 32, 32)] * 11
        assert kept_gate(state)[1:] == (None, None)

    def test_a_signed_zero_counts_as_changed(self, net_and_store, gate):
        net, store = net_and_store
        policy = GatingPolicy.default(3)
        pixels = scene_frames(1, seed=10)[0].pixels.data.copy()
        pixels[1, 5, 7] = 0.0
        signed = pixels.copy()
        signed[1, 5, 7] = -0.0
        frames = [Frame(1, Tensor(pixels)), Frame(2, Tensor(pixels.copy())),
                  Frame(3, Tensor(signed))]
        decisions, state = self.stream(gate, net, store, frames, [policy] * 3)
        assert decisions == [True, False, False]
        assert gate["mapped"] == [(3, 32, 32)] * 2
        assert kept_gate(state)[1:] == (None, None)

    def test_no_policy_frame_drops_the_last_gated_frame(self, net_and_store, gate):
        net, store = net_and_store
        policy = GatingPolicy.default(3)
        f1 = scene_frames(1, seed=11)[0]
        frames = [Frame(n, f1.pixels) for n in range(1, 7)]
        decisions, _ = self.stream(gate, net, store, frames,
                                   [policy, policy, policy, None, policy, policy])
        assert decisions == [True, False, False, True, False, False]
        # frames 2 and 5 map in full after an inference; 3 and 6 reuse it
        assert gate["mapped"] == [(3, 32, 32)] * 2


class TestReferenceRecord:
    """A gated inferred frame records its forward, and the next one reuses
    that record when its key matches the record's."""

    def test_moving_stream_reuses_each_record(self, net_and_store, references):
        net, store = net_and_store
        policy = GatingPolicy.default(3)
        state, records = PipelineState(), []
        for frame in scene_frames(5, seed=6):
            _, did_infer, state, _ = process_frame(
                state, frame, policy, net, store, ANCHORS, OBJ_THR, NMS_THR)
            record = state.kept[2]
            assert did_infer
            assert np.shares_memory(record[0], frame.pixels.data)
            assert all(r is None or not r.flags.writeable for r in record)
            assert_fresh(state, net, store, frame)
            records.append(record)
        assert references[0] is None
        assert all(got is want for got, want in zip(references[1:], records))

    def test_no_policy_never_records(self, net_and_store, references):
        net, store = net_and_store
        state = PipelineState()
        for frame in scene_frames(3, seed=6):
            _, _, state, _ = process_frame(state, frame, None, net, store, ANCHORS,
                                           OBJ_THR, NMS_THR)
            assert state.kept[2] is None
        assert references == ["no keywords"] * 3

    @pytest.mark.parametrize("other", ["store", "network", "reference"])
    def test_a_record_made_otherwise_is_not_reused(self, net_and_store, references, other):
        # A record kept under another network, store or reference frame is
        # dropped, and the frame runs a full forward.
        net, store = net_and_store
        policy = GatingPolicy.default(3)
        f1, f2, f3 = scene_frames(3, seed=7)
        _, _, state, _ = process_frame(
            PipelineState(), f1, policy, net, store, ANCHORS, OBJ_THR, NMS_THR)
        assert state.kept[2] is not None
        if other == "store":
            store = init_weights(net, seed=22)
        elif other == "network":
            net = mini_net()  # equal in value, but another object
        else:
            state = dataclasses.replace(state, reference_frame=f2)
        _, did_infer, state, _ = process_frame(
            state, f3, policy, net, store, ANCHORS, OBJ_THR, NMS_THR)
        assert did_infer and references == [None, None]
        assert np.shares_memory(state.kept[2][0], f3.pixels.data)
        assert_fresh(state, net, store, f3)


class TestPipelineState:
    def test_reference_pair_invariant(self):
        with pytest.raises(ValueError, match="together"):
            PipelineState(reference_frame=scene_frames(1, seed=0)[0])

    def test_kept_values_hold_what_their_key_compares(self, net_and_store):
        # The key compares the reference, net and store by id, and an id is
        # another object's once its own is freed: the state keeps all three.
        net, store = mini_net(), init_weights(net_and_store[0], seed=23)
        f1, f2 = scene_frames(2, seed=1)
        _, _, state, _ = process_frame(PipelineState(), f1, GatingPolicy.default(3), net,
                                       store, ANCHORS, OBJ_THR, NMS_THR)
        state = dataclasses.replace(state, reference_frame=f2)
        held = [weakref.ref(x) for x in (f1, net, store)]
        del f1, net, store
        gc.collect()
        assert all(ref() is not None for ref in held)
        del state
        gc.collect()
        assert all(ref() is None for ref in held)


class TestTraceWrapPoints:
    """The benchmark's tracer wraps pipeline functions by module attribute;
    a gated run must still pass through every name it wraps."""

    def test_gated_run_reaches_every_wrapped_function(self, net_and_store, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        tracing = importlib.import_module("tracing")
        net, store = net_and_store
        spec = SyntheticSceneSpec(
            frames=4, width=32, height=32, velocities=((3.0, 2.0),),
            schedule=(MotionInterval(1, 2, True), MotionInterval(3, 4, False)),
            noise=0.0, seed=12)
        frames = frames_from_scene(generate_scene(spec)[0])
        with tracing.traced(tracing.Tracer()) as tracer:
            report, _ = run(frames, net, store, ANCHORS, GatingPolicy.default(3),
                            OBJ_THR, NMS_THR)
        assert report.decisions == [1, 1, 0, 0]
        assert {"pipeline.process_frame", "motion.stack_frames", "motion.motion_map",
                "motion.decide", "network.forward", "detector.map_from_output",
                "detector.decode", "detector.nms"} <= {s.name for s in tracer.spans}
