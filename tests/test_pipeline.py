import dataclasses
import importlib
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
        assert state.reference_half is None and state.half_key is None
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
    again, unless its decode settings differ from the ones that made them."""

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
        ([AnchorPrior(0.5, 1.1), AnchorPrior(2.0, 1.2)], OBJ_THR, NMS_THR),
        (ANCHORS, 0.1, NMS_THR),
        (ANCHORS, 0.0, 0.2),
        (ANCHORS, np.float32(OBJ_THR), NMS_THR),  # == OBJ_THR, yet another float value
    ])
    def test_changed_settings_redecode_once(self, net_and_store, calls, changed):
        net, store = net_and_store
        f1, policy, state = self.first_frame(net, store)
        for n in (2, 3):
            boxes, did_infer, state, _ = process_frame(
                state, Frame(n, f1.pixels), policy, net, store, *changed)
            assert not did_infer
            anchors, obj_thr, nms_thr = changed
            assert boxes == nms(decode(state.reference_map, anchors, obj_thr), nms_thr)
        # frame 2 re-decoded; frame 3, with the same settings, reused
        assert calls == {"decode": 2, "nms": 2}

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
    per reference and kernel; every map equals one of a fresh stack."""

    @pytest.fixture
    def gate(self, monkeypatch):
        seen = {"halves": 0, "maps": []}

        def counted_half(*args, fn=pipeline.reference_half):
            seen["halves"] += 1
            return fn(*args)

        def recorded_map(*args, fn=pipeline.motion_map):
            m = fn(*args)
            seen["maps"].append(m.copy())
            return m
        monkeypatch.setattr(pipeline, "reference_half", counted_half)
        monkeypatch.setattr(pipeline, "motion_map", recorded_map)
        return seen

    @staticmethod
    def fresh_map(frame, reference, policy):
        stack = np.concatenate([frame.pixels.data, reference.pixels.data], axis=0)
        return oracles.channel_sum_motion_map(stack, policy.kernel.data, policy.bias.data)

    def test_kernel_changes_mid_stream(self, net_and_store, gate):
        net, store = net_and_store
        k = np.float32([0.7, 0.2, 0.45])
        w = np.concatenate([k, -k]).reshape(1, 6, 1, 1)
        plain = GatingPolicy.default(3)
        other = GatingPolicy(kernel=Tensor(w), bias=Tensor.zeros((1,)),
                             pixel_threshold=0.05, area_threshold=0.01)
        # another kernel object with the same values: no new half either
        copied = GatingPolicy(kernel=Tensor(w.copy()), bias=Tensor.zeros((1,)))
        # the same kernel object with another bias and thresholds: no new half
        rebiased = GatingPolicy(kernel=plain.kernel, bias=Tensor(np.float32([0.03])),
                                pixel_threshold=0.2, area_threshold=0.01)
        spec = SyntheticSceneSpec(
            frames=30, width=32, height=32, velocities=((3.0, 2.0),),
            schedule=(MotionInterval(1, 5, True), MotionInterval(6, 14, False),
                      MotionInterval(15, 19, True), MotionInterval(20, 30, False)),
            noise=0.0, seed=14)
        frames = frames_from_scene(generate_scene(spec)[0])
        policies = ([plain] * 8 + [rebiased] * 3 + [other] * 2 + [copied] + [plain] * 6
                    + [other] * 10)
        state, made_for, halves, kept, decisions = PipelineState(), None, 0, 0, []
        for n, (frame, policy) in enumerate(zip(frames, policies)):
            reference, gap = state.reference_frame, state.frames_since_inference + 1
            _, did_infer, state, _ = process_frame(
                state, frame, policy, net, store, ANCHORS, OBJ_THR, NMS_THR)
            decisions.append(did_infer)
            if reference is not None:
                want = self.fresh_map(frame, reference, policy)
                assert np.array_equal(gate["maps"][-1].view(np.uint32), want.view(np.uint32))
                assert did_infer is decide(want, policy, gap)
                if made_for != policy.kernel.data.tobytes():
                    halves, made_for = halves + 1, policy.kernel.data.tobytes()
                elif policy is not policies[n - 1]:
                    kept += 1
            if did_infer:
                made_for = None
        assert len(gate["maps"]) == len(frames) - 1
        assert gate["halves"] == halves
        assert 0 < sum(decisions) < len(frames)
        # in the frozen stretch the kernel changed twice without an inference,
        # and new policy objects with the same kernel values kept the half
        assert not any(decisions[7:14])
        assert kept >= 2 and halves >= sum(decisions[:-1]) + 2

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
            assert not did_infer and state.half_key[0] is state.reference_frame
        half = state.reference_half
        with pytest.raises(ShapeError, match="mismatch"):
            process_frame(state, Frame(3, Tensor.zeros((3, 16, 16))), policy, net, store,
                          ANCHORS, OBJ_THR, NMS_THR)
        assert state.reference_half is half
        _, did_infer, _, _ = process_frame(
            state, f2, policy, net, store, ANCHORS, OBJ_THR, NMS_THR)
        want = self.fresh_map(f2, f1, policy)
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
            assert (state.reference_half is None) is did_infer
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
            want = self.fresh_map(frame, f1, policy)
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
        assert state.reference_half is not None
        moved = dataclasses.replace(state, reference_frame=f2,
                                    reference_map=map_from_output(
                                        net, forward(net, store, f2.pixels)))
        _, did_infer, _, _ = process_frame(
            moved, f3, policy, net, store, ANCHORS, OBJ_THR, NMS_THR)
        want = self.fresh_map(f3, f2, policy)
        assert np.array_equal(gate["maps"][-1].view(np.uint32), want.view(np.uint32))
        assert did_infer is decide(want, policy, moved.frames_since_inference + 1)
        assert gate["halves"] == 2


class TestReferenceRecord:
    """A gated inferred frame records its forward, and the next one reuses
    that record when it comes from the same reference, network and store."""

    @pytest.fixture
    def references(self, monkeypatch):
        seen = []

        def spy(net, store, x, **record):
            seen.append(record.get("reference", "no keywords"))
            return forward(net, store, x, **record)

        monkeypatch.setattr(pipeline, "forward", spy)
        return seen

    @staticmethod
    def assert_fresh(state, net, store, frame):
        want = forward(net, store, frame.pixels).data
        assert np.array_equal(state.reference_map.values.data.view(np.uint32),
                              want.view(np.uint32))

    def test_moving_stream_reuses_each_record(self, net_and_store, references):
        net, store = net_and_store
        policy = GatingPolicy.default(3)
        state, records = PipelineState(), []
        for frame in scene_frames(5, seed=6):
            _, did_infer, state, _ = process_frame(
                state, frame, policy, net, store, ANCHORS, OBJ_THR, NMS_THR)
            assert did_infer and state.record_key == (frame, net, store)
            assert all(not r.flags.writeable for r in state.reference_record)
            self.assert_fresh(state, net, store, frame)
            records.append(state.reference_record)
        assert references[0] is None
        assert all(got is want for got, want in zip(references[1:], records))

    def test_no_policy_never_records(self, net_and_store, references):
        net, store = net_and_store
        state = PipelineState()
        for frame in scene_frames(3, seed=6):
            _, _, state, _ = process_frame(state, frame, None, net, store, ANCHORS,
                                           OBJ_THR, NMS_THR)
            assert state.reference_record is None and state.record_key is None
        assert references == ["no keywords"] * 3

    @pytest.mark.parametrize("other", ["store", "network", "reference"])
    def test_a_record_made_otherwise_is_not_reused(self, net_and_store, references, other):
        net, store = net_and_store
        policy = GatingPolicy.default(3)
        f1, f2, f3 = scene_frames(3, seed=7)
        _, _, state, _ = process_frame(
            PipelineState(), f1, policy, net, store, ANCHORS, OBJ_THR, NMS_THR)
        if other == "store":
            store = init_weights(net, seed=22)
        elif other == "network":
            net = mini_net()  # equal in value, but another object
        else:
            state = dataclasses.replace(state, reference_frame=f2)
        _, did_infer, state, _ = process_frame(
            state, f3, policy, net, store, ANCHORS, OBJ_THR, NMS_THR)
        assert did_infer and references == [None, None]
        assert state.record_key == (f3, net, store)
        self.assert_fresh(state, net, store, f3)


class TestPipelineState:
    def test_reference_pair_invariant(self):
        with pytest.raises(ValueError, match="together"):
            PipelineState(reference_frame=scene_frames(1, seed=0)[0])

    def test_half_needs_its_key_and_a_reference(self):
        f = scene_frames(1, seed=0)[0]
        half = np.zeros_like(f.pixels.data)
        with pytest.raises(ValueError, match="key must be set together"):
            PipelineState(reference_half=half)
        with pytest.raises(ValueError, match="needs a reference frame"):
            PipelineState(reference_half=half, half_key=(f, b""))

    def test_record_needs_its_key_and_a_reference(self, net_and_store):
        net, store = net_and_store
        f = scene_frames(1, seed=0)[0]
        record = []
        forward(net, store, f.pixels, record=record)
        with pytest.raises(ValueError, match="record and its key must be set together"):
            PipelineState(reference_record=tuple(record))
        with pytest.raises(ValueError, match="record and its key must be set together"):
            PipelineState(record_key=(f, net, store))
        with pytest.raises(ValueError, match="record needs a reference frame"):
            PipelineState(reference_record=tuple(record), record_key=(f, net, store))


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
