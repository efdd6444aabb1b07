import numpy as np
import pytest

from skipdet.detector import AnchorPrior, decode, format_detection_line, map_from_output, nms
from skipdet.motion import Frame, GatingPolicy
from skipdet.netdef import LayerSpec, NetworkDescriptor
from skipdet.network import forward, init_weights
from skipdet.pipeline import PipelineState, process_frame, run
from skipdet.synth import MotionInterval, SyntheticSceneSpec, frames_from_scene, generate_scene
from skipdet.tensor import ShapeError, Tensor

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
        assert state.inferences_run == state.frames_seen == 1
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
        _, _, state2, _ = process_frame(
            state, good[1], policy, net, store, ANCHORS, OBJ_THR, NMS_THR)
        assert state2.frames_seen == 2


class TestRun:
    def test_static_sequence_single_inference(self, net_and_store):
        net, store = net_and_store
        frames = scene_frames(50, seed=3, moving=False)
        report, _ = run(frames, net, store, ANCHORS, GatingPolicy.default(3),
                        OBJ_THR, NMS_THR, mode="gated")
        assert report.inferences == 1
        assert report.inference_frequency == pytest.approx(2.0)
        assert report.decisions == [1] + [0] * 49

    def test_always_mode_100_percent(self, net_and_store):
        net, store = net_and_store
        frames = scene_frames(20, seed=4, moving=False)
        report, _ = run(frames, net, store, ANCHORS, GatingPolicy.default(3),
                        OBJ_THR, NMS_THR, mode="always")
        assert report.inference_frequency == 100.0
        assert report.decisions == [1] * 20

    def test_always_mode_equals_standalone_detector(self, net_and_store):
        net, store = net_and_store
        for seed in range(3):
            frames = scene_frames(10, seed=seed)
            _, detections = run(frames, net, store, ANCHORS, GatingPolicy.default(3),
                                OBJ_THR, NMS_THR, mode="always")
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
                                 OBJ_THR, NMS_THR, mode="gated")
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
                                 OBJ_THR, NMS_THR, mode="gated")
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
                            OBJ_THR, NMS_THR, mode="gated")
            if last is not None:
                assert report.inferences <= last
            last = report.inferences

    def test_force_every_bounds_staleness(self, net_and_store):
        net, store = net_and_store
        frames = scene_frames(12, seed=8, moving=False)
        policy = GatingPolicy.default(3, force_every=4)
        report, _ = run(frames, net, store, ANCHORS, policy,
                        OBJ_THR, NMS_THR, mode="gated")
        assert report.decisions == [1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0]
        every = GatingPolicy.default(3, force_every=1)
        report, _ = run(frames, net, store, ANCHORS, every,
                        OBJ_THR, NMS_THR, mode="gated")
        assert report.inference_frequency == 100.0

    def test_error_carries_frame_index(self, net_and_store):
        net, store = net_and_store
        frames = scene_frames(3, seed=9)
        frames[2] = Frame(3, Tensor.zeros((3, 16, 16)))
        for mode in ("gated", "always"):
            with pytest.raises(ShapeError, match="^frame 3: ") as info:
                run(frames, net, store, ANCHORS, GatingPolicy.default(3),
                    OBJ_THR, NMS_THR, mode=mode)
            assert str(info.value).count("frame 3:") == 1

    @pytest.mark.parametrize("error", [FloatingPointError, OverflowError, ValueError])
    def test_forward_error_carries_frame_index(self, net_and_store, monkeypatch, error):
        net, store = net_and_store
        frames = scene_frames(3, seed=9)

        def failing_forward(net, store, x):
            raise error("forward produced non-finite values")

        monkeypatch.setattr("skipdet.pipeline.forward", failing_forward)
        with pytest.raises(error, match="^frame 1: forward produced non-finite values$"):
            run(frames, net, store, ANCHORS, GatingPolicy.default(3),
                OBJ_THR, NMS_THR, mode="gated")

    def test_empty_sequence_rejected(self, net_and_store):
        net, store = net_and_store
        with pytest.raises(ValueError, match="non-empty"):
            run([], net, store, ANCHORS, GatingPolicy.default(3),
                OBJ_THR, NMS_THR)

    def test_report_json_field_names(self, net_and_store):
        net, store = net_and_store
        frames = scene_frames(5, seed=10)
        report, _ = run(frames, net, store, ANCHORS, GatingPolicy.default(3),
                        OBJ_THR, NMS_THR, mode="gated")
        report.config = {"mode": "gated"}
        doc = report.to_json_dict()
        assert set(doc) == {"frames", "inferences", "inference-frequency",
                            "wall-time", "frames-per-second", "decisions", "config"}
        assert set(doc["wall-time"]) == {"gate", "infer", "decode"}


class TestPipelineState:
    def test_reference_pair_invariant(self):
        with pytest.raises(ValueError, match="together"):
            PipelineState(reference_frame=scene_frames(1, seed=0)[0])

    def test_counter_invariant(self):
        with pytest.raises(ValueError, match="exceed"):
            PipelineState(frames_seen=1, inferences_run=2)
