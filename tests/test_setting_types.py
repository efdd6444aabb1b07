"""Numeric settings count by value only.

Every setting is given as a Python ``float``, an ``np.float32`` and an
``np.float64`` of one value. The values are drawn as float32, so all three
hold it exactly, and every output must come out the same: gate decisions,
decoded and suppressed boxes (with Python-typed fields), pipeline runs,
synthetic scenes and FNET bytes.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skipdet.detector import (AnchorPrior, ClassProbabilityMap, DetectionBox, decode,
                              evaluate_mean_best_iou, iou, nms)
from skipdet.motion import GatingPolicy, decide
from skipdet.netdef import LayerSpec, NetworkDescriptor, decode_network, encode_network
from skipdet.network import init_weights
from skipdet.pipeline import run
from skipdet.synth import MotionInterval, SyntheticSceneSpec, frames_from_scene, generate_scene
from skipdet.tensor import Tensor

TYPES = (float, np.float32, np.float64)


def f32(lo, hi):
    return st.floats(lo, hi, width=32)


def assert_python_fields(boxes):
    for b in boxes:
        assert [type(f) for f in dataclasses.astuple(b)] == [float] * 5 + [int, float]


def same_for_every_type(outputs):
    """``outputs(T)`` is equal for every type in ``TYPES``."""
    first = outputs(TYPES[0])
    for t in TYPES[1:]:
        assert outputs(t) == first, t
    return first


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31), f32(0, 1), st.integers(0, 77))
def test_gate_decisions(seed, p0, moving):
    # tau is a moving-pixel fraction rounded to float32, which over 77
    # pixels (unlike 63 or 64) can lie on either side of the fraction
    rng = np.random.default_rng(seed)
    m = rng.random((1, 7, 11)).astype(np.float32)
    m.reshape(-1)[rng.permutation(77)[:moving]] = p0
    tau = float(np.float32(np.count_nonzero(m > p0) / m.size))
    policies = {t: GatingPolicy.default(3, pixel_threshold=t(p0), area_threshold=t(tau))
                for t in TYPES}
    for t, policy in policies.items():
        assert type(policy.pixel_threshold) is float and type(policy.area_threshold) is float
        assert (policy.pixel_threshold, policy.area_threshold) == (p0, tau)
    same_for_every_type(lambda t: decide(m, policies[t], 0))


def random_map(rng, grid, anchors, classes):
    values = rng.normal(scale=3.0, size=(anchors * (5 + classes), grid, grid))
    return ClassProbabilityMap(Tensor(values.astype(np.float32)), grid, anchors, classes)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31), st.lists(st.tuples(f32(0.25, 4), f32(0.25, 4)), min_size=1,
                                         max_size=3),
       f32(0, 1), f32(0, 1), st.booleans())
def test_decode_and_nms(seed, priors, obj_thr, nms_thr, tie):
    rng = np.random.default_rng(seed)
    cmap = random_map(rng, int(rng.integers(1, 6)), len(priors), 1 + seed % 3)
    if tie:
        # a bar on the float32 rounding of a real overlap, which NEP 50
        # would compare against in float32
        boxes = decode(cmap, [AnchorPrior(w, h) for w, h in priors], 0.0)
        pairs = [iou(a, b) for a in boxes for b in boxes if a is not b and iou(a, b) > 0]
        if pairs:
            nms_thr = float(np.float32(pairs[int(rng.integers(len(pairs)))]))

    def boxes(t):
        anchors = [AnchorPrior(t(w), t(h)) for w, h in priors]
        got = nms(decode(cmap, anchors, t(obj_thr)), t(nms_thr))
        assert_python_fields(got)
        return got

    same_for_every_type(boxes)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31), f32(0, 1))
def test_detection_boxes(seed, nms_thr):
    rng = np.random.default_rng(seed)
    centers = rng.random((8, 2)).astype(np.float32)
    extents = (0.05 + 0.5 * rng.random((8, 2))).astype(np.float32)
    scores = rng.random((8, 2)).astype(np.float32)
    classes = rng.integers(0, 2, 8)

    def outputs(t):
        ints = int if t is float else np.int64
        boxes = [DetectionBox(t(cx), t(cy), t(w), t(h), t(obj), ints(c), t(score))
                 for (cx, cy), (w, h), (obj, score), c in zip(centers, extents, scores, classes)]
        assert_python_fields(boxes)
        kept = nms(boxes, nms_thr)
        return ([iou(a, b) for a in boxes for b in boxes], kept,
                evaluate_mean_best_iou([boxes[:4], kept], [boxes[4:6], boxes[6:]]))

    overlaps, _, metric = same_for_every_type(outputs)
    assert all(type(v) is float for v in overlaps + [metric])


def tiny_net(alpha):
    return NetworkDescriptor("types", (3, 16, 16), (
        LayerSpec.conv(3, 4, 3, pad=1, activation="leaky", alpha=alpha),
        LayerSpec.maxpool2(),
        LayerSpec.pointwise("leaky-relu", alpha=alpha),
        LayerSpec.conv(4, 12, 1),
        LayerSpec.detect_head(grid=8, anchors=2, classes=1),
    ))


def scene(velocity, frames=8, seed=3):
    return SyntheticSceneSpec(
        frames=frames, width=16, height=16, velocities=(velocity,),
        schedule=(MotionInterval(1, 3, True), MotionInterval(4, 5, False),
                  MotionInterval(6, frames, True)), seed=seed)


@settings(max_examples=25, deadline=None)
@given(f32(-1, 2), st.tuples(f32(-5, 5), f32(-5, 5)), f32(0, 0.5), f32(0, 0.0625),
       st.tuples(f32(0.25, 4), f32(0.25, 4)), f32(0, 0.25), f32(0, 1))
def test_pipeline_run(alpha, velocity, p0, tau, prior, obj_thr, nms_thr):
    store = init_weights(tiny_net(alpha), 0)

    def outputs(t):
        net = tiny_net(t(alpha))
        frames = frames_from_scene(generate_scene(scene((t(velocity[0]), t(velocity[1]))))[0])
        policy = GatingPolicy.default(3, pixel_threshold=t(p0), area_threshold=t(tau))
        anchors = [AnchorPrior(t(prior[0]), t(prior[1])), AnchorPrior(t(prior[1]), t(prior[0]))]
        report, detections = run(frames, net, store, anchors, policy, t(obj_thr), t(nms_thr))
        for boxes in detections:
            assert_python_fields(boxes)
        return report.decisions, detections

    same_for_every_type(outputs)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(f32(-6, 6), f32(-6, 6)), min_size=1, max_size=3),
       st.integers(0, 2 ** 31))
def test_synthetic_scenes(velocities, seed):
    def outputs(t):
        spec = SyntheticSceneSpec(
            frames=12, width=24, height=20, objects=len(velocities),
            velocities=tuple((t(vx), t(vy)) for vx, vy in velocities),
            schedule=(MotionInterval(1, 12, True),), seed=seed)
        assert spec.velocities == tuple(velocities)
        assert all(type(c) is float for v in spec.velocities for c in v)
        images, truth = generate_scene(spec)
        assert all(type(b.cx) is float for boxes in truth for b in boxes)
        return [img.tobytes() for img in images], truth

    same_for_every_type(outputs)


@settings(max_examples=60, deadline=None)
@given(f32(-1e6, 1e6))
def test_fnet_round_trip(alpha):
    def blob(t):
        net = tiny_net(t(alpha))
        assert type(net.layers[0].alpha) is float
        data = encode_network(net, init_weights(net, 0))
        assert encode_network(*decode_network(data)) == data
        return data

    same_for_every_type(blob)


@pytest.mark.parametrize("t", [np.float32, np.float64])
def test_numpy_scalar_settings_act_as_their_python_values(t):
    """Five settings whose numpy type once changed the arithmetic."""
    # the gate: a float64 p0 compared the float32 map in float64
    m = np.full((1, 4, 4), 0.1, np.float32)
    policy = GatingPolicy.default(3, pixel_threshold=t(0.1), area_threshold=0.0)
    assert decide(m, policy, 0) is decide(
        m, GatingPolicy.default(3, pixel_threshold=0.1, area_threshold=0.0), 0) is False
    # nms: a float32 bar compared a float64 overlap in float32
    # (this overlap, 0.8181..., rounds down to float32)
    a = DetectionBox(0.5, 0.5, 0.3, 0.3, 0.9, 0, 1.0)
    b = DetectionBox(0.53, 0.5, 0.3, 0.3, 0.8, 0, 1.0)
    bar = t(iou(a, b))
    assert nms([a, b], bar) == nms([a, b], float(bar))
    # boxes: float32 fields gave a float32 overlap, 0.818182
    def pair(to):
        return [DetectionBox(*(to(t(v)) for v in (x, 0.5, 0.3, 0.3, 0.9)), 0, 1.0)
                for x in (0.5, 0.53)]
    overlap = iou(*pair(lambda v: v))
    assert type(overlap) is float and overlap == iou(*pair(float))
    # decode: float32 anchors gave float32 extents
    v = np.zeros((6, 1, 1), np.float32)
    (got,) = decode(ClassProbabilityMap(Tensor(v), 1, 1, 1), [AnchorPrior(t(1), t(1))], 0.0)
    assert type(got.w) is float and type(got.h) is float
    # netdef: a float32 alpha was written as np.float32(0.25), which decode rejects
    spec = LayerSpec.conv(3, 12, 1, activation="leaky", alpha=t(0.25))
    net = NetworkDescriptor("alpha", (3, 2, 2), (spec, LayerSpec.detect_head(2, 2, 1)))
    data = encode_network(net)
    assert b";alpha=0.25\n" in data and decode_network(data)[0] == net
