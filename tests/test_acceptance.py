"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The expensive fixture
(training the bundled tiny detector through the CLI) is shared across
criteria; everything is seeded, so results are reproducible bit for bit.
"""

import json
import statistics
import time

import numpy as np
import pytest

from skipdet import cli, zoo
from skipdet.detector import AnchorPrior, decode, format_detection_line, map_from_output, nms
from skipdet.evolve import EnvironmentalFactor, encode_genome, evolve_generations, synthesize_offspring
from skipdet.motion import GatingPolicy
from skipdet.netdef import (LayerSpec, NetworkDescriptor, count_flops,
                            count_params, load_network, save_network)
from skipdet.network import TrainConfig, forward, init_weights, loss_gradients
from skipdet.pipeline import run
from skipdet.ppm import load_frames
from skipdet.synth import MotionInterval, SyntheticSceneSpec, frames_from_scene, generate_scene, random_detection_scenes
from skipdet.detector import build_target_map, evaluate_mean_best_iou
from skipdet.tensor import Tensor

import oracles

ANCHORS = [AnchorPrior(0.9, 0.9), AnchorPrior(1.8, 1.8)]
OBJ_THR, NMS_THR = 0.4, 0.5


def criterion(number, text, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {text} ({detail})")
    assert ok, f"criterion {number}: {text} ({detail})"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def trained_tiny(workspace):
    """Tiny detector trained through the CLI with its default config."""
    fnet = workspace / "tiny_trained.fnet"
    report = workspace / "tiny_report.json"
    t0 = time.time()
    rc = cli.run_cli(["train-tiny", "--set", f"out={fnet}",
                      "--set", f"report={report}"])
    assert rc == 0, "train-tiny failed"
    doc = json.loads(report.read_text())
    doc["seconds"] = time.time() - t0
    return str(fnet), doc


@pytest.fixture(scope="module")
def motion_scene(workspace, trained_tiny):
    """200-frame scene: 123 moving transitions, 76 motionless (38.2%)."""
    out = workspace / "scene62"
    rc = cli.run_cli(["synth", "--set", f"out={out}", "--set", "frames=200",
                      "--set", "velocity=3,2",
                      "--set", "schedule=1-124:moving,125-200:frozen",
                      "--set", "seed=11"])
    assert rc == 0
    return str(out)


def test_c01_gating_frequency_analogue(workspace, trained_tiny, motion_scene):
    fnet, _ = trained_tiny
    report_path = workspace / "c1_report.json"
    rc = cli.run_cli(["run", "--set", f"input={motion_scene}",
                      "--set", f"network={fnet}",
                      "--set", f"out={workspace / 'c1_det.txt'}",
                      "--set", f"report={report_path}"])
    assert rc == 0
    freq = json.loads(report_path.read_text())["inference-frequency"]
    criterion(1, "inference frequency within 61.87 +/- 5 points on the "
                 "38%-static sequence", abs(freq - 61.87) <= 5.0,
              f"measured {freq:.2f}%")


def test_c02_static_scene_limit(workspace, trained_tiny):
    fnet, _ = trained_tiny
    scene = workspace / "static50"
    assert cli.run_cli(["synth", "--set", f"out={scene}", "--set", "frames=50",
                        "--set", "schedule=1-50:frozen", "--set", "seed=5"]) == 0
    report_path = workspace / "c2_report.json"
    assert cli.run_cli(["run", "--set", f"input={scene}",
                        "--set", f"network={fnet}",
                        "--set", f"out={workspace / 'c2_det.txt'}",
                        "--set", f"report={report_path}"]) == 0
    doc = json.loads(report_path.read_text())
    ok = doc["inferences"] == 1 and doc["inference-frequency"] == pytest.approx(2.0)
    criterion(2, "50 identical frames cause exactly 1 inference (2%)", ok,
              f"inferences={doc['inferences']}, frequency={doc['inference-frequency']}%")


def _mini_net(size):
    grid = size // 4
    return NetworkDescriptor("mini", (3, size, size), (
        LayerSpec.conv(3, 4, 3, pad=1, activation="leaky", alpha=0.1),
        LayerSpec.maxpool2(),
        LayerSpec.conv(4, 8, 3, pad=1, activation="leaky", alpha=0.1),
        LayerSpec.maxpool2(),
        LayerSpec.conv(8, 12, 1),
        LayerSpec.detect_head(grid=grid, anchors=2, classes=1),
    ))


def _render(frames, detections):
    return "\n".join(format_detection_line(f.index, b)
                     for f, boxes in zip(frames, detections) for b in boxes)


def test_c03_equivalence_oracle():
    rng = np.random.default_rng(2024)
    net = _mini_net(32)
    mismatches = []
    for case in range(10):
        frames_n = int(rng.integers(6, 14))
        cut = int(rng.integers(1, frames_n))
        schedule = (MotionInterval(1, cut, bool(rng.integers(0, 2))),
                    MotionInterval(cut + 1, frames_n, bool(rng.integers(0, 2)))) \
            if cut < frames_n else (MotionInterval(1, frames_n, True),)
        objects = int(rng.integers(1, 3))
        spec = SyntheticSceneSpec(
            frames=frames_n, width=32, height=32, objects=objects,
            velocities=tuple((float(rng.integers(1, 4)), float(rng.integers(1, 4)))
                             for _ in range(objects)),
            schedule=schedule, noise=float(rng.uniform(0, 0.03)),
            seed=int(rng.integers(0, 2 ** 31)))
        frames = frames_from_scene(generate_scene(spec)[0])
        store = init_weights(net, seed=case)
        _, gated = run(frames, net, store, ANCHORS, None, OBJ_THR, NMS_THR)
        oracle = []
        for f in frames:
            cmap = map_from_output(net, forward(net, store, f.pixels))
            oracle.append(nms(decode(cmap, ANCHORS, OBJ_THR), NMS_THR))
        if _render(frames, gated) != _render(frames, oracle):
            mismatches.append(case)
    criterion(3, "mode=always output byte-identical to the per-frame detector "
                 "across 10 random synthetic configs", not mismatches,
              f"mismatching configs: {mismatches or 'none'}")


def test_c04_throughput_analogue(trained_tiny, motion_scene):
    fnet, _ = trained_tiny
    net, store = load_network(fnet)
    frames = load_frames(motion_scene)
    policy = GatingPolicy.default(3)

    gated_fps, always_fps = [], []
    for _ in range(5):
        report, _ = run(frames, net, store, ANCHORS, policy, OBJ_THR, NMS_THR)
        gated_fps.append(report.frames_per_second)
        skip_rate = 1.0 - report.inferences / report.frames
        report, _ = run(frames, net, store, ANCHORS, None, OBJ_THR, NMS_THR)
        always_fps.append(report.frames_per_second)
    ratio = statistics.median(gated_fps) / statistics.median(always_fps)
    ok = ratio >= 1.3 and skip_rate >= 0.30
    criterion(4, "gated wall-clock FPS at least 1.3x ungated on the 38%-static "
                 "sequence (median of 5)", ok,
              f"ratio {ratio:.2f}x, skip rate {100 * skip_rate:.1f}%")


def test_c05_parameter_accounting():
    net = zoo.load_bundled("yolov2_voc")
    params = count_params(net)
    ok = abs(params - 48.2e6) <= 0.02 * 48.2e6
    criterion(5, "bundled YOLOv2-VOC parameter count within 2% of 48.2M", ok,
              f"{params:,} params ({params / 48.2e6:.4f} of target)")


def test_c06_flop_accounting():
    net = zoo.load_bundled("vgg16")
    flops = count_flops(net, (3, 224, 224))
    ok = abs(flops - 30.69e9) <= 0.02 * 30.69e9
    criterion(6, "bundled VGG-16 FLOPs at 3x224x224 within 2% of 30.69e9", ok,
              f"{flops:,} FLOPs ({flops / 30.69e9:.4f} of target)")


def test_c07_evolution_structural_analogue(trained_tiny):
    fnet, _ = trained_tiny
    net, store = load_network(fnet)
    head = net.detect_head()
    train_frames, train_truth = random_detection_scenes(400, seed=100)
    hold_frames, hold_truth = random_detection_scenes(100, seed=7919)
    dataset = [(f.pixels, build_target_map(b, head.grid, ANCHORS, head.classes))
               for f, b in zip(train_frames, train_truth)]

    def metric(m_net, m_store):
        preds = []
        for f in hold_frames:
            cmap = map_from_output(m_net, forward(m_net, m_store, f.pixels))
            preds.append(nms(decode(cmap, ANCHORS, OBJ_THR), NMS_THR))
        return evaluate_mean_best_iou(preds, hold_truth)

    dense = count_params(net)
    genome = encode_genome(net, store)
    total_p = sum(float(p.data.sum()) for p in genome.probabilities.values())
    # tune gamma for an expected reduction of 2.9x, just beyond the 2.8x bar
    gamma = min(1.0, (dense / 2.9 - genome.bias_count()) / total_p)
    expected_reduction = dense / (gamma * total_p + genome.bias_count())
    assert expected_reduction >= 2.8

    retrain = TrainConfig(learning_rate=0.003, epochs=16, batch_size=8,
                          seed=0, loss="detector-composite")
    lineage = evolve_generations(net, store, dataset, metric, generations=1,
                                 env=EnvironmentalFactor(gamma),
                                 retrain=retrain, seed=42)
    assert lineage.error is None, lineage.error
    ancestor, offspring = lineage.entries[0], lineage.entries[-1]
    reduction = ancestor.param_count / offspring.param_count
    drop = ancestor.metric - offspring.metric
    ok = offspring.param_count <= ancestor.param_count / 2.8 and drop <= 0.05
    criterion(7, "evolved offspring at least 2.8x smaller with at most a "
                 "5-point IOU drop", ok,
              f"gamma={gamma:.4f}, reduction {reduction:.2f}x, "
              f"IOU {ancestor.metric:.4f} -> {offspring.metric:.4f} "
              f"(drop {100 * drop:+.2f}pp)")


def test_c08_sampling_statistics():
    from skipdet.evolve import SynapticGenome
    genome = SynapticGenome({0: Tensor(np.full((10, 10, 10, 10), 0.5, np.float32))},
                            "stats")
    gamma = 0.8
    keep_p = gamma * 0.5
    expected = 10000 * keep_p
    sigma = float(np.sqrt(10000 * keep_p * (1 - keep_p)))
    hits = 0
    for seed in range(20):
        masks, _ = synthesize_offspring(genome, EnvironmentalFactor(gamma), seed)
        if abs(int(masks[0].sum()) - expected) <= 3 * sigma:
            hits += 1
    criterion(8, "retained synapse count within 3 sigma of the analytic "
                 "expectation for at least 19 of 20 seeds", hits >= 19,
              f"{hits}/20 seeds within 3 sigma (sigma={sigma:.1f})")


def test_c09_brute_force_oracles():
    rng = np.random.default_rng(99)

    def rand_box():
        from skipdet.detector import DetectionBox
        return DetectionBox(
            cx=float(rng.uniform(0.2, 0.8)), cy=float(rng.uniform(0.2, 0.8)),
            w=float(rng.uniform(0.05, 0.4)), h=float(rng.uniform(0.05, 0.4)),
            objectness=float(rng.uniform(0.05, 1.0)),
            class_id=int(rng.integers(0, 3)),
            class_score=float(rng.uniform(0.05, 1.0)))

    from skipdet.detector import iou, kmeans_anchors
    nms_bad = sum(
        nms(boxes, thr) != oracles.naive_nms(boxes, thr)
        for boxes, thr in (([rand_box() for _ in range(int(rng.integers(1, 13)))],
                            float(rng.uniform(0.1, 0.9)))
                           for _ in range(500)))
    iou_bad = sum(abs(iou(a, b) - oracles.naive_iou(a, b)) > 1e-6
                  for a, b in ((rand_box(), rand_box()) for _ in range(500)))
    sizes = [(1.0 * rng.uniform(0.97, 1.03), 1.0 * rng.uniform(0.97, 1.03))
             for _ in range(50)]
    sizes += [(4.0 * rng.uniform(0.97, 1.03), 2.0 * rng.uniform(0.97, 1.03))
              for _ in range(50)]
    anchors = sorted(kmeans_anchors(sizes, 2, seed=1), key=lambda a: a.w)
    km_ok = (abs(anchors[0].w - 1) < 0.05 and abs(anchors[0].h - 1) < 0.05
             and abs(anchors[1].w - 4) / 4 < 0.05 and abs(anchors[1].h - 2) / 2 < 0.05)
    ok = nms_bad == 0 and iou_bad == 0 and km_ok
    criterion(9, "nms matches the exhaustive oracle on 500 instances, iou "
                 "matches area arithmetic on 500 pairs, k-means recovers "
                 "planted clusters within 5%", ok,
              f"nms mismatches={nms_bad}, iou mismatches={iou_bad}, "
              f"anchors={[(round(a.w, 3), round(a.h, 3)) for a in anchors]}")


def test_c10_finite_difference_numerics():
    net = NetworkDescriptor("gradnet", (2, 8, 8), (
        LayerSpec.conv(2, 4, 3, stride=1, pad=1, activation="leaky", alpha=0.1),
        LayerSpec.maxpool2(),
        LayerSpec.conv(4, 3, 3, stride=1, pad=1, activation="tanh"),
        LayerSpec.pointwise("sigmoid"),
        LayerSpec.maxpool2(),
        LayerSpec.conv(3, 12, 1, activation="linear"),
        LayerSpec.detect_head(grid=2, anchors=2, classes=1),
    ))
    store = init_weights(net, 5)
    rng = np.random.default_rng(5)
    x = Tensor(rng.random((2, 8, 8)).astype(np.float32))
    target = np.zeros((12, 2, 2), np.float32)
    target.reshape(2, 6, 2, 2)[0, :, 0, 1] = [0.3, 0.6, 0.1, -0.2, 1.0, 1.0]
    weights = {i: (store[i].kernel.data, store[i].bias.data)
               for i in net.conv_indices()}
    worst = 0.0
    for loss, tgt in (("detector-composite", Tensor(target)),
                      ("squared-error", Tensor(rng.random((12, 2, 2)).astype(np.float32)))):
        _, analytic = loss_gradients(net, store, [(x, tgt)], loss)
        fd = oracles.fd_loss_gradients(net, weights, [(x.data, tgt.data)], loss,
                                       step=1e-3)
        worst = max(worst, oracles.max_relative_error(analytic, fd))
    criterion(10, "analytic gradients match central finite differences "
                  "(step 1e-3) within 1e-2 relative error", worst < 1e-2,
              f"max relative error {worst:.2e}")


def test_c11_tiny_detector_quality_floor(trained_tiny):
    _, report = trained_tiny
    iou = report["holdout-iou"]
    criterion(11, "train-tiny reaches mean-best-IOU of at least 0.5 on 100 "
                  "held-out frames", iou >= 0.5,
              f"holdout IOU {iou:.4f} after {report['seconds']:.0f}s of training")
