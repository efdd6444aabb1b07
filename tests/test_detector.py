import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skipdet.detector import (LOG_SCALE_LIMIT, AnchorPrior, ClassProbabilityMap,
                              DetectionBox, build_target_map, decode, evaluate_mean_best_iou,
                              format_detection_line, iou, kmeans_anchors,
                              map_from_output, nms, parse_detection_file,
                              read_detections, write_detections, _lloyd)
from skipdet.tensor import Tensor

import oracles


def make_map(values, grid, anchors, classes):
    return ClassProbabilityMap(Tensor(np.asarray(values, np.float32)), grid, anchors, classes)


def box(cx, cy, w, h, obj=1.0, cls=0, score=1.0):
    return DetectionBox(cx, cy, w, h, obj, cls, score)


def random_boxes(rng, n, classes=3):
    out = []
    for _ in range(n):
        out.append(DetectionBox(
            cx=float(rng.uniform(0.2, 0.8)), cy=float(rng.uniform(0.2, 0.8)),
            w=float(rng.uniform(0.05, 0.4)), h=float(rng.uniform(0.05, 0.4)),
            objectness=float(rng.uniform(0.05, 1.0)),
            class_id=int(rng.integers(0, classes)),
            class_score=float(rng.uniform(0.05, 1.0))))
    return out


class TestDecode:
    def test_all_zero_map(self):
        cmap = make_map(np.zeros((6, 2, 2)), grid=2, anchors=1, classes=1)
        boxes = decode(cmap, [AnchorPrior(1.0, 1.0)], obj_threshold=0.4)
        assert len(boxes) == 4
        for b in boxes:
            assert b.objectness == pytest.approx(0.5)
            assert b.w == pytest.approx(0.5) and b.h == pytest.approx(0.5)
            assert b.class_score == pytest.approx(1.0)
        centers = {(b.cx, b.cy) for b in boxes}
        assert centers == {(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)}

    def test_low_objectness_filtered(self):
        v = np.zeros((6, 2, 2), np.float32)
        v.reshape(1, 6, 2, 2)[0, 4] = -10.0
        cmap = make_map(v, grid=2, anchors=1, classes=1)
        assert decode(cmap, [AnchorPrior(1.0, 1.0)], obj_threshold=0.4) == []

    def test_single_slot_against_formula_oracle(self):
        grid, i, j = 4, 1, 2
        raw = (0.2, -0.2, 0.1, 0.0, 1.0)
        cls_raw = [0.7, -0.3, 0.1]
        v = np.full((1, 8, grid, grid), -10.0, np.float32)
        v[0, :5, i, j] = raw
        v[0, 5:, i, j] = cls_raw
        cmap = make_map(v.reshape(8, grid, grid), grid=grid, anchors=1, classes=3)
        boxes = decode(cmap, [AnchorPrior(2.0, 1.0)], obj_threshold=0.5)
        assert len(boxes) == 1
        got = boxes[0]
        want = oracles.naive_decode_slot(*raw, cls_raw, i, j, grid, 2.0, 1.0)
        assert got.cx == pytest.approx(want["cx"], rel=1e-5)
        assert got.cy == pytest.approx(want["cy"], rel=1e-5)
        assert got.w == pytest.approx(want["w"], rel=1e-5)
        assert got.h == pytest.approx(want["h"], rel=1e-5)
        assert got.objectness == pytest.approx(want["objectness"], rel=1e-5)
        assert got.class_id == want["class_id"]
        assert got.class_score == pytest.approx(want["class_score"], rel=1e-5)

    def test_raising_objectness_never_removes_a_box(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=(12, 3, 3)).astype(np.float32)
        cmap = make_map(v, grid=3, anchors=2, classes=1)
        anchors = [AnchorPrior(1.0, 1.0), AnchorPrior(2.0, 2.0)]
        kept = {(b.cx, b.cy) for b in decode(cmap, anchors, 0.5)}
        v2 = v.copy().reshape(2, 6, 3, 3)
        v2[:, 4] += 1.0
        boosted = decode(make_map(v2.reshape(12, 3, 3), 3, 2, 1), anchors, 0.5)
        assert kept <= {(b.cx, b.cy) for b in boosted}

    @pytest.mark.parametrize("t", [800.0, -800.0, 711.0, -744.0])
    def test_extreme_log_scales_clamp_to_limit(self, t):
        v = np.zeros((6, 1, 1), np.float32)
        v[2] = v[3] = t
        (got,) = decode(make_map(v, grid=1, anchors=1, classes=1), [AnchorPrior(0.9, 1.8)], 0.4)
        limit = math.copysign(LOG_SCALE_LIMIT, t)
        assert got.w == 0.9 * math.exp(limit) and got.h == 1.8 * math.exp(limit)
        assert 0 < got.w < math.inf and 0 < got.h < math.inf

    def test_log_scales_inside_limit_decode_unclamped(self):
        t = [0.0, 3.5, -29.9, 29.9, LOG_SCALE_LIMIT, -LOG_SCALE_LIMIT]
        v = np.zeros((len(t), 6, 1, 1), np.float32)
        v[:, 2, 0, 0] = t
        v[:, 3, 0, 0] = t[::-1]
        boxes = decode(make_map(v.reshape(-1, 1, 1), 1, len(t), 1),
                       [AnchorPrior(0.9, 1.8)] * len(t), 0.4)
        for tw, th, b in zip(np.float32(t), np.float32(t[::-1]), boxes):
            assert b.w == 0.9 * math.exp(float(tw)) and b.h == 1.8 * math.exp(float(th))

    @pytest.mark.parametrize("w,h", [(math.inf, 1.0), (1.0, math.inf), (-math.inf, 1.0),
                                     (1.0, math.nan), (0.0, 1.0), (1.0, -2.0)])
    def test_anchor_prior_rejects_non_positive_or_non_finite(self, w, h):
        with pytest.raises(ValueError, match="positive and finite"):
            AnchorPrior(w, h)

    def test_anchor_count_mismatch(self):
        cmap = make_map(np.zeros((12, 2, 2)), grid=2, anchors=2, classes=1)
        with pytest.raises(ValueError, match="anchor"):
            decode(cmap, [AnchorPrior(1, 1)], 0.5)

    def test_map_from_output_requires_head(self):
        from skipdet.netdef import LayerSpec, NetworkDescriptor
        net = NetworkDescriptor("nohead", (1, 4, 4), (LayerSpec.conv(1, 1, 1),))
        with pytest.raises(ValueError, match="detect-head"):
            map_from_output(net, Tensor.zeros((1, 4, 4)))


class TestIou:
    def test_identical(self):
        b = box(0.5, 0.5, 0.2, 0.3)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(box(0.2, 0.2, 0.1, 0.1), box(0.8, 0.8, 0.1, 0.1)) == 0.0

    def test_corner_form_third(self):
        # corner boxes [0,0,2,2] and [1,0,2,2] scaled into [0,1] coordinates
        a = box(0.15, 0.15, 0.2, 0.2)
        b = box(0.25, 0.15, 0.2, 0.2)
        assert iou(a, b) == pytest.approx(1.0 / 3.0, rel=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31))
    def test_symmetry_range_translation(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_boxes(rng, 2)
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0
        assert iou(a, a) == 1.0
        dx, dy = float(rng.uniform(-0.1, 0.1)), float(rng.uniform(-0.1, 0.1))
        shift = lambda p: DetectionBox(p.cx + dx, p.cy + dy, p.w, p.h,
                                       p.objectness, p.class_id, p.class_score)
        assert iou(shift(a), shift(b)) == pytest.approx(v, abs=1e-9)

    def test_matches_area_arithmetic(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a, b = random_boxes(rng, 2)
            assert iou(a, b) == pytest.approx(oracles.naive_iou(a, b), abs=1e-6)


class TestNms:
    def test_single_box(self):
        b = box(0.5, 0.5, 0.2, 0.2, obj=0.7)
        assert nms([b], 0.5) == [b]

    def test_exact_duplicate_suppressed(self):
        hi = box(0.5, 0.5, 0.2, 0.2, obj=0.9)
        lo = box(0.5, 0.5, 0.2, 0.2, obj=0.8)
        assert nms([lo, hi], 0.5) == [hi]

    def test_different_classes_not_suppressed(self):
        a = box(0.5, 0.5, 0.2, 0.2, obj=0.9, cls=0)
        b = box(0.5, 0.5, 0.2, 0.2, obj=0.8, cls=1)
        assert nms([a, b], 0.5) == [a, b]

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(120):
            boxes = random_boxes(rng, int(rng.integers(1, 13)))
            thr = float(rng.uniform(0.1, 0.9))
            assert nms(boxes, thr) == oracles.naive_nms(boxes, thr)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31), st.floats(0.05, 0.95))
    def test_subset_and_no_overlapping_pair(self, seed, thr):
        rng = np.random.default_rng(seed)
        boxes = random_boxes(rng, 10)
        kept = nms(boxes, thr)
        assert all(k in boxes for k in kept)
        scores = [k.score for k in kept]
        assert scores == sorted(scores, reverse=True)
        for i, a in enumerate(kept):
            for b in kept[i + 1:]:
                if a.class_id == b.class_id:
                    assert iou(a, b) <= thr


class TestKmeansAnchors:
    def test_identical_boxes_single_cluster(self):
        anchors = kmeans_anchors([(1.5, 2.0)] * 10, k=1, seed=0)
        assert anchors[0].w == pytest.approx(1.5)
        assert anchors[0].h == pytest.approx(2.0)

    def test_k_equals_n_distinct(self):
        sizes = [(1.0, 1.0), (2.0, 3.0), (4.0, 1.5)]
        anchors = kmeans_anchors(sizes, k=3, seed=1)
        assert sorted((a.w, a.h) for a in anchors) == sorted(sizes)

    def test_recovers_two_planted_clusters(self):
        rng = np.random.default_rng(3)
        sizes = [(1.0 * rng.uniform(0.97, 1.03), 1.0 * rng.uniform(0.97, 1.03))
                 for _ in range(50)]
        sizes += [(4.0 * rng.uniform(0.97, 1.03), 2.0 * rng.uniform(0.97, 1.03))
                  for _ in range(50)]
        anchors = sorted(kmeans_anchors(sizes, k=2, seed=7), key=lambda a: a.w)
        assert abs(anchors[0].w - 1.0) / 1.0 < 0.05
        assert abs(anchors[0].h - 1.0) / 1.0 < 0.05
        assert abs(anchors[1].w - 4.0) / 4.0 < 0.05
        assert abs(anchors[1].h - 2.0) / 2.0 < 0.05
        # final assignment equals exhaustive nearest-centroid assignment
        cents = np.array([(a.w, a.h) for a in anchors])
        arr = np.array(sizes)
        for n, (w, h) in enumerate(sizes):
            dists = [1 - oracles.naive_iou(box(0.5, 0.5, w / 10, h / 10),
                                           box(0.5, 0.5, cw / 10, ch / 10))
                     for cw, ch in cents]
            # first 50 sizes belong to the small cluster, rest to the large
            assert int(np.argmin(dists)) == (0 if n < 50 else 1)

    def test_cost_non_increasing(self):
        rng = np.random.default_rng(9)
        sizes = np.abs(rng.normal(2.0, 1.0, size=(60, 2))) + 0.1
        for seed in range(5):
            _, costs = _lloyd(sizes, k=3, seed=seed)
            assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))

    def test_duplicate_boxes_more_clusters_than_shapes(self):
        anchors = kmeans_anchors([(2.0, 2.0)] * 6, k=2, seed=0)
        assert len(anchors) == 2

    def test_fewer_boxes_than_k(self):
        with pytest.raises(ValueError, match="at least"):
            kmeans_anchors([(1.0, 1.0)], k=2)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(5)
        sizes = [tuple(s) for s in np.abs(rng.normal(2, 1, size=(30, 2))) + 0.1]
        assert kmeans_anchors(sizes, 3, seed=4) == kmeans_anchors(sizes, 3, seed=4)


class TestEvaluate:
    def test_perfect_predictions(self):
        frames = [[box(0.3, 0.3, 0.2, 0.2)], [box(0.7, 0.7, 0.1, 0.3)]]
        assert evaluate_mean_best_iou(frames, frames) == 1.0

    def test_no_predictions(self):
        truth = [[box(0.3, 0.3, 0.2, 0.2)], [box(0.7, 0.7, 0.1, 0.3)]]
        assert evaluate_mean_best_iou([[], []], truth) == 0.0

    def test_best_of_two_candidates(self):
        gt = box(0.5, 0.5, 0.2, 0.2)
        near = box(0.5, 0.5, 0.2, 0.2 * 0.6 / (1 - 0.6 + 0.6 * 0.0 + 0.4))  # rough
        # construct candidates with known IOUs 0.3 and 0.6 via width scaling
        cand_a = box(0.5, 0.5, 0.2 * 0.3, 0.2)   # iou = 0.3
        cand_b = box(0.5, 0.5, 0.2 * 0.6, 0.2)   # iou = 0.6
        assert iou(gt, cand_a) == pytest.approx(0.3, rel=1e-6)
        assert iou(gt, cand_b) == pytest.approx(0.6, rel=1e-6)
        got = evaluate_mean_best_iou([[cand_a, cand_b]], [[gt]])
        assert got == pytest.approx(0.6, rel=1e-6)

    def test_frame_count_mismatch(self):
        with pytest.raises(ValueError, match="frame count"):
            evaluate_mean_best_iou([[]], [[], []])


class TestTargetMap:
    def test_single_box_claims_best_anchor_slot(self):
        anchors = [AnchorPrior(0.9, 0.9), AnchorPrior(1.8, 1.8)]
        gt = box(0.52, 0.27, 0.30, 0.30)  # 1.8 grid cells at S=6: second anchor
        t = build_target_map([gt], grid=6, anchors=anchors, classes=1).data.reshape(2, 6, 6, 6)
        j, i = int(0.52 * 6), int(0.27 * 6)
        assert t[1, 4, i, j] == 1.0
        assert t[0, 4, i, j] == 0.0
        assert t[1, 0, i, j] == pytest.approx(0.52 * 6 - j, rel=1e-5)
        assert t[1, 1, i, j] == pytest.approx(0.27 * 6 - i, rel=1e-5)
        assert t[1, 2, i, j] == pytest.approx(math.log(0.30 * 6 / 1.8), abs=1e-5)
        assert t[1, 5, i, j] == 1.0
        assert t.reshape(-1).sum() == pytest.approx(
            float(t[1, :, i, j].sum()), rel=1e-5)


class TestDetectionLines:
    def test_exact_format(self):
        b = DetectionBox(0.5, 0.25, 0.125, 0.0625, 0.875, 3, 0.5)
        assert format_detection_line(7, b) == \
            "7 0.500000 0.250000 0.125000 0.062500 0.875000 3 0.500000"

    def test_write_parse_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        per_frame = {1: random_boxes(rng, 3), 5: random_boxes(rng, 2)}
        path = tmp_path / "det.txt"
        write_detections(path, per_frame)
        back = parse_detection_file(path)
        assert set(back) == {1, 5}
        for idx in back:
            for a, b in zip(back[idx], per_frame[idx]):
                assert a.cx == pytest.approx(b.cx, abs=1e-6)
                assert a.class_id == b.class_id

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 0.5 0.5\n")
        with pytest.raises(ValueError, match="8 fields"):
            parse_detection_file(path)

    @pytest.mark.parametrize("line,why", [
        ("x 0.5 0.5 0.1 0.1 0.9 0 0.9", "invalid literal for int"),        # frame
        ("1 0.5 abc 0.1 0.1 0.9 0 0.9", "could not convert"),              # real
        ("1 0.5 0.5 0.1 0.1 0.9 1.5 0.9", "invalid literal for int"),      # class id
        ("1 0.5 0.5 0.000000 0.1 0.9 0 0.9", "extents must be positive"),  # zero width
        ("1 1.5 0.5 0.1 0.1 0.9 0 0.9", "outside"),                        # center
        ("1 0.5 0.5 0.1 0.1 1.2 0 0.9", r"\[0,1\]"),                       # objectness
        ("1 0.5 0.5 0.1 0.1 0.9 -1 0.9", "class id"),                      # class id < 0
        ("1 0.5 0.5 0.1 0.1 nan 0 0.9", r"\[0,1\]"),                       # NaN score
        ("1 0.5 0.5 inf 0.1 0.9 0 0.9", "positive and finite"),            # inf width
        ("1 0.5 0.5 0.1 inf 0.9 0 0.9", "positive and finite"),            # inf height
        ("1 0.5 0.5 nan 0.1 0.9 0 0.9", "positive and finite"),            # NaN width
        ("-3 0.5 0.5 0.1 0.1 0.9 0 0.9", "frame index"),                   # frame < 0
        ("-3 0.5 0.5 inf 0.2 1.0 0 1.0", "frame index"),                   # both
    ])
    def test_bad_value_names_path_and_line(self, tmp_path, line, why):
        path = tmp_path / "bad.txt"
        path.write_text("1 0.5 0.5 0.1 0.1 0.9 0 0.9\n\n" + line + "\n")
        with pytest.raises(ValueError, match=rf"^{path}: line 3: .*{why}"):
            parse_detection_file(path)

    def test_undecodable_file_names_path_and_byte(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"1 0.5 0.5 0.1 0.1 0.9 0 0.9\n2 \xff\n")
        with pytest.raises(ValueError, match=rf"^{path}: byte 30: cannot decode utf-8"):
            parse_detection_file(path)

    def test_sub_resolution_extent_reads_back(self, tmp_path):
        # anchor 0.9 on a 1-cell grid with t_w = -15 decodes to w = 2.75e-7,
        # below the 6-decimal print resolution
        v = np.zeros((6, 1, 1), np.float32)
        v[2] = -15.0
        (got,) = decode(make_map(v, grid=1, anchors=1, classes=1), [AnchorPrior(0.9, 0.9)], 0.4)
        assert 0 < got.w < 5e-7
        path = tmp_path / "det.txt"
        write_detections(path, {4: [got]})
        assert path.read_text().split()[3] == "0.000001"
        ((back,),) = read_detections(path, [4])
        assert back.w == 1e-6 and back.h == pytest.approx(got.h, abs=1e-6)

    def test_extents_printed_nonzero_unchanged(self):
        for w in (6e-7, 9.99e-7, 1e-6, 1.4e-6, 0.5):
            b = DetectionBox(0.5, 0.5, w, w, 0.9, 0, 0.9)
            assert format_detection_line(0, b).split()[3] == f"{w:.6f}"
