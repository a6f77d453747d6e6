import math

import numpy as np
import pytest

from frustumbox.evaluate import (
    ABLATION_TOGGLES,
    EmptySet,
    EvalReport,
    UnmatchedObject,
    ablation_config,
    compute_ap,
    evaluate_boxes,
)
from frustumbox.geometry import Box3D, iou_3d
from frustumbox.model import ModelConfig

from oracles import mc_iou3d, random_box


def boxes(*specs):
    return {f"obj{i}": b for i, b in enumerate(specs)}


def scored(preds):
    """Predictions with a dummy confidence, as evaluate_boxes takes them."""
    return {oid: (box, 0.5) for oid, box in preds.items()}


UNIT = Box3D(0, 0, 0, 1, 1, 1, 0.0)
FAR = Box3D(50, 0, 0, 1, 1, 1, 0.0)


class TestMiou:
    def test_perfect(self):
        gts = boxes(UNIT, FAR)
        assert evaluate_boxes(scored(gts), gts).miou == 1.0

    def test_all_disjoint(self):
        preds = boxes(FAR, UNIT)
        gts = boxes(UNIT, FAR)
        assert evaluate_boxes(scored(preds), gts).miou == 0.0

    def test_mixed_with_monte_carlo_oracle(self):
        a = Box3D(0, 0, 0, 2, 4, 1, 0.0)
        b = Box3D(0, 0, 0, 2, 4, 1, math.pi / 2)
        x = mc_iou3d(a, b, 10**6, np.random.default_rng(0))
        preds = {"p": UNIT, "q": FAR, "r": a}
        gts = {"p": UNIT, "q": Box3D(90, 0, 0, 1, 1, 1, 0.0), "r": b}
        assert evaluate_boxes(scored(preds), gts).miou == pytest.approx((1.0 + 0.0 + x) / 3, abs=0.005)

    def test_touching_pair_scores_zero_not_nan(self):
        # a rotated box and its copy moved by its own width share one side
        gt = Box3D(0.8768790913069613, -1.936033081905712, 1.0318040094257124,
                   1.7818968081551951, 4.680968993586528, 0.6321649934481495,
                   2.1445597163470325)
        pred = Box3D(-0.09032847541848876, -0.43948179384950037, gt.cz,
                     gt.width, gt.length, gt.height, gt.yaw)
        report = evaluate_boxes(scored({"a": pred}), {"a": gt})
        assert (report.miou, math.copysign(1.0, report.miou)) == (0.0, 1.0)  # not NaN or -0.0

    def test_per_object_iou_is_a_python_float(self):
        rng = np.random.default_rng(2)
        preds = {f"o{i}": random_box(rng, 1.0) for i in range(4)}
        gts = {f"o{i}": random_box(rng, 1.0) for i in range(4)}
        report = evaluate_boxes(scored(preds), gts)
        assert all(type(r.iou) is float for r in report.per_object)
        np.testing.assert_allclose([r.iou for r in report.per_object],
                                   [iou_3d(preds[k], gts[k]) for k in sorted(gts)],
                                   rtol=0, atol=1e-15)

    def test_unmatched_ids_listed(self):
        with pytest.raises(UnmatchedObject) as ei:
            evaluate_boxes(scored({"a": UNIT}), {"a": UNIT, "b": FAR})
        assert "b" in str(ei.value)

    def test_reorder_invariant(self):
        rng = np.random.default_rng(1)
        preds = {f"o{i}": random_box(rng, 1.0) for i in range(6)}
        gts = {f"o{i}": random_box(rng, 1.0) for i in range(6)}
        shuffled_preds = dict(sorted(preds.items(), reverse=True))
        assert (evaluate_boxes(scored(preds), gts).miou
                == evaluate_boxes(scored(shuffled_preds), gts).miou)


class TestRecall:
    def test_perfect(self):
        gts = boxes(UNIT, FAR)
        assert evaluate_boxes(scored(gts), gts).recall07 == 1.0

    def test_half(self):
        preds = {"a": UNIT, "b": UNIT}
        gts = {"a": UNIT, "b": FAR}
        assert evaluate_boxes(scored(preds), gts).recall07 == 0.5

    def test_exact_threshold_counts(self):
        # overlap engineered to land exactly on IoU 0.7: shift a unit cube by
        # d so that (1-d)/(1+d) = 0.7 -> d = 3/17
        d = 3.0 / 17.0
        shifted = Box3D(d, 0, 0, 1, 1, 1, 0.0)
        iou = iou_3d(UNIT, shifted)
        thr = round(iou, 12)
        report = evaluate_boxes(scored({"a": shifted}), {"a": UNIT}, threshold=thr)
        assert report.recall07 == 1.0


class TestAp:
    def test_all_correct_is_one(self):
        scored = [(0.9, 1.0, "a"), (0.5, 0.95, "b"), (0.1, 0.8, "c")]
        assert compute_ap(scored, 11) == 1.0
        assert compute_ap(scored, 40) == 1.0

    def test_none_reach_threshold_is_zero(self):
        scored = [(0.9, 0.5, "a"), (0.5, 0.2, "b")]
        assert compute_ap(scored, 11) == 0.0
        assert compute_ap(scored, 40) == 0.0

    def test_hand_computed_staircase(self):
        # ranks: hit, miss, hit, hit -> precisions 1, 1/2, 2/3, 3/4 at
        # recalls 1/4, 1/4, 2/4, 3/4; max recall 0.75
        scored = [
            (0.9, 1.0, "a"),
            (0.8, 0.0, "b"),
            (0.7, 1.0, "c"),
            (0.6, 1.0, "d"),
        ]
        # 11-point: r=0,...,0.2 -> 1.0 (3 points); r=0.3,...,0.7 -> 0.75
        # (5 points); r>=0.8 -> 0 (3 points)
        expected11 = (3 * 1.0 + 5 * 0.75 + 3 * 0.0) / 11
        assert compute_ap(scored, 11) == pytest.approx(expected11, abs=1e-12)
        # 40-point: r in (0, 0.25] -> 1.0 (10 pts); (0.25, 0.75] -> 0.75
        # (20 pts); rest 0
        expected40 = (10 * 1.0 + 20 * 0.75 + 10 * 0.0) / 40
        assert compute_ap(scored, 40) == pytest.approx(expected40, abs=1e-12)

    def test_empty_raises(self):
        with pytest.raises(EmptySet):
            compute_ap([], 11)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            compute_ap([(1.0, 1.0, "a")], 25)

    def test_score_tie_uses_id_order(self):
        a = compute_ap([(0.5, 1.0, "a"), (0.5, 0.0, "b")], 11)
        b = compute_ap([(0.5, 0.0, "b"), (0.5, 1.0, "a")], 11)
        assert a == b


class TestEvaluateBoxes:
    def test_perfect_report(self):
        gts = boxes(UNIT, FAR)
        preds = {k: (v, 1.0) for k, v in gts.items()}
        report = evaluate_boxes(preds, gts)
        assert report.miou == 1.0
        assert report.recall07 == 1.0
        assert report.ap11 == 1.0
        assert report.ap40 == 1.0
        assert all(r.direction_correct for r in report.per_object)

    def test_rates_in_unit_interval_and_consistent(self):
        rng = np.random.default_rng(2)
        preds, gts = {}, {}
        for i in range(12):
            gts[f"o{i}"] = random_box(rng, 1.0)
            preds[f"o{i}"] = (random_box(rng, 1.0), rng.uniform(0.5, 1.0))
        report = evaluate_boxes(preds, gts)
        for val in (report.miou, report.recall07, report.ap11, report.ap40):
            assert 0.0 <= val <= 1.0
        positive = np.mean([r.iou > 0 for r in report.per_object])
        assert report.recall07 <= positive
        assert len(report.per_object) == 12

    def test_miou_one_implies_recall_one(self):
        gts = boxes(UNIT, FAR)
        preds = {k: (v, 0.9) for k, v in gts.items()}
        report = evaluate_boxes(preds, gts)
        assert report.miou == 1.0 and report.recall07 == 1.0

    def test_repeat_evaluation_bit_identical(self):
        rng = np.random.default_rng(3)
        gts = {f"o{i}": random_box(rng, 1.0) for i in range(5)}
        preds = {k: (random_box(rng, 1.0), 0.7) for k in gts}
        a = evaluate_boxes(preds, gts)
        b = evaluate_boxes(preds, gts)
        assert a.to_dict() == b.to_dict()

    def test_direction_correctness_flagged(self):
        gt = Box3D(0, 0, 0, 1, 2, 1, 0.0)  # front
        flipped = Box3D(0, 0, 0, 1, 2, 1, math.pi)  # back
        report = evaluate_boxes({"a": (flipped, 1.0)}, {"a": gt})
        assert not report.per_object[0].direction_correct
        assert report.miou == pytest.approx(1.0)  # IoU itself is heading-blind


class TestAblationConfigs:
    def test_model_a_is_local_only(self):
        cfg = ablation_config(ModelConfig.desk(), "A")
        assert not cfg.use_global and not cfg.use_decoder and cfg.pos_mode == "none"

    def test_model_d_uses_sine(self):
        cfg = ablation_config(ModelConfig.desk(), "D")
        assert cfg.pos_mode == "sine" and cfg.use_decoder and cfg.use_global

    def test_five_variants(self):
        assert sorted(ABLATION_TOGGLES) == ["A", "B", "C", "D", "full"]

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            ablation_config(ModelConfig.desk(), "Z")
