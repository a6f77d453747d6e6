import math

import numpy as np
import pytest

from frustumbox import tensor as T
from frustumbox.errors import NumericError
from frustumbox.geometry import Box3D, box_rows
from frustumbox.loss import diou_loss, direction_loss, total_loss
from frustumbox.tensor import Tensor, backward
from frustumbox.train import TrainConfig

from oracles import clip_iou3d, diou_penalty, random_box, random_overlapping_pair


def along(box, forward, left, **changes):
    """`box` moved by (forward, left) along its own width and length axes,
    with any fields replaced."""
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    fields = dict(cx=box.cx + c * forward - s * left, cy=box.cy + s * forward + c * left,
                  cz=box.cz, width=box.width, length=box.length, height=box.height,
                  yaw=box.yaw)
    fields.update(changes)
    return Box3D(**fields)


def graph_size(root):
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


# The axis-aligned "exact" cases put edges of both boxes on one line bit for
# bit; the turned ones do up to the rounding of the rotation.
UNIT = Box3D(0.5, -0.25, 0.0, 1.0, 1.0, 1.0, 0.0)
TURNED = Box3D(0.2, -0.4, 0.1, 1.6, 3.4, 1.5, 0.7)
HARD_CASES = {
    # name: (ground truth, prediction, IoU)
    "identical_exact": (UNIT, UNIT, 1.0),  # turned: see test_perfect_prediction_is_zero
    "flipped": (TURNED, along(TURNED, 0.0, 0.0, yaw=TURNED.yaw + math.pi), 1.0),
    "shared_side_exact": (UNIT, along(UNIT, 0.0, 0.5), 1.0 / 3.0),
    "shared_side": (TURNED, along(TURNED, 0.0, 1.7), 1.0 / 3.0),
    "inside_on_three_sides_exact": (
        Box3D(0.0, 0.0, 0.0, 2.0, 1.0, 1.0, 0.0), Box3D(0.5, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0), 0.5),
    "touching_exact": (UNIT, along(UNIT, 1.0, 0.0), 0.0),
    "touching": (TURNED, along(TURNED, 0.0, 3.4), 0.0),
    "contains": (TURNED, along(TURNED, 0.1, -0.3, width=0.6, length=1.0, height=0.9,
                               yaw=1.9), 0.6 * 1.0 * 0.9 / (1.6 * 3.4 * 1.5)),
    "contained": (along(TURNED, 0.1, -0.3, width=0.6, length=1.0, height=0.9, yaw=1.9),
                  TURNED, 0.6 * 1.0 * 0.9 / (1.6 * 3.4 * 1.5)),
    "parallel_disjoint_exact": (UNIT, along(UNIT, 1.5, 0.25), 0.0),
    "parallel_disjoint": (TURNED, along(TURNED, 2.0, 0.5), 0.0),
}


class TestDiouLoss:
    @pytest.mark.parametrize("case", list(HARD_CASES))
    def test_hard_cases_match_analytic_geometry(self, case):
        gt, pred, expected = HARD_CASES[case]
        loss, ious = diou_loss(Tensor(box_rows([pred])), [gt])
        assert ious[0] == pytest.approx(clip_iou3d(pred, gt), abs=1e-9)
        assert ious[0] == pytest.approx(expected, abs=1e-9)
        assert loss.item() == pytest.approx(
            1.0 - clip_iou3d(pred, gt) + diou_penalty(pred, gt), abs=1e-9)

    def test_flipped_batch_matches_unflipped(self):
        rng = np.random.default_rng(7)
        pairs = [random_overlapping_pair(rng) for _ in range(8)]
        gts = [gt for gt, _ in pairs]
        rows = box_rows([pred for _, pred in pairs])
        flipped = rows.copy()
        flipped[:, 6] += math.pi
        loss, ious = diou_loss(Tensor(rows), gts)
        loss_f, ious_f = diou_loss(Tensor(flipped), gts)
        np.testing.assert_allclose(ious_f, [clip_iou3d(p, g) for g, p in pairs],
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(ious_f, ious, rtol=0, atol=1e-9)
        assert loss_f.item() == pytest.approx(loss.item(), abs=1e-9)

    def test_graph_size_does_not_depend_on_batch_or_overlap(self):
        rng = np.random.default_rng(8)
        sizes = set()
        for b in (1, 4, 16):
            pairs = [random_overlapping_pair(rng) for _ in range(b)]
            for far in (0.0, 50.0):  # overlapping, then every pair disjoint
                rows = box_rows([pred for _, pred in pairs])
                rows[:, 0] += far
                p = Tensor(rows, requires_grad=True)
                loss, ious = diou_loss(p, [gt for gt, _ in pairs])
                assert (max(ious) == 0.0) == (far > 0)
                sizes.add(graph_size(loss))
        assert len(sizes) == 1, sizes
        # the penalty's enclosing box, centre offset and vertical span reuse
        # the kernel's prediction footprint, offset and vertical extent
        assert sizes.pop() <= 87

    def test_invalid_box_names_first_bad_object(self):
        rng = np.random.default_rng(9)
        gts = [random_box(rng, 1.0) for _ in range(4)]
        rows = box_rows([random_box(rng, 1.0) for _ in range(4)])
        rows[2, 5] = np.nan
        rows[3, 3] = -1.0
        with pytest.raises(NumericError, match=r"^object 2: extent nan$"):
            diou_loss(Tensor(rows), gts)
        rows[2, 5] = 0.0
        with pytest.raises(NumericError, match=r"^object 2: extent 0.0$"):
            diou_loss(Tensor(rows), gts)

    def test_batch_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        pairs = [random_overlapping_pair(rng) for _ in range(4)]
        gts = [gt for gt, _ in pairs]
        x0 = box_rows([pred for _, pred in pairs])

        def f(arr):
            return diou_loss(arr if isinstance(arr, Tensor) else Tensor(arr), gts)[0]

        p = Tensor(x0.copy(), requires_grad=True)
        backward(f(p))
        assert np.abs(p.grad).min() > 0.0  # every channel of every object is live
        step = 1e-6
        for i in range(4):
            for j in range(7):
                hi = x0.copy()
                hi[i, j] += step
                lo = x0.copy()
                lo[i, j] -= step
                numeric = (f(hi).item() - f(lo).item()) / (2 * step)
                denom = abs(p.grad[i, j]) + abs(numeric) + 1e-10
                assert abs(p.grad[i, j] - numeric) / denom < 1e-5, f"object {i}, channel {j}"

    def test_perfect_prediction_is_zero(self):
        gt = Box3D(0.2, -0.4, 0.1, 1.6, 3.4, 1.5, 0.7)
        loss, ious = diou_loss(Tensor(box_rows([gt])), [gt])
        assert loss.item() == pytest.approx(0.0, abs=1e-9)
        assert ious[0] == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_boxes_exceed_one(self):
        gt = Box3D(0, 0, 0, 1, 2, 1, 0.0)
        pred = Box3D(30, 0, 0, 1, 2, 1, 0.0)
        loss, ious = diou_loss(Tensor(box_rows([pred])), [gt])
        assert ious[0] == 0.0
        assert loss.item() > 1.0

    def test_batch_mean_of_singles(self):
        rng = np.random.default_rng(0)
        gts = [random_box(rng, 1.0) for _ in range(2)]
        preds = [random_box(rng, 1.0) for _ in range(2)]
        both, _ = diou_loss(Tensor(box_rows(preds)), gts)
        singles = [
            diou_loss(Tensor(box_rows([p])), [g])[0].item()
            for p, g in zip(preds, gts)
        ]
        assert both.item() == pytest.approx(sum(singles) / 2, rel=1e-12)

    def test_matches_analytic_geometry(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            gt = random_box(rng, 1.5)
            pred = random_box(rng, 1.5)
            loss, ious = diou_loss(Tensor(box_rows([pred])), [gt])
            expected = 1.0 - clip_iou3d(pred, gt) + diou_penalty(pred, gt)
            assert loss.item() == pytest.approx(expected, abs=1e-9)
            assert ious[0] == pytest.approx(clip_iou3d(pred, gt), abs=1e-9)

    def test_yaw_plus_pi_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            gt = random_box(rng, 1.0)
            pred = random_box(rng, 1.0)
            rows = box_rows([pred])
            flipped = rows.copy()
            flipped[0, 6] += math.pi
            a, _ = diou_loss(Tensor(rows), [gt])
            b, _ = diou_loss(Tensor(flipped), [gt])
            assert abs(a.item() - b.item()) < 1e-9

    def test_range_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            gt = random_box(rng, 1.0)
            pred = random_box(rng, 1.0)
            loss, _ = diou_loss(Tensor(box_rows([pred])), [gt])
            assert 0.0 <= loss.item() < 2.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        gt = Box3D(0.3, -0.2, 0.05, 1.7, 3.8, 1.5, 0.4)
        pred = Box3D(0.1, 0.2, -0.1, 1.5, 3.2, 1.4, 0.9)
        x0 = box_rows([pred])

        def f(arr):
            t = arr if isinstance(arr, Tensor) else Tensor(arr)
            return diou_loss(t, [gt])[0]

        p = Tensor(x0.copy(), requires_grad=True)
        backward(f(p))
        step = 1e-6
        for j in range(7):
            hi = x0.copy()
            hi[0, j] += step
            lo = x0.copy()
            lo[0, j] -= step
            numeric = (f(hi).item() - f(lo).item()) / (2 * step)
            denom = abs(p.grad[0, j]) + abs(numeric) + 1e-10
            assert abs(p.grad[0, j] - numeric) / denom < 1e-5, f"component {j}"

    def test_gradient_pulls_disjoint_centers_together(self):
        gt = Box3D(0, 0, 0, 1.5, 3.0, 1.4, 0.0)
        p = Tensor(box_rows([Box3D(10.0, 0, 0, 1.5, 3.0, 1.4, 0.0)]), requires_grad=True)
        loss, _ = diou_loss(p, [gt])
        backward(loss)
        assert p.grad[0, 0] > 0  # decreasing cx decreases the loss

    def test_invalid_box_on_nonfinite(self):
        with pytest.raises(NumericError, match=r"^object 0: extent nan$"):
            diou_loss(Tensor(np.full((1, 7), np.nan)), [Box3D(0, 0, 0, 1, 1, 1, 0)])


class TestDirectionLoss:
    def test_confident_correct_near_zero(self):
        logits = np.zeros((2, 2))
        logits[0, 0] = 40.0  # front, yaw 0
        logits[1, 1] = 40.0  # back, yaw pi
        loss = direction_loss(Tensor(logits), [0.0, math.pi])
        assert loss.item() < 1e-12

    def test_uniform_logits_ln2(self):
        loss = direction_loss(Tensor(np.zeros((4, 2))), [0.0, 1.0, 2.0, -3.0])
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(5)
        x0 = rng.normal(size=(4, 2))
        yaws = rng.uniform(-math.pi, math.pi, size=4)
        p = Tensor(x0.copy(), requires_grad=True)
        backward(direction_loss(p, yaws))
        step = 1e-7
        for i in range(4):
            for j in range(2):
                hi = x0.copy()
                hi[i, j] += step
                lo = x0.copy()
                lo[i, j] -= step
                numeric = (
                    direction_loss(Tensor(hi), yaws).item()
                    - direction_loss(Tensor(lo), yaws).item()
                ) / (2 * step)
                denom = abs(p.grad[i, j]) + abs(numeric) + 1e-12
                assert abs(p.grad[i, j] - numeric) / denom < 1e-6


class TestTotalLoss:
    def test_combination_arithmetic(self):
        gt = Box3D(0, 0, 0, 1.5, 3.0, 1.4, 0.2)
        pred = Tensor(box_rows([Box3D(0.5, 0.3, 0.1, 1.4, 2.8, 1.3, 0.5)]))
        logits = Tensor(np.array([[0.4, -0.2]]))
        out = total_loss(pred, logits, [gt], lambda_box=5.0)
        assert out.total.item() == out.box_loss.item() * 5.0 + out.dir_loss.item()

    def test_lambda_zero_leaves_direction_only(self):
        gt = Box3D(0, 0, 0, 1.5, 3.0, 1.4, 0.2)
        pred = Tensor(box_rows([gt]))
        logits = Tensor(np.zeros((1, 2)))
        out = total_loss(pred, logits, [gt], lambda_box=0.0)
        assert out.total.item() == pytest.approx(out.dir_loss.item(), abs=1e-15)

    def test_default_lambda_is_five(self):
        assert TrainConfig().lambda_box == 5.0

    def test_perfect_prediction_near_zero(self):
        gt = Box3D(0.1, 0.2, 0.0, 1.6, 3.6, 1.5, 0.3)
        pred = Tensor(box_rows([gt]))
        logits = np.zeros((1, 2))
        logits[0, 0] = 40.0  # yaw 0.3 is front
        out = total_loss(pred, Tensor(logits), [gt], TrainConfig().lambda_box)
        assert out.total.item() == pytest.approx(0.0, abs=1e-9)

    def test_breakdown_invariant(self):
        rng = np.random.default_rng(6)
        gts = [random_box(rng, 1.0) for _ in range(3)]
        pred = Tensor(box_rows([random_box(rng, 1.0) for _ in range(3)]))
        logits = Tensor(rng.normal(size=(3, 2)))
        out = total_loss(pred, logits, gts, lambda_box=5.0)
        assert out.total.item() == out.box_loss.item() * 5.0 + out.dir_loss.item()
        assert len(out.per_object_iou) == 3
        assert all(np.isfinite(v) for v in out.per_object_iou)
