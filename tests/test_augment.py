import numpy as np
import pytest

from frustumbox.augment import apply_augmentation, augment
from frustumbox.frustums import FrustumSample
from frustumbox.geometry import Box2D, Box3D, iou_3d
from frustumbox.synthetic import virtual_calibration
from frustumbox.train import TrainConfig

CFG = TrainConfig()
MAGNITUDES = dict(shift_range=CFG.shift_range, scale_low=CFG.scale_low,
                  scale_high=CFG.scale_high, flip_prob=CFG.flip_prob)


def make_sample(seed=0):
    rng = np.random.default_rng(seed)
    return FrustumSample(
        points=rng.normal(size=(40, 3)),
        centroid=np.array([10.0, 1.0, -0.5]),
        box2d=Box2D(0, 0, 10, 10),
        calib=virtual_calibration(),
        gt_box=Box3D(0.2, -0.4, 0.1, 1.6, 3.8, 1.5, 0.7),
        frame_id="000000",
        object_id="000000:0",
        n_raw_points=40,
        n_foreground_points=12,
    )


class TestApplyAugmentation:
    def test_identity_transform(self):
        s = make_sample()
        out = apply_augmentation(s)
        np.testing.assert_array_equal(out.points, s.points)
        assert out.gt_box == s.gt_box

    def test_joint_iou_preserved(self):
        s = make_sample()
        rng = np.random.default_rng(1)
        other = Box3D(0.5, 0.0, 0.0, 1.5, 3.5, 1.4, 0.4)
        base_iou = iou_3d(s.gt_box, other)
        shift = rng.uniform(-0.25, 0.25, 3)
        scale = rng.uniform(0.95, 1.05)
        a = apply_augmentation(s, shift=shift, scale=scale, flip=True)
        other_sample = make_sample()
        other_sample = apply_augmentation(
            FrustumSample(
                points=s.points,
                centroid=s.centroid,
                box2d=s.box2d,
                calib=s.calib,
                gt_box=other,
                frame_id="0",
                object_id="0:0",
                n_raw_points=1,
                n_foreground_points=1,
            ),
            shift=shift,
            scale=scale,
            flip=True,
        )
        # scaling changes absolute volume but a joint transform keeps IoU
        assert iou_3d(a.gt_box, other_sample.gt_box) == pytest.approx(base_iou, abs=1e-9)

    def test_flip_twice_is_identity(self):
        s = make_sample()
        out = apply_augmentation(apply_augmentation(s, flip=True), flip=True)
        np.testing.assert_allclose(out.points, s.points, atol=1e-12)
        assert out.gt_box.cy == pytest.approx(s.gt_box.cy, abs=1e-12)
        assert out.gt_box.yaw == pytest.approx(s.gt_box.yaw, abs=1e-12)

    def test_flip_negates_lateral_and_yaw(self):
        s = make_sample()
        out = apply_augmentation(s, flip=True)
        assert out.gt_box.cy == -s.gt_box.cy
        assert out.gt_box.yaw == -s.gt_box.yaw
        np.testing.assert_array_equal(out.points[:, 1], -s.points[:, 1])

    def test_points_move_with_box(self):
        s = make_sample()
        out = apply_augmentation(s, shift=(1.0, 2.0, 3.0), scale=2.0)
        np.testing.assert_allclose(out.points, s.points * 2.0 + [1.0, 2.0, 3.0])
        assert out.gt_box.cx == pytest.approx(s.gt_box.cx * 2.0 + 1.0)
        assert out.gt_box.width == pytest.approx(s.gt_box.width * 2.0)

    def test_counts_unchanged(self):
        s = make_sample()
        out = augment(s, np.random.default_rng(0), **MAGNITUDES)
        assert out.n_raw_points == s.n_raw_points
        assert out.n_foreground_points == s.n_foreground_points


class TestAugmentDraws:
    def test_seeded_determinism(self):
        s = make_sample()
        a = augment(s, np.random.default_rng(5), **MAGNITUDES)
        b = augment(s, np.random.default_rng(5), **MAGNITUDES)
        np.testing.assert_array_equal(a.points, b.points)
        assert a.gt_box == b.gt_box

    def test_zero_magnitudes_no_flip_is_identity(self):
        s = make_sample()
        out = augment(s, np.random.default_rng(3), shift_range=0.0,
                      scale_low=1.0, scale_high=1.0, flip_prob=0.0)
        np.testing.assert_allclose(out.points, s.points, atol=1e-15)
        assert out.gt_box.cx == pytest.approx(s.gt_box.cx, abs=1e-15)

    def test_gt_stays_valid(self):
        s = make_sample()
        rng = np.random.default_rng(7)
        for _ in range(50):
            out = augment(s, rng, **MAGNITUDES)
            assert out.gt_box.width > 0 and out.gt_box.length > 0
            assert np.isfinite(out.points).all()
