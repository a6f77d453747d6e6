import math

import numpy as np
import pytest

from frustumbox.errors import ConfigError
from frustumbox.frustums import build_dataset_samples, filter_samples
from frustumbox.geometry import box_corners, points_in_box3d
from frustumbox.kitti import frame_paths, load_frame, manifest_frames, read_manifest
from frustumbox.synthetic import (
    Scene,
    SceneSpec,
    generate_synthetic_scene,
    virtual_calibration,
    write_synthetic_dataset,
)


def surface_distance(points, box):
    """Distance of each point to the cuboid surface (0 when exactly on it)."""
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    d = points - box.center
    local = np.column_stack(
        [c * d[:, 0] + s * d[:, 1], -s * d[:, 0] + c * d[:, 1], d[:, 2]]
    )
    half = np.array([box.width / 2, box.length / 2, box.height / 2])
    q = np.abs(local) - half
    outside = np.linalg.norm(np.maximum(q, 0.0), axis=1)
    inside = np.abs(np.max(np.minimum(q, 0.0), axis=1))
    return np.where((q > 0).any(axis=1), outside, inside)


class TestSceneSpec:
    def test_defaults_valid(self):
        SceneSpec()

    def test_rejects_bad_fraction(self):
        with pytest.raises(ConfigError, match="occlusion must be a fraction"):
            SceneSpec(occlusion=1.5)

    def test_rejects_empty_range(self):
        with pytest.raises(ConfigError, match=r"length_range is empty: \(5.0, 3.0\)"):
            SceneSpec(length_range=(5.0, 3.0))

    def test_rejects_one_value_range(self):
        with pytest.raises(ConfigError, match=r"width_range needs two values"):
            SceneSpec(width_range=(1.5,))

    @pytest.mark.parametrize("bounds", [(12, -1), (-1, 1200), (20, 10)])
    def test_rejects_bad_point_budget(self, bounds):
        with pytest.raises(ConfigError, match="0 <= points_min <= points_max"):
            SceneSpec(points_min=bounds[0], points_max=bounds[1])


class TestSceneGeneration:
    def test_zero_noise_points_on_surface(self):
        spec = SceneSpec(noise_sigma=0.0, occlusion=0.0, truncation=0.0,
                         clutter_density=0.0)
        rng = np.random.default_rng(0)
        scene = generate_synthetic_scene(spec, rng)
        assert scene.objects
        offset = 0
        for obj in scene.objects:
            pts = scene.points[offset : offset + obj.n_points]
            offset += obj.n_points
            assert surface_distance(pts, obj.box).max() < 1e-9

    def test_2d_box_contains_all_object_projections(self):
        spec = SceneSpec(noise_sigma=0.0, clutter_density=0.0)
        rng = np.random.default_rng(1)
        calib = virtual_calibration()
        scene = generate_synthetic_scene(spec, rng)
        offset = 0
        for obj in scene.objects:
            pts = scene.points[offset : offset + obj.n_points]
            offset += obj.n_points
            uv, depth = calib.project(pts)
            assert (depth > 0).all()
            tol = 1e-9
            assert (uv[:, 0] >= obj.box2d.u_min - tol).all()
            assert (uv[:, 0] <= obj.box2d.u_max + tol).all()
            assert (uv[:, 1] >= obj.box2d.v_min - tol).all()
            assert (uv[:, 1] <= obj.box2d.v_max + tol).all()

    def test_boxes_valid_by_construction(self):
        rng = np.random.default_rng(2)
        spec = SceneSpec()
        for _ in range(10):
            scene = generate_synthetic_scene(spec, rng)
            for obj in scene.objects:
                assert obj.box.width > 0 and obj.box.length > 0 and obj.box.height > 0
                assert -math.pi <= obj.box.yaw < math.pi
                assert np.isfinite(box_corners(obj.box)).all()

    def test_occlusion_removes_points(self):
        rng_a = np.random.default_rng(3)
        rng_b = np.random.default_rng(3)
        easy = generate_synthetic_scene(SceneSpec(occlusion=0.0), rng_a)
        hard = generate_synthetic_scene(SceneSpec(occlusion=0.7), rng_b)
        assert sum(o.n_points for o in hard.objects) < sum(o.n_points for o in easy.objects)

    def test_determinism(self):
        spec = SceneSpec()
        a = generate_synthetic_scene(spec, np.random.default_rng(7))
        b = generate_synthetic_scene(spec, np.random.default_rng(7))
        np.testing.assert_array_equal(a.points, b.points)
        assert [o.box for o in a.objects] == [o.box for o in b.objects]


class TestDatasetWriting:
    def test_written_dataset_parses_and_samples(self, tmp_path):
        spec = SceneSpec(noise_sigma=0.02)
        write_synthetic_dataset(tmp_path, spec, 6, np.random.default_rng(0), val_every=3)
        frames = manifest_frames(tmp_path)
        assert len(frames) == 6
        splits = read_manifest(tmp_path)
        assert sum(1 for s in splits.values() if s == "val") == 2
        # every frame loads through the standard reader
        for frame in frames:
            points, calib, records = load_frame(tmp_path, frame)
            assert frame_paths(tmp_path, frame)["velodyne"].stat().st_size == 16 * len(points)
            assert all(r.is_care for r in records)
        samples = build_dataset_samples(tmp_path, n_points=64, seed=0)
        assert samples
        kept, rejections = filter_samples(samples)
        assert len(kept) + len(rejections) == len(samples)
        assert kept  # default scenes are easy enough to keep most objects

    def test_heavy_occlusion_fails_filter(self, tmp_path):
        spec = SceneSpec(occlusion=0.9, points_base=80, points_max=120)
        write_synthetic_dataset(tmp_path, spec, 8, np.random.default_rng(1), val_every=0)
        samples = build_dataset_samples(tmp_path, n_points=64, seed=0)
        _, rejections = filter_samples(samples)
        assert rejections  # the rejection log is routinely non-empty

    def test_byte_identical_datasets_under_same_seed(self, tmp_path):
        spec = SceneSpec()
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        write_synthetic_dataset(a_dir, spec, 3, np.random.default_rng(5))
        write_synthetic_dataset(b_dir, spec, 3, np.random.default_rng(5))
        for rel in sorted(p.relative_to(a_dir) for p in a_dir.rglob("*") if p.is_file()):
            assert (a_dir / rel).read_bytes() == (b_dir / rel).read_bytes(), rel

    def test_foreground_points_counted_inside_gt(self, tmp_path):
        spec = SceneSpec(noise_sigma=0.02, clutter_density=0.0)
        write_synthetic_dataset(tmp_path, spec, 4, np.random.default_rng(2), val_every=0)
        samples = build_dataset_samples(tmp_path, n_points=64, seed=0)
        assert samples
        # noise pushes roughly half the surface points strictly inside
        assert any(s.n_foreground_points > 0 for s in samples)
