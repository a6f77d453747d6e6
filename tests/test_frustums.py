import numpy as np
import pytest

from dataclasses import replace
from pathlib import Path

from frustumbox.cli import main
from frustumbox.errors import DataError
from frustumbox.frustums import (
    FrustumSample,
    build_dataset_samples,
    build_frustum_sample,
    filter_samples,
    frame_samples,
    sample_to_fixed_size,
)
from frustumbox.geometry import (
    Box2D,
    Box3D,
    ProjectionModel,
    extract_frustum,
    iou_3d,
    points_in_box3d,
)
from frustumbox.kitti import (
    lidar_box_from_label,
    load_frame,
    manifest_frames,
    parse_kitti_label,
    serialize_kitti_label,
)
from frustumbox.model import BoxAnnotator, ModelConfig
from frustumbox.synthetic import SceneSpec, virtual_calibration, write_synthetic_dataset

from oracles import (
    denormalize_frustum,
    frame_sampling_rng,
    identity_calibration,
    per_object_frustum,
    per_object_sample,
)


def make_sample(points, gt=None, n_raw=None, n_fg=0):
    pts = np.asarray(points, dtype=np.float64)
    return FrustumSample(
        points=pts,
        centroid=np.zeros(3),
        box2d=Box2D(0, 0, 10, 10),
        calib=virtual_calibration(),
        gt_box=gt,
        frame_id="000000",
        object_id="000000:0",
        n_raw_points=len(pts) if n_raw is None else n_raw,
        n_foreground_points=n_fg,
    )


def build_whole(cloud, gt=None, seed=0):
    """The sample of a frustum that is the whole cloud, resampled to its size."""
    return build_frustum_sample(
        cloud, np.arange(len(cloud)), Box2D(0, 0, 10, 10), virtual_calibration(), gt,
        "000000", "000000:0", len(cloud), np.random.default_rng(seed))


class TestSampleToFixedSize:
    def test_enough_points_distinct(self):
        idx = sample_to_fixed_size(2000, 1024, np.random.default_rng(0))
        assert idx.shape == (1024,) and np.issubdtype(idx.dtype, np.integer)
        assert len(np.unique(idx)) == 1024
        assert idx.min() >= 0 and idx.max() < 2000

    def test_deficit_keeps_all_and_duplicates(self):
        idx = sample_to_fixed_size(10, 1024, np.random.default_rng(1))
        assert idx.shape == (1024,) and np.issubdtype(idx.dtype, np.integer)
        np.testing.assert_array_equal(idx[:10], np.arange(10))  # every point present
        np.testing.assert_array_equal(np.unique(idx), np.arange(10))

    def test_seeded_determinism(self):
        a = sample_to_fixed_size(500, 128, np.random.default_rng(42))
        b = sample_to_fixed_size(500, 128, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_empty_cloud(self):
        with pytest.raises(DataError, match="cannot sample an empty cloud"):
            sample_to_fixed_size(0, 16, np.random.default_rng(0))


class TestNormalization:
    def test_normalized_centroid_at_origin(self):
        rng = np.random.default_rng(3)
        s = build_whole(rng.normal(loc=5.0, size=(50, 3)))
        np.testing.assert_allclose(s.points.mean(axis=0), 0.0, atol=1e-12)

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(4)
        gt = Box3D(5.2, -0.3, 0.1, 1.5, 3.5, 1.4, 0.8)
        cloud = rng.normal(loc=5.0, size=(50, 3))
        back = denormalize_frustum(build_whole(cloud, gt=gt, seed=1))
        drawn = sample_to_fixed_size(50, 50, np.random.default_rng(1))
        np.testing.assert_allclose(back.points, cloud[drawn], atol=1e-12)
        np.testing.assert_allclose(back.gt_box.center, gt.center, atol=1e-12)

    def test_iou_invariant_under_joint_shift(self):
        rng = np.random.default_rng(5)
        gt = Box3D(5.2, -0.3, 0.1, 1.5, 3.5, 1.4, 0.8)
        other = Box3D(5.6, 0.1, 0.2, 1.6, 3.4, 1.5, 0.6)
        ns = build_whole(rng.normal(loc=5.0, size=(50, 3)), gt=gt)
        shift = ns.centroid
        other_shifted = other.translated(-shift)
        assert iou_3d(gt, other) == pytest.approx(
            iou_3d(ns.gt_box, other_shifted), abs=1e-9
        )

    def test_negative_zero_mean_is_stored_as_zero(self):
        cloud = np.random.default_rng(6).normal(loc=5.0, size=(40, 3))
        # a sum of -0.0 is +0.0, but a negative sum that underflows when
        # divided by the count makes the mean -0.0
        cloud[:, 1] = 0.0
        cloud[3, 1] = -5e-324
        assert np.signbit(cloud.mean(axis=0)[1]), "premise: the mean's y is -0.0"
        s = build_whole(cloud, seed=2)
        want = per_object_sample(cloud, Box2D(-1e9, -1e9, 1e9, 1e9), identity_calibration(),
                                 None, "000000", "000000:0", 40, np.random.default_rng(2))
        assert not np.signbit(s.centroid).any()
        assert s.centroid.tobytes() == want.centroid.tobytes()
        assert s.points.tobytes() == want.points.tobytes()


class TestFilter:
    def test_too_few_total(self):
        s = make_sample(np.zeros((5, 3)), n_raw=29, n_fg=10)
        kept, rej = filter_samples([s])
        assert not kept and "total points 29" in rej[0][2]

    def test_too_few_foreground(self):
        s = make_sample(np.zeros((5, 3)), n_raw=100, n_fg=4)
        kept, rej = filter_samples([s])
        assert not kept and "foreground points 4" in rej[0][2]

    def test_boundary_inclusive(self):
        s = make_sample(np.zeros((5, 3)), n_raw=30, n_fg=5)
        kept, rej = filter_samples([s])
        assert kept and not rej

    def test_idempotent(self):
        samples = [
            make_sample(np.zeros((5, 3)), n_raw=100, n_fg=50),
            make_sample(np.zeros((5, 3)), n_raw=10, n_fg=0),
        ]
        kept, rej = filter_samples(samples)
        kept2, rej2 = filter_samples(kept)
        assert kept2 == kept and not rej2


class TestPipeline:
    def test_sensor_gt_box_is_the_label_box_bit_for_bit(self, tmp_path):
        # shifting the ground truth to the centroid and back rounds, so the
        # sample keeps the label's own box, the one eval scores against
        write_synthetic_dataset(tmp_path, SceneSpec(), 6, np.random.default_rng(0), val_every=0)
        samples = build_dataset_samples(tmp_path, n_points=16, seed=0)
        rounded = 0
        for s in samples:
            _, calib, records = load_frame(tmp_path, s.frame_id)
            label = lidar_box_from_label(records[int(s.object_id.split(":")[1])], calib)
            assert s.sensor_gt_box == label
            rounded += s.gt_box.translated(s.centroid) != label
        assert rounded, "premise: the centroid round trip rounds some box"

    def test_samples_project_inside_their_boxes(self, tmp_path):
        spec = SceneSpec(noise_sigma=0.01)
        write_synthetic_dataset(tmp_path, spec, 4, np.random.default_rng(0), val_every=0)
        samples = build_dataset_samples(tmp_path, n_points=64, seed=0)
        assert samples
        for s in samples:
            restored = denormalize_frustum(s)
            uv, depth = s.calib.project(restored.points)
            assert (depth > 0).all()
            assert (uv[:, 0] >= s.box2d.u_min - 1e-9).all()
            assert (uv[:, 0] <= s.box2d.u_max + 1e-9).all()
            assert (uv[:, 1] >= s.box2d.v_min - 1e-9).all()
            assert (uv[:, 1] <= s.box2d.v_max + 1e-9).all()

    def test_counts_match_brute_force(self, tmp_path):
        from frustumbox.kitti import lidar_box_from_label, load_frame, manifest_frames

        spec = SceneSpec(noise_sigma=0.02)
        write_synthetic_dataset(tmp_path, spec, 3, np.random.default_rng(1), val_every=0)
        samples = build_dataset_samples(tmp_path, n_points=64, seed=0)
        by_id = {s.object_id: s for s in samples}
        for frame in manifest_frames(tmp_path):
            points, calib, records = load_frame(tmp_path, frame)
            for i, rec in enumerate(records):
                sid = f"{frame}:{i}"
                if sid not in by_id:
                    continue
                s = by_id[sid]
                frustum = per_object_frustum(points, rec.box2d, calib)
                assert s.n_raw_points == len(frustum)
                gt = lidar_box_from_label(rec, calib)
                fg = int(points_in_box3d(frustum, gt).sum())
                assert s.n_foreground_points == fg

    def test_build_deterministic(self, tmp_path):
        spec = SceneSpec()
        write_synthetic_dataset(tmp_path, spec, 3, np.random.default_rng(2), val_every=0)
        a = build_dataset_samples(tmp_path, n_points=32, seed=9)
        b = build_dataset_samples(tmp_path, n_points=32, seed=9)
        assert len(a) == len(b)
        for s, t in zip(a, b):
            np.testing.assert_array_equal(s.points, t.points)

    def test_gt_box_shifted_with_points(self, tmp_path):
        from frustumbox.kitti import lidar_box_from_label, load_frame, manifest_frames

        spec = SceneSpec(noise_sigma=0.01)
        write_synthetic_dataset(tmp_path, spec, 2, np.random.default_rng(3), val_every=0)
        samples = build_dataset_samples(tmp_path, n_points=64, seed=0)
        assert samples
        for s in samples:
            assert s.gt_box is not None
            frame = s.frame_id
            idx = int(s.object_id.split(":")[1])
            _, calib, records = load_frame(tmp_path, frame)
            original = lidar_box_from_label(records[idx], calib)
            # normalized gt center is the original one minus the stored offset
            np.testing.assert_allclose(
                s.gt_box.center + s.centroid, original.center, atol=1e-9
            )
            assert s.gt_box.yaw == original.yaw


# a tiny architecture: annotate runs in well under a second
TINY = ModelConfig(d=16, n_points=16, n_local_layers=1, n_global_layers=1,
                   n_decoder_layers=1, heads=2, head_hidden=16)
FAST_SCENES = ["scene.range_min=6", "scene.range_max=14", "scene.points_base=500",
               "scene.clutter_density=0.02", "scene.n_objects_min=2",
               "scene.n_objects_max=3"]


def write_tiny_checkpoint(path):
    BoxAnnotator(TINY, rng=np.random.default_rng(5)).save(path)
    return path


def rewrite_labels(root, frame, rewrite):
    path = Path(root) / "label_2" / f"{frame}.txt"
    records = rewrite(parse_kitti_label(path.read_text()))
    path.write_text(serialize_kitti_label(records))


def two_d_only(rec):
    """The no-3D-box convention: dims -1, location -1000, ry -10."""
    return replace(rec, height=-1.0, width=-1.0, length=-1.0,
                   location=(-1000.0, -1000.0, -1000.0), rotation_y=-10.0)


class TestFrameFrustums:
    def test_shared_projection_matches_per_object_cut(self):
        calib = identity_calibration()  # u = x / z, v = y / z, exactly
        rng = np.random.default_rng(12)
        cloud = np.vstack([
            rng.uniform([-4, -4, 0.5], [4, 4, 6], size=(300, 3)),
            rng.uniform([-4, -4, -6], [4, 4, -0.5], size=(100, 3)),  # behind
            [[0.5, 0.5, -1.0], [0.0, 0.0, 0.0]],  # pixel inside, depth <= 0
            [[-1.0, 0.0, 1.0], [1.0, 0.5, 1.0], [0.0, -1.0, 2.0], [2.0, 2.0, 2.0]],  # on edges
        ])
        boxes = [
            Box2D(-1.0, -1.0, 1.0, 1.0),
            Box2D(-50.0, -0.5, 0.25, 50.0),  # reaches far past any image
            Box2D(20.0, 20.0, 30.0, 30.0),  # nothing projects here
        ]
        got = extract_frustum(cloud, boxes, calib)
        assert len(got) == len(boxes)
        for box, rows in zip(boxes, got):
            assert rows.ndim == 1 and np.issubdtype(rows.dtype, np.integer)
            assert (np.diff(rows) > 0).all()
            want = per_object_frustum(cloud, box, calib)
            assert cloud[rows].shape == want.shape
            assert cloud[rows].tobytes() == want.tobytes()
        n = len(cloud)
        assert {n - 4, n - 3, n - 2, n - 1} <= set(got[0].tolist())  # edges are inside
        assert n - 6 not in got[0] and n - 5 not in got[0]  # depth <= 0 is outside
        assert len(got[2]) == 0

    def test_frame_samples_match_per_object_path(self, tmp_path):
        write_synthetic_dataset(tmp_path, SceneSpec(noise_sigma=0.02), 3,
                                np.random.default_rng(6), val_every=0)
        frames = manifest_frames(tmp_path)
        extra = [
            replace(parse_kitti_label((tmp_path / "label_2" / f"{frames[0]}.txt")
                                      .read_text())[0], box2d=box)
            for box in (Box2D(-400.0, 150.0, 600.0, 260.0),  # partly off-image
                        Box2D(0.0, 0.0, 5.0, 5.0))  # sky: empty frustum
        ]
        rewrite_labels(tmp_path, frames[0], lambda rows: rows + [two_d_only(extra[0]), extra[1]])
        n_rows = len(load_frame(tmp_path, frames[0])[2])
        off_image, sky = f"{frames[0]}:{n_rows - 2}", f"{frames[0]}:{n_rows - 1}"

        for require_gt in (True, False):
            built, skipped = [], []
            for frame in frames:
                samples, empty = frame_samples(tmp_path, frame, 32, 3,
                                               require_gt=require_gt)
                rng = frame_sampling_rng(3, frame)
                built += [s.object_id for s in samples]
                skipped += empty
                points, calib, records = load_frame(tmp_path, frame)
                want, want_empty = [], []
                for i, rec in enumerate(records):
                    if not rec.is_care or (require_gt and not rec.has_box3d):
                        continue
                    sample = per_object_sample(
                        points, rec.box2d, calib,
                        lidar_box_from_label(rec, calib) if require_gt else None,
                        frame, f"{frame}:{i}", 32,
                        rng, cls=rec.cls)
                    if sample is None:
                        want_empty.append(f"{frame}:{i}")
                    else:
                        want.append(sample)
                assert empty == want_empty
                assert [s.object_id for s in samples] == [s.object_id for s in want]
                for s, w in zip(samples, want):
                    assert s.points.tobytes() == w.points.tobytes()
                    assert s.centroid.tobytes() == w.centroid.tobytes()
                    assert (s.n_raw_points, s.n_foreground_points) == (
                        w.n_raw_points, w.n_foreground_points)
                    assert (s.gt_box, s.sensor_gt_box, s.cls) == (
                        w.gt_box, w.sensor_gt_box, w.cls)
            assert sky in skipped
            assert (off_image in built) == (not require_gt)

    def test_samples_without_require_gt_read_no_3d_box(self, tmp_path, monkeypatch):
        write_synthetic_dataset(tmp_path, SceneSpec(noise_sigma=0.02), 2,
                                np.random.default_rng(7), val_every=0)
        frames = manifest_frames(tmp_path)
        with_gt = [s for f in frames for s in frame_samples(tmp_path, f, 32, 3, True)[0]]
        assert with_gt and all(s.n_foreground_points > 0 for s in with_gt)

        def unread(rec, calib):
            raise AssertionError("a 3D box was read")

        def drawn(samples):
            return [(s.object_id, s.points.tobytes(), s.centroid.tobytes()) for s in samples]

        monkeypatch.setattr("frustumbox.frustums.lidar_box_from_label", unread)
        samples = [s for f in frames for s in frame_samples(tmp_path, f, 32, 3, False)[0]]
        assert drawn(samples) == drawn(with_gt)
        for s in samples:
            assert s.gt_box is None and s.sensor_gt_box is None
            assert s.n_foreground_points == 0
        # the draws do not depend on which rows carry 3D boxes
        for f in frames:
            rewrite_labels(tmp_path, f, lambda rows: [two_d_only(r) if i % 2 and r.is_care
                                                      else r for i, r in enumerate(rows)])
        assert any(not r.has_box3d for r in load_frame(tmp_path, frames[0])[2])
        mixed = [s for f in frames for s in frame_samples(tmp_path, f, 32, 3, False)[0]]
        assert drawn(mixed) == drawn(samples)

    def test_a_frames_samples_do_not_depend_on_other_frames(self, tmp_path):
        write_synthetic_dataset(tmp_path, SceneSpec(noise_sigma=0.02), 6,
                                np.random.default_rng(8), val_every=3)
        frames = manifest_frames(tmp_path)
        val = manifest_frames(tmp_path, split="val")
        frame = val[-1]
        assert frames.index(frame) > 0

        def drawn(samples):
            return [(s.object_id, s.points.tobytes(), s.centroid.tobytes(),
                     s.n_raw_points, s.n_foreground_points) for s in samples]

        alone = drawn(frame_samples(tmp_path, frame, 32, 4, require_gt=True)[0])
        assert alone
        for split in (None, "val"):
            within = [s for s in build_dataset_samples(tmp_path, 32, 4, split=split)
                      if s.frame_id == frame]
            assert drawn(within) == alone
        other_seed = drawn(frame_samples(tmp_path, frame, 32, 5, require_gt=True)[0])
        assert [d[1] for d in other_seed] != [d[1] for d in alone]

    def test_annotate_projects_each_frame_once(self, tmp_path, monkeypatch):
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--seed", "2", "n_scenes=3",
                     "val_every=0"] + FAST_SCENES) == 0
        ckpt = write_tiny_checkpoint(tmp_path / "tiny.bin")
        project = ProjectionModel.project
        sizes = []

        def counting(self, points):
            sizes.append(len(points))
            return project(self, points)

        monkeypatch.setattr(ProjectionModel, "project", counting)
        assert main(["annotate", "--checkpoint", str(ckpt), "--dataset", str(data),
                     "--out", str(tmp_path / "ann"), "--seed", "0"]) == 0
        frames = manifest_frames(data)
        assert sizes == [len(load_frame(data, f)[0]) for f in frames]

    def test_two_d_only_copy_annotates_identically(self, tmp_path):
        full, flat = tmp_path / "full", tmp_path / "flat"
        argv = ["synth", "--seed", "4", "n_scenes=4", "val_every=0"] + FAST_SCENES
        assert main(argv[:1] + ["--out", str(full)] + argv[1:]) == 0
        assert main(argv[:1] + ["--out", str(flat)] + argv[1:]) == 0
        frames = manifest_frames(flat)
        for frame in frames:
            rewrite_labels(flat, frame,
                           lambda rows: [two_d_only(r) if r.is_care else r for r in rows])
            assert not any(r.has_box3d for r in load_frame(flat, frame)[2])
        ckpt = write_tiny_checkpoint(tmp_path / "tiny.bin")
        for root in (full, flat):
            assert main(["annotate", "--checkpoint", str(ckpt), "--dataset", str(root),
                         "--out", str(tmp_path / f"ann_{root.name}"), "--seed", "0"]) == 0
        labeled = 0
        for frame in frames:
            a = (tmp_path / "ann_full" / "label_2" / f"{frame}.txt").read_bytes()
            b = (tmp_path / "ann_flat" / "label_2" / f"{frame}.txt").read_bytes()
            assert a == b
            labeled += len(parse_kitti_label(a.decode()))
        assert labeled == sum(len(load_frame(full, f)[2]) for f in frames) > 0

