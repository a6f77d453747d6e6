"""Synthetic scenes to a standard dataset directory, and back to samples.

Scenes are car-like cuboids with sensor-facing surface points, written in
the usual layout (velodyne binaries, label text, per-frame calibration, a
manifest). Reading them back builds fixed-size, centroid-normalized frustum
samples, and the population filter drops objects too sparse to annotate.
"""

import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

from frustumbox.frustums import build_dataset_samples, filter_samples
from frustumbox.kitti import load_frame, manifest_frames
from frustumbox.synthetic import SceneSpec, write_synthetic_dataset

root = Path(tempfile.mkdtemp(prefix="frustumbox_demo_"))

easy = SceneSpec(noise_sigma=0.02, points_base=500, range_max=25.0)
splits = write_synthetic_dataset(root, easy, n_scenes=8, rng=np.random.default_rng(0))
print(f"wrote {len(splits)} frames under {root}")
print("splits:", dict(Counter(splits.values())))

frame = manifest_frames(root)[0]
points, calib, records = load_frame(root, frame)
print(f"\nframe {frame}: {len(points)} points, {len(records)} labels")
print("first label line fields:", records[0].cls, records[0].box2d.as_tuple())

samples = build_dataset_samples(root, n_points=128, seed=0)
kept, rejections = filter_samples(samples)
print(f"\nfrustum samples: {len(samples)} built, {len(kept)} kept, "
      f"{len(rejections)} rejected by the 30-total/5-foreground rule")

s = kept[0]
print(f"\nsample {s.object_id}: {s.n_raw_points} raw points, "
      f"{s.n_foreground_points} foreground")
print(f"normalized point centroid: {s.points.mean(axis=0).round(12)}")
print(f"stored offset (original frame): {s.centroid.round(3)}")
print(f"ground truth in the normalized frame: center {np.round(s.gt_box.center, 3)}, "
      f"dims ({s.gt_box.width:.2f}, {s.gt_box.length:.2f}, {s.gt_box.height:.2f})")

# hard scenes: heavy occlusion starves objects of points and the filter bites
hard = SceneSpec(occlusion=0.9, points_base=80, points_max=120)
hard_root = Path(tempfile.mkdtemp(prefix="frustumbox_demo_hard_"))
write_synthetic_dataset(hard_root, hard, n_scenes=8, rng=np.random.default_rng(1))
hard_samples = build_dataset_samples(hard_root, n_points=128, seed=0)
hard_kept, hard_rejections = filter_samples(hard_samples)
print(f"\nocclusion 0.9: {len(hard_kept)} kept, {len(hard_rejections)} rejected")
for frame_id, object_id, reason in hard_rejections[:5]:
    print(f"  rejected {object_id}: {reason}")
