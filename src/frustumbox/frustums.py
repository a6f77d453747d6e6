"""Frustum sample assembly: cut, count, resample, centre, filter.

A FrustumSample is one object's training unit: its fixed-size sub-cloud in a
centroid-relative frame, the 2D box and calibration it came from, and the
(shifted) ground-truth box when available. A frustum is the row indices of
the cloud inside a 2D box; a sample draws n of them and gathers and centres
those n points in one pass. Each frame draws from its own stream, keyed by
(seed, frame id), so a frame's samples are a pure function of its files,
the seed and n: training, annotation, attention dumps and any subset of
frames see bit-identical inputs.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .geometry import Box2D, Box3D, ProjectionModel, extract_frustum, points_in_box3d
from .kitti import lidar_box_from_label, load_frame, manifest_frames

# Salt mixed into each frame's sampling key so the training loop's
# random stream stays independent of sample construction.
_SAMPLING_SALT = 104729

MIN_TOTAL_POINTS = 30
MIN_FOREGROUND_POINTS = 5


@dataclass(frozen=True)
class FrustumSample:
    points: np.ndarray  # (N, 3), centroid-relative
    centroid: np.ndarray  # (3,) offset removed from the raw coordinates
    box2d: Box2D
    calib: ProjectionModel
    gt_box: Box3D | None  # same frame as points
    frame_id: str
    object_id: str
    n_raw_points: int
    n_foreground_points: int
    cls: str = "Car"
    # the ground truth in the sensor frame exactly as its label row reads,
    # what eval scores against; centring and augmentation leave it
    sensor_gt_box: Box3D | None = None

    def __post_init__(self):
        if not np.isfinite(self.points).all():
            raise ValueError(f"non-finite points in sample {self.object_id}")
        if self.n_raw_points < 0 or self.n_foreground_points < 0:
            raise ValueError("negative point counts")


def sample_to_fixed_size(m, n, rng):
    """The n indices into m points a fixed-size resample keeps: drawn
    without replacement when enough points exist, otherwise every point once
    plus a with-replacement remainder."""
    if m == 0:
        raise DataError("cannot sample an empty cloud")
    if m >= n:
        return rng.choice(m, size=n, replace=False)
    return np.concatenate([np.arange(m), rng.integers(0, m, size=n - m)])


def build_frustum_sample(cloud, rows, box2d, calib, gt_box, frame_id, object_id,
                         n_points, rng, cls="Car"):
    """One object's sample from its frustum, the `rows` of `cloud` that
    :func:`~frustumbox.geometry.extract_frustum` returns; None when the
    frustum holds no points at all, in which case no random numbers are drawn.

    The foreground count reads the whole frustum; the n resampled rows are
    gathered once and shifted to their centroid, and the ground truth moves
    along (the label's own box stays as ``sensor_gt_box``).
    """
    n_raw = len(rows)
    if n_raw == 0:
        return None
    n_fg = 0 if gt_box is None else int(
        np.count_nonzero(points_in_box3d(cloud[rows], gt_box)))
    points = cloud[rows[sample_to_fixed_size(n_raw, n_points, rng)]]
    mean = points.mean(axis=0)
    return FrustumSample(
        points=points - mean,
        centroid=mean + 0.0,  # + 0.0 stores a -0.0 mean as 0.0
        box2d=box2d,
        calib=calib,
        gt_box=gt_box.translated(-mean) if gt_box is not None else None,
        frame_id=frame_id,
        object_id=object_id,
        n_raw_points=n_raw,
        n_foreground_points=n_fg,
        cls=cls,
        sensor_gt_box=gt_box,
    )


def filter_samples(samples):
    """Keep samples with at least MIN_TOTAL_POINTS raw and
    MIN_FOREGROUND_POINTS foreground points.

    Returns (kept, rejections); each rejection is (frame_id, object_id,
    reason). Idempotent: filtering the kept list again rejects nothing.
    """
    kept = []
    rejections = []
    for s in samples:
        if s.n_raw_points < MIN_TOTAL_POINTS:
            reason = f"total points {s.n_raw_points} < {MIN_TOTAL_POINTS}"
        elif s.n_foreground_points < MIN_FOREGROUND_POINTS:
            reason = f"foreground points {s.n_foreground_points} < {MIN_FOREGROUND_POINTS}"
        else:
            kept.append(s)
            continue
        rejections.append((s.frame_id, s.object_id, reason))
    return kept, rejections


def frame_samples(root, frame_id, n_points, seed, require_gt):
    """The frustum samples of one frame, in label-row order.

    The one sample path for training, annotation and attention dumps. Every
    care row gets a sample; with `require_gt`, rows without 3D extents are
    skipped, and without it a 2D box suffices. The frame's cloud is
    projected once and every row's frustum is cut from the shared pixel
    coordinates. With `require_gt`, a row's 3D box feeds only the sample's
    ground truth and foreground count; without it no 3D box is read, so
    every sample has ``gt_box`` and ``sensor_gt_box`` None and no
    foreground points. The frame's stream is keyed by the seed and a CRC-32
    of the frame id, not by any other frame; it is drawn once per non-empty
    frustum, in row order, so without `require_gt` the draws do not depend
    on which rows carry 3D boxes.

    Returns (samples, empty): the samples, and the object ids of rows whose
    frustum held no points. Raises FileNotFoundError for a missing frame.
    """
    points, calib, records = load_frame(root, frame_id)
    rows = [
        (i, rec) for i, rec in enumerate(records)
        if rec.is_care and (rec.has_box3d or not require_gt)
    ]
    if not rows:
        return [], []
    rng = np.random.default_rng([seed, _SAMPLING_SALT, zlib.crc32(frame_id.encode())])
    frustums = extract_frustum(points, [rec.box2d for _, rec in rows], calib)
    samples, empty = [], []
    for (i, rec), frustum in zip(rows, frustums):
        object_id = f"{frame_id}:{i}"
        gt_box = lidar_box_from_label(rec, calib) if require_gt else None
        sample = build_frustum_sample(
            points, frustum, rec.box2d, calib, gt_box,
            frame_id=frame_id, object_id=object_id, n_points=n_points, rng=rng,
            cls=rec.cls,
        )
        if sample is None:
            empty.append(object_id)
        else:
            samples.append(sample)
    return samples, empty


def build_dataset_samples(root, n_points, seed, split=None):
    """All frustum samples of a dataset directory's labeled objects, unfiltered.

    Objects without 3D extents (DontCare rows, 2D-only rows) are skipped.
    Each frame's samples are those :func:`frame_samples` gives it alone.
    """
    samples = []
    for frame_id in manifest_frames(root, split=split):
        samples.extend(frame_samples(root, frame_id, n_points, seed, require_gt=True)[0])
    return samples
