"""Sample augmentation: global shift, global scale, lateral flip.

Each transform is applied jointly to the points and the ground-truth box so
their relative geometry (and hence the IoU of any joint construction) is
preserved. Point counts are untouched: augmentation never changes whether a
sample passes the population filter.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .geometry import Box3D


def apply_augmentation(sample, shift=(0.0, 0.0, 0.0), scale=1.0, flip=False):
    """Deterministic core: scale about the origin, then shift, then flip.

    The lateral flip mirrors the y axis, which negates the box's lateral
    center coordinate and its yaw. Applying the same flip twice is the
    identity.
    """
    shift = np.asarray(shift, dtype=np.float64)
    points = sample.points * scale + shift
    gt = sample.gt_box
    if gt is not None:
        gt = Box3D(
            gt.cx * scale + shift[0],
            gt.cy * scale + shift[1],
            gt.cz * scale + shift[2],
            gt.width * scale,
            gt.length * scale,
            gt.height * scale,
            gt.yaw,
        )
    if flip:
        points = points * np.array([1.0, -1.0, 1.0])
        if gt is not None:
            gt = Box3D(gt.cx, -gt.cy, gt.cz, gt.width, gt.length, gt.height, -gt.yaw)
    return replace(sample, points=points, gt_box=gt)


def augment(sample, rng, shift_range, scale_low, scale_high, flip_prob):
    """One random draw of each transform; the rng is consumed identically
    regardless of the magnitudes so seeded streams stay aligned. The
    magnitudes are the run's ``TrainConfig`` fields of the same names."""
    shift = rng.uniform(-shift_range, shift_range, size=3)
    scale = rng.uniform(scale_low, scale_high)
    flip = rng.uniform() < flip_prob
    return apply_augmentation(sample, shift=shift, scale=scale, flip=flip)
