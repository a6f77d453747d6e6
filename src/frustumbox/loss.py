"""Training objective: rotated-3D distance-IoU plus direction cross-entropy.

The box term is one graph of fixed shapes over the whole batch: the IoU is
``geometry.box_iou``, the package's one rotated-box overlap (the
parametric-clip, Green's-theorem kernel of Zhou et al., arXiv:1908.03851),
run here with the graph on, plus the distance penalty of Zheng et al.
(arXiv:1911.08287). The kernel decides which half-plane bounds which edge
on plain float values, so within one backward pass the clip structure is a
fixed piecewise region and the gradient is the exact derivative of the
surviving expression. Eval and the synthetic generator score boxes with
the same kernel through ``geometry.iou_3d``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .geometry import box_iou, box_rows, direction_label, footprint
from .tensor import Tensor

DEFAULT_LAMBDA_BOX = 5.0

# The raw extent channel carries a smoothly bounded log extent:
# extent = exp(CAP * tanh(raw / CAP)). Near zero this is exp(raw); the bound
# (extents in [e^-2, e^2] meters, a car-scale bound) removes the degenerate optimum where an
# unbounded box inflates the penalty's enclosing-diagonal denominator.
LOG_EXTENT_CAP = 2.0


class InvalidBox(Exception):
    """Predicted box decoded to non-positive or non-finite extents."""


def squash_log_extent(raw):
    """Bounded log extent of a raw channel value (numpy or float)."""
    return LOG_EXTENT_CAP * np.tanh(np.asarray(raw, dtype=np.float64) / LOG_EXTENT_CAP)


def extent_to_raw(extent):
    """Inverse of the bounded decode: the raw value whose decode is `extent`.

    Defined for extents strictly inside (e^-CAP, e^CAP).
    """
    log = math.log(extent)
    if not -LOG_EXTENT_CAP < log < LOG_EXTENT_CAP:
        raise ValueError(f"extent {extent} outside the representable range")
    return LOG_EXTENT_CAP * math.atanh(log / LOG_EXTENT_CAP)


@dataclass
class LossBreakdown:
    box_loss: Tensor
    dir_loss: Tensor
    total: Tensor
    per_object_iou: list


def _decode_extent(raw):
    return T.exp(T.tanh(raw * (1.0 / LOG_EXTENT_CAP)) * LOG_EXTENT_CAP)


def diou_loss(pred_raw, gt_boxes):
    """Mean over the batch of 1 - IoU + center penalty, direction-invariant.

    pred_raw: (B, 7) tensor of raw head outputs. gt_boxes: one Box3D per
    object in the same (frustum) frame. The IoU is ``geometry.box_iou`` on
    the decoded boxes; one clip is already heading-blind, because the
    footprint at yaw + pi is the same point set, so a heading flip cannot
    be penalized by the box term. Returns (scalar loss, per-object IoU
    floats for logging).

    The whole batch is one graph of fixed shapes, so the node count does not
    depend on B or on how the boxes overlap. Raises InvalidBox naming the
    first object whose extents decode non-finite or non-positive.
    """
    pred_raw = T.as_tensor(pred_raw)
    n = len(gt_boxes)
    if pred_raw.shape != (n, 7):
        raise T.ShapeMismatch(f"predictions {pred_raw.shape} vs {n} ground-truth boxes")
    gt = box_rows(gt_boxes)
    extent = _decode_extent(pred_raw[:, 3:6])
    bad = np.argwhere(~(np.isfinite(extent.data) & (extent.data > 0)))
    if len(bad):
        i, j = bad[0]
        raise InvalidBox(f"object {i}: decoded extent {float(extent.data[i, j])!r}")
    boxes = T.concat([pred_raw[:, 0:3], extent, pred_raw[:, 6:7]], axis=1)
    iou = box_iou(boxes, gt)

    # penalty: squared center distance over the diagonal of the axis-aligned
    # box enclosing both, in the frame centred on each ground truth
    offset = pred_raw[:, 0:3] - gt[:, 0:3]
    corners = T.reshape(offset[:, 0:2], (n, 1, 2)) + footprint(boxes)
    gt_corners = footprint(gt).data
    hi = T.maximum(gt_corners.max(axis=1), T.amax(corners, axis=1))
    lo = T.minimum(gt_corners.min(axis=1), T.amin(corners, axis=1))
    cz, half_h, gt_half_h = offset[:, 2], extent[:, 2] * 0.5, gt[:, 5] * 0.5
    span_z = T.maximum(gt_half_h, cz + half_h) - T.minimum(-gt_half_h, cz - half_h)
    c2 = T.tsum((hi - lo) ** 2, axis=1) + span_z ** 2
    pen = T.tsum(offset ** 2, axis=1) / c2
    return T.tmean(1.0 - iou + pen), iou.data.tolist()


def direction_loss(logits, gt_yaws):
    """Mean cross-entropy of the front/back logits against heading labels."""
    labels = np.array([direction_label(float(y)) for y in np.asarray(gt_yaws).reshape(-1)])
    return T.cross_entropy(logits, labels)


def total_loss(pred_raw, logits, gt_boxes, lambda_box=DEFAULT_LAMBDA_BOX):
    """Combine both terms: total = lambda_box * box + direction."""
    box, ious = diou_loss(pred_raw, gt_boxes)
    direction = direction_loss(logits, [b.yaw for b in gt_boxes])
    total = box * lambda_box + direction
    return LossBreakdown(box_loss=box, dir_loss=direction, total=total, per_object_iou=ious)
