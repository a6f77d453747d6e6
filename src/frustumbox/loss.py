"""Training objective: rotated-3D distance-IoU plus direction cross-entropy.

The box term takes the network's box rows, (cx, cy, cz, w, l, h, yaw) per
object (see ``model.BoxAnnotator.regress_box``), and is one graph of fixed
shapes over the whole batch: the IoU is ``geometry.box_iou``, the
package's one rotated-box overlap (the parametric-clip, Green's-theorem
kernel of Zhou et al., arXiv:1908.03851), run here with the graph on, plus
the distance penalty of Zheng et al. (arXiv:1911.08287), whose enclosing
box reuses the prediction footprint, centre offset and vertical extent
the kernel returns.
The kernel decides which half-plane bounds which edge on plain float
values, so within one backward pass the clip structure is a fixed
piecewise region and the gradient is the exact derivative of the surviving
expression. Eval and the synthetic generator score boxes with the same
kernel through ``geometry.iou_3d``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import NumericError
from .geometry import box_iou, box_rows, direction_label, footprint
from .tensor import Tensor


@dataclass
class LossBreakdown:
    box_loss: Tensor
    dir_loss: Tensor
    total: Tensor
    per_object_iou: list


def diou_loss(pred, gt_boxes):
    """Mean over the batch of 1 - IoU + center penalty, direction-invariant.

    pred: (B, 7) tensor of box rows (cx, cy, cz, w, l, h, yaw). gt_boxes:
    one Box3D per object in the same (frustum) frame. The IoU is
    ``geometry.box_iou``; one clip is already heading-blind, because the
    footprint at yaw + pi is the same point set, so a heading flip cannot
    be penalized by the box term. Returns (scalar loss, per-object IoU
    floats for logging).

    The whole batch is one graph of fixed shapes, so the node count does not
    depend on B or on how the boxes overlap. Raises NumericError naming the
    first object with a non-finite or non-positive extent.
    """
    pred = T.as_tensor(pred)
    n = len(gt_boxes)
    if pred.shape != (n, 7):
        raise NumericError(f"predictions {pred.shape} vs {n} ground-truth boxes")
    gt = box_rows(gt_boxes)
    extent = pred.data[:, 3:6]
    bad = np.argwhere(~(np.isfinite(extent) & (extent > 0)))
    if len(bad):
        i, j = bad[0]
        raise NumericError(f"object {i}: extent {float(extent[i, j])!r}")
    iou, corners, offset, (bottom, top) = box_iou(pred, gt)

    # penalty: squared center distance over the diagonal of the axis-aligned
    # box enclosing both, in the frame centred on each ground truth
    gt_corners = footprint(gt).data
    hi = T.maximum(gt_corners.max(axis=1), T.amax(corners, axis=1))
    lo = T.minimum(gt_corners.min(axis=1), T.amin(corners, axis=1))
    gt_half_h = gt[:, 5] * 0.5
    span_z = T.maximum(gt_half_h, top) - T.minimum(-gt_half_h, bottom)
    c2 = T.tsum((hi - lo) ** 2, axis=1) + span_z ** 2
    pen = T.tsum(offset ** 2, axis=1) / c2
    return T.tmean(1.0 - iou + pen), iou.data.tolist()


def direction_loss(logits, gt_yaws):
    """Mean cross-entropy of the front/back logits against heading labels."""
    labels = np.array([direction_label(float(y)) for y in np.asarray(gt_yaws).reshape(-1)])
    return T.cross_entropy(logits, labels)


def total_loss(pred, logits, gt_boxes, lambda_box):
    """Combine both terms: total = lambda_box * box + direction, with
    ``pred`` the (B, 7) box rows and ``lambda_box`` the run's
    ``TrainConfig.lambda_box``."""
    box, ious = diou_loss(pred, gt_boxes)
    direction = direction_loss(logits, [b.yaw for b in gt_boxes])
    total = box * lambda_box + direction
    return LossBreakdown(box_loss=box, dir_loss=direction, total=total, per_object_iou=ious)
