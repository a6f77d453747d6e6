"""Training objective: rotated-3D distance-IoU plus direction cross-entropy.

The box term is one kernel over the whole batch, built from engine ops on
fixed shapes: (B, 2 yaw variants, 4, 2) footprint corners, centred on each
ground truth and turned into its axes, every edge of each footprint clipped
against the other's four half-planes as a parametric t-interval, and the intersection
area summed from the clipped edges by Green's theorem (the rotated IoU loss
of Zhou et al., arXiv:1908.03851, with the distance penalty of Zheng et al.,
arXiv:1911.08287). Which half-plane bounds which edge is decided on plain
float values, so within one backward pass the clip structure is a fixed
piecewise region and the gradient is the exact derivative of the surviving
expression. The float ``geometry.iou_3d`` and ``diou_penalty`` compute the
same values one pair at a time for eval and the synthetic generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .geometry import DEGENERATE_AREA, direction_label
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


# Footprint corners in a box's own frame, counter-clockwise from
# (+w/2, +l/2): the order of geometry.bev_corners.
_FOOTPRINT = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
# The two yaw variants, yaw and yaw + pi: the second negates the heading axes.
_YAW_VARIANTS = np.array([1.0, -1.0]).reshape(1, 2, 1, 1)
# (x, y) @ _LEFT = (-y, x), the left normal, so that (v @ _LEFT) . w = cross(v, w).
_LEFT = np.array([[0.0, 1.0], [-1.0, 0.0]])
# _EDGE @ corners: row i is corner i+1 minus corner i (exact: one rounding).
_EDGE = np.roll(np.eye(4), 1, axis=1) - np.eye(4)


def _axes(cos, sin):
    """Rows: a box's width and length axes, from its yaw's (..., 1, 1) cosine
    and sine (Tensors or arrays)."""
    return cos * np.eye(2) + sin * _LEFT


def _overlap_area(pred, gt):
    """BEV intersection area of each pair of convex CCW quadrilaterals.

    pred: (B, V, 4, 2) Tensor, gt: (B, V, 4, 2) array, both in the ground
    truth's own frame, where its edges are axis-aligned. By Green's theorem
    the area is half the sum, over the edges p + t d (t in [0, 1]) of both
    polygons, of the length of t inside the other polygon times cross(p, d).
    An edge is clipped against the other polygon's four half-planes as a
    t-interval; whether each half-plane bounds it from below (the edge
    enters), from above (it leaves) or not at all (parallel) is decided on
    float values, so the clip structure is fixed within a backward pass.
    Coincident edges running the same way count once; running opposite
    ways, their terms cancel.
    """
    # axis 0: pass 0 clips pred's edges against the gt's half-planes, pass 1
    # the gt's edges against pred's
    verts = T.concat([T.reshape(pred, (1,) + pred.shape), gt[None]], axis=0)
    edges = T.matmul(_EDGE, verts)
    other_verts = T.permute(verts, [1, 0])
    normals = T.matmul(T.permute(edges, [1, 0]), _LEFT)  # inward, both are CCW
    lead = verts.shape[:-2]
    # side of half-plane j at p_i + t d_i: s + t k, inside where >= 0
    from_corner = T.reshape(verts, lead + (4, 1, 2)) - T.reshape(other_verts, lead + (1, 4, 2))
    s = T.tsum(from_corner * T.reshape(normals, lead + (1, 4, 2)), axis=-1)
    k = T.matmul(edges, T.swapaxes(normals, -1, -2))
    kd, sd = k.data, s.data
    enters, leaves, parallel = kd > 0, kd < 0, kd == 0
    outside = parallel & (sd < 0)
    same_way = np.matmul(edges.data, np.swapaxes(edges.data[::-1], -1, -2)) > 0
    outside[1] |= parallel[1] & (sd[1] == 0) & same_way[1]
    ratio = T.div(s, k + parallel)  # -t of each crossing; parallel entries are masked
    t_lo = T.amax(ratio * -enters.astype(np.float64), axis=-1)
    t_hi = T.amin(ratio * -leaves.astype(np.float64) + (~leaves & ~outside), axis=-1)
    length = T.relu(t_hi - t_lo)
    minus_cross = T.tsum(verts * T.matmul(edges, _LEFT), axis=-1)  # -cross(p, d)
    return T.tsum(length * minus_cross, axis=(0, 3)) * -0.5


def diou_loss(pred_raw, gt_boxes):
    """Mean over the batch of 1 - IoU + center penalty, direction-invariant.

    pred_raw: (B, 7) tensor of raw head outputs. gt_boxes: one Box3D per
    object in the same (frustum) frame. The IoU is evaluated at the
    regressed yaw and at yaw + pi and the larger value is used, so a heading
    flip cannot be penalized by the box term. Returns (scalar loss,
    per-object IoU floats for logging).

    The whole batch is one graph of fixed shapes, so the node count does not
    depend on B or on how the boxes overlap. Raises InvalidBox naming the
    first object whose extents decode non-finite or non-positive.
    """
    pred_raw = T.as_tensor(pred_raw)
    n = len(gt_boxes)
    if pred_raw.shape != (n, 7):
        raise T.ShapeMismatch(f"predictions {pred_raw.shape} vs {n} ground-truth boxes")
    gt = np.array([[b.cx, b.cy, b.cz, b.width, b.length, b.height, b.yaw]
                   for b in gt_boxes]).reshape(n, 7)
    extent = _decode_extent(pred_raw[:, 3:6])
    bad = np.argwhere(~(np.isfinite(extent.data) & (extent.data > 0)))
    if len(bad):
        i, j = bad[0]
        raise InvalidBox(f"object {i}: decoded extent {float(extent.data[i, j])!r}")
    half = extent * 0.5
    hw, hl, hh = half[:, 0:1], half[:, 1:2], half[:, 2:3]

    # corners in the frame centred on each ground truth, axes unchanged
    offset = pred_raw[:, 0:3] - gt[:, 0:3]
    offset_xy = T.reshape(offset[:, 0:2], (n, 1, 2))
    yaw = T.reshape(pred_raw[:, 6], (n, 1, 1))
    spokes = T.matmul(T.reshape(half[:, 0:2], (n, 1, 2)) * _FOOTPRINT,
                      _axes(T.cos(yaw), T.sin(yaw)))
    rect = offset_xy + spokes
    gt_yaw = gt[:, 6].reshape(n, 1, 1)
    gt_axes = _axes(np.cos(gt_yaw), np.sin(gt_yaw))
    gt_local = gt[:, None, 3:5] * 0.5 * _FOOTPRINT
    gt_rect = np.matmul(gt_local, gt_axes)

    # IoU: both yaw variants, turned into each ground truth's own frame. Its
    # edges are axis-aligned there, so every side test and crossing against
    # them takes one product, and a prediction whose edges coincide with the
    # target's up to rounding is clipped consistently from both sides.
    variants = T.reshape(offset_xy, (n, 1, 1, 2)) + T.reshape(spokes, (n, 1, 4, 2)) * _YAW_VARIANTS
    area = _overlap_area(T.matmul(variants, np.swapaxes(gt_axes, -1, -2)[:, None]),
                         np.broadcast_to(gt_local[:, None], (n, 2, 4, 2)))
    area = area * (area.data >= DEGENERATE_AREA)
    cz = offset[:, 2:3]
    top, bottom = cz + hh, cz - hh
    gt_hh = gt[:, 5:6] * 0.5
    inter = area * T.relu(T.minimum(top, gt_hh) - T.maximum(bottom, -gt_hh))
    vol = hw * hl * hh * 8.0
    gt_vol = gt[:, 3:4] * gt[:, 4:5] * gt[:, 5:6]
    iou = T.amax(inter / (vol + gt_vol - inter), axis=1, keepdims=True)

    # penalty: squared center distance over the enclosing box's diagonal
    hi = T.maximum(gt_rect.max(axis=1), T.amax(rect, axis=1))
    lo = T.minimum(gt_rect.min(axis=1), T.amin(rect, axis=1))
    span_z = T.maximum(gt_hh, top) - T.minimum(-gt_hh, bottom)
    c2 = T.tsum((hi - lo) ** 2, axis=1, keepdims=True) + span_z ** 2
    pen = T.tsum(offset ** 2, axis=1, keepdims=True) / c2
    return T.tmean(1.0 - iou + pen), iou.data[:, 0].tolist()


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
