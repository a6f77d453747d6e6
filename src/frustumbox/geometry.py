"""Calibrated projection, frustum cuts, and rotated 3D box math.

Conventions used throughout the package:

* Points live in the sensor (LiDAR) frame: x forward, y left, z up, meters.
* A 3D box is (cx, cy, cz, width, length, height, yaw). In the box's local
  frame the width spans x, the length spans y, the height spans z, and yaw
  rotates local axes into the sensor frame about +z.
* Pixel coordinates are (u, v) with u along the image width.

Rotated-box overlap has one implementation, :func:`box_iou`: a batched
kernel of fixed shapes written in the autodiff engine's ops. The training
loss (:mod:`frustumbox.loss`) runs it with the graph on and takes its
distance penalty's enclosing box and centre offset from the footprint
corners, offset and vertical extent the kernel returns; :func:`iou_3d`,
which eval and the synthetic generator's overlap rejection call, runs it on
arrays under ``tensor.no_grad()``. Everything else here works on plain floats and numpy
arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import DataError

TWO_PI = 2.0 * math.pi

# BEV intersection areas below this (m^2) are treated as no overlap.
DEGENERATE_AREA = 1e-12

DIRECTION_FRONT = 0
DIRECTION_BACK = 1


def wrap_angle(angle):
    """Wrap an angle to [-pi, pi)."""
    return (angle + math.pi) % TWO_PI - math.pi


@dataclass(frozen=True)
class Box2D:
    """Axis-aligned pixel rectangle (u_min, v_min) to (u_max, v_max)."""

    u_min: float
    v_min: float
    u_max: float
    v_max: float

    def __post_init__(self):
        if not (self.u_min < self.u_max and self.v_min < self.v_max):
            raise ValueError(f"degenerate 2D box: {self}")

    def contains(self, u, v):
        """Inclusive membership test; accepts scalars or arrays."""
        return (
            (u >= self.u_min)
            & (u <= self.u_max)
            & (v >= self.v_min)
            & (v <= self.v_max)
        )

    def as_tuple(self):
        return (self.u_min, self.v_min, self.u_max, self.v_max)


@dataclass(frozen=True)
class Box3D:
    """Oriented 3D box: center, extents, and yaw about the vertical axis.

    Yaw is stored wrapped to [-pi, pi). Extents must be strictly positive.
    """

    cx: float
    cy: float
    cz: float
    width: float
    length: float
    height: float
    yaw: float

    def __post_init__(self):
        vals = (self.cx, self.cy, self.cz, self.width, self.length, self.height, self.yaw)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"non-finite box field: {vals}")
        if min(self.width, self.length, self.height) <= 0:
            raise ValueError(f"non-positive box extent: {vals}")
        object.__setattr__(self, "yaw", wrap_angle(self.yaw))

    @property
    def center(self):
        return np.array([self.cx, self.cy, self.cz])

    def as_tuple(self):
        return (self.cx, self.cy, self.cz, self.width, self.length, self.height, self.yaw)

    def translated(self, offset):
        ox, oy, oz = (float(v) for v in offset)
        return Box3D(self.cx + ox, self.cy + oy, self.cz + oz,
                     self.width, self.length, self.height, self.yaw)


@dataclass(frozen=True)
class ProjectionModel:
    """Sensor-to-image calibration: P (3x4), R0 (3x3), Tr (3x4).

    A LiDAR point p maps to the rectified camera frame as R0 @ (Tr @ [p; 1])
    and onto the image plane by the perspective division of P @ [rect; 1].
    """

    P: np.ndarray
    R0: np.ndarray
    Tr: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "P", np.asarray(self.P, dtype=np.float64).reshape(3, 4))
        object.__setattr__(self, "R0", np.asarray(self.R0, dtype=np.float64).reshape(3, 3))
        object.__setattr__(self, "Tr", np.asarray(self.Tr, dtype=np.float64).reshape(3, 4))

    def lidar_to_rect(self, points):
        """Map (N, 3) LiDAR points into the rectified camera frame."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        cam = pts @ self.Tr[:, :3].T + self.Tr[:, 3]
        return cam @ self.R0.T

    def rect_to_lidar(self, points):
        """Exact inverse of :meth:`lidar_to_rect`."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        cam = pts @ np.linalg.inv(self.R0).T
        rot_inv = np.linalg.inv(self.Tr[:, :3])
        return (cam - self.Tr[:, 3]) @ rot_inv.T

    def rect_rotation_from_lidar(self):
        """Rotation part of the LiDAR-to-rectified-camera map (3x3)."""
        return self.R0 @ self.Tr[:, :3]

    def rect_to_image(self, rect_points):
        """Project rectified-frame points to (N, 2) pixels."""
        pts = np.atleast_2d(np.asarray(rect_points, dtype=np.float64))
        hom = pts @ self.P[:, :3].T + self.P[:, 3]
        with np.errstate(divide="ignore", invalid="ignore"):
            return hom[:, :2] / hom[:, 2:3]

    def project(self, points):
        """LiDAR points to pixels. Returns ((N, 2) uv, (N,) rectified depth)."""
        rect = self.lidar_to_rect(points)
        return self.rect_to_image(rect), rect[:, 2]


def extract_frustum(cloud, boxes, calib):
    """The frustum of each 2D box: the rows of `cloud` whose projection falls
    inside the box (inclusive edges), as an ascending index array.

    The cloud is projected once: the points with positive rectified depth
    keep their pixels, and every box selects from those. No point is copied;
    ``cloud[rows]`` is the frustum in input order. An empty result is valid,
    an empty input cloud is not.
    """
    pts = np.asarray(cloud, dtype=np.float64).reshape(-1, 3)
    if len(pts) == 0:
        raise DataError("empty input cloud")
    uv, depth = calib.project(pts)
    front = np.flatnonzero(depth > 0)
    u, v = uv[front, 0], uv[front, 1]
    return [front[b.contains(u, v)] for b in boxes]


# Local-frame corner template: bottom face counter-clockwise starting at
# (+w/2, +l/2), then the top face in the same order.
_CORNER_SIGNS = np.array(
    [
        [+1, +1, -1],
        [-1, +1, -1],
        [-1, -1, -1],
        [+1, -1, -1],
        [+1, +1, +1],
        [-1, +1, +1],
        [-1, -1, +1],
        [+1, -1, +1],
    ],
    dtype=np.float64,
)


def box_corners(box):
    """The 8 corners of a Box3D as an (8, 3) array in the documented order."""
    half = 0.5 * np.array([box.width, box.length, box.height])
    local = _CORNER_SIGNS * half
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return local @ rot.T + box.center


def points_in_box3d(points, box):
    """Membership mask of (N, 3) points strictly inside an oriented box
    (surface points excluded), the membership rule for foreground counting.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    d = pts - box.center
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    lx = c * d[:, 0] + s * d[:, 1]
    ly = -s * d[:, 0] + c * d[:, 1]
    lz = d[:, 2]
    hw, hl, hh = box.width / 2, box.length / 2, box.height / 2
    return (np.abs(lx) < hw) & (np.abs(ly) < hl) & (np.abs(lz) < hh)


# Footprint corners in a box's own frame, counter-clockwise from
# (+w/2, +l/2): the order of box_corners' bottom face.
_FOOTPRINT = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
# (x, y) @ _LEFT = (-y, x), the left normal, so that (v @ _LEFT) . w = cross(v, w).
_LEFT = np.array([[0.0, 1.0], [-1.0, 0.0]])
# _EDGE @ corners: row i is corner i+1 minus corner i (exact: one rounding).
_EDGE = np.roll(np.eye(4), 1, axis=1) - np.eye(4)


def _axes(cos, sin):
    """Rows: a box's width and length axes, from its yaw's (..., 1, 1) cosine
    and sine (Tensors or arrays)."""
    return cos * np.eye(2) + sin * _LEFT


def footprint(boxes):
    """(B, 4, 2) footprint corners of (B, 7) box rows, relative to each
    centre, in the order of :func:`box_corners`' bottom face. Rows are
    (cx, cy, cz, width, length, height, yaw), a Tensor or an array; the
    result is a Tensor, in the graph when `boxes` is."""
    boxes = T.as_tensor(boxes)
    n = boxes.shape[0]
    yaw = T.reshape(boxes[:, 6], (n, 1, 1))
    half = T.reshape(boxes[:, 3:5] * 0.5, (n, 1, 2))
    return T.matmul(half * _FOOTPRINT, _axes(T.cos(yaw), T.sin(yaw)))


def _overlap_area(pred, gt):
    """BEV intersection area of each pair of convex CCW quadrilaterals.

    pred: (B, 4, 2) Tensor, gt: (B, 4, 2) array, both in the ground truth's
    own frame, where its edges are axis-aligned. By Green's theorem the area
    is half the sum, over the edges p + t d (t in [0, 1]) of both polygons,
    of the length of t inside the other polygon times cross(p, d). An edge
    is clipped against the other polygon's four half-planes as a t-interval
    (Zhou et al., arXiv:1908.03851); whether each half-plane bounds it from
    below (the edge enters), from above (it leaves) or not at all (parallel)
    is decided on float values, so the clip structure is fixed within a
    backward pass. Coincident edges running the same way count once;
    running opposite ways, their terms cancel.
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
    return T.tsum(length * minus_cross, axis=(0, -1)) * -0.5


def box_iou(pred, gt):
    """IoU of each pair of rows of two (B, 7) box arrays, differentiable in
    the first.

    Rows are (cx, cy, cz, width, length, height, yaw); `pred` is a Tensor or
    an array, `gt` an array. Returns (iou, corners, offset, z_ends): the
    (B,) IoU, the (B, 4, 2) footprint corners of each prediction relative to
    its ground truth's centre, in sensor-frame axes, the (B, 3) offset of
    each prediction's centre from its ground truth's, and the (bottom, top)
    (B,) ends of each prediction's vertical extent relative to the same
    centre; all are Tensors, in the graph when `pred` is. Each prediction's
    footprint is moved into its ground truth's own frame, where the ground
    truth's edges are axis-aligned: every side test and crossing against
    them takes one product, and a prediction whose edges coincide with the
    target's up to rounding is clipped consistently from both sides. Touching boxes and BEV overlaps
    under DEGENERATE_AREA score 0, never -0. The footprint at yaw + pi is
    the same point set, so the IoU is blind to the heading.
    """
    pred = T.as_tensor(pred)
    gt = np.asarray(gt, dtype=np.float64)
    n = gt.shape[0]
    offset = pred[:, 0:3] - gt[:, 0:3]
    gt_yaw = gt[:, 6].reshape(n, 1, 1)
    to_gt = np.swapaxes(_axes(np.cos(gt_yaw), np.sin(gt_yaw)), -1, -2)
    corners = T.reshape(offset[:, 0:2], (n, 1, 2)) + footprint(pred)
    area = _overlap_area(T.matmul(corners, to_gt), gt[:, None, 3:5] * 0.5 * _FOOTPRINT)
    area = area * (area.data >= DEGENERATE_AREA)
    cz, half_h, gt_half_h = offset[:, 2], pred[:, 5] * 0.5, gt[:, 5] * 0.5
    bottom, top = cz - half_h, cz + half_h
    inter = area * T.relu(T.minimum(top, gt_half_h) - T.maximum(bottom, -gt_half_h))
    volume = pred[:, 3] * pred[:, 4] * pred[:, 5]
    # + 0.0 turns the -0.0 of a negative sliver cut to zero into 0.0
    iou = inter / (volume + gt[:, 3] * gt[:, 4] * gt[:, 5] - inter) + 0.0
    return iou, corners, offset, (bottom, top)


def box_rows(boxes):
    """(N, 7) array of a sequence of Box3D, in field order."""
    return np.array([b.as_tuple() for b in boxes], dtype=np.float64).reshape(-1, 7)


def iou_3d(a, b):
    """Exact IoU of oriented boxes: BEV overlap in b's frame times z overlap.

    One Box3D each gives a float. Two equal-length sequences of Box3D give
    an (N,) array whose row i is the IoU of a[i] and b[i]. Either form is
    at most one :func:`box_iou` call with no graph, over the pairs whose
    footprints' circumscribed circles meet; the others cannot overlap and
    score 0 without it. Identical boxes score exactly 1; touching boxes and
    degenerate overlap score 0. Symmetric in its arguments up to float
    rounding.
    """
    single = isinstance(a, Box3D)
    a, b = ([a], [b]) if single else (list(a), list(b))
    if len(a) != len(b):
        raise ValueError(f"iou_3d over {len(a)} boxes against {len(b)}")
    rows_a, rows_b = box_rows(a), box_rows(b)
    reach = np.hypot(rows_a[:, 3], rows_a[:, 4]) + np.hypot(rows_b[:, 3], rows_b[:, 4])
    near = 2.0 * np.hypot(rows_a[:, 0] - rows_b[:, 0], rows_a[:, 1] - rows_b[:, 1]) < reach
    iou = np.zeros(len(a))
    if near.any():
        with T.no_grad():
            iou[near] = box_iou(rows_a[near], rows_b[near])[0].data
    iou[np.array([x == y for x, y in zip(a, b)], dtype=bool)] = 1.0
    return float(iou[0]) if single else iou


def direction_label(yaw):
    """Binary heading label: front for wrapped yaw in [-pi/2, pi/2), else back."""
    w = wrap_angle(yaw)
    return DIRECTION_FRONT if -math.pi / 2 <= w < math.pi / 2 else DIRECTION_BACK
