"""Calibrated projection, frustum cuts, and rotated 3D box math.

Conventions used throughout the package:

* Points live in the sensor (LiDAR) frame: x forward, y left, z up, meters.
* A 3D box is (cx, cy, cz, width, length, height, yaw). In the box's local
  frame the width spans x, the length spans y, the height spans z, and yaw
  rotates local axes into the sensor frame about +z.
* Pixel coordinates are (u, v) with u along the image width.

Everything here works on plain floats and numpy arrays; the differentiable
box objective is the batched kernel in :mod:`frustumbox.loss`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# BEV intersection areas below this (m^2) are treated as no overlap.
DEGENERATE_AREA = 1e-12

DIRECTION_FRONT = 0
DIRECTION_BACK = 1


class GeometryError(Exception):
    """Base class for geometry failures."""


class NonPositiveDepth(GeometryError):
    """Point sits at or behind the camera plane after calibration."""


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

    @property
    def volume(self):
        return self.width * self.length * self.height

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
        """Project rectified-frame points; returns ((N, 2) pixels, (N,) divisors)."""
        pts = np.atleast_2d(np.asarray(rect_points, dtype=np.float64))
        hom = pts @ self.P[:, :3].T + self.P[:, 3]
        div = hom[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            uv = hom[:, :2] / div[:, None]
        return uv, div

    def project(self, points):
        """LiDAR points to pixels. Returns ((N, 2) uv, (N,) rectified depth)."""
        rect = self.lidar_to_rect(points)
        uv, _ = self.rect_to_image(rect)
        return uv, rect[:, 2]


def identity_calibration():
    """Unit-focal pinhole at the sensor origin; handy for tests and docs."""
    return ProjectionModel(
        P=np.hstack([np.eye(3), np.zeros((3, 1))]),
        R0=np.eye(3),
        Tr=np.hstack([np.eye(3), np.zeros((3, 1))]),
    )


def project_point(p, calib):
    """Project one LiDAR point to pixel coordinates.

    Raises NonPositiveDepth when the rectified-camera depth is <= 0
    (the point sits at or behind the camera).
    """
    uv, depth = calib.project(np.asarray(p, dtype=np.float64).reshape(1, 3))
    if depth[0] <= 0:
        raise NonPositiveDepth(f"point {tuple(np.asarray(p))} has camera depth {depth[0]:.6g}")
    return float(uv[0, 0]), float(uv[0, 1])


def extract_frustum(cloud, box, calib):
    """The sub-cloud whose projection falls inside a 2D box (inclusive edges).

    `box` is one Box2D, giving one (M, 3) array, or a sequence of boxes,
    giving a list with one array per box. Either way the cloud is projected
    once: the points with positive rectified depth keep their pixels, and
    every box selects from those. Input order is preserved; an empty result
    is valid, an empty input cloud is not.
    """
    pts = np.asarray(cloud, dtype=np.float64).reshape(-1, 3)
    if len(pts) == 0:
        raise ValueError("empty input cloud")
    boxes = [box] if isinstance(box, Box2D) else box
    uv, depth = calib.project(pts)
    front = np.flatnonzero(depth > 0)
    u, v = uv[front, 0], uv[front, 1]
    frustums = [pts[front[b.contains(u, v)]] for b in boxes]
    return frustums[0] if isinstance(box, Box2D) else frustums


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


def bev_corners(box):
    """The 4 bird's-eye-view footprint corners, counter-clockwise, as (4, 2)."""
    return box_corners(box)[:4, :2]


def points_in_box3d(points, box, strict=True):
    """Membership mask of (N, 3) points in an oriented box.

    strict=True uses strict inequalities (surface points excluded), which is
    the membership rule for foreground counting.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    d = pts - box.center
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    lx = c * d[:, 0] + s * d[:, 1]
    ly = -s * d[:, 0] + c * d[:, 1]
    lz = d[:, 2]
    hw, hl, hh = box.width / 2, box.length / 2, box.height / 2
    if strict:
        return (np.abs(lx) < hw) & (np.abs(ly) < hl) & (np.abs(lz) < hh)
    return (np.abs(lx) <= hw) & (np.abs(ly) <= hl) & (np.abs(lz) <= hh)


def iou_3d(a, b):
    """Exact IoU of two oriented boxes: BEV polygon clip times z overlap.

    Returns 0.0 for degenerate overlap (BEV intersection under 1e-12 m^2 or
    no vertical overlap). Symmetric in its arguments up to float rounding;
    identical boxes score exactly 1.
    """
    if a == b:
        return 1.0
    inter = clip_polygon(_corner_pairs(a), _corner_pairs(b))
    if len(inter) < 3:
        return 0.0
    area = polygon_area(inter)
    if area < DEGENERATE_AREA:
        return 0.0
    z_lo = max(a.cz - a.height / 2, b.cz - b.height / 2)
    z_hi = min(a.cz + a.height / 2, b.cz + b.height / 2)
    if z_hi <= z_lo:
        return 0.0
    inter_vol = area * (z_hi - z_lo)
    return inter_vol / (a.volume + b.volume - inter_vol)


def diou_penalty(a, b):
    """Normalized center-distance penalty for the distance-IoU objective.

    Squared center distance over the squared diagonal of the minimal
    axis-aligned 3D box enclosing both boxes' corners. Zero iff the centers
    coincide; always < 1 for valid boxes.
    """
    rho2 = float(np.sum((a.center - b.center) ** 2))
    if rho2 == 0.0:
        return 0.0
    corners = np.vstack([box_corners(a), box_corners(b)])
    extents = corners.max(axis=0) - corners.min(axis=0)
    return rho2 / float(np.sum(extents**2))


def direction_label(yaw):
    """Binary heading label: front for wrapped yaw in [-pi/2, pi/2), else back."""
    w = wrap_angle(yaw)
    return DIRECTION_FRONT if -math.pi / 2 <= w < math.pi / 2 else DIRECTION_BACK


def _corner_pairs(box):
    return [(x, y) for x, y in bev_corners(box)]


# ---------------------------------------------------------------------------
# Convex polygon helpers on float vertices.
# ---------------------------------------------------------------------------


def clip_polygon(subject, clip):
    """Sutherland-Hodgman clip of `subject` against convex CCW `clip`.

    Both polygons are sequences of (x, y) vertices; the subject must be
    convex and counter-clockwise as well for the result to be its exact
    intersection with `clip`. Returns the (possibly empty) vertex list.
    Inclusive rule: vertices on a clip edge are kept.
    """
    output = list(subject)
    n = len(clip)
    for i in range(n):
        if not output:
            return []
        ax, ay = clip[i]
        bx, by = clip[(i + 1) % n]
        ex, ey = bx - ax, by - ay

        def side(p):
            return ex * (p[1] - ay) - ey * (p[0] - ax)

        verts = output
        output = []
        prev = verts[-1]
        prev_in = side(prev) >= 0.0
        for cur in verts:
            cur_in = side(cur) >= 0.0
            if cur_in != prev_in:
                output.append(_line_intersection(prev, cur, (ax, ay), (bx, by)))
            if cur_in:
                output.append(cur)
            prev, prev_in = cur, cur_in
    return output


def _line_intersection(p, q, a, b):
    """Intersection of segment pq with the infinite line through a, b.

    Caller guarantees p and q sit on opposite sides, so the division is
    well conditioned.
    """
    px, py = p
    qx, qy = q
    ax, ay = a
    bx, by = b
    dx = bx - ax
    dy = by - ay
    num = dx * (ay - py) - dy * (ax - px)
    den = dx * (qy - py) - dy * (qx - px)
    t = num / den
    return (px + t * (qx - px), py + t * (qy - py))


def polygon_area(vertices):
    """Shoelace area of a CCW polygon (positive for CCW input)."""
    n = len(vertices)
    acc = None
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        term = x0 * y1 - x1 * y0
        acc = term if acc is None else acc + term
    return acc * 0.5
