"""Synthetic LiDAR scenes: car-like cuboids on a ground plane, seen through a
fixed virtual pinhole rig, persisted in the standard dataset layout.

Object points are drawn on the cuboid faces that actually face the sensor,
thinned with distance, jittered by sensor noise, and optionally cut by an
occlusion sector or an image-side truncation. The 2D box of an object is the
pixel bounding rectangle of its projected corners, which by convexity
contains the projection of every noise-free surface point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .geometry import Box2D, Box3D, ProjectionModel, box_corners, iou_3d
from .kitti import label_from_lidar_box, write_frame, write_manifest


@dataclass
class SceneSpec:
    """Generator knobs; defaults make easy, well-populated scenes."""

    n_objects_min: int = 2
    n_objects_max: int = 6
    length_range: tuple = (3.2, 4.8)
    width_range: tuple = (1.5, 1.9)
    height_range: tuple = (1.3, 1.8)
    yaw_range: tuple = (-math.pi, math.pi)
    range_min: float = 6.0
    range_max: float = 40.0
    occlusion: float = 0.0  # fraction of each object's points deleted as a sector
    truncation: float = 0.0  # fraction deleted from one image side
    noise_sigma: float = 0.01
    clutter_density: float = 0.15  # background points per square meter
    points_base: int = 400  # surface samples for an object at 10 m
    points_min: int = 12
    points_max: int = 1200
    ground_z: float = -1.6

    def __post_init__(self):
        self.validate()

    def validate(self):
        for name in ("length_range", "width_range", "height_range", "yaw_range"):
            lo, hi = getattr(self, name)
            if not lo <= hi:
                raise ValueError(f"{name} is empty: ({lo}, {hi})")
        if not 0 < self.range_min <= self.range_max:
            raise ValueError("range band must be positive and ordered")
        for name in ("occlusion", "truncation"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be a fraction in [0, 1]")
        if self.n_objects_min < 0 or self.n_objects_max < self.n_objects_min:
            raise ValueError("object count range is empty")
        if self.noise_sigma < 0 or self.clutter_density < 0:
            raise ValueError("noise and clutter must be non-negative")

    def to_dict(self):
        d = asdict(self)
        for key in ("length_range", "width_range", "height_range", "yaw_range"):
            d[key] = list(d[key])
        return d

    @classmethod
    def from_dict(cls, d):
        kw = dict(d)
        for key in ("length_range", "width_range", "height_range", "yaw_range"):
            if key in kw:
                kw[key] = tuple(kw[key])
        return cls(**kw)


@dataclass
class SceneObject:
    box: Box3D
    box2d: Box2D
    n_points: int
    occlusion: float
    truncation: float


@dataclass
class Scene:
    points: np.ndarray
    intensity: np.ndarray
    objects: list = field(default_factory=list)


def virtual_calibration():
    """The fixed synthetic rig: standard axes swap, f=700, center (640, 200).

    Camera x is -sensor y, camera y is -sensor z, camera z is sensor x;
    identity rectification; zero translation.
    """
    P = np.array(
        [
            [700.0, 0.0, 640.0, 0.0],
            [0.0, 700.0, 200.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    Tr = np.array(
        [
            [0.0, -1.0, 0.0, 0.0],
            [0.0, 0.0, -1.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
        ]
    )
    return ProjectionModel(P=P, R0=np.eye(3), Tr=Tr)


# Cuboid faces: (axis, sign). Each face is sampled only when its outward
# normal points back toward the sensor.
_FACES = [(0, 1), (0, -1), (1, 1), (1, -1), (2, 1), (2, -1)]


def _sample_surface_points(box, n, rng):
    """Uniform points on the sensor-facing faces of a cuboid."""
    half = np.array([box.width / 2, box.length / 2, box.height / 2])
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    visible = []
    weights = []
    for axis, sign in _FACES:
        normal_world = rot @ (sign * np.eye(3)[axis])
        face_center = box.center + normal_world * half[axis]
        if normal_world @ face_center < 0:  # sensor sits at the origin
            others = [k for k in range(3) if k != axis]
            area = 4 * half[others[0]] * half[others[1]]
            visible.append((axis, sign, others))
            weights.append(area)
    if not visible:  # degenerate placement; fall back to all faces
        visible = [(a, s, [k for k in range(3) if k != a]) for a, s in _FACES]
        weights = [1.0] * len(visible)
    weights = np.array(weights) / np.sum(weights)
    choices = rng.choice(len(visible), size=n, p=weights)
    local = np.empty((n, 3))
    u = rng.uniform(-1.0, 1.0, size=(n, 2))
    for i, (axis, sign, others) in enumerate(visible):
        mask = choices == i
        local[mask, axis] = sign * half[axis]
        local[mask, others[0]] = u[mask, 0] * half[others[0]]
        local[mask, others[1]] = u[mask, 1] * half[others[1]]
    return local @ rot.T + box.center


def _occlude(points, center, fraction, rng):
    """Delete a contiguous azimuthal sector holding `fraction` of the points."""
    n = len(points)
    k = int(round(fraction * n))
    if k <= 0:
        return points
    azimuth = np.arctan2(points[:, 1] - center[1], points[:, 0] - center[0])
    order = np.argsort(azimuth, kind="stable")
    start = int(rng.integers(0, n))
    doomed = order[np.arange(start, start + k) % n]
    keep = np.ones(n, dtype=bool)
    keep[doomed] = False
    return points[keep]


def _truncate(points, calib, fraction, rng):
    """Delete the `fraction` of points on one random image side."""
    n = len(points)
    k = int(round(fraction * n))
    if k <= 0 or n == 0:
        return points
    uv, _ = calib.project(points)
    order = np.argsort(uv[:, 0], kind="stable")
    doomed = order[-k:] if rng.uniform() < 0.5 else order[:k]
    keep = np.ones(n, dtype=bool)
    keep[doomed] = False
    return points[keep]


def _project_corner_rect(box, calib):
    uv, depth = calib.project(box_corners(box))
    if (depth <= 0).any():
        return None
    return Box2D(uv[:, 0].min(), uv[:, 1].min(), uv[:, 0].max(), uv[:, 1].max())


def generate_synthetic_scene(spec, rng):
    """One scene: object boxes, their 2D boxes, and the merged point cloud."""
    calib = virtual_calibration()
    n_objects = int(rng.integers(spec.n_objects_min, spec.n_objects_max + 1))
    boxes = []
    for _ in range(n_objects):
        for _attempt in range(40):
            length = rng.uniform(*spec.length_range)
            width = rng.uniform(*spec.width_range)
            height = rng.uniform(*spec.height_range)
            x = rng.uniform(spec.range_min, spec.range_max)
            y = rng.uniform(-0.4, 0.4) * x
            yaw = rng.uniform(*spec.yaw_range)
            cand = Box3D(x, y, spec.ground_z + height / 2, width, length, height, yaw)
            if (iou_3d([cand] * len(boxes), boxes) == 0.0).all():
                boxes.append(cand)
                break

    clouds = []
    objects = []
    for box in boxes:
        dist = math.hypot(box.cx, box.cy)
        budget = int(spec.points_base * (10.0 / max(dist, 1.0)) ** 2)
        budget = int(np.clip(budget, spec.points_min, spec.points_max))
        pts = _sample_surface_points(box, budget, rng)
        if spec.noise_sigma > 0:
            pts = pts + rng.normal(0.0, spec.noise_sigma, size=pts.shape)
        pts = _occlude(pts, box.center, spec.occlusion, rng)
        pts = _truncate(pts, calib, spec.truncation, rng)
        box2d = _project_corner_rect(box, calib)
        if box2d is None or len(pts) == 0:
            continue
        clouds.append(pts)
        objects.append(
            SceneObject(
                box=box,
                box2d=box2d,
                n_points=len(pts),
                occlusion=spec.occlusion,
                truncation=spec.truncation,
            )
        )

    # ground wedge in front of the sensor plus sparse volumetric clutter
    x_lo, x_hi = 2.0, spec.range_max + 5.0
    wedge_area = 0.8 * (x_hi**2 - x_lo**2) / 2.0
    n_ground = int(spec.clutter_density * wedge_area)
    if n_ground > 0:
        gx = np.sqrt(rng.uniform(x_lo**2, x_hi**2, size=n_ground))
        gy = rng.uniform(-0.4, 0.4, size=n_ground) * gx
        gz = spec.ground_z + rng.normal(0.0, max(spec.noise_sigma, 1e-6), size=n_ground)
        clouds.append(np.column_stack([gx, gy, gz]))
    n_clutter = n_ground // 4
    if n_clutter > 0:
        cx = rng.uniform(x_lo, x_hi, size=n_clutter)
        cy = rng.uniform(-0.4, 0.4, size=n_clutter) * cx
        cz = rng.uniform(spec.ground_z, spec.ground_z + 2.5, size=n_clutter)
        clouds.append(np.column_stack([cx, cy, cz]))

    points = np.vstack(clouds) if clouds else np.zeros((0, 3))
    intensity = rng.uniform(0.0, 1.0, size=len(points))
    return Scene(points=points, intensity=intensity, objects=objects)


def _occlusion_flag(fraction):
    if fraction < 0.3:
        return 0
    if fraction < 0.6:
        return 1
    return 2


def scene_to_records(scene, calib):
    """Label records for a scene's objects, in generation order."""
    return [
        label_from_lidar_box(
            "Car",
            obj.box,
            obj.box2d,
            calib,
            truncation=obj.truncation,
            occlusion=_occlusion_flag(obj.occlusion),
        )
        for obj in scene.objects
    ]


def write_synthetic_dataset(root, spec, n_scenes, rng, val_every=4):
    """Generate and persist `n_scenes` frames; returns the manifest mapping.

    Every `val_every`-th frame is assigned to the val split (0 disables).
    """
    calib = virtual_calibration()
    splits = {}
    for i in range(n_scenes):
        frame_id = f"{i:06d}"
        scene = generate_synthetic_scene(spec, rng)
        write_frame(root, frame_id, scene.points, scene.intensity, calib,
                    scene_to_records(scene, calib))
        is_val = val_every > 0 and (i + 1) % val_every == 0
        splits[frame_id] = "val" if is_val else "train"
    write_manifest(root, splits)
    return splits
