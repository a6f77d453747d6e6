"""KITTI-format ingestion and serialization.

Directory layout::

    <root>/velodyne/<frame>.bin   4 x float32 little-endian per point
    <root>/label_2/<frame>.txt    15-field label lines (16 with a score)
    <root>/calib/<frame>.txt      "KEY: value..." matrix lines
    <root>/manifest.txt           "<frame> <split>" per line

Labels are kept in their native camera-frame form in :class:`LabelRecord`;
conversion to and from sensor-frame boxes goes through the calibration so
synthetic and real rigs follow one code path. Label floats serialize at two
decimals, the de-facto benchmark convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, KittiFormatError
from .geometry import Box2D, Box3D, ProjectionModel, wrap_angle


# ---------------------------------------------------------------------------
# Calibration files
# ---------------------------------------------------------------------------

_CALIB_KEYS = {"P2": 12, "R0_rect": 9, "Tr_velo_to_cam": 12}


def _parse_floats(tokens, line):
    """The tokens as finite floats; anything else is a KittiFormatError."""
    out = []
    for tok in tokens:
        try:
            value = float(tok)
        except ValueError as err:
            raise KittiFormatError(f"bad number {tok!r} in line: {line.strip()!r}") from err
        if not math.isfinite(value):
            raise KittiFormatError(f"non-finite number {tok!r} in line: {line.strip()!r}")
        out.append(value)
    return out


def parse_kitti_calib(text):
    """Parse P2 / R0_rect / Tr_velo_to_cam lines into a ProjectionModel."""
    found = {}
    for line in text.splitlines():
        if ":" not in line:
            continue
        key, _, rest = line.partition(":")
        key = key.strip()
        if key not in _CALIB_KEYS or key in found:
            continue
        values = _parse_floats(rest.split(), line)
        if len(values) != _CALIB_KEYS[key]:
            raise KittiFormatError(
                f"{key} expects {_CALIB_KEYS[key]} values, got {len(values)}"
            )
        found[key] = np.array(values)
    for key in _CALIB_KEYS:
        if key not in found:
            raise KittiFormatError(f"calibration is missing {key}")
    calib = ProjectionModel(
        P=found["P2"].reshape(3, 4),
        R0=found["R0_rect"].reshape(3, 3),
        Tr=found["Tr_velo_to_cam"].reshape(3, 4),
    )
    # reading a label's box back into the sensor frame inverts both rotations
    for key, rotation in (("R0_rect", calib.R0), ("Tr_velo_to_cam", calib.Tr[:, :3])):
        if np.linalg.matrix_rank(rotation) < 3:
            raise KittiFormatError(f"{key} is singular: {rotation.ravel().tolist()}")
    return calib


def serialize_kitti_calib(calib):
    def row(name, arr):
        return name + ": " + " ".join(repr(float(v)) for v in np.asarray(arr).ravel())

    return "\n".join(
        [row("P2", calib.P), row("R0_rect", calib.R0), row("Tr_velo_to_cam", calib.Tr)]
    ) + "\n"


# ---------------------------------------------------------------------------
# Label files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LabelRecord:
    """One label line in its native camera-frame representation."""

    cls: str
    truncation: float
    occlusion: int
    alpha: float
    box2d: Box2D
    height: float
    width: float
    length: float
    location: tuple  # (x, y, z) bottom-center, rectified camera frame
    rotation_y: float
    score: float | None = None

    @property
    def is_care(self):
        return self.cls != "DontCare"

    @property
    def has_box3d(self):
        return min(self.height, self.width, self.length) > 0

    @property
    def camera_box(self):
        """Center-based camera-frame box, or None for DontCare-style rows.

        The camera vertical axis points down, so the center sits h/2 above
        (minus y) the stored bottom-center location.
        """
        if not self.has_box3d:
            return None
        x, y, z = self.location
        return Box3D(x, y - self.height / 2, z,
                     self.width, self.length, self.height, self.rotation_y)


def parse_kitti_label(text):
    """Parse label lines; DontCare rows are kept and flagged, never dropped."""
    records = []
    for line in text.splitlines():
        if not line.strip():
            continue
        tokens = line.split()
        if len(tokens) not in (15, 16):
            raise KittiFormatError(f"label line has {len(tokens)} fields: {line.strip()!r}")
        vals = _parse_floats(tokens[1:], line)
        try:
            box2d = Box2D(vals[3], vals[4], vals[5], vals[6])
        except ValueError as err:
            raise KittiFormatError(f"{err} in line: {line.strip()!r}") from err
        records.append(
            LabelRecord(
                cls=tokens[0],
                truncation=vals[0],
                occlusion=int(vals[1]),
                alpha=vals[2],
                box2d=box2d,
                height=vals[7],
                width=vals[8],
                length=vals[9],
                location=(vals[10], vals[11], vals[12]),
                rotation_y=vals[13],
                score=vals[14] if len(tokens) == 16 else None,
            )
        )
    return records


def serialize_kitti_label(records):
    """Label lines at two-decimal float precision, one record per line."""
    lines = []
    for r in records:
        fields = [
            r.cls,
            f"{r.truncation:.2f}",
            str(int(r.occlusion)),
            f"{r.alpha:.2f}",
            f"{r.box2d.u_min:.2f}",
            f"{r.box2d.v_min:.2f}",
            f"{r.box2d.u_max:.2f}",
            f"{r.box2d.v_max:.2f}",
            f"{r.height:.2f}",
            f"{r.width:.2f}",
            f"{r.length:.2f}",
            f"{r.location[0]:.2f}",
            f"{r.location[1]:.2f}",
            f"{r.location[2]:.2f}",
            f"{r.rotation_y:.2f}",
        ]
        if r.score is not None:
            fields.append(f"{r.score:.2f}")
        lines.append(" ".join(fields))
    return "\n".join(lines) + ("\n" if lines else "")


def lidar_box_from_label(record, calib):
    """Sensor-frame box of a label record, or None without 3D extents."""
    cam = record.camera_box
    if cam is None:
        return None
    center = calib.rect_to_lidar(np.array([[cam.cx, cam.cy, cam.cz]]))[0]
    # heading direction (the length axis) in the rectified camera frame
    u_cam = np.array([math.cos(record.rotation_y), 0.0, -math.sin(record.rotation_y)])
    u_lidar = np.linalg.inv(calib.rect_rotation_from_lidar()) @ u_cam
    yaw = wrap_angle(math.atan2(u_lidar[1], u_lidar[0]) - math.pi / 2)
    return Box3D(center[0], center[1], center[2],
                 record.width, record.length, record.height, yaw)


def scored_box_from_label(record, calib):
    """A label row as eval reads it: (sensor-frame box, score), with score
    1.0 for a row that carries none."""
    return lidar_box_from_label(record, calib), 1.0 if record.score is None else record.score


def label_from_lidar_box(cls, box, box2d, calib, truncation=0.0, occlusion=0,
                         score=None):
    """Build a camera-frame label record from a sensor-frame box."""
    center_cam = calib.lidar_to_rect(np.array([[box.cx, box.cy, box.cz]]))[0]
    bottom = (center_cam[0], center_cam[1] + box.height / 2, center_cam[2])
    u_lidar = np.array([-math.sin(box.yaw), math.cos(box.yaw), 0.0])
    u_cam = calib.rect_rotation_from_lidar() @ u_lidar
    ry = math.atan2(-u_cam[2], u_cam[0])
    alpha = wrap_angle(ry - math.atan2(bottom[0], bottom[2]))
    return LabelRecord(
        cls=cls,
        truncation=truncation,
        occlusion=occlusion,
        alpha=alpha,
        box2d=box2d,
        height=box.height,
        width=box.width,
        length=box.length,
        location=bottom,
        rotation_y=wrap_angle(ry),
        score=score,
    )


# ---------------------------------------------------------------------------
# Point cloud binaries
# ---------------------------------------------------------------------------


def load_point_cloud(data):
    """Decode the packed float32 records into (N, 3) points (intensity unread).

    Raises KittiFormatError with the offset of the first incomplete record.
    """
    if len(data) % 16 != 0:
        raise KittiFormatError(
            f"point record truncated at byte offset {len(data) - len(data) % 16}"
        )
    raw = np.frombuffer(data, dtype="<f4").reshape(-1, 4)
    return raw[:, :3].astype(np.float64)


def save_point_cloud(points, intensity):
    """Pack (x, y, z, intensity) float32 records; float32 points read back exactly."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    rec = np.column_stack([pts, np.asarray(intensity, dtype=np.float64)])
    return rec.astype("<f4").tobytes()


# ---------------------------------------------------------------------------
# Directory layout and manifest
# ---------------------------------------------------------------------------


def frame_paths(root, frame_id):
    root = Path(root)
    return {
        "velodyne": root / "velodyne" / f"{frame_id}.bin",
        "label": root / "label_2" / f"{frame_id}.txt",
        "calib": root / "calib" / f"{frame_id}.txt",
    }


def write_frame(root, frame_id, points, intensity, calib, records):
    paths = frame_paths(root, frame_id)
    for p in paths.values():
        p.parent.mkdir(parents=True, exist_ok=True)
    paths["velodyne"].write_bytes(save_point_cloud(points, intensity))
    paths["calib"].write_text(serialize_kitti_calib(calib))
    paths["label"].write_text(serialize_kitti_label(records))


def load_frame(root, frame_id):
    """Returns (points, calib, label records) for one frame."""
    paths = frame_paths(root, frame_id)
    points = load_point_cloud(paths["velodyne"].read_bytes())
    calib = parse_kitti_calib(paths["calib"].read_text())
    records = parse_kitti_label(paths["label"].read_text())
    return points, calib, records


def write_manifest(root, splits):
    """splits: mapping frame_id -> split name; written in sorted frame order."""
    lines = [f"{frame} {split}" for frame, split in sorted(splits.items())]
    (Path(root) / "manifest.txt").write_text("\n".join(lines) + ("\n" if lines else ""))


def read_manifest(root):
    path = Path(root) / "manifest.txt"
    if not path.exists():
        raise KittiFormatError(f"no manifest.txt under {root}")
    splits = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        frame, _, split = line.partition(" ")
        splits[frame] = split.strip() or "train"
    return splits


def manifest_frames(root, split=None):
    """Sorted frame ids of the manifest, or of one split of it. A split that
    no manifest line names is a ConfigError listing the splits there are."""
    splits = read_manifest(root)
    if split is not None and split not in splits.values():
        present = ", ".join(sorted(set(splits.values()))) or "none"
        raise ConfigError(f"no manifest frame is in split {split!r}; splits present: {present}")
    return sorted(f for f, s in splits.items() if split is None or s == split)
