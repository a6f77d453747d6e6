import math

import numpy as np
import pytest

from frustumbox.errors import ConfigError
from frustumbox.geometry import Box2D, Box3D, iou_3d
from frustumbox.kitti import (
    KittiFormatError,
    LabelRecord,
    label_from_lidar_box,
    lidar_box_from_label,
    load_frame,
    load_point_cloud,
    manifest_frames,
    parse_kitti_calib,
    parse_kitti_label,
    read_manifest,
    save_point_cloud,
    serialize_kitti_calib,
    serialize_kitti_label,
    write_frame,
    write_manifest,
)
from frustumbox.synthetic import virtual_calibration

from oracles import project_point

MINIMAL_CALIB = """P2: 1 0 0 0 0 1 0 0 0 0 1 0
R0_rect: 1 0 0 0 1 0 0 0 1
Tr_velo_to_cam: 1 0 0 0 0 1 0 0 0 0 1 0
"""

REAL_P2_LINE = (
    "P2: 7.215377000000e+02 0.000000000000e+00 6.095593000000e+02 4.485728000000e+01 "
    "0.000000000000e+00 7.215377000000e+02 1.728540000000e+02 2.163791000000e-01 "
    "0.000000000000e+00 0.000000000000e+00 1.000000000000e+00 2.745884000000e-03"
)


class TestCalibParsing:
    def test_minimal_identity_roundtrips_through_projection(self):
        calib = parse_kitti_calib(MINIMAL_CALIB)
        u, v = project_point((2.0, 3.0, 5.0), calib)
        assert (u, v) == pytest.approx((0.4, 0.6))

    def test_missing_key(self):
        text = "\n".join(l for l in MINIMAL_CALIB.splitlines() if not l.startswith("Tr"))
        with pytest.raises(KittiFormatError, match="calibration is missing") as ei:
            parse_kitti_calib(text)
        assert "Tr_velo_to_cam" in str(ei.value)

    def test_malformed_number_has_line_context(self):
        bad = MINIMAL_CALIB.replace("R0_rect: 1", "R0_rect: one")
        with pytest.raises(KittiFormatError, match="bad number") as ei:
            parse_kitti_calib(bad)
        assert "one" in str(ei.value)

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan"])
    def test_non_finite_number_is_malformed(self, token):
        bad = MINIMAL_CALIB.replace("P2: 1", f"P2: {token}")
        with pytest.raises(KittiFormatError, match=f"non-finite number {token!r}"):
            parse_kitti_calib(bad)

    def test_real_p2_line_matches_split_oracle(self):
        text = REAL_P2_LINE + "\nR0_rect: 1 0 0 0 1 0 0 0 1\nTr_velo_to_cam: 1 0 0 0 0 1 0 0 0 0 1 0\n"
        calib = parse_kitti_calib(text)
        # naive oracle: split the line and parse each token
        expected = [float(tok) for tok in REAL_P2_LINE.split()[1:]]
        np.testing.assert_array_equal(calib.P.ravel(), expected)
        assert len(expected) == 12

    def test_serialize_parse_roundtrip(self):
        calib = virtual_calibration()
        back = parse_kitti_calib(serialize_kitti_calib(calib))
        np.testing.assert_array_equal(back.P, calib.P)
        np.testing.assert_array_equal(back.R0, calib.R0)
        np.testing.assert_array_equal(back.Tr, calib.Tr)

    def test_wrong_value_count(self):
        with pytest.raises(KittiFormatError, match="P2 expects 12 values, got 3"):
            parse_kitti_calib("P2: 1 2 3\nR0_rect: 1 0 0 0 1 0 0 0 1\nTr_velo_to_cam: 1 0 0 0 0 1 0 0 0 0 1 0")

    @pytest.mark.parametrize("key, zeros", [("R0_rect", 9), ("Tr_velo_to_cam", 12)])
    def test_singular_rotation_is_format_error_naming_the_key(self, key, zeros):
        # reading a label back into the sensor frame inverts both rotations
        lines = [f"{key}: " + " ".join(["0"] * zeros) if line.startswith(key) else line
                 for line in MINIMAL_CALIB.splitlines()]
        with pytest.raises(KittiFormatError, match=f"^{key} is singular"):
            parse_kitti_calib("\n".join(lines))


class TestLabelParsing:
    LINE = "Car 0.10 1 -1.57 100.00 120.50 300.25 250.00 1.50 1.60 3.80 2.50 1.80 20.00 0.50"

    def test_parse_fields(self):
        (rec,) = parse_kitti_label(self.LINE)
        assert rec.cls == "Car"
        assert rec.truncation == pytest.approx(0.10)
        assert rec.occlusion == 1
        assert rec.box2d == Box2D(100.0, 120.5, 300.25, 250.0)
        assert (rec.height, rec.width, rec.length) == (1.5, 1.6, 3.8)
        assert rec.location == (2.5, 1.8, 20.0)
        assert rec.rotation_y == pytest.approx(0.5)
        assert rec.score is None

    def test_dontcare_flagged_not_dropped(self):
        line = "DontCare -1 -1 -10 559.62 175.83 575.40 183.15 -1 -1 -1 -1000 -1000 -1000 -10"
        (rec,) = parse_kitti_label(line)
        assert not rec.is_care
        assert not rec.has_box3d
        assert rec.camera_box is None

    def test_field_count_error(self):
        with pytest.raises(KittiFormatError, match="label line has 4 fields"):
            parse_kitti_label("Car 1 2 3")

    def test_degenerate_2d_box_is_format_error_naming_the_line(self):
        line = self.LINE.replace("300.25", "100.00")  # u_max == u_min
        with pytest.raises(KittiFormatError, match="degenerate 2D box") as ei:
            parse_kitti_label(self.LINE + "\n" + line)
        assert repr(line) in str(ei.value)

    def test_unknown_class_passes_through(self):
        (rec,) = parse_kitti_label(self.LINE.replace("Car", "Unicycle"))
        assert rec.cls == "Unicycle"

    def test_roundtrip_at_two_decimals(self):
        records = parse_kitti_label(self.LINE)
        assert serialize_kitti_label(records).strip() == self.LINE
        again = parse_kitti_label(serialize_kitti_label(records))
        assert again == records

    def test_score_field_roundtrips(self):
        line = self.LINE + " 0.87"
        (rec,) = parse_kitti_label(line)
        assert rec.score == pytest.approx(0.87)
        assert serialize_kitti_label([rec]).strip() == line

    def test_bottom_center_to_center_conversion(self):
        (rec,) = parse_kitti_label(self.LINE)
        cam = rec.camera_box
        # camera y points down: center is h/2 above the stored bottom
        assert cam.cy == pytest.approx(1.8 - 1.5 / 2)
        assert cam.cz == pytest.approx(20.0)


class TestFrameConversion:
    def test_lidar_camera_lidar_roundtrip_exact_on_virtual_rig(self):
        calib = virtual_calibration()
        rng = np.random.default_rng(0)
        for _ in range(30):
            box = Box3D(
                rng.uniform(5, 40),
                rng.uniform(-10, 10),
                rng.uniform(-1.5, 0.5),
                rng.uniform(1.5, 1.9),
                rng.uniform(3.2, 4.8),
                rng.uniform(1.3, 1.8),
                rng.uniform(-math.pi, math.pi),
            )
            rec = label_from_lidar_box("Car", box, Box2D(0, 0, 1, 1), calib)
            back = lidar_box_from_label(rec, calib)
            assert iou_3d(box, back) > 1 - 1e-9
            assert abs(back.yaw - box.yaw) < 1e-9 or abs(abs(back.yaw - box.yaw) - 2 * math.pi) < 1e-9

    def test_quantized_roundtrip_stable(self):
        calib = virtual_calibration()
        box = Box3D(12.34, -3.21, -0.87, 1.66, 4.12, 1.47, 0.73)
        rec = label_from_lidar_box("Car", box, Box2D(10, 10, 90, 60), calib)
        text = serialize_kitti_label([rec])
        (rec2,) = parse_kitti_label(text)
        # a second quantization pass is the identity
        assert serialize_kitti_label([rec2]) == text


class TestPointCloudIO:
    def test_32_bytes_two_points(self):
        pts = load_point_cloud(bytes(32))
        assert pts.shape == (2, 3)

    def test_truncated(self):
        with pytest.raises(KittiFormatError, match="point record truncated") as ei:
            load_point_cloud(bytes(33))
        assert "32" in str(ei.value)

    def test_roundtrip_bit_identical(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(100, 3)).astype(np.float32).astype(np.float64)
        inten = rng.uniform(size=100).astype(np.float32).astype(np.float64)
        blob = save_point_cloud(pts, inten)
        pts2 = load_point_cloud(blob)
        assert save_point_cloud(pts2, inten) == blob
        np.testing.assert_array_equal(pts, pts2)
        np.testing.assert_array_equal(np.frombuffer(blob, dtype="<f4").reshape(-1, 4)[:, 3], inten)


class TestLayout:
    def test_frame_write_read(self, tmp_path):
        calib = virtual_calibration()
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(50, 3)).astype(np.float32).astype(np.float64)
        inten = np.zeros(50)
        box = Box3D(10, 0, -0.8, 1.6, 4.0, 1.5, 0.2)
        rec = label_from_lidar_box("Car", box, Box2D(5, 5, 50, 40), calib)
        write_frame(tmp_path, "000042", pts, inten, calib, [rec])
        pts2, calib2, recs = load_frame(tmp_path, "000042")
        np.testing.assert_array_equal(pts, pts2)
        assert len(recs) == 1 and recs[0].cls == "Car"
        np.testing.assert_array_equal(calib2.P, calib.P)

    def test_manifest_roundtrip(self, tmp_path):
        splits = {"000000": "train", "000001": "val", "000002": "train"}
        write_manifest(tmp_path, splits)
        assert read_manifest(tmp_path) == splits
        assert manifest_frames(tmp_path) == ["000000", "000001", "000002"]
        assert manifest_frames(tmp_path, split="val") == ["000001"]

    def test_split_no_line_names(self, tmp_path):
        write_manifest(tmp_path, {"000000": "train", "000001": "val"})
        with pytest.raises(ConfigError, match="split 'vall'; splits present: train, val"):
            manifest_frames(tmp_path, split="vall")
        write_manifest(tmp_path, {})
        assert manifest_frames(tmp_path) == []
        with pytest.raises(ConfigError, match="splits present: none"):
            manifest_frames(tmp_path, split="train")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(KittiFormatError, match="no manifest.txt"):
            read_manifest(tmp_path)
