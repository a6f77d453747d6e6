import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frustumbox import geometry as geo
from frustumbox import tensor as T
from frustumbox.errors import DataError
from frustumbox.geometry import (
    Box2D,
    Box3D,
    ProjectionModel,
    box_corners,
    box_iou,
    box_rows,
    direction_label,
    extract_frustum,
    iou_3d,
    wrap_angle,
)
from frustumbox.loss import diou_loss

from oracles import (
    NonPositiveDepth,
    diou_penalty,
    identity_calibration,
    mc_iou3d,
    project_by_hand,
    project_point,
    random_box,
    random_overlapping_pair,
)

# A real KITTI calibration triple (training frame style).
KITTI_P2 = np.array(
    [
        [7.215377e02, 0.0, 6.095593e02, 4.485728e01],
        [0.0, 7.215377e02, 1.728540e02, 2.163791e-01],
        [0.0, 0.0, 1.0, 2.745884e-03],
    ]
)
KITTI_R0 = np.array(
    [
        [9.999239e-01, 9.837760e-03, -7.445048e-03],
        [-9.869795e-03, 9.999421e-01, -4.278459e-03],
        [7.402527e-03, 4.351614e-03, 9.999631e-01],
    ]
)
KITTI_TR = np.array(
    [
        [7.533745e-03, -9.999714e-01, -6.166020e-04, -4.069766e-03],
        [1.480249e-02, 7.280733e-04, -9.998902e-01, -7.631618e-02],
        [9.998621e-01, 7.523790e-03, 1.480755e-02, -2.717806e-01],
    ]
)


class TestProjectPoint:
    def test_identity_calibration_perspective_divide(self):
        u, v = project_point((2.0, 3.0, 5.0), identity_calibration())
        assert u == pytest.approx(0.4)
        assert v == pytest.approx(0.6)

    def test_behind_camera_raises(self):
        with pytest.raises(NonPositiveDepth):
            project_point((0.0, 0.0, -1.0), identity_calibration())

    def test_zero_depth_raises(self):
        with pytest.raises(NonPositiveDepth):
            project_point((1.0, 1.0, 0.0), identity_calibration())

    def test_kitti_calibration_matches_hand_oracle(self):
        calib = ProjectionModel(P=KITTI_P2, R0=KITTI_R0, Tr=KITTI_TR)
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = np.array([rng.uniform(5, 60), rng.uniform(-10, 10), rng.uniform(-2, 2)])
            u, v = project_point(p, calib)
            uo, vo, depth = project_by_hand(p, KITTI_P2, KITTI_R0, KITTI_TR)
            assert depth > 0
            assert abs(u - uo) < 1e-6
            assert abs(v - vo) < 1e-6


def frustum_rows(cloud, box, calib):
    """One box's frustum rows, checked to be ascending integer indices."""
    (rows,) = extract_frustum(cloud, [box], calib)
    assert rows.ndim == 1 and np.issubdtype(rows.dtype, np.integer)
    assert (np.diff(rows) > 0).all()
    return rows


class TestExtractFrustum:
    def test_all_inside(self):
        calib = identity_calibration()
        cloud = np.array([[0.1, 0.1, 1.0], [-0.2, 0.0, 2.0], [0.0, 0.3, 1.5]])
        box = Box2D(-1.0, -1.0, 1.0, 1.0)
        np.testing.assert_array_equal(frustum_rows(cloud, box, calib), [0, 1, 2])

    def test_none_inside(self):
        calib = identity_calibration()
        cloud = np.array([[5.0, 5.0, 1.0], [0.0, 0.0, -1.0]])
        box = Box2D(-1.0, -1.0, 1.0, 1.0)
        assert len(frustum_rows(cloud, box, calib)) == 0

    def test_membership_matches_per_point_oracle(self):
        calib = ProjectionModel(P=KITTI_P2, R0=KITTI_R0, Tr=KITTI_TR)
        rng = np.random.default_rng(11)
        cloud = np.column_stack(
            [rng.uniform(3, 50, 100), rng.uniform(-20, 20, 100), rng.uniform(-3, 3, 100)]
        )
        box = Box2D(300.0, 100.0, 900.0, 350.0)
        rows = frustum_rows(cloud, box, calib)
        expected = []
        for i, p in enumerate(cloud):
            u, v, depth = project_by_hand(p, KITTI_P2, KITTI_R0, KITTI_TR)
            if depth > 0 and 300.0 <= u <= 900.0 and 100.0 <= v <= 350.0:
                expected.append(i)
        assert len(rows) > 0
        np.testing.assert_array_equal(rows, expected)

    def test_order_preserved_and_subset(self):
        calib = identity_calibration()
        rng = np.random.default_rng(3)
        cloud = rng.normal(size=(50, 3)) + np.array([0, 0, 3.0])
        rows = frustum_rows(cloud, Box2D(-0.2, -0.2, 0.2, 0.2), calib)  # ascending
        assert 0 < len(rows) < len(cloud) and rows[0] >= 0 and rows[-1] < len(cloud)

    def test_one_entry_per_box_in_box_order(self):
        calib = identity_calibration()
        rng = np.random.default_rng(3)
        cloud = rng.normal(size=(50, 3)) + np.array([0, 0, 3.0])
        boxes = [Box2D(-0.2, -0.2, 0.2, 0.2), Box2D(-5.0, -5.0, 5.0, 5.0), Box2D(-0.2, -0.2, 0.2, 0.2)]
        got = extract_frustum(cloud, boxes, calib)
        assert len(got) == 3
        for box, rows in zip(boxes, got):
            np.testing.assert_array_equal(rows, frustum_rows(cloud, box, calib))
        np.testing.assert_array_equal(got[0], got[2])
        assert set(got[0].tolist()) < set(got[1].tolist())

    def test_empty_cloud_is_an_error(self):
        with pytest.raises(DataError, match="empty input cloud"):
            extract_frustum(np.zeros((0, 3)), [Box2D(-1.0, -1.0, 1.0, 1.0)],
                            identity_calibration())


class TestBoxCorners:
    def test_unit_cube_at_origin(self):
        corners = box_corners(Box3D(0, 0, 0, 1, 1, 1, 0.0))
        expected = 0.5 * np.array(
            [
                [1, 1, -1],
                [-1, 1, -1],
                [-1, -1, -1],
                [1, -1, -1],
                [1, 1, 1],
                [-1, 1, 1],
                [-1, -1, 1],
                [1, -1, 1],
            ]
        )
        np.testing.assert_allclose(corners, expected)

    def test_quarter_turn_swaps_footprint_axes(self):
        # w=1 along x, l=2 along y; after yaw=pi/2, footprint spans 2 in x... no:
        # rotation by +pi/2 maps local +x to +y, so the width lands on y.
        corners = box_corners(Box3D(0, 0, 0, 1.0, 2.0, 1.0, math.pi / 2))
        c, s = math.cos(math.pi / 2), math.sin(math.pi / 2)
        for signs, got in zip(geo._CORNER_SIGNS, corners):
            lx, ly, lz = signs * np.array([0.5, 1.0, 0.5])
            expected = np.array([c * lx - s * ly, s * lx + c * ly, lz])
            np.testing.assert_allclose(got, expected, atol=1e-12)
        assert corners[:, 0].max() - corners[:, 0].min() == pytest.approx(2.0)
        assert corners[:, 1].max() - corners[:, 1].min() == pytest.approx(1.0)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            b = random_box(rng)
            t = rng.normal(size=3)
            moved = b.translated(t)
            np.testing.assert_allclose(box_corners(moved), box_corners(b) + t, atol=1e-9)

    def test_centroid_is_center(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            b = random_box(rng)
            np.testing.assert_allclose(box_corners(b).mean(axis=0), b.center, atol=1e-9)


class TestIou3d:
    def test_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            b = random_box(rng)
            assert iou_3d(b, b) == 1.0

    def test_disjoint(self):
        a = Box3D(0, 0, 0, 1, 1, 1, 0.3)
        b = Box3D(100, 0, 0, 1, 1, 1, -0.7)
        assert iou_3d(a, b) == 0.0

    def test_crossed_boxes_match_closed_form(self):
        # (w=2, l=4) crossed with its quarter-turn about a shared center:
        # BEV intersection is the 2x2 square, volumes 8 each.
        a = Box3D(0, 0, 0, 2, 4, 1, 0.0)
        b = Box3D(0, 0, 0, 2, 4, 1, math.pi / 2)
        expected = 4.0 / (8.0 + 8.0 - 4.0)
        assert iou_3d(a, b) == pytest.approx(expected, abs=1e-12)

    def test_crossed_boxes_match_monte_carlo(self):
        a = Box3D(0, 0, 0, 2, 4, 1, 0.0)
        b = Box3D(0, 0, 0, 2, 4, 1, math.pi / 2)
        est = mc_iou3d(a, b, 10**6, np.random.default_rng(0))
        assert abs(iou_3d(a, b) - est) < 0.005

    def test_random_pairs_match_monte_carlo(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            a, b = random_overlapping_pair(rng)
            est = mc_iou3d(a, b, 200_000, rng)
            assert abs(iou_3d(a, b) - est) < 0.02

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            a, b = random_overlapping_pair(rng)
            assert abs(iou_3d(a, b) - iou_3d(b, a)) < 1e-6

    def test_rigid_invariance(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            a, b = random_overlapping_pair(rng)
            t = rng.normal(size=3) * 5
            phi = rng.uniform(-math.pi, math.pi)
            c, s = math.cos(phi), math.sin(phi)

            def move(box):
                x = c * box.cx - s * box.cy + t[0]
                y = s * box.cx + c * box.cy + t[1]
                return Box3D(x, y, box.cz + t[2], box.width, box.length, box.height,
                             box.yaw + phi)

            assert abs(iou_3d(a, b) - iou_3d(move(a), move(b))) < 1e-6

    def test_sliver_overlap_returns_zero(self):
        a = Box3D(0, 0, 0, 1, 1, 1, 0.0)
        b = Box3D(1.0 - 1e-15, 0, 0, 1, 1, 1, 0.0)
        assert iou_3d(a, b) == 0.0


def _moved_along(box, forward, left):
    """`box` moved by (forward, left) along its own width and length axes."""
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    return Box3D(box.cx + c * forward - s * left, box.cy + s * forward + c * left, box.cz,
                 box.width, box.length, box.height, box.yaw)


# a rotated box and its copy moved by its own width: a Sutherland-Hodgman
# clip returned NaN for this pair in one of the two orders
TOUCHING = Box3D(0.8768790913069613, -1.936033081905712, 1.0318040094257124,
                 1.7818968081551951, 4.680968993586528, 0.6321649934481495, 2.1445597163470325)
TOUCHING_COPY = Box3D(-0.09032847541848876, -0.43948179384950037, 1.0318040094257124,
                      1.7818968081551951, 4.680968993586528, 0.6321649934481495,
                      2.1445597163470325)


class TestTouchingPairs:
    def test_found_pair_scores_zero_both_ways(self):
        assert _moved_along(TOUCHING, TOUCHING.width, 0.0) == TOUCHING_COPY
        assert iou_3d(TOUCHING, TOUCHING_COPY) == 0.0
        assert iou_3d(TOUCHING_COPY, TOUCHING) == 0.0

    def test_generated_edge_touching_pairs_score_zero(self):
        rng = np.random.default_rng(0)
        boxes = [random_box(rng) for _ in range(2000)]
        # even rows share a length side, odd rows a width side
        moved = [_moved_along(b, 0.0, b.length) if i % 2 == 0 else _moved_along(b, b.width, 0.0)
                 for i, b in enumerate(boxes)]
        for a, b in ((boxes, moved), (moved, boxes)):
            iou = iou_3d(a, b)
            assert iou.shape == (2000,)
            assert not np.signbit(iou).any()
            np.testing.assert_array_equal(iou, 0.0)
            # the kernel itself, as the loss logs it, carries no -0.0 either
            kernel = box_iou(box_rows(a), box_rows(b))[0].data
            assert not np.signbit(kernel).any()
            np.testing.assert_array_equal(kernel, 0.0)


def _pairs(n, seed):
    rng = np.random.default_rng(seed)
    return [random_overlapping_pair(rng) for _ in range(n)]


class TestIou3dSequences:
    PAIRS = _pairs(365, 11)

    def test_rows_match_one_pair_calls(self):
        a, b = zip(*self.PAIRS)
        batch = iou_3d(a, b)
        assert batch.shape == (365,) and batch.dtype == np.float64
        singles = np.array([iou_3d(x, y) for x, y in self.PAIRS])
        np.testing.assert_allclose(batch, singles, rtol=0, atol=1e-15)
        assert 0.0 < batch.max() <= 1.0

    def test_identical_rows_score_exactly_one(self):
        a, b = map(list, zip(*self.PAIRS[:5]))
        b[2] = a[2]
        iou = iou_3d(a, b)
        assert iou[2] == 1.0 and (np.delete(iou, 2) < 1.0).all()

    def test_permuting_pairs_permutes_output_bitwise(self):
        a, b = zip(*self.PAIRS)
        iou = iou_3d(a, b)
        perm = np.random.default_rng(12).permutation(len(a))
        permuted = iou_3d([a[i] for i in perm], [b[i] for i in perm])
        assert permuted.tobytes() == iou[perm].tobytes()

    def test_pairs_skipped_as_apart_score_what_the_kernel_scores(self):
        rng = np.random.default_rng(13)
        a = [random_box(rng, 4.0) for _ in range(400)]
        b = [random_box(rng, 4.0) for _ in range(400)]
        with T.no_grad():
            kernel = geo.box_iou(geo.box_rows(a), geo.box_rows(b))[0].data
        iou = iou_3d(a, b)
        assert 20 < np.count_nonzero(iou) < 200
        np.testing.assert_allclose(iou, kernel, rtol=0, atol=1e-15)

    def test_unequal_lengths_raise(self):
        a, b = zip(*self.PAIRS[:3])
        with pytest.raises(ValueError, match="3 boxes against 2"):
            iou_3d(a, b[:2])

    def test_empty_sequences(self):
        assert iou_3d([], []).shape == (0,)


def loss_penalty(pred, gt):
    """The distance penalty `diou_loss` adds for one pair, read back as
    loss - (1 - IoU)."""
    loss, ious = diou_loss(T.Tensor(box_rows([pred])), [gt])
    return loss.item() - (1.0 - ious[0])


class TestDiouPenalty:
    def test_coincident_centers(self):
        a = Box3D(0, 0, 0, 1, 2, 1, 0.4)
        b = Box3D(0, 0, 0, 2, 1, 2, -0.9)
        assert loss_penalty(a, b) == pytest.approx(0.0, abs=1e-12)

    @given(st.floats(min_value=0.01, max_value=50.0))
    @settings(max_examples=50, deadline=None)
    def test_unit_cubes_closed_form(self, d):
        a = Box3D(0, 0, 0, 1, 1, 1, 0.0)
        b = Box3D(d, 0, 0, 1, 1, 1, 0.0)
        expected = d**2 / ((d + 1) ** 2 + 1 + 1)
        assert loss_penalty(a, b) == pytest.approx(expected, abs=1e-12)

    def test_random_pairs_in_range_and_match_corner_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            a, b = random_overlapping_pair(rng)
            pen = loss_penalty(a, b)
            if np.allclose(a.center, b.center):
                continue
            assert 0.0 < pen < 1.0
            assert pen == pytest.approx(diou_penalty(a, b), abs=1e-12)


class TestDirectionLabel:
    def test_zero_is_front(self):
        assert direction_label(0.0) == geo.DIRECTION_FRONT

    def test_half_pi_is_back(self):
        assert direction_label(math.pi / 2) == geo.DIRECTION_BACK

    def test_minus_pi_is_back(self):
        assert direction_label(-math.pi) == geo.DIRECTION_BACK

    def test_boundaries(self):
        assert direction_label(-math.pi / 2) == geo.DIRECTION_FRONT
        assert direction_label(math.pi) == geo.DIRECTION_BACK  # wraps to -pi

    @given(st.floats(min_value=-10.0, max_value=10.0))
    @settings(max_examples=200, deadline=None)
    def test_periodic(self, yaw):
        assert direction_label(yaw) == direction_label(yaw + 2 * math.pi)


class TestWrapAngle:
    @given(st.floats(min_value=-100.0, max_value=100.0))
    @settings(max_examples=200, deadline=None)
    def test_range(self, a):
        w = wrap_angle(a)
        assert -math.pi <= w < math.pi
        assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-9)
        assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-9)


class TestBoxValidation:
    def test_rejects_nonpositive_extent(self):
        with pytest.raises(ValueError):
            Box3D(0, 0, 0, 0.0, 1, 1, 0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Box3D(float("nan"), 0, 0, 1, 1, 1, 0)

    def test_wraps_yaw(self):
        b = Box3D(0, 0, 0, 1, 1, 1, 3 * math.pi)
        assert -math.pi <= b.yaw < math.pi

    def test_2d_box_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Box2D(0, 0, 0, 1)
