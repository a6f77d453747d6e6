"""Independent brute-force oracles used to check the analytic implementations.

Everything here is deliberately written from first principles (sampling,
explicit matrix products, per-point loops, or a composition of simpler
engine ops) and must not call into the code paths it validates.
"""

import math

import numpy as np


def mc_point_in_box(points, box):
    """Per-point rotated-box membership, written independently of the library."""
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    dx = points[:, 0] - box.cx
    dy = points[:, 1] - box.cy
    dz = points[:, 2] - box.cz
    # rotate the offset by -yaw to land in the box frame
    lx = c * dx + s * dy
    ly = -s * dx + c * dy
    return (
        (np.abs(lx) <= box.width / 2)
        & (np.abs(ly) <= box.length / 2)
        & (np.abs(dz) <= box.height / 2)
    )


def _box_aabb(box):
    r = math.hypot(box.width, box.length) / 2
    lo = np.array([box.cx - r, box.cy - r, box.cz - box.height / 2])
    hi = np.array([box.cx + r, box.cy + r, box.cz + box.height / 2])
    return lo, hi


def mc_iou3d(a, b, n_samples, rng):
    """Monte-Carlo IoU: uniform samples in the union's bounding volume."""
    lo_a, hi_a = _box_aabb(a)
    lo_b, hi_b = _box_aabb(b)
    lo = np.minimum(lo_a, lo_b)
    hi = np.maximum(hi_a, hi_b)
    pts = rng.uniform(lo, hi, size=(n_samples, 3))
    in_a = mc_point_in_box(pts, a)
    in_b = mc_point_in_box(pts, b)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


def project_by_hand(p, P, R0, Tr):
    """Pixel coordinates via explicit homogeneous matrix products."""
    hom = np.ones(4)
    hom[:3] = p
    cam = Tr @ hom
    rect = R0 @ cam
    hom2 = np.ones(4)
    hom2[:3] = rect
    img = P @ hom2
    return img[0] / img[2], img[1] / img[2], rect[2]


def random_box(rng, center_scale=10.0, Box3D=None):
    """Random valid rotated box for property-style tests."""
    from frustumbox.geometry import Box3D as _Box3D

    cls = Box3D or _Box3D
    return cls(
        cx=rng.uniform(-center_scale, center_scale),
        cy=rng.uniform(-center_scale, center_scale),
        cz=rng.uniform(-2.0, 2.0),
        width=rng.uniform(0.5, 3.0),
        length=rng.uniform(0.5, 5.0),
        height=rng.uniform(0.5, 2.5),
        yaw=rng.uniform(-math.pi, math.pi),
    )


def random_overlapping_pair(rng):
    """Random box pair biased toward partial overlap."""
    from frustumbox.geometry import Box3D

    a = random_box(rng, center_scale=2.0)
    b = Box3D(
        cx=a.cx + rng.uniform(-2.0, 2.0),
        cy=a.cy + rng.uniform(-2.0, 2.0),
        cz=a.cz + rng.uniform(-0.8, 0.8),
        width=rng.uniform(0.5, 3.0),
        length=rng.uniform(0.5, 5.0),
        height=rng.uniform(0.5, 2.5),
        yaw=rng.uniform(-math.pi, math.pi),
    )
    return a, b


def attention_core_composed(Q, K, V, scale):
    """Scaled dot-product attention as four graph nodes (matmul, scale,
    softmax, matmul): the composition ``tensor.attention_core`` fuses."""
    from frustumbox import tensor as T

    scores = T.mul(T.matmul(Q, T.swapaxes(K, -1, -2)), scale)
    weights = T.softmax(scores, axis=-1)
    return T.matmul(weights, V), weights
