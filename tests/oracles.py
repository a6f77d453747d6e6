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


def _footprint_by_hand(box):
    """BEV corners, counter-clockwise from (+w/2, +l/2), as (x, y) tuples."""
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    signs = ((1, 1), (-1, 1), (-1, -1), (1, -1))
    return [(box.cx + c * sx * box.width / 2 - s * sy * box.length / 2,
             box.cy + s * sx * box.width / 2 + c * sy * box.length / 2) for sx, sy in signs]


def _clip_polygon(subject, clip):
    """Sutherland-Hodgman clip of convex CCW `subject` against convex CCW
    `clip`, both lists of (x, y); vertices on a clip edge are kept."""
    output = list(subject)
    for i in range(len(clip)):
        if not output:
            return []
        (ax, ay), (bx, by) = clip[i], clip[(i + 1) % len(clip)]
        ex, ey = bx - ax, by - ay

        def side(p):
            return ex * (p[1] - ay) - ey * (p[0] - ax)

        verts, output = output, []
        prev = verts[-1]
        for cur in verts:
            if (side(cur) >= 0.0) != (side(prev) >= 0.0):
                # segment prev-cur crosses the clip line
                t = side(prev) / (side(prev) - side(cur))
                output.append((prev[0] + t * (cur[0] - prev[0]), prev[1] + t * (cur[1] - prev[1])))
            if side(cur) >= 0.0:
                output.append(cur)
            prev = cur
    return output


def clip_iou3d(a, b):
    """Exact IoU of two oriented boxes by a float Sutherland-Hodgman clip of
    the footprints, times the vertical overlap; 0 below 1e-12 m^2 of BEV
    overlap. One pair at a time, written independently of the library's
    batched kernel."""
    inter = _clip_polygon(_footprint_by_hand(a), _footprint_by_hand(b))
    area = 0.5 * sum(x0 * y1 - x1 * y0
                     for (x0, y0), (x1, y1) in zip(inter, inter[1:] + inter[:1]))
    if len(inter) < 3 or area < 1e-12:
        return 0.0
    z_lo = max(a.cz - a.height / 2, b.cz - b.height / 2)
    z_hi = min(a.cz + a.height / 2, b.cz + b.height / 2)
    if z_hi <= z_lo:
        return 0.0
    inter_vol = area * (z_hi - z_lo)
    volume_a = a.width * a.length * a.height
    volume_b = b.width * b.length * b.height
    return inter_vol / (volume_a + volume_b - inter_vol)


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
