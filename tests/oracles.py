"""Independent brute-force oracles used to check the analytic implementations.

Everything here is deliberately written from first principles (sampling,
explicit matrix products, per-point loops, or a composition of simpler
engine ops) and must not call into the code paths it validates. It also
holds the small helpers that only tests use, such as a unit calibration and
a one-point projection, so the package keeps no code without a caller.
"""

import math
import zlib

import numpy as np

from frustumbox.geometry import ProjectionModel


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


def diou_penalty(a, b):
    """Normalized center-distance penalty of the distance-IoU objective for
    one pair of Box3D: squared center distance over the squared diagonal of
    the minimal axis-aligned 3D box enclosing both boxes' corners. Zero iff
    the centers coincide; always < 1 for valid boxes."""
    from frustumbox.geometry import box_corners

    rho2 = float(np.sum((a.center - b.center) ** 2))
    if rho2 == 0.0:
        return 0.0
    corners = np.vstack([box_corners(a), box_corners(b)])
    extents = corners.max(axis=0) - corners.min(axis=0)
    return rho2 / float(np.sum(extents**2))


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


class NonPositiveDepth(ValueError):
    """Point sits at or behind the camera plane after calibration."""


def identity_calibration():
    """Unit-focal pinhole at the sensor origin: u = x / z and v = y / z."""
    return ProjectionModel(
        P=np.hstack([np.eye(3), np.zeros((3, 1))]),
        R0=np.eye(3),
        Tr=np.hstack([np.eye(3), np.zeros((3, 1))]),
    )


def project_point(p, calib):
    """Project one LiDAR point to pixel coordinates with ``calib.project``.

    Raises NonPositiveDepth when the rectified-camera depth is <= 0
    (the point sits at or behind the camera).
    """
    uv, depth = calib.project(np.asarray(p, dtype=np.float64).reshape(1, 3))
    if depth[0] <= 0:
        raise NonPositiveDepth(f"point {tuple(np.asarray(p))} has camera depth {depth[0]:.6g}")
    return float(uv[0, 0]), float(uv[0, 1])


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


def softmax(a, axis=-1):
    """Numerically stabilized softmax along `axis` as one engine node: the
    reference softmax of ``attention_core_composed``, which the fused
    ``tensor.attention_core`` matches to ~1e-15 relative."""
    from frustumbox import tensor as T

    a = T.as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        return (out_data * (g - dot),)

    return T._record(out_data, grad_fn, a)


def attention_core_composed(Q, K, V, scale):
    """Scaled dot-product attention as four graph nodes (matmul, scale,
    softmax, matmul): the composition ``tensor.attention_core`` fuses."""
    from frustumbox import tensor as T

    scores = T.mul(T.matmul(Q, T.swapaxes(K, -1, -2)), scale)
    weights = softmax(scores, axis=-1)
    return T.matmul(weights, V), weights


def attention_core_held(Q, K, V, scale, capture=False):
    """``tensor.attention_core`` as it was before it worked in blocks: one
    pass over the whole batch of slabs, whose (..., Lq, Lk) weights the
    backward holds instead of rebuilding. The blocked core must match it
    bit for bit: the same per-slab products, the same per-slab shift
    decision, the same op order."""
    from frustumbox import tensor as T

    Q, K, V = T.as_tensor(Q), T.as_tensor(K), T.as_tensor(V)
    qs = Q.data * scale
    kt = K.data.swapaxes(-1, -2).copy()
    e = qs @ kt
    bound = qs.shape[-1] * T._abs_max(qs) * T._abs_max(K.data)
    shifted = bound > T.EXP_SAFE_SCORE
    if shifted.any():
        e[shifted] -= e[shifted].max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    total = e.sum(axis=-1, keepdims=True)
    r = 1.0 / total
    ctx = e @ V.data
    ctx *= r
    weights = T.Tensor(e / total) if capture else None

    def grad_fn(g):
        gr = g * r
        gv = e.swapaxes(-1, -2) @ gr
        d = (gr * ctx).sum(axis=-1, keepdims=True)
        gs = gr @ V.data.swapaxes(-1, -2)
        gs -= d
        gs *= e
        gq = gs @ K.data
        gq *= scale
        return gq, gs.swapaxes(-1, -2) @ qs, gv

    return T._record(ctx, grad_fn, Q, K, V), weights


def linear_composed(x, weight, bias):
    """Affine map as a ``matmul`` node and an ``add`` node: the pair
    ``tensor.linear`` fuses."""
    from frustumbox import tensor as T

    return T.add(T.matmul(x, weight), bias)


def layer_norm_composed(x, gain, bias, eps=1e-12):
    """Layer normalization over the last axis as a chain of elementary
    engine nodes: the chain ``tensor.layer_norm`` fuses."""
    from frustumbox import tensor as T

    x = T.as_tensor(x)
    mu = T.tmean(x, axis=-1, keepdims=True)
    centered = x - mu
    var = T.tmean(T.mul(centered, centered), axis=-1, keepdims=True)
    inv = T.power(T.add(var, eps), -0.5)
    return T.add(T.mul(T.mul(centered, inv), gain), bias)


def split_heads(x, weight, bias, heads):
    """x (B, L, d) projected and split into (B, heads, L, d / heads), as
    ``tensor.multi_head_attention`` splits its operands."""
    from frustumbox import tensor as T

    B, L, d = x.shape
    return T.swapaxes(T.reshape(T.linear(x, weight, bias), (B, L, heads, d // heads)), 1, 2)


def held_self_attention_weights(x, heads, params):
    """The (B, heads, L, L) self-attention weights of ``x`` (B, L, d) under
    ``params``, from ``attention_core_held``'s weights over the projected
    and head-split Q, K and V, without a graph."""
    from frustumbox import tensor as T

    with T.no_grad():
        Q, K, V = (split_heads(x, params[f"w{part}"], params[f"b{part}"], heads)
                   for part in "qkv")
        return attention_core_held(Q, K, V, 1.0 / math.sqrt(Q.shape[-1]), capture=True)[1]


def _full_encoder_layer(model, x, prefix, capture):
    """A pre-norm encoder layer of ``model`` in which every row queries;
    its attention weights are built only under ``capture``."""
    from frustumbox import tensor as T

    p = model.params
    heads = model.config.heads
    attn = {f"{w}{part}": p[f"{prefix}.attn.{part}.{w}"] for part in "qkvo" for w in "wb"}
    h = T.layer_norm(x, p[f"{prefix}.ln1.gain"], p[f"{prefix}.ln1.bias"])
    weights = held_self_attention_weights(h, heads, attn) if capture else None
    x = x + T.multi_head_attention(h, h, h, heads, attn)
    h = T.layer_norm(x, p[f"{prefix}.ln2.gain"], p[f"{prefix}.ln2.bias"])
    h = T.relu(T.linear(h, p[f"{prefix}.mlp.l1.w"], p[f"{prefix}.mlp.l1.b"]))
    return x + T.linear(h, p[f"{prefix}.mlp.l2.w"], p[f"{prefix}.mlp.l2.b"]), weights


def full_rows_forward(model, points, capture=False):
    """A decoder-less model's forward in which every encoder layer computes
    every one of the N+7 rows, the global stack runs on all N+7 positions
    (its batch sorted by the bytes of each object's full feature rows), and
    the heads then slice the seven box-token rows.

    Returns (boxes, direction_logits, local maps); the maps, (B, H, N+7,
    N+7) per local layer, are built only under ``capture``.
    """
    from frustumbox import tensor as T
    from frustumbox.model import N_BOX_TOKENS

    cfg = model.config
    assert cfg.n_decoder_layers == 0, "the oracle is the decoder-less path"
    pts = T.as_tensor(points)
    emb = model.embed_points(pts)
    if cfg.pos_mode != "none":
        emb = emb + model.positional_encode(pts)
    x = T.concat([model.box_token_sequence(pts.shape[0]), emb], axis=1)
    maps = []
    for i in range(cfg.n_local_layers):
        x, w = _full_encoder_layer(model, x, f"local.{i}", capture)
        maps.append(w)
    if cfg.n_global_layers:
        order = sorted(range(x.shape[0]), key=lambda b: x.data[b].tobytes())
        x = T.swapaxes(T.permute(x, order), 0, 1)
        for i in range(cfg.n_global_layers):
            x, _ = _full_encoder_layer(model, x, f"global.{i}", False)
        x = T.permute(T.swapaxes(x, 0, 1), np.argsort(order))
    tokens = model._layer_norm(x[:, :N_BOX_TOKENS], "head.norm")
    return model.regress_box(tokens), model.classify_direction(tokens), maps


def every_node_backward(loss):
    """Reverse-mode sweep that keeps the gradient of every node it visits,
    intermediates included: the engine's backward before it kept gradients
    on leaves only. Leaves accumulate into ``.grad`` as under the engine;
    the op nodes' gradients are returned, keyed by node. The nodes are
    visited in the engine's order (a depth-first post-order from the loss's
    node, parents pushed in order), so each gradient adds its summands in
    the same order and the leaves' gradients must match the engine's bit
    for bit.
    """
    from frustumbox import tensor as T

    root = loss if loss._node is None else loss._node
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in visited:
            visited.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents if id(p) not in visited)
    pending = {id(root): np.ones_like(loss.data)}
    kept = {}
    for node in reversed(order):
        g = pending.pop(id(node), None)
        if g is None:
            continue
        if node._grad_fn is None:
            node.grad = g if node.grad is None else node.grad + g
            continue
        kept[node] = g
        for edge, pg in zip(node._inputs, node._grad_fn(g), strict=True):
            if edge is not None:
                parent, shape = edge
                pg = T._unbroadcast(np.asarray(pg, dtype=np.float64), shape)
                key = id(parent)
                pending[key] = pending[key] + pg if key in pending else pg
    return kept


def denormalize_frustum(sample):
    """Undo the centring of ``frustums.build_frustum_sample`` up to rounding:
    points and the ground truth move back by the centroid (the label's own
    box stays as ``sensor_gt_box``)."""
    from dataclasses import replace

    gt = sample.gt_box.translated(sample.centroid) if sample.gt_box is not None else None
    return replace(
        sample,
        points=sample.points + sample.centroid,
        centroid=np.zeros(3),
        gt_box=gt,
    )


def per_object_frustum(cloud, box, calib):
    """The per-object cut: project the whole cloud for this one box, keep
    positive depth and the box's inclusive pixel rectangle, as a mask."""
    uv, depth = calib.project(cloud)
    keep = depth > 0
    keep[keep] = box.contains(uv[keep, 0], uv[keep, 1])
    return cloud[keep]


def per_object_sample(cloud, box2d, calib, gt_box, frame_id, object_id, n_points, rng,
                      cls="Car"):
    """The per-object reference of ``frustums.build_frustum_sample``: copy
    the box's frustum out of the cloud by mask, count its foreground, gather
    a fixed-size resample of the copy, then shift that to its centroid in a
    second constructor pass. None for an empty frustum, with no draws."""
    from dataclasses import replace

    from frustumbox.frustums import FrustumSample
    from frustumbox.geometry import points_in_box3d

    frustum = per_object_frustum(cloud, box2d, calib)
    m = len(frustum)
    if m == 0:
        return None
    n_fg = (int(np.count_nonzero(points_in_box3d(frustum, gt_box)))
            if gt_box is not None else 0)
    if m >= n_points:
        idx = rng.choice(m, size=n_points, replace=False)
    else:
        idx = np.concatenate([np.arange(m), rng.integers(0, m, size=n_points - m)])
    sample = FrustumSample(
        points=frustum[idx], centroid=np.zeros(3), box2d=box2d, calib=calib,
        gt_box=gt_box, frame_id=frame_id, object_id=object_id, n_raw_points=m,
        n_foreground_points=n_fg, cls=cls, sensor_gt_box=gt_box,
    )
    centroid = sample.points.mean(axis=0)
    return replace(
        sample,
        points=sample.points - centroid,
        centroid=sample.centroid + centroid,
        gt_box=gt_box.translated(-centroid) if gt_box is not None else None,
    )


def frame_sampling_rng(seed, frame_id):
    """The resampling stream of one frame, keyed as the package keys it: the
    seed, the sampling salt 104729 and a CRC-32 of the frame id's bytes."""
    return np.random.default_rng([seed, 104729, zlib.crc32(frame_id.encode())])


def serial_annotate(root, checkpoint, seed, batch_size):
    """The serial ``annotate`` loop: every frame's samples first, in manifest
    order, then one ``predict_samples`` per chunk of the whole list, in list
    order, on this thread. Returns ({frame: label file text}, the
    ``skipping`` lines in print order)."""
    from frustumbox.checkpoint import load_checkpoint
    from frustumbox.frustums import frame_samples
    from frustumbox.inference import predict_samples, prediction_record
    from frustumbox.kitti import manifest_frames, serialize_kitti_label
    from frustumbox.model import BoxAnnotator

    model = BoxAnnotator.from_checkpoint(load_checkpoint(checkpoint))
    samples, skips, rows = [], [], {}
    for frame in manifest_frames(root):
        try:
            got, empty = frame_samples(root, frame, model.config.n_points, seed,
                                       require_gt=False)
        except FileNotFoundError as err:
            skips.append(f"skipping frame {frame}: {err}")
            continue
        skips.extend(f"skipping object {object_id}: empty frustum" for object_id in empty)
        samples.extend(got)
        rows[frame] = []
    for lo in range(0, len(samples), batch_size):
        for p in predict_samples(model, samples[lo : lo + batch_size], batch_size):
            rows[p.sample.frame_id].append(prediction_record(p))
    return {frame: serialize_kitti_label(r) for frame, r in rows.items()}, skips
