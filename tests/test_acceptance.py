"""The acceptance gate: one test per criterion, one printed verdict line each.

Run with ``python -m pytest tests/test_acceptance.py -v -s`` to see the
PASS/FAIL lines as they happen. Every criterion is deterministic: fixed
seeds, fixed datasets, fixed tolerances.
"""

import math
import time

import numpy as np
import pytest

from frustumbox import tensor as T
from frustumbox.evaluate import evaluate_model, run_ablation
from frustumbox.frustums import build_dataset_samples, filter_samples
from frustumbox.geometry import Box3D, box_rows, iou_3d
from frustumbox.gradcheck import model_gradient_check
from frustumbox.kitti import (
    load_point_cloud,
    parse_kitti_label,
    save_point_cloud,
    serialize_kitti_label,
)
from frustumbox.loss import diou_loss, direction_loss, total_loss
from frustumbox.model import BoxAnnotator, ModelConfig, export_attention
from frustumbox.synthetic import SceneSpec, write_synthetic_dataset
from frustumbox.tensor import Tensor
from frustumbox.train import TrainConfig, train

from oracles import mc_iou3d, project_by_hand, random_overlapping_pair

pytestmark = pytest.mark.slow


def report(number, description, passed, detail=""):
    verdict = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {number}: {verdict} - {description}{suffix}"
    print("\n" + line)
    assert passed, line


def desk_batch(b=4, n=128, seed=1):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(b, n, 3))
    gts = [
        Box3D(*rng.uniform(-0.5, 0.5, 3), rng.uniform(1.5, 1.9),
              rng.uniform(3.2, 4.8), rng.uniform(1.3, 1.8),
              rng.uniform(-math.pi, math.pi))
        for _ in range(b)
    ]
    return points, gts


# ---------------------------------------------------------------------------
# 1. Gradient integrity
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_integrity():
    model = BoxAnnotator(ModelConfig.desk(), rng=np.random.default_rng(0))
    points, gts = desk_batch(b=4, n=128, seed=1)
    start = time.perf_counter()
    result = model_gradient_check(model, points, gts, TrainConfig().lambda_box, probes=2,
                                  step=1e-4, seed=0)
    elapsed = time.perf_counter() - start
    report(
        1,
        "full-model finite-difference check, desk config, rel err < 1e-3, < 120 s",
        result.passed and elapsed < 120.0,
        f"worst {result.worst:.2e} over {len(result.rows)} parameter groups in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. Geometry oracle
# ---------------------------------------------------------------------------


def test_criterion_2_geometry_oracle():
    rng = np.random.default_rng(2024)
    worst_mc = 0.0
    worst_sym = 0.0
    worst_rigid = 0.0
    for _ in range(1000):
        a, b = random_overlapping_pair(rng)
        analytic = iou_3d(a, b)
        estimate = mc_iou3d(a, b, 10**6, rng)
        worst_mc = max(worst_mc, abs(analytic - estimate))
        worst_sym = max(worst_sym, abs(analytic - iou_3d(b, a)))
        t = rng.normal(size=3) * 5
        phi = rng.uniform(-math.pi, math.pi)
        c, s = math.cos(phi), math.sin(phi)

        def move(box):
            return Box3D(c * box.cx - s * box.cy + t[0],
                         s * box.cx + c * box.cy + t[1],
                         box.cz + t[2], box.width, box.length, box.height,
                         box.yaw + phi)

        worst_rigid = max(worst_rigid, abs(analytic - iou_3d(move(a), move(b))))
    report(
        2,
        "1000 rotated pairs: IoU matches 1e6-sample Monte-Carlo +-0.01; "
        "symmetry and rigid invariance to 1e-6",
        worst_mc < 0.01 and worst_sym < 1e-6 and worst_rigid < 1e-6,
        f"worst MC {worst_mc:.4f}, symmetry {worst_sym:.1e}, rigid {worst_rigid:.1e}",
    )


# ---------------------------------------------------------------------------
# 3. Equivariance suite
# ---------------------------------------------------------------------------


def test_criterion_3_equivariance_suite():
    rng = np.random.default_rng(33)
    points = rng.normal(size=(6, 128, 3))
    model = BoxAnnotator(ModelConfig.desk(), rng=np.random.default_rng(3))

    perm = rng.permutation(6)
    base = model.forward(points)
    permuted = model.forward(points[perm])
    batch_exact = (base.boxes.data[perm] == permuted.boxes.data).all() and (
        base.direction_logits.data[perm] == permuted.direction_logits.data
    ).all()

    pperm = rng.permutation(128)
    shuffled = model.forward(points[:, pperm])
    point_err = max(
        np.abs(base.boxes.data - shuffled.boxes.data).max(),
        np.abs(base.direction_logits.data - shuffled.direction_logits.data).max(),
    )

    local_model = BoxAnnotator(ModelConfig.desk(n_global_layers=0),
                               rng=np.random.default_rng(3))
    bumped = points.copy()
    bumped[3] += 0.25
    local_a = local_model.forward(points).boxes.data
    local_b = local_model.forward(bumped).boxes.data
    isolated = (local_a[:3] == local_b[:3]).all() and (local_a[4:] == local_b[4:]).all()
    global_a = base.boxes.data
    global_b = model.forward(bumped).boxes.data
    coupled = np.abs(global_a[0] - global_b[0]).max() > 0.0

    report(
        3,
        "batch permutation bit-exact; point permutation <= 1e-9; cross-object "
        "influence zero (global off) vs nonzero (global on)",
        batch_exact and point_err <= 1e-9 and isolated and coupled,
        f"batch-exact {batch_exact}, point err {point_err:.1e}, "
        f"isolated {isolated}, coupled {coupled}",
    )


# ---------------------------------------------------------------------------
# 4. Overfit sanity
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def overfit_samples(tmp_path_factory):
    root = tmp_path_factory.mktemp("overfit_ds")
    spec = SceneSpec(noise_sigma=0.02, clutter_density=0.02, points_base=800,
                     range_min=6.0, range_max=18.0, n_objects_min=2, n_objects_max=4)
    write_synthetic_dataset(root, spec, 4, np.random.default_rng(0), val_every=0)
    kept, _ = filter_samples(build_dataset_samples(root, n_points=128, seed=0))
    assert len(kept) >= 8
    return kept[:8]


def test_criterion_4_overfit_sanity(overfit_samples):
    # The printed mIoU moves with last-bit gradient differences: a change
    # whose loss gradients differed by <= 5.6e-17 moved it 0.9481 -> 0.9410
    # on one host, as 500 Adam steps carry the rounding into the trajectory.
    # Only the 0.8 bound is the check; the figure is not a quality signal.
    start = time.perf_counter()
    model = BoxAnnotator(ModelConfig.desk(), rng=np.random.default_rng(0))
    cfg = TrainConfig(batch_size=8, epochs=500, lr_max=1e-3)
    train(model, overfit_samples, cfg, 0)
    reportev = evaluate_model(model, overfit_samples, batch_size=8)
    direction_acc = float(np.mean([r.direction_correct for r in reportev.per_object]))
    elapsed = time.perf_counter() - start
    report(
        4,
        "8 frustums, desk config, 500 steps, seed 0: mIoU >= 0.8, direction "
        "accuracy >= 95%, < 10 min",
        reportev.miou >= 0.8 and direction_acc >= 0.95 and elapsed < 600.0,
        f"mIoU {reportev.miou:.4f}, direction {direction_acc:.0%}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 5. Ablation trend
# ---------------------------------------------------------------------------


def test_criterion_5_ablation_trend(tmp_path_factory):
    root = tmp_path_factory.mktemp("hard_ds")
    spec = SceneSpec(occlusion=0.5, noise_sigma=0.02, points_base=350,
                     range_min=6.0, range_max=22.0, clutter_density=0.02,
                     n_objects_min=3, n_objects_max=6)
    write_synthetic_dataset(root, spec, 64, np.random.default_rng(1234), val_every=0)
    hard, _ = filter_samples(build_dataset_samples(root, n_points=64, seed=0))
    assert len(hard) >= 256
    hard = hard[:256]
    mcfg = ModelConfig(d=32, n_points=64, n_local_layers=1, n_global_layers=1,
                       n_decoder_layers=1, heads=4, head_hidden=64)
    tcfg = TrainConfig(batch_size=16, epochs=24, lr_max=1e-3)
    rows = run_ablation(hard, hard, mcfg, tcfg, seeds=[0, 1, 2], variants=("A", "B"))
    local_only, local_global = rows
    a_mean = local_only.mean["miou"]
    b_mean = local_global.mean["miou"]
    report(
        5,
        "256 occluded samples, 3 seeds: mean mIoU(local+global) >= mean mIoU(local-only)",
        b_mean >= a_mean,
        f"local-only {a_mean:.4f} vs local+global {b_mean:.4f}",
    )


# ---------------------------------------------------------------------------
# 6. Loss contract
# ---------------------------------------------------------------------------


def test_criterion_6_loss_contract():
    rng = np.random.default_rng(66)
    gts = [random_overlapping_pair(rng)[0] for _ in range(4)]
    preds = [random_overlapping_pair(rng)[1] for _ in range(4)]
    logits = Tensor(rng.normal(size=(4, 2)))
    out = total_loss(Tensor(box_rows(preds)), logits, gts, lambda_box=5.0)
    arithmetic = out.total.item() == out.box_loss.item() * 5.0 + out.dir_loss.item()

    worst_flip = 0.0
    for _ in range(50):
        gt = random_overlapping_pair(rng)[0]
        pred = random_overlapping_pair(rng)[1]
        r = box_rows([pred])
        r_flip = r.copy()
        r_flip[0, 6] += math.pi
        a, _ = diou_loss(Tensor(r), [gt])
        b, _ = diou_loss(Tensor(r_flip), [gt])
        worst_flip = max(worst_flip, abs(a.item() - b.item()))

    uniform = direction_loss(Tensor(np.zeros((8, 2))),
                             rng.uniform(-math.pi, math.pi, size=8))
    ln2_err = abs(uniform.item() - math.log(2.0))

    report(
        6,
        "total = 5*box + dir exactly; box term yaw+pi invariant to 1e-9; "
        "uniform-logit direction loss = ln 2 +- 1e-12",
        arithmetic and worst_flip < 1e-9 and ln2_err < 1e-12,
        f"flip err {worst_flip:.1e}, ln2 err {ln2_err:.1e}",
    )


# ---------------------------------------------------------------------------
# 7. Format fidelity
# ---------------------------------------------------------------------------


def _strict_inside_oracle(points, box):
    # independent rotation math, strict inequalities
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    inside = 0
    for x, y, z in points:
        dx, dy, dz = x - box.cx, y - box.cy, z - box.cz
        lx = c * dx + s * dy
        ly = -s * dx + c * dy
        if abs(lx) < box.width / 2 and abs(ly) < box.length / 2 and abs(dz) < box.height / 2:
            inside += 1
    return inside


def test_criterion_7_format_fidelity(tmp_path_factory):
    # label round-trip at two decimals
    line = "Car 0.12 1 -1.57 100.25 120.50 300.75 250.00 1.50 1.63 3.87 2.54 1.81 20.09 0.52 0.91"
    records = parse_kitti_label(line)
    stable = serialize_kitti_label(records).strip() == line and \
        parse_kitti_label(serialize_kitti_label(records)) == records

    # velodyne round-trip, bit identical
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(500, 3)).astype(np.float32).astype(np.float64)
    inten = rng.uniform(size=500).astype(np.float32).astype(np.float64)
    blob = save_point_cloud(pts, inten)
    pts2 = load_point_cloud(blob)
    written_intensity = np.frombuffer(blob, dtype="<f4").reshape(-1, 4)[:, 3]
    velodyne_ok = (np.array_equal(pts2, pts) and np.array_equal(written_intensity, inten)
                   and save_point_cloud(pts2, inten) == blob)

    # 30/5 filter against a brute-force recount over >= 1000 samples;
    # datasets are processed separately because frame ids restart per dataset
    from frustumbox.kitti import lidar_box_from_label, load_frame, manifest_frames

    total = 0
    total_rejections = 0
    mismatches = []
    for i, occ in enumerate((0.0, 0.5, 0.8)):
        root = tmp_path_factory.mktemp(f"filter_ds_{i}")
        spec = SceneSpec(occlusion=occ, noise_sigma=0.02, points_base=250,
                         range_min=6.0, range_max=35.0, n_objects_min=3,
                         n_objects_max=6)
        write_synthetic_dataset(root, spec, 80, np.random.default_rng(100 + i),
                                val_every=0)
        samples = build_dataset_samples(root, n_points=32, seed=0)
        kept, rejections = filter_samples(samples)
        kept_ids = {s.object_id for s in kept}
        total += len(samples)
        total_rejections += len(rejections)

        frames = {
            frame: load_frame(root, frame) for frame in manifest_frames(root)
        }

        def recount(sample):
            points, calib, recs = frames[sample.frame_id]
            rec = recs[int(sample.object_id.split(":")[1])]
            assert rec.box2d == sample.box2d
            inside_2d = []
            for p in points:
                u, v, depth = project_by_hand(p, calib.P, calib.R0, calib.Tr)
                if depth > 0 and rec.box2d.u_min <= u <= rec.box2d.u_max \
                        and rec.box2d.v_min <= v <= rec.box2d.v_max:
                    inside_2d.append(p)
            gt = lidar_box_from_label(rec, calib)
            fg = _strict_inside_oracle(inside_2d, gt)
            return len(inside_2d) >= 30 and fg >= 5

        mismatches.extend(
            s.object_id for s in samples if recount(s) != (s.object_id in kept_ids)
        )
    report(
        7,
        "label round-trip stable at 2 decimals; velodyne bit-identical; 30/5 "
        "filter matches brute-force recount on 1000+ samples exactly",
        stable and velodyne_ok and total >= 1000 and not mismatches,
        f"{total} samples recounted, {total_rejections} rejections, "
        f"{len(mismatches)} mismatches",
    )


# ---------------------------------------------------------------------------
# 8. Determinism
# ---------------------------------------------------------------------------


def test_criterion_8_determinism(tmp_path_factory, overfit_samples):
    cfg = ModelConfig(d=16, n_points=128, n_local_layers=1, n_global_layers=1,
                      n_decoder_layers=1, heads=2, head_hidden=16)
    tcfg = TrainConfig(batch_size=4, epochs=4, lr_max=1e-3, checkpoint_every=2)

    def run(name):
        out = tmp_path_factory.mktemp(name)
        model = BoxAnnotator(cfg, rng=np.random.default_rng(9))
        result = train(model, overfit_samples, tcfg, 5, out_dir=out)
        return out, result

    out_a, res_a = run("det_a")
    out_b, res_b = run("det_b")
    identical = (
        (out_a / "ckpt_final.bin").read_bytes() == (out_b / "ckpt_final.bin").read_bytes()
        and (out_a / "metrics.jsonl").read_bytes() == (out_b / "metrics.jsonl").read_bytes()
    )

    resumed_model = BoxAnnotator(cfg, rng=np.random.default_rng(77))
    res_resumed = train(resumed_model, overfit_samples, tcfg, 5,
                        out_dir=tmp_path_factory.mktemp("det_resume"),
                        resume_from=out_a / "ckpt_epoch0002.bin")
    final_a = [r for r in res_a.history if "total" in r][-1]["total"]
    final_r = [r for r in res_resumed.history if "total" in r][-1]["total"]
    resume_ok = abs(final_a - final_r) < 1e-12

    report(
        8,
        "identical runs produce bit-identical checkpoints and metrics; resume "
        "matches uninterrupted final loss to 1e-12",
        identical and resume_ok,
        f"resume delta {abs(final_a - final_r):.1e}",
    )


# ---------------------------------------------------------------------------
# 9. Attention export
# ---------------------------------------------------------------------------


def test_criterion_9_attention_export(tmp_path_factory):
    root = tmp_path_factory.mktemp("attn_ds")
    spec = SceneSpec(noise_sigma=0.02, points_base=900, range_min=6.0,
                     range_max=14.0, n_objects_min=2, n_objects_max=3)
    write_synthetic_dataset(root, spec, 2, np.random.default_rng(4), val_every=0)
    cfg = ModelConfig(d=32, n_points=512, n_local_layers=2, n_global_layers=1,
                      n_decoder_layers=1, heads=4, head_hidden=32)
    model = BoxAnnotator(cfg, rng=np.random.default_rng(0))
    samples, _ = filter_samples(build_dataset_samples(root, n_points=512, seed=0))
    assert len(samples) >= 2
    batch = np.stack([s.points for s in samples[:2]])
    weights = model.local_attention(batch, -1)
    export = export_attention(weights, 0, 10, top_k=500)

    rows_ok = len(export.indices) == 500
    ranked_ok = (np.diff(export.scores) <= 0).all()
    ref_sum_ok = abs(export.full_row.sum() - 1.0) < 1e-9
    token_sums_ok = np.abs(export.token_rows.sum(axis=1) - 1.0).max() < 1e-9
    full = export_attention(weights, 0, 10, top_k=cfg.n_points + 7)
    perm_ok = sorted(full.indices.tolist()) == list(range(cfg.n_points + 7))

    report(
        9,
        "attention rows softmax-normalized (sums 1 +- 1e-9); top-500 export on "
        "a synthetic frustum",
        rows_ok and ranked_ok and ref_sum_ok and token_sums_ok and perm_ok,
        f"row sum err {abs(export.full_row.sum() - 1.0):.1e}",
    )
