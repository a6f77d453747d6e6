"""Pseudo-label quality metrics and the architecture-toggle harness.

All metrics are pure functions of (predictions, ground truth): reordering
the inputs cannot change any number, and repeated evaluation is
bit-identical. The confidence that ranks predictions for average precision
is the direction classifier's max softmax probability, the one learned
confidence this annotator has (it emits exactly one box per given 2D box,
so there is no objectness score).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import direction_label, iou_3d

DEFAULT_IOU_THRESHOLD = 0.7


class EvalError(Exception):
    pass


class UnmatchedObject(EvalError):
    pass


class EmptySet(EvalError):
    pass


class FrameMismatch(EvalError):
    """Prediction and ground-truth directories disagree on frame ids."""


@dataclass(frozen=True)
class ObjectRecord:
    object_id: str
    iou: float
    direction_correct: bool
    score: float


@dataclass
class EvalReport:
    miou: float
    recall07: float
    ap11: float
    ap40: float
    per_object: list = field(default_factory=list)

    def to_dict(self):
        return {
            "miou": self.miou,
            "recall07": self.recall07,
            "ap11": self.ap11,
            "ap40": self.ap40,
            "per_object": [
                {
                    "id": r.object_id,
                    "iou": r.iou,
                    "direction_correct": bool(r.direction_correct),
                    "score": r.score,
                }
                for r in self.per_object
            ],
        }

    def format_row(self):
        return (
            f"mIoU {self.miou:7.4f}  recall@0.7 {self.recall07:7.4f}  "
            f"AP11 {self.ap11:7.4f}  AP40 {self.ap40:7.4f}  "
            f"n {len(self.per_object)}"
        )


def _pair(preds, gts):
    if set(preds) != set(gts):
        missing = sorted(set(gts) - set(preds))
        extra = sorted(set(preds) - set(gts))
        raise UnmatchedObject(f"missing predictions for {missing}; unmatched {extra}")
    return sorted(gts)


def _interpolated_ap(scored, recall_points):
    """Max-precision-at-or-above-recall interpolation over given recalls.

    scored: list of (score, is_match, tiebreak_id), one entry per
    prediction; every ground truth has exactly one prediction.
    """
    if not scored:
        raise EmptySet("average precision over an empty set")
    order = sorted(scored, key=lambda t: (-t[0], t[2]))
    n = len(order)
    tp = 0
    precisions = []
    recalls = []
    for rank, (_, is_match, _) in enumerate(order, start=1):
        tp += bool(is_match)
        precisions.append(tp / rank)
        recalls.append(tp / n)
    total = 0.0
    for r in recall_points:
        candidates = [p for p, rec in zip(precisions, recalls) if rec >= r - 1e-12]
        total += max(candidates) if candidates else 0.0
    return total / len(recall_points)


def compute_ap(scored, mode=11, threshold=None):
    """Interpolated average precision at 11 or 40 recall positions.

    scored entries are (score, iou, tiebreak_id); a prediction counts as a
    match when its IoU meets the threshold (inclusive).
    """
    thr = DEFAULT_IOU_THRESHOLD if threshold is None else threshold
    matches = [(s, iou >= thr, oid) for s, iou, oid in scored]
    if mode == 11:
        points = [k / 10.0 for k in range(11)]
    elif mode == 40:
        points = [k / 40.0 for k in range(1, 41)]
    else:
        raise ValueError(f"mode must be 11 or 40, got {mode}")
    return _interpolated_ap(matches, points)


def evaluate_boxes(preds, gts, threshold=DEFAULT_IOU_THRESHOLD):
    """Full report. preds: id -> (Box3D, score); gts: id -> Box3D."""
    ids = _pair(preds, gts)
    if not ids:
        raise EmptySet("no objects to evaluate")
    boxes = [preds[oid][0] for oid in ids]
    ious = iou_3d(boxes, [gts[oid] for oid in ids])
    records = [
        ObjectRecord(
            object_id=oid,
            iou=float(iou),
            direction_correct=direction_label(box.yaw) == direction_label(gts[oid].yaw),
            score=float(preds[oid][1]),
        )
        for oid, box, iou in zip(ids, boxes, ious)
    ]
    scored = [(r.score, r.iou, r.object_id) for r in records]
    return EvalReport(
        miou=float(np.mean([r.iou for r in records])),
        recall07=float(np.mean([r.iou >= threshold for r in records])),
        ap11=compute_ap(scored, 11, threshold),
        ap40=compute_ap(scored, 40, threshold),
        per_object=records,
    )


# ---------------------------------------------------------------------------
# Architecture-toggle harness
# ---------------------------------------------------------------------------

# The five studied configurations: a per-object encoder alone, plus the
# cross-object encoder, plus the decoder, and the two positional variants.
ABLATION_TOGGLES = {
    "A": dict(use_global=False, use_decoder=False, pos_mode="none"),
    "B": dict(use_global=True, use_decoder=False, pos_mode="none"),
    "C": dict(use_global=True, use_decoder=True, pos_mode="none"),
    "D": dict(use_global=True, use_decoder=True, pos_mode="sine"),
    "full": dict(use_global=True, use_decoder=True, pos_mode="mlp"),
}

_METRICS = ("miou", "recall07", "ap11", "ap40")


@dataclass
class AblationRow:
    name: str
    toggles: dict
    reports: list
    mean: dict
    spread: dict

    def format_row(self):
        cells = "  ".join(
            f"{m} {self.mean[m]:.4f}+-{self.spread[m]:.4f}" for m in _METRICS
        )
        return f"{self.name:>4}: {cells}"


def ablation_config(base_config, name):
    from .model import ModelConfig

    if name not in ABLATION_TOGGLES:
        raise ValueError(f"unknown ablation {name!r}; know {sorted(ABLATION_TOGGLES)}")
    cfg = base_config.to_dict()
    cfg.update(ABLATION_TOGGLES[name])
    return ModelConfig.from_dict(cfg)


def evaluate_model(model, samples, batch_size):
    """Predict every sample and score it against its own ground truth."""
    from .inference import object_key, predict_samples

    preds = {}
    gts = {}
    for p in predict_samples(model, samples, batch_size):
        key = object_key(p.sample.frame_id, p.sample.box2d)
        preds[key] = (p.box, p.score)
        gts[key] = _denormalized_gt(p.sample)
    return evaluate_boxes(preds, gts)


def _denormalized_gt(sample):
    if sample.gt_box is None:
        raise EvalError(f"sample {sample.object_id} has no ground truth")
    return sample.gt_box.translated(sample.centroid)


def run_ablation(train_samples, eval_samples, base_config, train_config, seeds,
                 variants=("A", "B", "C", "D", "full"), log=None):
    """Train each toggle configuration identically and report mean/spread.

    Every (variant, seed) run uses a fresh model initialized from that seed
    and the same training recipe; the spread is the population standard
    deviation across seeds.
    """
    from .model import BoxAnnotator
    from .train import train

    rows = []
    for name in variants:
        cfg = ablation_config(base_config, name)
        reports = []
        for seed in seeds:
            model = BoxAnnotator(cfg, rng=np.random.default_rng([seed, 271]))
            run_cfg = replace(train_config, seed=seed)
            train(model, train_samples, run_cfg, out_dir=None)
            report = evaluate_model(model, eval_samples, train_config.batch_size)
            reports.append(report)
            if log:
                log(f"[{name} seed {seed}] {report.format_row()}")
        mean = {m: float(np.mean([getattr(r, m) for r in reports])) for m in _METRICS}
        spread = {m: float(np.std([getattr(r, m) for r in reports])) for m in _METRICS}
        rows.append(AblationRow(name=name, toggles=dict(ABLATION_TOGGLES[name]),
                                reports=reports, mean=mean, spread=spread))
    return rows
