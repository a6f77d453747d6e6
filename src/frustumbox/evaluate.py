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

from .errors import ConfigError, DataError
from .geometry import direction_label, iou_3d
from .inference import object_key, predict_samples, quantize_prediction
from .model import BoxAnnotator

DEFAULT_IOU_THRESHOLD = 0.7


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


def object_table(entries, source):
    """{object key: value} of (key, value) entries, in entry order; two
    entries with one key are a data error."""
    table = {}
    for key, value in entries:
        if key in table:
            raise DataError(f"{source}: two objects share the object key {key}")
        table[key] = value
    return table


def _pair(preds, gts):
    if set(preds) != set(gts):
        missing = sorted(set(gts) - set(preds))
        extra = sorted(set(preds) - set(gts))
        raise DataError(f"missing predictions for {missing}; unmatched {extra}")
    return sorted(gts)


def _interpolated_ap(scored, recall_points):
    """Max-precision-at-or-above-recall interpolation over given recalls.

    scored: list of (score, is_match, tiebreak_id), one entry per
    prediction; every ground truth has exactly one prediction.
    """
    if not scored:
        raise DataError("average precision over an empty set")
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


def compute_ap(scored, mode, threshold=DEFAULT_IOU_THRESHOLD):
    """Interpolated average precision at 11 or 40 recall positions.

    scored entries are (score, iou, tiebreak_id); a prediction counts as a
    match when its IoU meets the threshold (inclusive).
    """
    matches = [(s, iou >= threshold, oid) for s, iou, oid in scored]
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
        raise DataError("no objects to evaluate")
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
# A variant sets the layer count of each stage it drops to 0 and keeps the
# base configuration's count for the others.
ABLATION_TOGGLES = {
    "A": dict(n_global_layers=0, n_decoder_layers=0, pos_mode="none"),
    "B": dict(n_decoder_layers=0, pos_mode="none"),
    "C": dict(pos_mode="none"),
    "D": dict(pos_mode="sine"),
    "full": dict(pos_mode="mlp"),
}
_STAGE_COUNTS = ("n_global_layers", "n_decoder_layers")

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
    """The base configuration with variant ``name``'s toggles applied.

    Raises ConfigError when the variant keeps a stage that the base
    configuration has 0 layers of, since that variant would silently be
    another one."""
    if name not in ABLATION_TOGGLES:
        raise ConfigError(f"unknown ablation {name!r}; know {sorted(ABLATION_TOGGLES)}")
    toggles = ABLATION_TOGGLES[name]
    for count in _STAGE_COUNTS:
        if count not in toggles and getattr(base_config, count) == 0:
            raise ConfigError(f"ablation {name} keeps a stage the base config has "
                              f"{count}=0 of")
    return replace(base_config, **toggles)


def evaluate_model(model, samples, batch_size):
    """Predict every sample and score it as ``frustumbox eval`` scores the
    exported labels: each prediction is its label row read back, each
    ground truth the label's own sensor-frame box (``sensor_gt_box``), both
    keyed by :func:`~frustumbox.inference.object_key`."""
    for s in samples:
        if s.sensor_gt_box is None:
            raise DataError(f"sample {s.object_id} has no ground truth")
    gts = object_table(((object_key(s.frame_id, s.box2d), s.sensor_gt_box) for s in samples),
                       "samples")
    preds = predict_samples(model, samples, batch_size)
    return evaluate_boxes({key: quantize_prediction(p) for key, p in zip(gts, preds)}, gts)


def run_ablation(train_samples, eval_samples, base_config, train_config, seeds,
                 variants=tuple(ABLATION_TOGGLES), log=None):
    """Train each toggle configuration identically and report mean/spread.

    Every (variant, seed) run uses a fresh model initialized from that seed
    and the same training recipe; the spread is the population standard
    deviation across seeds.
    """
    from .train import train  # noqa: PLC0415 - train imports this module

    configs = {name: ablation_config(base_config, name) for name in variants}
    rows = []
    for name, cfg in configs.items():
        reports = []
        for seed in seeds:
            model = BoxAnnotator(cfg, rng=np.random.default_rng([seed, 271]))
            train(model, train_samples, train_config, seed)
            report = evaluate_model(model, eval_samples, train_config.batch_size)
            reports.append(report)
            if log:
                log(f"[{name} seed {seed}] {report.format_row()}")
        mean = {m: float(np.mean([getattr(r, m) for r in reports])) for m in _METRICS}
        spread = {m: float(np.std([getattr(r, m) for r in reports])) for m in _METRICS}
        toggles = {key: getattr(cfg, key) for key in _STAGE_COUNTS + ("pos_mode",)}
        rows.append(AblationRow(name=name, toggles=toggles,
                                reports=reports, mean=mean, spread=spread))
    return rows
