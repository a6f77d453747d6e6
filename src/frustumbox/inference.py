"""Batched prediction and the export path.

The annotator's output boxes live in label files at two-decimal precision.
:func:`prediction_record` is the row a prediction exports as, and
:func:`quantize_prediction` is that row serialized, parsed and read back
the way ``eval`` reads it, so ``evaluate.evaluate_model`` scores exactly
what ``frustumbox eval`` scores on the files ``annotate`` writes. The
head bounds every extent to at least e^-2 m (``model.LOG_EXTENT_CAP``),
far above the 0.01 m the format resolves, so every prediction exports as
is.

Batch composition matters when the cross-object encoder is on, so inference
batching is pinned: samples are processed in their given order in chunks of
``batch_size`` with the final partial chunk kept. ``annotate`` calls
:func:`predict_samples` on whole-chunk prefixes of its sample list as frames
are prepared, and on the remainder last, so its chunks are still those of
one call over the whole list, in list order. The forward runs under
``tensor.no_grad``: inference builds no autodiff graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import NumericError
from .kitti import (
    label_from_lidar_box,
    parse_kitti_label,
    scored_box_from_label,
    serialize_kitti_label,
)
from .model import decode_prediction, direction_score


@dataclass
class Prediction:
    sample: object
    box: object  # Box3D in the original sensor frame
    score: float


def predict_samples(model, samples, batch_size):
    """Forward every sample once, building no graph; deterministic chunking
    in list order. Raises NumericError naming the first object whose box
    row or direction logits are not finite."""
    out = []
    for lo in range(0, len(samples), batch_size):
        chunk = samples[lo : lo + batch_size]
        points = np.stack([s.points for s in chunk])
        with T.no_grad():
            fwd = model.forward(points)
        rows, logits = fwd.boxes.data, fwd.direction_logits.data
        finite = np.isfinite(rows).all(axis=1) & np.isfinite(logits).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))  # the first object with a non-finite output
            raise NumericError(f"non-finite prediction for object {chunk[i].object_id}: "
                               f"box {rows[i].tolist()}, direction logits {logits[i].tolist()}")
        for s, row, logit in zip(chunk, rows, logits):
            box = decode_prediction(row, logit, centroid=s.centroid)
            out.append(Prediction(sample=s, box=box, score=direction_score(logit)))
    return out


def prediction_record(pred):
    """The label record a prediction exports as (pre-quantization)."""
    s = pred.sample
    return label_from_lidar_box(s.cls, pred.box, s.box2d, s.calib, score=pred.score)


def quantize_prediction(pred):
    """A prediction as eval reads its exported label row: (sensor-frame
    box, score) after serializing, parsing and reading the row back."""
    (row,) = parse_kitti_label(serialize_kitti_label([prediction_record(pred)]))
    return scored_box_from_label(row, pred.sample.calib)


def object_key(frame_id, box2d):
    """Stable cross-file object identity: the frame plus its 2D box at the
    serialized precision."""
    return (
        f"{frame_id}:{box2d.u_min:.2f},{box2d.v_min:.2f},"
        f"{box2d.u_max:.2f},{box2d.v_max:.2f}"
    )
