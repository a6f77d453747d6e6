"""The optimization loop: batching, augmentation, schedule, checkpoints.

Training is a pure function of (samples, config, seed): the shuffle and the
augmentation draws run off one seeded generator whose state is persisted in
every checkpoint beside the weights and the optimizer's step count and
moments, so a resumed run continues the exact stream an uninterrupted run
would have produced. Every hyperparameter of a run, resumed or not, comes
from its ``TrainConfig``, the one place training defaults live.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import tensor as T
from .augment import augment
from .checkpoint import load_checkpoint
from .errors import CheckpointError, ConfigError, DataError, NumericError
from .evaluate import (
    evaluate_boxes,  # noqa: F401 - looked up on this module by perfbench/tracing.py
    evaluate_model,
)
from .inference import predict_samples  # noqa: F401 - looked up on this module by perfbench/tracing.py
from .loss import LossBreakdown, total_loss
from .model import checkpoint_model_config
from .optim import Adam, cosine_lr


class NonFiniteLoss(NumericError):
    """A training step produced a non-finite objective."""


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 8
    epochs: int = 40
    lr_max: float = 1e-4
    lr_min: float = 0.0
    weight_decay: float = 0.05
    lambda_box: float = 5.0
    augment: bool = True
    shift_range: float = 0.25
    scale_low: float = 0.95
    scale_high: float = 1.05
    flip_prob: float = 0.5
    checkpoint_every: int = 0  # epochs between mid-run checkpoints; 0 = final only

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        if not 0.0 <= self.flip_prob <= 1.0:
            raise ConfigError("flip_prob must be a probability")
        if self.scale_low > self.scale_high:
            raise ConfigError("scale range is empty")
        if not self.scale_low > 0:
            raise ConfigError(f"scale_low must be > 0, got {self.scale_low}")
        for name in ("shift_range", "checkpoint_every"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass
class TrainResult:
    checkpoint_path: str | None
    metrics_path: str | None
    history: list
    final_train_miou: float


def train_step(model, points, gt_boxes, optimizer, lr, lambda_box,
               sample_ids=None):
    """One optimization step; gradients are cleared here before use.

    Returns the step's ``LossBreakdown`` as values: its tensors carry no
    graph, so the step's graph is freed when the step returns, whatever the
    caller keeps.
    """
    T.zero_grads(model.params.values())
    out = model.forward(points)
    breakdown = total_loss(out.boxes, out.direction_logits, gt_boxes, lambda_box)
    if not math.isfinite(breakdown.total.item()):
        ids = list(sample_ids) if sample_ids else []
        raise NonFiniteLoss(f"non-finite loss {breakdown.total.item()} on batch {ids}")
    T.backward(breakdown.total)
    optimizer.step(lr)
    return LossBreakdown(box_loss=breakdown.box_loss.detach(),
                         dir_loss=breakdown.dir_loss.detach(),
                         total=breakdown.total.detach(),
                         per_object_iou=breakdown.per_object_iou)


def _epoch_batches(n, batch_size, order, drop_last):
    batches = []
    for lo in range(0, n, batch_size):
        idx = order[lo : lo + batch_size]
        if drop_last and len(idx) < batch_size:
            break
        batches.append(idx)
    return batches


def train_set_miou(model, samples, batch_size):
    """Training-set mIoU as ``frustumbox eval`` computes it on the exported
    labels (see :func:`~frustumbox.evaluate.evaluate_model`)."""
    return evaluate_model(model, samples, batch_size).miou


def _save_train_checkpoint(model, optimizer, config, rng, epoch, step, path,
                           final_train_miou=None):
    state = optimizer.state_dict()
    extras = {
        "train": asdict(config),
        "epoch": int(epoch),
        "step": int(step),
        "rng_state": rng.bit_generator.state,
        "final_train_miou": final_train_miou,
        "optimizer": {"step_count": state["step_count"]},
    }
    extra_arrays = {f"opt.{moment}.{name}": arr
                    for moment in ("m", "v") for name, arr in state[moment].items()}
    model.save(path, extras=extras, extra_arrays=extra_arrays)
    return str(path)


def _restore(model, optimizer, rng, resume_from):
    """Load weights, optimizer step count and moments, and the generator
    state from a training checkpoint. Hyperparameters are not read back: the
    resumed run keeps its own config's (a stored model config must equal the
    run's)."""
    ckpt = load_checkpoint(resume_from)
    missing = [k for k in ("optimizer", "rng_state", "epoch", "step") if k not in ckpt.extras]
    if missing:
        raise CheckpointError(f"{resume_from}: no training state to resume, lacks {missing}")
    stored_model = checkpoint_model_config(ckpt)
    if stored_model != model.config:
        raise CheckpointError(
            f"resume model config {stored_model} differs from {model.config}"
        )
    model.load_state(ckpt.params)
    state = {"step_count": ckpt.extras["optimizer"]["step_count"]}
    for moment in ("m", "v"):
        prefix = f"opt.{moment}."
        state[moment] = {k[len(prefix):]: v for k, v in ckpt.extra_arrays.items()
                         if k.startswith(prefix)}
    optimizer.load_state_dict(state)
    rng.bit_generator.state = ckpt.extras["rng_state"]
    return int(ckpt.extras["epoch"]), int(ckpt.extras["step"])


def train(model, samples, config, seed, out_dir=None, resume_from=None):
    """Run the optimization; returns checkpoint path, metrics, and history.

    ``seed`` (the run's one seed, ``frustumbox train --seed``) starts the
    generator that shuffles and augments.

    Requires every sample to carry ground truth and the dataset to hold at
    least one full batch. When the cross-object encoder is on
    (``n_global_layers`` > 0), the batch size must be at least 2 and each
    epoch's trailing partial batch is dropped (peer attention wants a stable
    group size); otherwise partial batches train too. With ``resume_from``,
    the weights, the optimizer's step count and moments, and the generator
    state come from that checkpoint; every hyperparameter comes from
    ``config``.
    """
    n = len(samples)
    if n < config.batch_size:
        raise ConfigError(
            f"dataset holds {n} samples, smaller than one batch of {config.batch_size}"
        )
    drop_last = model.config.n_global_layers > 0
    if drop_last and config.batch_size < 2:
        raise ConfigError("batch_size must be >= 2 when the cross-object encoder is on")
    for s in samples:
        if s.gt_box is None:
            raise DataError(f"sample {s.object_id} has no ground truth")

    steps_per_epoch = n // config.batch_size if drop_last else math.ceil(n / config.batch_size)
    total_steps = config.epochs * steps_per_epoch
    lr_span = max(total_steps - 1, 1)

    optimizer = Adam(model.params, weight_decay=config.weight_decay)
    rng = np.random.default_rng(seed)
    start_epoch, step = 0, 0
    if resume_from is not None:
        start_epoch, step = _restore(model, optimizer, rng, resume_from)

    metrics_path = None
    metrics_fh = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        metrics_path = out_dir / "metrics.jsonl"
        metrics_fh = open(metrics_path, "w")

    history = []

    def emit(record):
        history.append(record)
        if metrics_fh:
            metrics_fh.write(json.dumps(record, sort_keys=True) + "\n")

    try:
        for epoch in range(start_epoch, config.epochs):
            order = rng.permutation(n)
            for idx in _epoch_batches(n, config.batch_size, order, drop_last):
                batch = [samples[i] for i in idx]
                if config.augment:
                    batch = [
                        augment(s, rng, config.shift_range, config.scale_low,
                                config.scale_high, config.flip_prob)
                        for s in batch
                    ]
                points = np.stack([s.points for s in batch])
                gts = [s.gt_box for s in batch]
                lr = cosine_lr(min(step, lr_span), lr_span, config.lr_max, config.lr_min)
                breakdown = train_step(
                    model, points, gts, optimizer, lr, config.lambda_box,
                    sample_ids=[s.object_id for s in batch],
                )
                emit(
                    {
                        "step": step,
                        "lr": lr,
                        "box_loss": breakdown.box_loss.item(),
                        "dir_loss": breakdown.dir_loss.item(),
                        "total": breakdown.total.item(),
                        "batch_miou": float(np.mean(breakdown.per_object_iou)),
                    }
                )
                step += 1
            done = epoch + 1
            if (
                out_dir is not None
                and config.checkpoint_every
                and done % config.checkpoint_every == 0
                and done < config.epochs
            ):
                _save_train_checkpoint(
                    model, optimizer, config, rng, done, step,
                    out_dir / f"ckpt_epoch{done:04d}.bin",
                )

        final_miou = train_set_miou(model, samples, config.batch_size)
        emit({"final_train_miou": final_miou, "n_train": n, "total_steps": total_steps})
    finally:
        if metrics_fh:
            metrics_fh.close()

    checkpoint_path = None
    if out_dir is not None:
        checkpoint_path = _save_train_checkpoint(
            model, optimizer, config, rng, config.epochs, step,
            out_dir / "ckpt_final.bin", final_train_miou=final_miou,
        )
    return TrainResult(
        checkpoint_path=checkpoint_path,
        metrics_path=str(metrics_path) if metrics_path else None,
        history=history,
        final_train_miou=final_miou,
    )
