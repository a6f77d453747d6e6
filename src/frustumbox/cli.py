"""Command-line entry points wiring the pipeline end to end.

One executable, seven subcommands:

    synth      generate a synthetic dataset in the standard layout
    train      fit the annotator on a dataset split
    annotate   write pseudo-label files for a dataset with a checkpoint
    eval       score a prediction directory against a ground-truth directory
    gradcheck  finite-difference check of the full model's backward pass
    attn       dump one object's ranked attention rows for plotting
    ablate     train and score the architecture-toggle variants

Every command resolves its configuration (file, then key=value overrides,
then --seed) and validates it before touching the filesystem. All
randomness flows from the single seed. Failures exit non-zero with a
machine-parseable ``error category=<cat>:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint
from .config import load_run_config, resolved_text
from .errors import CATEGORIES, ConfigError, DataError
from .evaluate import ablation_config, evaluate_boxes, object_table, run_ablation
from .frustums import (
    build_dataset_samples,
    build_frustum_sample,  # noqa: F401 - looked up on this module by perfbench/tracing.py
    filter_samples,
    frame_samples,
)
from .gradcheck import model_gradient_check
from .geometry import Box3D
from .inference import forward_chunks, object_key, predict_samples, prediction_record
from .kitti import (
    load_frame,  # noqa: F401 - looked up on this module by perfbench/tracing.py
    manifest_frames,
    parse_kitti_calib,
    parse_kitti_label,
    scored_box_from_label,
    serialize_kitti_label,
)
from .model import N_BOX_TOKENS, BoxAnnotator, export_attention, ranked
from .synthetic import write_synthetic_dataset
from .train import train


def _classify(err):
    """(category, exit code) of a failure: its class's in ``errors.py``,
    io (7) for an OSError, else internal (1)."""
    if isinstance(err, CATEGORIES):
        return err.category, err.code
    if isinstance(err, OSError):
        return "io", 7
    return "internal", 1


def _resolve_config(args):
    overrides = list(getattr(args, "overrides", []) or [])
    if getattr(args, "seed", None) is not None:
        overrides.append(f"seed={args.seed}")
    return load_run_config(getattr(args, "config", None), overrides)


def _log_config(cfg, out_dir=None):
    text = resolved_text(cfg)
    print("resolved configuration:")
    print(text, end="")
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "resolved_config.txt").write_text(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args):
    cfg = _resolve_config(args)
    out = Path(args.out)
    _log_config(cfg, out)
    splits = write_synthetic_dataset(
        out, cfg.scene, cfg.n_scenes, np.random.default_rng(cfg.seed),
        val_every=cfg.val_every,
    )
    if cfg.n_scenes == 0:
        print("warning: n_scenes=0, wrote an empty manifest")
        return 0
    n_val = sum(1 for s in splits.values() if s == "val")
    print(f"wrote {len(splits)} frames ({n_val} val) to {out}")
    return 0


def cmd_train(args):
    cfg = _resolve_config(args)
    if args.ablation:
        cfg = replace(cfg, model=ablation_config(cfg.model, args.ablation))
    out = Path(args.out)
    samples = build_dataset_samples(args.dataset, cfg.model.n_points, cfg.seed,
                                    split=args.split)
    kept, rejections = filter_samples(samples)
    for frame, obj, reason in rejections:
        print(f"filtered out {obj}: {reason}")
    if len(kept) < cfg.train.batch_size:
        raise ConfigError(
            f"filtered dataset holds {len(kept)} samples, smaller than one "
            f"batch of {cfg.train.batch_size}"
        )
    _log_config(cfg, out)
    model = BoxAnnotator(cfg.model, rng=np.random.default_rng([cfg.seed, 271]))
    result = train(model, kept, cfg.train, cfg.seed, out_dir=out, resume_from=args.resume)
    print(f"final train mIoU {result.final_train_miou:.6f}")
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"metrics:    {result.metrics_path}")
    return 0


def cmd_annotate(args):
    """Label every manifest frame with the checkpoint's model.

    This thread and one more, pinned to disjoint CPUs, share the work
    through ``inference.forward_chunks``: each takes the next chunk of
    `train.batch_size` samples under one lock, preparing frames for it
    there (load, project, cut, resample on the frame's own (seed, frame)
    stream) one at a time and in manifest order, and forwards the chunk
    outside the lock. The chunks are those of a serial run, in list order
    across frames with the final partial chunk last, and the label rows
    are kept in chunk order, so the labels equal a serial run's byte for
    byte.
    """
    cfg = _resolve_config(args)
    ckpt = load_checkpoint(args.checkpoint)
    model = BoxAnnotator.from_checkpoint(ckpt)
    frames = manifest_frames(args.dataset, split=args.split)
    out = Path(args.out)
    _log_config(cfg, out)
    label_dir = out / "label_2"
    label_dir.mkdir(parents=True, exist_ok=True)
    batch_size = cfg.train.batch_size
    frame_rows = {f: [] for f in frames}

    def chunks():
        pending = []
        for frame in frames:
            try:
                samples, empty = frame_samples(args.dataset, frame, model.config.n_points,
                                               cfg.seed, require_gt=False)
            except FileNotFoundError as err:
                print(f"skipping frame {frame}: {err}")
                frame_rows.pop(frame)
                continue
            for object_id in empty:
                print(f"skipping object {object_id}: empty frustum")
            pending.extend(samples)
            while len(pending) >= batch_size:
                yield pending[:batch_size]
                del pending[:batch_size]
        if pending:
            yield pending

    def label(chunk):
        return [(p.sample.frame_id, prediction_record(p))
                for p in predict_samples(model, chunk, batch_size)]

    start = time.perf_counter()
    for rows in forward_chunks(chunks(), label):
        for frame, row in rows:
            frame_rows[frame].append(row)
    elapsed = time.perf_counter() - start
    n_objects = sum(map(len, frame_rows.values()))
    per_object_ms = 1000.0 * elapsed / max(n_objects, 1)
    print(f"annotated {n_objects} objects in {elapsed:.3f}s "
          f"({per_object_ms:.1f} ms per object)")

    for frame, rows in frame_rows.items():
        (label_dir / f"{frame}.txt").write_text(serialize_kitti_label(rows))
    print(f"wrote {len(frame_rows)} label files to {label_dir}")
    return 0


def _label_frames(root):
    label_dir = Path(root) / "label_2"
    if not label_dir.is_dir():
        raise DataError(f"{root} has no label_2 directory")
    return sorted(p.stem for p in label_dir.glob("*.txt"))


def _boxes_from_labels(root, frame, calib):
    """{object key: (sensor-frame box, score)} of a label file's care rows
    with 3D extents."""
    rows = parse_kitti_label((Path(root) / "label_2" / f"{frame}.txt").read_text())
    return object_table(
        ((object_key(frame, rec.box2d), scored_box_from_label(rec, calib))
         for rec in rows if rec.is_care and rec.has_box3d),
        root,
    )


def cmd_eval(args):
    if args.out and Path(args.out).suffix == ".txt":
        raise ConfigError(f"--out {args.out}: the JSON report and the one-line row written "
                          "beside it as <out>.txt would be the same file; name the report .json")
    pred_frames = _label_frames(args.pred)
    gt_frames = _label_frames(args.gt)
    if pred_frames != gt_frames:
        missing = sorted(set(gt_frames) ^ set(pred_frames))
        raise DataError(f"frame ids disagree; unmatched: {missing}")
    preds = {}
    gts = {}
    for frame in gt_frames:
        calib = parse_kitti_calib(
            (Path(args.gt) / "calib" / f"{frame}.txt").read_text()
        )
        preds.update(_boxes_from_labels(args.pred, frame, calib))
        gts.update((key, box) for key, (box, _)
                   in _boxes_from_labels(args.gt, frame, calib).items())
    report = evaluate_boxes(preds, gts)
    print(report.format_row())
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report.to_dict(), sort_keys=True, indent=1) + "\n")
        out.with_suffix(".txt").write_text(report.format_row() + "\n")
        print(f"report: {out}")
    return 0


def cmd_gradcheck(args):
    cfg = _resolve_config(args)
    if args.batch < 1 or args.probes < 1 or not args.step > 0:
        raise ConfigError(f"gradcheck needs --batch >= 1, --probes >= 1 and --step > 0, got "
                          f"{args.batch}, {args.probes} and {args.step}")
    model = BoxAnnotator(cfg.model, rng=np.random.default_rng([cfg.seed, 271]))
    rng = np.random.default_rng([cfg.seed, 997])
    b = args.batch
    points = rng.normal(size=(b, cfg.model.n_points, 3))
    gts = [
        Box3D(*rng.uniform(-0.5, 0.5, 3), rng.uniform(1.5, 1.9),
              rng.uniform(3.2, 4.8), rng.uniform(1.3, 1.8),
              rng.uniform(-np.pi, np.pi))
        for _ in range(b)
    ]
    report = model_gradient_check(
        model, points, gts, cfg.train.lambda_box, probes=args.probes, step=args.step,
        seed=cfg.seed,
    )
    for line in report.format_lines():
        print(line)
    return 0 if report.passed else 1


def cmd_attn(args):
    cfg = _resolve_config(args)
    model = BoxAnnotator.from_checkpoint(load_checkpoint(args.checkpoint))
    samples, _ = frame_samples(args.dataset, args.frame, model.config.n_points,
                               cfg.seed, require_gt=False)
    if not samples:
        raise DataError(f"frame {args.frame} has no annotatable objects")
    if not 0 <= args.object < len(samples):
        raise DataError(
            f"object {args.object} outside 0..{len(samples) - 1} for frame {args.frame}"
        )
    # an object's maps depend on its own points alone: recompute its maps only
    sample = samples[args.object]
    weights = model.local_attention(sample.points[None], args.layer)
    top_k = model.config.n_points + N_BOX_TOKENS if args.top_k is None else args.top_k
    export = export_attention(weights, 0, args.point, top_k)
    original = sample.points + sample.centroid

    def row_entry(rank, seq_index, score):
        seq_index = int(seq_index)
        if seq_index < N_BOX_TOKENS:
            return {"rank": rank, "seq_index": seq_index, "kind": "token",
                    "token_index": seq_index, "coordinate": None,
                    "score": float(score)}
        pi = seq_index - N_BOX_TOKENS
        return {"rank": rank, "seq_index": seq_index, "kind": "point",
                "point_index": pi, "coordinate": [float(v) for v in original[pi]],
                "score": float(score)}

    token_rows = [
        {
            "token_index": t,
            "row_sum": float(row.sum()),
            "top": [row_entry(r, idx, row[idx]) for r, idx in enumerate(ranked(row, top_k))],
        }
        for t, row in enumerate(export.token_rows)
    ]
    payload = {
        "frame": args.frame,
        "object_index": args.object,
        "object_id": sample.object_id,
        "reference_point_index": args.point,
        "layer": args.layer,
        "top_k": top_k,
        "reference_row_sum": float(export.full_row.sum()),
        "rows": [row_entry(r, idx, score)
                 for r, (idx, score) in enumerate(zip(export.indices, export.scores))],
        "box_token_rows": token_rows,
    }
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    print(f"wrote {len(payload['rows'])} ranked rows to {out_path}")
    return 0


def cmd_ablate(args):
    cfg = _resolve_config(args)
    seeds = [tok.strip() for tok in args.seeds.split(",") if tok.strip() != ""]
    if not seeds or not all(tok.isascii() and tok.isdigit() for tok in seeds):
        raise ConfigError(f"--seeds takes one or more non-negative integers, got {args.seeds!r}")
    seeds = [int(tok) for tok in seeds]
    train_samples, _ = filter_samples(
        build_dataset_samples(args.dataset, cfg.model.n_points, cfg.seed,
                              split=args.train_split)
    )
    eval_samples, _ = filter_samples(
        build_dataset_samples(args.dataset, cfg.model.n_points, cfg.seed,
                              split=args.eval_split)
    )
    if len(train_samples) < cfg.train.batch_size:
        raise ConfigError("filtered train split smaller than one batch")
    if not eval_samples:
        raise ConfigError("eval split is empty after filtering")
    out = Path(args.out)
    _log_config(cfg, out)
    rows = run_ablation(train_samples, eval_samples, cfg.model, cfg.train, seeds,
                        log=print)
    table_lines = [row.format_row() for row in rows]
    print("\n".join(table_lines))
    (out / "ablation.txt").write_text("\n".join(table_lines) + "\n")
    (out / "ablation.json").write_text(
        json.dumps(
            {
                row.name: {
                    "toggles": row.toggles,
                    "mean": row.mean,
                    "spread": row.spread,
                    "per_seed": [r.to_dict() for r in row.reports],
                }
                for row in rows
            },
            sort_keys=True,
            indent=1,
        )
        + "\n"
    )
    print(f"ablation results in {out}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="frustumbox",
        description="3D box auto-annotation from 2D boxes and LiDAR frustums",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("overrides", nargs="*", metavar="key=value",
                       help="configuration overrides")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the annotator")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", default="train")
    p.add_argument("--ablation", choices=["A", "B", "C", "D", "full"])
    p.add_argument("--resume", help="checkpoint to continue from")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("annotate", help="write pseudo-labels with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", default=None)
    common(p)
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", help="report file (JSON; .txt twin written too)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference backward check")
    p.add_argument("--batch", type=int, default=4)
    p.add_argument("--probes", type=int, default=2)
    p.add_argument("--step", type=float, default=1e-4)
    common(p)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("attn", help="dump ranked attention rows")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--frame", required=True)
    p.add_argument("--object", type=int, required=True)
    p.add_argument("--point", type=int, required=True)
    p.add_argument("--top-k", type=int, dest="top_k",
                   help="rows to export (default: the whole sequence, n_points + 7)")
    p.add_argument("--layer", type=int, default=-1)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_attn)

    p = sub.add_parser("ablate", help="train and score the toggle variants")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", default="0,1,2")
    p.add_argument("--train-split", default="train", dest="train_split")
    p.add_argument("--eval-split", default="val", dest="eval_split")
    common(p)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as err:  # noqa: BLE001 - single reporting point
        category, code = _classify(err)
        print(f"error category={category}: {err}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
