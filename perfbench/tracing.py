"""Traced runs: spans around the program's public functions, per-layer metrics.

Each wrapper replaces a function where its caller looks the name up (the
module global or class attribute the call site reads), records a span
(name, start, end, parent, run id) in memory, and counts work at the same
boundary. Nothing inside `src/` changes. Spans are written out once, at
the end of the benchmark run.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

# The forward stages; their spans must cover `model.forward` to within 5%.
FORWARD_STAGES = ("model.embed", "model.pos", "model.local", "model.global",
                  "model.decoder", "model.heads")
MIN_FORWARD_COVERAGE = 0.95

# Spans the benchmark itself adds (graph walks); their time is taken out of
# every enclosing span.
BENCH_PREFIX = "bench."


class Recorder:
    """Spans and counts of one benchmark run, grouped by run id."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1, run id]
        self.counts = defaultdict(lambda: defaultdict(int))  # run id -> name -> n
        self.run_id = None
        self._stack = []
        self._net_ids = set()  # tensors reachable from the latest forward's outputs

    def start_run(self, run_id):
        self.run_id = run_id

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.run_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index):
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, name, n=1):
        self.counts[self.run_id][name] += n

    # -- graph walks -----------------------------------------------------------
    def _reachable(self, roots):
        index = self.open(BENCH_PREFIX + "graph_walk")
        seen = set()
        stack = list(roots)
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.extend(node._parents)
        self.close(index)
        return seen

    def after_forward(self, out):
        self._net_ids = self._reachable([out.boxes, out.direction_logits])
        counts = self.counts[self.run_id]
        if not counts["model.forward_calls"]:
            counts["tensor.graph_nodes_net"] = len(self._net_ids)
        counts["model.forward_calls"] += 1

    def after_loss(self, breakdown):
        """Loss nodes: reachable from the loss but not from the network outputs."""
        loss_ids = self._reachable([breakdown.total])
        self.count("loss.calls")
        self.count("loss.graph_nodes", len(loss_ids - self._net_ids))
        self._net_ids = set()


def _wrap(rec, name, fn, after):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if after is not None:
            after(rec, args, result)
        return result

    return traced


def _targets():
    """(owner, attribute, span name, after-hook) for every wrapped call site."""
    import frustumbox.cli as cli
    import frustumbox.evaluate as evaluate
    import frustumbox.frustums as frustums
    import frustumbox.inference as inference
    import frustumbox.model as model
    import frustumbox.optim as optim
    import frustumbox.tensor as tensor
    import frustumbox.train as train

    def built(rec, args, sample):
        if sample is not None:
            rec.count("frustums.samples_built")

    def projected(rec, args, result):
        rec.count("geometry.extract_frustum_calls")
        rec.count("geometry.points_projected", len(args[0]))

    def saved(rec, args, path):
        rec.count("checkpoint.save_bytes", os.path.getsize(path))

    net = model.BoxAnnotator
    return [
        (net, "forward", "model.forward", lambda rec, args, out: rec.after_forward(out)),
        (net, "embed_points", "model.embed", None),
        (net, "positional_encode", "model.pos", None),
        (net, "forward_local", "model.local", None),
        (net, "forward_global", "model.global", None),
        (net, "forward_decoder", "model.decoder", None),
        (net, "regress_box", "model.heads", None),
        (net, "classify_direction", "model.heads", None),
        (tensor, "backward", "tensor.backward", None),
        (train, "total_loss", "loss.fwd", lambda rec, args, out: rec.after_loss(out)),
        (optim.Adam, "step", "optim.step", None),
        (train, "augment", "augment", None),
        (train, "train_step", "train.step", None),
        (cli, "train", "train.loop", None),
        (train, "train_set_miou", "train.final_miou", None),
        (model, "save_checkpoint", "checkpoint.save", saved),
        (cli, "load_checkpoint", "checkpoint.load", None),
        (cli, "load_frame", "kitti.load_frame", lambda rec, a, r: rec.count("kitti.load_frame_calls")),
        (frustums, "load_frame", "kitti.load_frame",
         lambda rec, a, r: rec.count("kitti.load_frame_calls")),
        (cli, "serialize_kitti_label", "kitti.export_labels", None),
        (inference, "serialize_kitti_label", "kitti.export_labels", None),
        (inference, "label_from_lidar_box", "kitti.export_labels", None),
        (cli, "build_frustum_sample", "frustums.build_sample", built),
        (frustums, "build_frustum_sample", "frustums.build_sample", built),
        (cli, "filter_samples", "frustums.filter",
         lambda rec, args, out: rec.count("frustums.kept", len(out[0]))),
        (frustums, "extract_frustum", "geometry.extract_frustum", projected),
        (cli, "predict_samples", "inference.predict",
         lambda rec, args, out: rec.count("frustums.kept", len(args[1]))),
        (train, "predict_samples", "inference.predict", None),
        (cli, "evaluate_boxes", "evaluate.boxes", None),
        (train, "evaluate_boxes", "evaluate.boxes", None),
        (evaluate, "iou_3d", "geometry.iou_3d", lambda rec, a, r: rec.count("geometry.iou_3d_calls")),
    ]


class Tracer:
    """Installs the wrappers for a block (`with`) and restores the originals."""

    def __init__(self, recorder):
        self.recorder = recorder
        self._saved = []

    def __enter__(self):
        for owner, attr, name, after in _targets():
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(self.recorder, name, original, after))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False


# Per-layer metric -> span name whose busy time (ms) it sums.
TIMED = {
    "model.embed_ms": "model.embed",
    "model.pos_ms": "model.pos",
    "model.local_ms": "model.local",
    "model.global_ms": "model.global",
    "model.decoder_ms": "model.decoder",
    "model.heads_ms": "model.heads",
    "model.forward_ms": "model.forward",
    "tensor.backward_ms": "tensor.backward",
    "loss.fwd_ms": "loss.fwd",
    "optim.step_ms": "optim.step",
    "augment.ms": "augment",
    "train.step_ms": "train.step",
    "train.final_miou_ms": "train.final_miou",
    "checkpoint.save_ms": "checkpoint.save",
    "checkpoint.load_ms": "checkpoint.load",
    "kitti.load_frame_ms": "kitti.load_frame",
    "kitti.export_labels_ms": "kitti.export_labels",
    "frustums.build_sample_ms": "frustums.build_sample",
    "geometry.extract_frustum_ms": "geometry.extract_frustum",
    "inference.predict_ms": "inference.predict",
    "evaluate.boxes_ms": "evaluate.boxes",
    "geometry.iou_3d_ms": "geometry.iou_3d",
}
# Exact counts, which must repeat from one traced round to the next.
COUNTED = ("model.forward_calls", "tensor.graph_nodes_net", "loss.calls", "loss.graph_nodes",
           "checkpoint.save_bytes", "kitti.load_frame_calls", "frustums.samples_built",
           "geometry.extract_frustum_calls", "geometry.points_projected",
           "geometry.iou_3d_calls", "frustums.kept")
# Loop time of `train` outside these spans is the data wait.
NOT_DATA_WAIT = ("train.step", "train.final_miou", "checkpoint.save")


def summarize(recorder):
    """Per run id: busy ms per span name, self ms per span name, counts.

    Busy time is a span's duration less the benchmark's own graph walks
    inside it; self time further subtracts its direct child spans.
    """
    spans = recorder.spans
    busy = [(end - start) / 1e6 for _, start, end, _, _ in spans]
    for i, (name, _, _, parent, _) in enumerate(spans):
        if name.startswith(BENCH_PREFIX):
            while parent >= 0:
                busy[parent] -= busy[i]
                parent = spans[parent][3]
    child_ms = [0.0] * len(spans)
    kept_ms = [0.0] * len(spans)
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0 and not name.startswith(BENCH_PREFIX):
            child_ms[parent] += busy[i]
            if name in NOT_DATA_WAIT:
                kept_ms[parent] += busy[i]
    runs = defaultdict(lambda: {"busy_ms": defaultdict(float), "self_ms": defaultdict(float),
                                "data_wait_ms": 0.0})
    for i, (name, _, _, _, run_id) in enumerate(spans):
        if name.startswith(BENCH_PREFIX):
            continue
        run = runs[run_id]
        run["busy_ms"][name] += busy[i]
        run["self_ms"][name] += busy[i] - child_ms[i]
        if name == "train.loop":
            run["data_wait_ms"] += busy[i] - kept_ms[i]
    for run_id, run in runs.items():
        run["counts"] = dict(recorder.counts[run_id])
    return dict(runs)


def per_layer_metrics(runs):
    """Mean over traced runs of each timed metric; counts taken as exact.

    Returns (metrics, problems): a count that differs between runs, or
    forward stages that miss `model.forward` by more than 5%, is a problem.
    """
    problems = []
    n = len(runs)
    values = list(runs.values())
    metrics = {}
    for metric, span in TIMED.items():
        metrics[metric] = (sum(r["busy_ms"].get(span, 0.0) for r in values) / n, "ms")
    metrics["train.data_wait_ms"] = (sum(r["data_wait_ms"] for r in values) / n, "ms")
    for name in COUNTED:
        seen = {r["counts"].get(name, 0) for r in values}
        if len(seen) != 1:
            problems.append(f"count {name} differs between traced rounds: {sorted(seen)}")
        metrics[name] = (max(seen), "count")
    # per training step, over every step of the run
    loss_calls = metrics.pop("loss.calls")[0]
    loss_nodes = metrics.pop("loss.graph_nodes")[0]
    metrics["tensor.graph_nodes_loss"] = (loss_nodes / loss_calls if loss_calls else 0.0,
                                          "count")
    built = metrics["frustums.samples_built"][0]
    kept = metrics.pop("frustums.kept")[0]
    metrics["frustums.kept_ratio"] = (kept / built if built else 0.0, "ratio")
    forward = sum(r["busy_ms"].get("model.forward", 0.0) for r in values)
    stages = sum(r["busy_ms"].get(s, 0.0) for r in values for s in FORWARD_STAGES)
    coverage = stages / forward if forward else 0.0
    metrics["trace.forward_coverage"] = (coverage, "ratio")
    if forward and coverage < MIN_FORWARD_COVERAGE:
        problems.append(f"forward stage spans cover {coverage:.1%} of model.forward")
    return metrics, problems


def self_time_table(runs):
    """Mean self ms per span name over the traced runs, largest first."""
    total = defaultdict(float)
    for run in runs.values():
        for name, ms in run["self_ms"].items():
            total[name] += ms / len(runs)
    return dict(sorted(total.items(), key=lambda kv: -kv[1]))


def write_trace(path, recorder, extra):
    """All spans, as [name, start_ns, end_ns, parent, run id], plus `extra`."""
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = dict(extra, span_fields=["name", "start_ns", "end_ns", "parent", "run_id"],
                   spans=recorder.spans)
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
