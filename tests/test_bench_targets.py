"""The benchmark's traced mode wraps package functions by owner and name,
and counts graph nodes by walking ``_parents`` from the forward's outputs.

A rename under `src/` that leaves one of those names unresolved would crash
`perfbench/run.py --trace 1`, and a change to the node contract that walk
relies on would skew its counts; these tests catch both in the suite.
"""

import importlib.util
from pathlib import Path

import numpy as np

from frustumbox.geometry import Box3D
from frustumbox.loss import total_loss
from frustumbox.model import BoxAnnotator, ModelConfig
from frustumbox.train import TrainConfig

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_resolves():
    targets = load_tracing()._targets()
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in targets
               if not hasattr(owner, attr)]
    assert not missing, f"traced names that no longer resolve: {missing}"


def test_graph_walk_counts_every_node_of_the_forward():
    model = BoxAnnotator(ModelConfig.desk(), rng=np.random.default_rng(0))
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(4, model.config.n_points, 3))
    gts = [Box3D(*rng.uniform(-0.5, 0.5, 3), 1.7, 4.0, 1.5, rng.uniform(-3, 3))
           for _ in range(4)]
    rec = load_tracing().Recorder()
    rec.start_run(0)
    out = model.forward(pts)
    rec.after_forward(out)
    rec.after_loss(total_loss(out.boxes, out.direction_logits, gts, TrainConfig().lambda_box))

    net, stack = {}, [out.boxes, out.direction_logits]
    while stack:
        node = stack.pop()
        if id(node) not in net:
            net[id(node)] = node
            stack.extend(node._parents)
    assert all(p is not None for n in net.values() for p in n._parents)
    ops = sum(n._grad_fn is not None for n in net.values())
    leaves = {i for i, n in net.items() if n._grad_fn is None}
    assert ops > 100 and leaves == {id(p) for p in model.params.values()}
    assert rec.counts[0]["tensor.graph_nodes_net"] == len(net)
