"""Batched prediction runs forward-only: same numbers, no graph."""

import os
import threading
from types import SimpleNamespace

import numpy as np

from frustumbox.inference import predict_samples
from frustumbox.model import BoxAnnotator, ModelConfig, decode_prediction, direction_score


def _model_and_samples(n=7, n_points=16):
    config = ModelConfig(d=16, n_points=n_points, n_local_layers=1, n_global_layers=1,
                         n_decoder_layers=1, heads=2, head_hidden=8)
    model = BoxAnnotator(config, rng=np.random.default_rng(5))
    rng = np.random.default_rng(6)
    samples = [SimpleNamespace(points=rng.normal(size=(n_points, 3)),
                               centroid=rng.normal(size=3)) for _ in range(n)]
    return model, samples


def test_matches_graph_building_forward_bytewise():
    model, samples = _model_and_samples()
    preds = predict_samples(model, samples, batch_size=3)
    assert [p.sample for p in preds] == samples
    for lo in range(0, len(samples), 3):
        chunk = samples[lo : lo + 3]
        fwd = model.forward(np.stack([s.points for s in chunk]))
        assert fwd.boxes.requires_grad  # the reference does build the graph
        for i, (s, p) in enumerate(zip(chunk, preds[lo : lo + 3])):
            row, logits = fwd.boxes.data[i], fwd.direction_logits.data[i]
            assert p.box == decode_prediction(row, logits, centroid=s.centroid)
            assert p.score == direction_score(logits)


def test_builds_no_graph_and_leaves_gradients_alone():
    model, samples = _model_and_samples()
    seen = []
    forward = model.forward

    def recording_forward(points, **kw):
        out = forward(points, **kw)
        seen.append(out)
        return out

    model.forward = recording_forward
    marker = {name: np.full(p.data.shape, 3.0) for name, p in model.params.items()}
    for name, p in model.params.items():
        p.grad = marker[name]
    predict_samples(model, samples, batch_size=4)
    assert len(seen) == 2
    for out in seen:
        for t in (out.boxes, out.direction_logits):
            assert not t.requires_grad and t._parents == ()
    for name, p in model.params.items():
        assert p.grad is marker[name] and (p.grad == 3.0).all()
    # the flag is back on after inference
    assert model.forward(samples[0].points[None]).boxes.requires_grad


def test_one_cpu_forwards_every_chunk_here_with_the_same_bytes(monkeypatch):
    model, samples = _model_and_samples()
    both = predict_samples(model, samples, batch_size=2)
    threads = set()
    forward = model.forward

    def recording_forward(points, **kw):
        threads.add(threading.current_thread())
        return forward(points, **kw)

    model.forward = recording_forward
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    alone = predict_samples(model, samples, batch_size=2)
    assert threads == {threading.current_thread()}
    assert [(p.sample, p.box, p.score) for p in alone] == \
        [(p.sample, p.box, p.score) for p in both]
