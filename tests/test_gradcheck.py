import numpy as np
import pytest

from frustumbox import tensor as T
from frustumbox.geometry import Box3D
from frustumbox.gradcheck import model_gradient_check
from frustumbox.model import BoxAnnotator, ModelConfig
from frustumbox.train import TrainConfig

LAMBDA_BOX = TrainConfig().lambda_box


def tiny_model(**stages):
    cfg = dict(d=16, n_points=12, n_local_layers=1, n_global_layers=1,
               n_decoder_layers=1, heads=2, head_hidden=16)
    cfg.update(stages)
    return BoxAnnotator(ModelConfig(**cfg), rng=np.random.default_rng(0))


def tiny_batch(seed=1, b=3, n=12):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(b, n, 3))
    gts = [
        Box3D(*rng.uniform(-0.5, 0.5, 3), 1.6, 3.8, 1.5, rng.uniform(-3, 3))
        for _ in range(b)
    ]
    return pts, gts


class TestModelGradientCheck:
    def test_tiny_model_passes(self):
        model = tiny_model()
        pts, gts = tiny_batch()
        report = model_gradient_check(model, pts, gts, LAMBDA_BOX, probes=2, seed=0)
        assert report.passed, report.format_lines()[-1]
        assert report.worst < 1e-3

    @pytest.mark.parametrize("n_global_layers", [0, 1], ids=["A", "B"])
    def test_decoderless_model_passes(self, n_global_layers):
        # the last local layer computes only the box-token rows from the
        # keys and values of every row, a full-row layer feeding it
        model = tiny_model(n_local_layers=2, n_global_layers=n_global_layers,
                           n_decoder_layers=0)
        pts, gts = tiny_batch()
        report = model_gradient_check(model, pts, gts, LAMBDA_BOX, probes=2, seed=0)
        assert report.passed, report.format_lines()[-1]
        assert report.worst < 1e-3

    def test_reports_every_parameter(self):
        model = tiny_model()
        pts, gts = tiny_batch()
        report = model_gradient_check(model, pts, gts, LAMBDA_BOX, probes=1, seed=0)
        assert {r.name for r in report.rows} == set(model.params)

    def test_corrupted_backward_fails(self, monkeypatch):
        model = tiny_model()
        pts, gts = tiny_batch()

        def bad_relu(a):
            a = T.as_tensor(a)
            (na,) = T._graph_nodes(a)
            mask = a.data > 0

            def grad_fn(g):
                return [(na, g * mask * 1.25)]

            return T._record(a.data * mask, grad_fn, na)

        monkeypatch.setattr(T, "relu", bad_relu)
        report = model_gradient_check(model, pts, gts, LAMBDA_BOX, probes=1, seed=0)
        assert not report.passed
        assert report.worst > 1e-2

    def test_deterministic(self):
        model = tiny_model()
        pts, gts = tiny_batch()
        a = model_gradient_check(model, pts, gts, LAMBDA_BOX, probes=2, seed=3)
        b = model_gradient_check(model, pts, gts, LAMBDA_BOX, probes=2, seed=3)
        assert [(r.name, r.rel_error) for r in a.rows] == [
            (r.name, r.rel_error) for r in b.rows
        ]

    def test_leaves_parameters_untouched(self):
        model = tiny_model()
        before = {k: v.data.copy() for k, v in model.params.items()}
        pts, gts = tiny_batch()
        model_gradient_check(model, pts, gts, LAMBDA_BOX, probes=1, seed=0)
        for k, v in model.params.items():
            np.testing.assert_array_equal(v.data, before[k])
            assert v.grad is None  # cleared on exit

    def test_format_lines_mention_worst(self):
        model = tiny_model()
        pts, gts = tiny_batch()
        report = model_gradient_check(model, pts, gts, LAMBDA_BOX, probes=1, seed=0)
        assert "worst relative error" in report.format_lines()[-1]
