import gc
import json
import math
import tracemalloc
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest

from frustumbox import tensor as T
from frustumbox.errors import ConfigError, DataError
from frustumbox.evaluate import evaluate_model
from frustumbox.frustums import build_dataset_samples, filter_samples
from frustumbox.geometry import Box3D
from frustumbox.model import BoxAnnotator, ModelConfig
from frustumbox.optim import Adam
from frustumbox.synthetic import SceneSpec, write_synthetic_dataset
from frustumbox.train import (
    NonFiniteLoss,
    TrainConfig,
    TrainResult,
    train,
    train_set_miou,
    train_step,
)


def tiny_model(seed=0, **kw):
    base = dict(d=16, n_points=16, n_local_layers=1, n_global_layers=1,
                n_decoder_layers=1, heads=2, head_hidden=16)
    cfg = ModelConfig(**dict(base, **kw))
    return BoxAnnotator(cfg, rng=np.random.default_rng(seed))


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    spec = SceneSpec(noise_sigma=0.02, n_objects_min=3, n_objects_max=5)
    write_synthetic_dataset(root, spec, 6, np.random.default_rng(0), val_every=0)
    samples = build_dataset_samples(root, n_points=16, seed=0)
    kept, _ = filter_samples(samples)
    assert len(kept) >= 8
    return kept


class TestTrainStep:
    def test_loss_decreases_over_fixed_batch(self, tiny_dataset):
        model = tiny_model()
        opt = Adam(model.params, weight_decay=0.0)
        batch = tiny_dataset[:4]
        points = np.stack([s.points for s in batch])
        gts = [s.gt_box for s in batch]
        lam = TrainConfig().lambda_box
        first = train_step(model, points, gts, opt, 1e-3, lam).total.item()
        for _ in range(48):
            train_step(model, points, gts, opt, 1e-3, lam)
        last = train_step(model, points, gts, opt, 1e-3, lam).total.item()
        assert last < first

    def test_identical_samples_identical_predictions(self, tiny_dataset):
        model = tiny_model()
        s = tiny_dataset[0]
        points = np.stack([s.points] * 4)
        out = model.forward(points)
        for b in range(1, 4):
            np.testing.assert_array_equal(out.boxes.data[b], out.boxes.data[0])

    def test_nonfinite_loss_reports_ids(self, tiny_dataset):
        model = tiny_model()
        model.params["head.loc.l2.b"].data[:] = np.nan  # poisons the forward
        opt = Adam(model.params, weight_decay=TrainConfig().weight_decay)
        batch = tiny_dataset[:2]
        points = np.stack([s.points for s in batch])
        gts = [s.gt_box for s in batch]
        with np.errstate(invalid="ignore"):
            with pytest.raises(NonFiniteLoss, match="non-finite loss nan on batch") as ei:
                train_step(model, points, gts, opt, 1e-4, TrainConfig().lambda_box,
                           sample_ids=[s.object_id for s in batch])
        assert batch[0].object_id in str(ei.value)


class TestStepMemory:
    """A step's graph dies with the step, whatever its caller keeps."""

    @staticmethod
    def desk_batch(b):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(b, ModelConfig.desk().n_points, 3))
        gts = [Box3D(*rng.uniform(-0.5, 0.5, 3), 1.7, 4.0, 1.5, rng.uniform(-3, 3))
               for _ in range(b)]
        return points, gts

    def test_result_carries_no_graph(self, monkeypatch):
        model = BoxAnnotator(ModelConfig.desk(), rng=np.random.default_rng(0))
        opt = Adam(model.params, weight_decay=TrainConfig().weight_decay)
        points, gts = self.desk_batch(4)
        contexts = []
        core = T.attention_core

        def spy(*args, **kwargs):
            ctx = core(*args, **kwargs)
            contexts.append(weakref.ref(ctx.data))
            return ctx

        monkeypatch.setattr(T, "attention_core", spy)
        gc.disable()  # the graph must go by reference counting alone
        try:
            result = train_step(model, points, gts, opt, 1e-4, TrainConfig().lambda_box)
            assert contexts and all(ref() is None for ref in contexts)
        finally:
            gc.enable()
        assert all(t._grad_fn is None and t._parents == ()
                   for t in (result.box_loss, result.dir_loss, result.total))
        assert math.isfinite(result.total.item())

    def test_held_results_do_not_grow_the_peak(self):
        # four steps of a desk full model at B=8, every result held: each
        # step's traced peak is one graph, the first step's
        model = BoxAnnotator(ModelConfig.desk(), rng=np.random.default_rng(0))
        cfg = TrainConfig()
        opt = Adam(model.params, weight_decay=cfg.weight_decay)
        points, gts = self.desk_batch(8)
        held, peaks = [], []
        tracemalloc.start()
        try:
            for _ in range(4):
                tracemalloc.reset_peak()
                held.append(train_step(model, points, gts, opt, 1e-4, cfg.lambda_box))
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert all(p <= 1.02 * peaks[0] for p in peaks), [p / peaks[0] for p in peaks]


class TestTrainLoop:
    def test_two_runs_identical_metrics(self, tiny_dataset, tmp_path):
        cfg = TrainConfig(batch_size=4, epochs=2, checkpoint_every=0)

        def run(name):
            model = tiny_model(seed=1)
            return train(model, tiny_dataset, cfg, 3, out_dir=tmp_path / name)

        a = run("a")
        b = run("b")
        assert open(a.metrics_path).read() == open(b.metrics_path).read()
        assert open(a.checkpoint_path, "rb").read() == open(b.checkpoint_path, "rb").read()

    def test_seed_argument_drives_shuffle_and_augmentation(self, tiny_dataset):
        # the run's seed is the one seed: the config carries none
        assert "seed" not in asdict(TrainConfig())
        cfg = TrainConfig(batch_size=4, epochs=1)

        def losses(seed):
            result = train(tiny_model(seed=1), tiny_dataset, cfg, seed)
            return [r["total"] for r in result.history if "total" in r]

        assert losses(3) == losses(3)
        assert losses(3) != losses(4)

    def test_lr_schedule_endpoints(self, tiny_dataset, tmp_path):
        cfg = TrainConfig(batch_size=4, epochs=2, lr_max=1e-4, lr_min=0.0)
        model = tiny_model()
        result = train(model, tiny_dataset, cfg, 0, out_dir=tmp_path / "lr")
        steps = [r for r in result.history if "lr" in r]
        assert steps[0]["lr"] == pytest.approx(1e-4)
        assert steps[-1]["lr"] == pytest.approx(0.0, abs=1e-18)

    def test_resume_matches_uninterrupted(self, tiny_dataset, tmp_path):
        cfg = TrainConfig(batch_size=4, epochs=4, checkpoint_every=2)
        full = train(tiny_model(seed=2), tiny_dataset, cfg, 7, out_dir=tmp_path / "full")
        # resume from the midpoint checkpoint of an identical run
        resumed_model = tiny_model(seed=99)  # overwritten by the checkpoint
        resumed = train(
            resumed_model,
            tiny_dataset,
            cfg,
            7,
            out_dir=tmp_path / "resumed",
            resume_from=tmp_path / "full" / "ckpt_epoch0002.bin",
        )
        full_steps = [r for r in full.history if "total" in r]
        res_steps = [r for r in resumed.history if "total" in r]
        assert len(res_steps) == len(full_steps) // 2
        assert res_steps[-1]["total"] == pytest.approx(full_steps[-1]["total"], abs=1e-12)
        assert resumed.final_train_miou == pytest.approx(full.final_train_miou, abs=1e-12)

    def test_resume_applies_its_own_weight_decay(self, tiny_dataset, tmp_path,
                                                 monkeypatch):
        cfg = TrainConfig(batch_size=4, epochs=2, checkpoint_every=1, weight_decay=0.05)
        full = train(tiny_model(seed=2), tiny_dataset, cfg, 7, out_dir=tmp_path / "full")
        seen = []
        step = Adam.step

        def spy(self, lr):
            seen.append(self.weight_decay)
            return step(self, lr)

        monkeypatch.setattr(Adam, "step", spy)
        changed = replace(cfg, weight_decay=0.0)
        resumed = train(tiny_model(seed=2), tiny_dataset, changed, 7,
                        out_dir=tmp_path / "resumed",
                        resume_from=tmp_path / "full" / "ckpt_epoch0001.bin")
        assert seen and set(seen) == {0.0}
        full_last = [r for r in full.history if "total" in r][-1]["total"]
        resumed_last = [r for r in resumed.history if "total" in r][-1]["total"]
        assert resumed_last != full_last

    def test_history_records_have_expected_fields(self, tiny_dataset, tmp_path):
        cfg = TrainConfig(batch_size=4, epochs=1)
        result = train(tiny_model(), tiny_dataset, cfg, 0, out_dir=tmp_path / "h")
        step_records = [r for r in result.history if "step" in r]
        assert step_records
        for r in step_records:
            assert set(r) == {"step", "lr", "box_loss", "dir_loss", "total", "batch_miou"}
        with open(result.metrics_path) as fh:
            parsed = [json.loads(line) for line in fh]
        assert parsed[-1]["final_train_miou"] == result.final_train_miou

    def test_rejects_undersized_dataset(self, tiny_dataset):
        cfg = TrainConfig(batch_size=len(tiny_dataset) + 1, epochs=1)
        with pytest.raises(ConfigError, match="smaller than one batch"):
            train(tiny_model(), tiny_dataset, cfg, 0)

    def test_rejects_batch_of_one_with_global(self, tiny_dataset):
        cfg = TrainConfig(batch_size=1, epochs=1)
        with pytest.raises(ConfigError, match="batch_size must be >= 2"):
            train(tiny_model(), tiny_dataset, cfg, 0)

    def test_partial_batches_kept_without_global(self, tiny_dataset):
        n = len(tiny_dataset)
        bs = 4
        assert n % bs != 0 or n > bs  # make the arithmetic meaningful
        cfg = TrainConfig(batch_size=bs, epochs=1)
        res_local = train(tiny_model(n_global_layers=0), tiny_dataset, cfg, 0)
        steps_local = len([r for r in res_local.history if "step" in r])
        assert steps_local == math.ceil(n / bs)
        res_global = train(tiny_model(), tiny_dataset, cfg, 0)
        steps_global = len([r for r in res_global.history if "step" in r])
        assert steps_global == n // bs

    def test_train_requires_ground_truth(self, tiny_dataset):
        broken = [replace(tiny_dataset[0], gt_box=None)] + list(tiny_dataset[1:])
        with pytest.raises(DataError, match="has no ground truth"):
            train(tiny_model(), broken, TrainConfig(batch_size=4, epochs=1), 0)


class TestTrainSetMiou:
    def test_matches_quantized_reeval(self, tiny_dataset):
        # the logged final mIoU is the quantized re-evaluation of the
        # trained model: evaluate_model, which scores the exported labels
        model = tiny_model()
        result = train(model, tiny_dataset, TrainConfig(batch_size=4, epochs=1), 0)
        logged = [r["final_train_miou"] for r in result.history if "final_train_miou" in r]
        expected = evaluate_model(model, tiny_dataset, 4).miou
        assert logged == [expected] and result.final_train_miou == expected
        assert train_set_miou(model, tiny_dataset, batch_size=4) == expected
        assert 0.0 <= expected <= 1.0
