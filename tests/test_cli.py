import json
import os
import shutil
import threading
from pathlib import Path

import numpy as np
import pytest

from frustumbox.checkpoint import load_checkpoint, save_checkpoint
from frustumbox.cli import main
from frustumbox.config import RunConfig, resolved_text
from frustumbox.kitti import load_frame, manifest_frames, parse_kitti_label
from oracles import serial_annotate

# a small model and easy close-range scenes keep CLI runs cheap and make
# every generated object pass the population filter
FAST = [
    "model.d=16",
    "model.n_points=16",
    "model.n_local_layers=1",
    "model.n_global_layers=1",
    "model.n_decoder_layers=1",
    "model.heads=2",
    "model.head_hidden=16",
    "train.batch_size=4",
    "train.epochs=2",
    "scene.range_min=6",
    "scene.range_max=14",
    "scene.points_base=500",
    "scene.clutter_density=0.02",
    "scene.n_objects_min=2",
    "scene.n_objects_max=3",
]


def run(argv):
    # a command that left a (non-daemon) thread behind would hang the
    # process at exit, so every call must end with the threads it began with
    before = set(threading.enumerate())
    code = main([str(a) for a in argv])
    assert set(threading.enumerate()) == before, "the command left a thread running"
    return code


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_ds")
    code = run(["synth", "--out", root, "--seed", "0", "n_scenes=6", "val_every=3"] + FAST)
    assert code == 0
    return root


@pytest.fixture(scope="module")
def training(tmp_path_factory, dataset):
    out = tmp_path_factory.mktemp("cli_train")
    code = run(["train", "--dataset", dataset, "--out", out, "--seed", "0"] + FAST)
    assert code == 0
    return out


class TestSynth:
    def test_dataset_lints(self, dataset):
        frames = manifest_frames(dataset)
        assert len(frames) == 6
        for frame in frames:
            points, calib, records = load_frame(dataset, frame)
            assert len(points) > 0 and len(records) > 0

    def test_same_seed_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run(["synth", "--out", a, "--seed", "3", "n_scenes=2"] + FAST) == 0
        assert run(["synth", "--out", b, "--seed", "3", "n_scenes=2"] + FAST) == 0
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_zero_scenes_empty_manifest_success(self, tmp_path, capsys):
        out = tmp_path / "empty"
        assert run(["synth", "--out", out, "n_scenes=0"] + FAST) == 0
        assert manifest_frames(out) == []
        assert "warning" in capsys.readouterr().out

    def test_unknown_key_fails_before_writing(self, tmp_path, capsys):
        out = tmp_path / "nope"
        code = run(["synth", "--out", out, "bogus.key=1"])
        assert code == 2
        assert not out.exists()
        assert "error category=config" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_every_key_at_a_small_value_runs_or_is_config_error(self, tmp_path, capsys,
                                                                value):
        for key in [line.split("=")[0] for line in resolved_text(RunConfig()).splitlines()]:
            code = run(["synth", "--out", tmp_path / f"{key}{value}", "n_scenes=1",
                        f"{key}={value}"])
            err = capsys.readouterr().err
            assert code in (0, 2), (key, err)
            assert (code == 2) == ("error category=config" in err), (key, err)

    @pytest.mark.parametrize("argv, message", [
        (["model.heads=3"], "embed width 64 not divisible by 3 heads"),
        (["model.heads=0"], "widths, point counts and heads must be >= 1"),
        (["--seed", "-1"], "seed must be >= 0, got -1"),
        (["scene.points_max=-1"], "points_min=12 and points_max=-1 must satisfy"),
        (["scene.yaw_range=1"], "yaw_range needs two values"),
        (["model.d=wide"], "model.d: invalid literal for int()"),
        (["scene.length_range=0,0"], "length_range must be positive: (0.0, 0.0)"),
    ], ids=["heads_3", "heads_0", "seed", "points_max", "one_value_range", "not_a_number",
            "zero_extent"])
    def test_invalid_value_names_the_key(self, tmp_path, capsys, argv, message):
        assert run(["synth", "--out", tmp_path / "x", "n_scenes=1"] + argv) == 2
        assert f"error category=config: {message}" in capsys.readouterr().err

    def test_non_finite_float_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "inf"
        assert run(["synth", "--out", out, "n_scenes=2", "scene.noise_sigma=inf"]) == 2
        err = capsys.readouterr().err
        assert "error category=config: scene.noise_sigma: expected finite numbers" in err
        assert not out.exists()


class TestTrain:
    def test_writes_checkpoint_and_metrics(self, training):
        assert (Path(training) / "ckpt_final.bin").exists()
        lines = (Path(training) / "metrics.jsonl").read_text().splitlines()
        records = [json.loads(l) for l in lines]
        assert any("final_train_miou" in r for r in records)
        assert (Path(training) / "resolved_config.txt").exists()

    def test_checkpoint_loadable(self, training):
        from frustumbox.checkpoint import load_checkpoint
        from frustumbox.model import BoxAnnotator

        model = BoxAnnotator.from_checkpoint(load_checkpoint(Path(training) / "ckpt_final.bin"))
        assert model.config.d == 16

    def test_rerun_reproduces_metrics_byte_identically(self, dataset, training, tmp_path):
        out = tmp_path / "again"
        assert run(["train", "--dataset", dataset, "--out", out, "--seed", "0"] + FAST) == 0
        assert (out / "metrics.jsonl").read_bytes() == (
            Path(training) / "metrics.jsonl"
        ).read_bytes()
        assert (out / "ckpt_final.bin").read_bytes() == (
            Path(training) / "ckpt_final.bin"
        ).read_bytes()

    def test_ablation_flag_maps_to_toggles(self, dataset, tmp_path):
        out = tmp_path / "ablA"
        assert run(
            ["train", "--dataset", dataset, "--out", out, "--seed", "0",
             "--ablation", "A", "train.epochs=1"] + FAST
        ) == 0
        from frustumbox.checkpoint import load_checkpoint

        cfg = load_checkpoint(out / "ckpt_final.bin").config["model"]
        assert cfg["n_global_layers"] == 0 and cfg["n_decoder_layers"] == 0
        assert cfg["pos_mode"] == "none"
        assert "use_global" not in cfg and "use_decoder" not in cfg
        resolved = (out / "resolved_config.txt").read_text()
        assert "model.use_global" not in resolved and "model.use_decoder" not in resolved
        # the run's record names the model that trained, not the base config
        assert {"model.n_global_layers=0", "model.n_decoder_layers=0",
                "model.pos_mode=none"} <= set(resolved.splitlines())

    def test_train_seed_is_unknown_key(self, dataset, tmp_path, capsys):
        # --seed (top-level `seed`) is the run's one seed
        out = tmp_path / "seed"
        code = run(["train", "--dataset", dataset, "--out", out, "train.seed=1"] + FAST)
        assert code == 2
        assert "unknown configuration key 'train.seed'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("override", ["train.lr_max=nan", "train.weight_decay=inf"])
    def test_non_finite_float_is_config_error(self, dataset, tmp_path, capsys, override):
        # rejected when parsed, before a step can turn it into a numeric error
        key, _, raw = override.partition("=")
        out = tmp_path / "nonfinite"
        code = run(["train", "--dataset", dataset, "--out", out, override] + FAST)
        assert code == 2
        err = capsys.readouterr().err
        assert f"error category=config: {key}: expected finite numbers, got '{raw}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("overrides, message", [
        (["train.scale_low=0", "train.scale_high=0"], "scale_low must be > 0, got 0.0"),
        (["train.checkpoint_every=-1"], "checkpoint_every must be >= 0, got -1"),
        (["train.shift_range=-0.1"], "shift_range must be >= 0, got -0.1"),
    ], ids=["scale_low", "checkpoint_every", "shift_range"])
    def test_out_of_range_train_value_is_config_error(self, dataset, tmp_path, capsys,
                                                      overrides, message):
        # each of these once started training: a zero scale and a negative
        # shift range failed at the first augmented batch (a non-positive box
        # extent; numpy's uniform with high < low), and a negative checkpoint
        # interval wrote a mid-run checkpoint every epoch
        out = tmp_path / "bad"
        code = run(["train", "--dataset", dataset, "--out", out] + FAST + overrides)
        assert code == 2
        assert f"error category=config: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_resume_from_checkpoint_with_unknown_model_key(self, dataset, training,
                                                           tmp_path, capsys):
        bogus = with_unknown_model_key(Path(training) / "ckpt_final.bin", tmp_path)
        code = run(["train", "--dataset", dataset, "--out", tmp_path / "resumed",
                    "--seed", "0", "--resume", bogus] + FAST)
        assert code == 5
        err = capsys.readouterr().err
        assert "error category=checkpoint" in err and "bogus" in err

    def test_stage_flag_is_unknown_key(self, dataset, tmp_path, capsys):
        out = tmp_path / "flag"
        code = run(["train", "--dataset", dataset, "--out", out, "model.use_global=false"]
                   + FAST)
        assert code == 2
        assert "unknown configuration key 'model.use_global'" in capsys.readouterr().err
        assert not out.exists()

    def test_resume_from_checkpoint_with_stage_flags(self, dataset, tmp_path):
        # a training checkpoint as written while the model config carried
        # use_global/use_decoder and the optimizer record its hyperparameters
        from frustumbox.checkpoint import load_checkpoint, save_checkpoint

        args = ["train", "--dataset", dataset, "--seed", "0", "--ablation", "A"] + FAST + [
            "train.checkpoint_every=1"]
        full = tmp_path / "full"
        assert run(args + ["--out", full]) == 0
        ckpt = load_checkpoint(full / "ckpt_epoch0001.bin")
        ckpt.config["model"].update(use_global=False, n_global_layers=1,
                                    use_decoder=False, n_decoder_layers=1)
        ckpt.extras["optimizer"].update(lr=1e-4, betas=[0.9, 0.999], eps=1e-8,
                                        weight_decay=0.05)
        older = save_checkpoint(tmp_path / "older.bin", ckpt.config, ckpt.params,
                                ckpt.extras, ckpt.extra_arrays)
        resumed = tmp_path / "resumed"
        assert run(args + ["--out", resumed, "--resume", older]) == 0
        full_lines = (full / "metrics.jsonl").read_text().splitlines()
        resumed_lines = (resumed / "metrics.jsonl").read_text().splitlines()
        assert resumed_lines == full_lines[len(full_lines) - len(resumed_lines):]
        assert (resumed / "ckpt_final.bin").read_bytes() == (
            full / "ckpt_final.bin").read_bytes()

    def test_empty_cloud_is_data_error(self, dataset, tmp_path, capsys):
        copy = tmp_path / "ds"
        shutil.copytree(dataset, copy)
        (copy / "velodyne" / f"{manifest_frames(copy)[0]}.bin").write_bytes(b"")
        code = run(["train", "--dataset", copy, "--out", tmp_path / "out", "--seed", "0"]
                   + FAST)
        assert code == 4
        assert "error category=data: empty input cloud" in capsys.readouterr().err

    def test_singular_rectification_is_format_error(self, dataset, tmp_path, capsys):
        copy = tmp_path / "ds"
        shutil.copytree(dataset, copy)
        path = copy / "calib" / f"{manifest_frames(copy)[0]}.txt"
        lines = ["R0_rect: " + " ".join(["0.0"] * 9) if line.startswith("R0_rect") else line
                 for line in path.read_text().splitlines()]
        path.write_text("\n".join(lines) + "\n")
        code = run(["train", "--dataset", copy, "--out", tmp_path / "out", "--seed", "0"]
                   + FAST)
        assert code == 3
        assert "error category=format: R0_rect is singular" in capsys.readouterr().err

    @pytest.mark.parametrize("damage, message", [
        ("no_optimizer", "no training state to resume, lacks ['optimizer']"),
        ("no_moments", "m moments missing=['dec.0.cross.k.b', "),
    ], ids=["no_optimizer", "no_moments"])
    def test_resume_without_training_state_is_checkpoint_error(self, dataset, training,
                                                               tmp_path, capsys, damage,
                                                               message):
        ckpt = load_checkpoint(Path(training) / "ckpt_final.bin")
        extras, arrays = dict(ckpt.extras), dict(ckpt.extra_arrays)
        if damage == "no_optimizer":
            del extras["optimizer"]
        else:
            arrays = {}
        path = save_checkpoint(tmp_path / "damaged.bin", ckpt.config, ckpt.params, extras,
                               arrays)
        code = run(["train", "--dataset", dataset, "--out", tmp_path / "resumed",
                    "--seed", "0", "--resume", path] + FAST)
        assert code == 5
        err = capsys.readouterr().err
        assert "error category=checkpoint" in err and message in err

    def test_undersized_dataset_message(self, dataset, tmp_path, capsys):
        out = tmp_path / "small"
        code = run(
            ["train", "--dataset", dataset, "--out", out]
            + FAST + ["train.batch_size=4096"]
        )
        assert code == 2
        assert "smaller than one batch" in capsys.readouterr().err

    def test_unknown_split_is_config_error(self, dataset, tmp_path, capsys):
        out = tmp_path / "typo"
        assert run(["train", "--dataset", dataset, "--out", out, "--split", "vall",
                    "--seed", "0"] + FAST) == 2
        assert ("error category=config: no manifest frame is in split 'vall'; "
                "splits present: train, val") in capsys.readouterr().err
        assert not out.exists()


def with_unknown_model_key(path, tmp_path):
    """A copy of checkpoint `path` whose model header carries `bogus=1`."""
    from frustumbox.checkpoint import load_checkpoint, save_checkpoint

    ckpt = load_checkpoint(path)
    ckpt.config["model"]["bogus"] = 1
    return save_checkpoint(tmp_path / "bogus.bin", ckpt.config, ckpt.params,
                           ckpt.extras, ckpt.extra_arrays)


@pytest.fixture(scope="module")
def annotated(tmp_path_factory, dataset, training):
    # annotate the training split: the reproduction check compares this
    # run's files against the number train printed for the same objects
    out = tmp_path_factory.mktemp("cli_ann")
    code = run(
        ["annotate", "--checkpoint", Path(training) / "ckpt_final.bin",
         "--dataset", dataset, "--out", out, "--seed", "0",
         "--split", "train"] + FAST
    )
    assert code == 0
    return out


class TestAnnotateAndEval:
    def test_label_files_reparse(self, dataset, annotated):
        frames = manifest_frames(dataset, split="train")
        assert frames
        for frame in frames:
            path = Path(annotated) / "label_2" / f"{frame}.txt"
            assert path.exists()
            records = parse_kitti_label(path.read_text())
            assert records
            for rec in records:
                assert rec.score is not None

    def test_empty_frames_get_empty_label_files(self, training, tmp_path):
        # frames without objects still yield a (empty) label file
        empty_ds = tmp_path / "empty_ds"
        assert run(["synth", "--out", empty_ds, "--seed", "1"] + FAST
                   + ["n_scenes=2", "val_every=0", "scene.n_objects_min=0",
                      "scene.n_objects_max=0"]) == 0
        out = tmp_path / "empty_ann"
        code = run(["annotate", "--checkpoint", Path(training) / "ckpt_final.bin",
                    "--dataset", empty_ds, "--out", out, "--seed", "0"] + FAST)
        assert code == 0
        for frame in manifest_frames(empty_ds):
            path = out / "label_2" / f"{frame}.txt"
            assert path.exists()
            assert path.read_text() == ""

    def test_unknown_split_is_config_error(self, dataset, training, tmp_path, capsys):
        out = tmp_path / "typo"
        assert run(["annotate", "--checkpoint", Path(training) / "ckpt_final.bin",
                    "--dataset", dataset, "--out", out, "--split", "vall",
                    "--seed", "0"] + FAST) == 2
        assert ("error category=config: no manifest frame is in split 'vall'; "
                "splits present: train, val") in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoint_with_unknown_model_key(self, dataset, training, tmp_path,
                                               capsys):
        bogus = with_unknown_model_key(Path(training) / "ckpt_final.bin", tmp_path)
        code = run(["annotate", "--checkpoint", bogus, "--dataset", dataset,
                    "--out", tmp_path / "ann", "--seed", "0"] + FAST)
        assert code == 5
        err = capsys.readouterr().err
        assert "error category=checkpoint" in err and "bogus" in err

    @pytest.mark.parametrize("damage", ["ten_bytes", "cut_in_header", "non_utf8_header",
                                        "json_not_a_header"])
    def test_malformed_checkpoint_is_checkpoint_error(self, dataset, training, tmp_path,
                                                      capsys, damage):
        blob = (Path(training) / "ckpt_final.bin").read_bytes()
        header_end = 20 + int.from_bytes(blob[12:20], "little")
        bad = {
            "ten_bytes": blob[:10],
            "cut_in_header": blob[: header_end - 5],
            "non_utf8_header": blob[:20] + b"\xff" + blob[21:],
            "json_not_a_header": blob[:12] + (2).to_bytes(8, "little") + b"[]",
        }[damage]
        path = tmp_path / "bad.bin"
        path.write_bytes(bad)
        code = run(["annotate", "--checkpoint", path, "--dataset", dataset,
                    "--out", tmp_path / "ann", "--seed", "0"] + FAST)
        assert code == 5
        assert "error category=checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("shape", [[-1], [2, -1], [1.5], "3", None])
    def test_bad_array_shape_is_checkpoint_error(self, dataset, training, tmp_path,
                                                 capsys, shape):
        blob = (Path(training) / "ckpt_final.bin").read_bytes()
        header_end = 20 + int.from_bytes(blob[12:20], "little")
        header = json.loads(blob[20:header_end])
        entry = header["arrays"][0]
        entry["shape"] = shape
        text = json.dumps(header).encode("utf-8")
        path = tmp_path / "bad.bin"
        path.write_bytes(blob[:12] + len(text).to_bytes(8, "little") + text
                         + blob[header_end:])
        code = run(["annotate", "--checkpoint", path, "--dataset", dataset,
                    "--out", tmp_path / "ann", "--seed", "0"] + FAST)
        assert code == 5
        err = capsys.readouterr().err
        assert "error category=checkpoint" in err and "malformed header" in err
        assert repr(entry["name"]) in err

    def test_non_finite_prediction_is_numeric_error(self, dataset, training, tmp_path,
                                                     capsys):
        ckpt = load_checkpoint(Path(training) / "ckpt_final.bin")
        params = dict(ckpt.params)
        params["head.loc.l2.b"] = np.full_like(params["head.loc.l2.b"], np.nan)
        path = save_checkpoint(tmp_path / "nan.bin", ckpt.config, params)
        code = run(["annotate", "--checkpoint", path, "--dataset", dataset,
                    "--out", tmp_path / "ann", "--seed", "0"] + FAST)
        assert code == 6
        first = f"{manifest_frames(dataset)[0]}:0"
        assert (f"error category=numeric: non-finite prediction for object {first}: box [nan"
                in capsys.readouterr().err)

    def test_degenerate_2d_box_is_format_error(self, dataset, training, tmp_path, capsys):
        copy = tmp_path / "ds"
        shutil.copytree(dataset, copy)
        frame = manifest_frames(copy)[0]
        path = copy / "label_2" / f"{frame}.txt"
        rows = path.read_text().splitlines()
        fields = rows[0].split()
        fields[6] = fields[4]  # u_max = u_min
        bad = " ".join(fields)
        path.write_text("\n".join([bad] + rows[1:]) + "\n")
        code = run(["annotate", "--checkpoint", Path(training) / "ckpt_final.bin",
                    "--dataset", copy, "--out", tmp_path / "ann", "--seed", "0"] + FAST)
        assert code == 3
        err = capsys.readouterr().err
        assert "error category=format: degenerate 2D box" in err and repr(bad) in err

    @pytest.mark.parametrize("field, token", [(2, "inf"), (11, "nan")])  # occlusion, location x
    def test_non_finite_label_field_is_format_error(self, dataset, annotated, tmp_path, capsys,
                                                    field, token):
        # the annotated labels serve as both sides, with the dataset's calibrations
        copy = tmp_path / "labels"
        shutil.copytree(annotated, copy)
        frames = manifest_frames(dataset, split="train")
        (copy / "calib").mkdir()
        for frame in frames:
            shutil.copy(Path(dataset) / "calib" / f"{frame}.txt", copy / "calib")
        path = copy / "label_2" / f"{frames[0]}.txt"
        rows = path.read_text().splitlines()
        fields = rows[0].split()
        fields[field] = token
        bad = " ".join(fields)
        path.write_text("\n".join([bad] + rows[1:]) + "\n")
        code = run(["eval", "--pred", copy, "--gt", copy])
        assert code == 3
        err = capsys.readouterr().err
        assert f"error category=format: non-finite number {token!r}" in err and repr(bad) in err

    def test_eval_identical_dirs_all_ones(self, dataset, tmp_path, capsys):
        report_path = tmp_path / "self_report.json"
        code = run(["eval", "--pred", dataset, "--gt", dataset, "--out", report_path])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["miou"] == 1.0
        assert report["recall07"] == 1.0
        assert report["ap11"] == 1.0 and report["ap40"] == 1.0

    def test_eval_txt_out_is_config_error(self, dataset, tmp_path, capsys):
        # the row's .txt twin of a .txt report is the report itself
        out = tmp_path / "reports" / "report.txt"
        code = run(["eval", "--pred", dataset, "--gt", dataset, "--out", out])
        assert code == 2
        captured = capsys.readouterr()
        assert "error category=config" in captured.err and "same file" in captured.err
        assert "report:" not in captured.out and not out.parent.exists()

    def test_eval_disjoint_dirs_frame_mismatch(self, dataset, tmp_path, capsys):
        other = tmp_path / "other"
        assert run(["synth", "--out", other, "--seed", "9", "n_scenes=2",
                    "val_every=0"] + FAST) == 0
        # rename frames so the id sets are disjoint
        import os

        for sub in ("label_2",):
            d = other / sub
            for p in sorted(d.glob("*.txt"), reverse=True):
                os.rename(p, d / f"9{p.stem[1:]}.txt")
        code = run(["eval", "--pred", other, "--gt", dataset])
        assert code == 4
        assert "error category=data" in capsys.readouterr().err

    def test_eval_duplicate_object_key_is_data_error(self, dataset, tmp_path, capsys):
        from frustumbox.inference import object_key

        frame = manifest_frames(dataset)[0]
        rows = (Path(dataset) / "label_2" / f"{frame}.txt").read_text().splitlines()
        dup = tmp_path / "dup"
        (dup / "label_2").mkdir(parents=True)
        (dup / "calib").mkdir()
        # a second row with the same 2D box would silently replace the first
        (dup / "label_2" / f"{frame}.txt").write_text("\n".join(rows + rows[:1]) + "\n")
        (dup / "calib" / f"{frame}.txt").write_bytes(
            (Path(dataset) / "calib" / f"{frame}.txt").read_bytes()
        )
        code = run(["eval", "--pred", dup, "--gt", dup])
        assert code == 4
        err = capsys.readouterr().err
        assert "error category=data" in err
        assert object_key(frame, parse_kitti_label(rows[0])[0].box2d) in err

    def test_annotate_eval_reproduces_train_miou(self, dataset, training, annotated,
                                                 tmp_path, capsys):
        # the number printed at the end of training is the same number an
        # external evaluation of the exported labels computes; this holds
        # exactly when the population filter rejected nothing
        from frustumbox.frustums import build_dataset_samples, filter_samples

        samples = build_dataset_samples(dataset, 16, 0, split="train")
        _, rejections = filter_samples(samples)
        assert not rejections, "premise: every training object passed the filter"
        lines = (Path(training) / "metrics.jsonl").read_text().splitlines()
        final = [json.loads(l) for l in lines if "final_train_miou" in l][0]
        # restrict to the training split: evaluate only those frames
        pred = tmp_path / "train_only_pred"
        gt = tmp_path / "train_only_gt"
        (pred / "label_2").mkdir(parents=True)
        (gt / "label_2").mkdir(parents=True)
        (gt / "calib").mkdir()
        from frustumbox.kitti import read_manifest

        for frame, split in read_manifest(dataset).items():
            if split != "train":
                continue
            (pred / "label_2" / f"{frame}.txt").write_bytes(
                (Path(annotated) / "label_2" / f"{frame}.txt").read_bytes()
            )
            (gt / "label_2" / f"{frame}.txt").write_bytes(
                (Path(dataset) / "label_2" / f"{frame}.txt").read_bytes()
            )
            (gt / "calib" / f"{frame}.txt").write_bytes(
                (Path(dataset) / "calib" / f"{frame}.txt").read_bytes()
            )
        report_path = tmp_path / "train_report.json"
        code = run(["eval", "--pred", pred, "--gt", gt, "--out", report_path])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert abs(report["miou"] - final["final_train_miou"]) < 1e-9

    def test_in_memory_report_equals_eval_of_exported_labels(self, dataset, training,
                                                             tmp_path):
        # the in-memory scorer (ablate, the acceptance gate, train's final
        # mIoU) scores each prediction as its exported label row read back,
        # so its report is the one `eval` writes, field for field
        from frustumbox.checkpoint import load_checkpoint
        from frustumbox.evaluate import evaluate_model
        from frustumbox.frustums import build_dataset_samples
        from frustumbox.model import BoxAnnotator

        ckpt = Path(training) / "ckpt_final.bin"
        pseudo = tmp_path / "pseudo"
        assert run(["annotate", "--checkpoint", ckpt, "--dataset", dataset,
                    "--out", pseudo, "--seed", "0"] + FAST) == 0
        report_path = tmp_path / "report.json"
        assert run(["eval", "--pred", pseudo, "--gt", dataset, "--out", report_path]) == 0
        model = BoxAnnotator.from_checkpoint(load_checkpoint(ckpt))
        samples = build_dataset_samples(dataset, model.config.n_points, 0)
        in_memory = evaluate_model(model, samples, batch_size=4).to_dict()
        on_files = json.loads(report_path.read_text())
        assert len(on_files["per_object"]) == len(samples)
        assert in_memory == on_files


@pytest.fixture(scope="module")
def ragged(tmp_path_factory, dataset):
    """`dataset` with the files of its third manifest frame removed and, in
    its second frame, one more care row whose 2D box sees only sky."""
    root = tmp_path_factory.mktemp("cli_ragged")
    shutil.copytree(dataset, root, dirs_exist_ok=True)
    frames = manifest_frames(root)
    path = root / "label_2" / f"{frames[1]}.txt"
    rows = path.read_text().splitlines()
    fields = rows[0].split()
    sky = " ".join(fields[:4] + ["0.00", "0.00", "5.00", "5.00"] + fields[8:])
    path.write_text("\n".join(rows + [sky]) + "\n")
    for sub, ext in (("velodyne", "bin"), ("calib", "txt"), ("label_2", "txt")):
        (root / sub / f"{frames[2]}.{ext}").unlink()
    return root


@pytest.fixture(scope="module")
def training_a(tmp_path_factory, dataset):
    # variant A has no cross-object encoder: a label depends only on the
    # object's own sample
    out = tmp_path_factory.mktemp("cli_train_a")
    code = run(["train", "--dataset", dataset, "--out", out, "--seed", "0",
                "--ablation", "A"] + FAST)
    assert code == 0
    return out


class TestAnnotatePipeline:
    """`annotate` forwards its chunks on two pinned threads, preparing frames
    as chunks are taken; the result must be the serial loop's, byte for byte."""

    @pytest.mark.parametrize("batch_size", [1, 3, 8])
    def test_labels_and_skips_equal_the_serial_loop(self, ragged, training, tmp_path,
                                                    capsys, batch_size):
        ckpt = Path(training) / "ckpt_final.bin"
        capsys.readouterr()
        code = run(["annotate", "--checkpoint", ckpt, "--dataset", ragged, "--out",
                    tmp_path, "--seed", "0"] + FAST + [f"train.batch_size={batch_size}"])
        assert code == 0
        out = capsys.readouterr().out
        labels, skips = serial_annotate(ragged, ckpt, 0, batch_size)
        assert len(skips) == 2 and skips[0].startswith("skipping object")
        assert [line for line in out.splitlines() if line.startswith("skipping ")] == skips
        written = {p.stem: p.read_text() for p in (tmp_path / "label_2").glob("*.txt")}
        assert written == labels
        n_objects = sum(len(text.splitlines()) for text in labels.values())
        assert n_objects > batch_size and f"annotated {n_objects} objects" in out

    def test_a_split_writes_the_full_runs_labels_for_its_frames(self, dataset, training_a,
                                                               tmp_path):
        ckpt = Path(training_a) / "ckpt_final.bin"
        for name, split in (("full", []), ("val", ["--split", "val"])):
            assert run(["annotate", "--checkpoint", ckpt, "--dataset", dataset, "--out",
                        tmp_path / name, "--seed", "0"] + split + FAST) == 0
        val = manifest_frames(dataset, split="val")
        assert val and val[0] != manifest_frames(dataset)[0]
        assert sorted(p.stem for p in (tmp_path / "val" / "label_2").glob("*.txt")) == val
        for frame in val:
            subset = (tmp_path / "val" / "label_2" / f"{frame}.txt").read_bytes()
            assert subset
            assert subset == (tmp_path / "full" / "label_2" / f"{frame}.txt").read_bytes()

    @staticmethod
    def _annotate(dataset, training, out, extra=()):
        return run(["annotate", "--checkpoint", Path(training) / "ckpt_final.bin",
                    "--dataset", dataset, "--out", out, "--seed", "0"] + FAST + list(extra))

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                        or len(os.sched_getaffinity(0)) < 2,
                        reason="needs sched_setaffinity and two allowed CPUs")
    def test_both_threads_forward_each_on_its_own_half_of_the_cpus(self, dataset, training,
                                                                  tmp_path, monkeypatch):
        # left to the scheduler the two threads often share one CPU for a
        # whole command; each is pinned to its own half of the allowed CPUs
        import frustumbox.cli as cli

        seen = {}
        forward = cli.predict_samples

        def recorded(*args, **kwargs):
            cpus = frozenset(os.sched_getaffinity(0))
            seen.setdefault(threading.current_thread(), set()).add(cpus)
            return forward(*args, **kwargs)

        monkeypatch.setattr(cli, "predict_samples", recorded)
        before = os.sched_getaffinity(0)
        assert self._annotate(dataset, training, tmp_path, ["train.batch_size=1"]) == 0
        assert os.sched_getaffinity(0) == before
        assert threading.main_thread() in seen and len(seen) == 2
        (a,), (b,) = seen.values()
        assert a and b and not a & b and a | b == before

    def test_frames_are_prepared_one_at_a_time_in_manifest_order(self, dataset, training,
                                                                  tmp_path, monkeypatch):
        import frustumbox.cli as cli

        order, active, most = [], [0], [0]
        original = cli.frame_samples

        def recorded(root, frame, *args, **kwargs):
            active[0] += 1
            most[0] = max(most[0], active[0])
            order.append(frame)
            try:
                return original(root, frame, *args, **kwargs)
            finally:
                active[0] -= 1

        monkeypatch.setattr(cli, "frame_samples", recorded)
        assert self._annotate(dataset, training, tmp_path, ["train.batch_size=1"]) == 0
        assert order == manifest_frames(dataset) and most[0] == 1

    def test_predict_samples_gets_sized_lists_covering_every_label(self, dataset, training,
                                                                   tmp_path, capsys,
                                                                   monkeypatch):
        # perfbench/tracing.py wraps cli.predict_samples and counts len(args[1])
        import frustumbox.cli as cli

        handed = []
        forward = cli.predict_samples

        def recorded(model, samples, batch_size):
            handed.append(samples)
            return forward(model, samples, batch_size)

        monkeypatch.setattr(cli, "predict_samples", recorded)
        capsys.readouterr()
        assert self._annotate(dataset, training, tmp_path, ["train.batch_size=3"]) == 0
        out = capsys.readouterr().out
        n_labels = sum(len(p.read_text().splitlines())
                       for p in (tmp_path / "label_2").glob("*.txt"))
        assert all(type(samples) is list and 1 <= len(samples) <= 3 for samples in handed)
        assert sum(map(len, handed)) == n_labels > 3
        assert f"annotated {n_labels} objects" in out

    @pytest.mark.parametrize("host", ["one CPU", "no sched_setaffinity"])
    def test_a_single_cpu_forwards_every_chunk_on_the_calling_thread(
            self, ragged, training, tmp_path, monkeypatch, host):
        import frustumbox.cli as cli

        pinned, threads = [], set()
        if host == "one CPU":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
            monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: pinned.append(cpus),
                                raising=False)
        else:
            monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        forward = cli.predict_samples

        def recorded(*args, **kwargs):
            threads.add(threading.current_thread())
            return forward(*args, **kwargs)

        monkeypatch.setattr(cli, "predict_samples", recorded)
        ckpt = Path(training) / "ckpt_final.bin"
        assert self._annotate(ragged, training, tmp_path, ["train.batch_size=3"]) == 0
        assert threads == {threading.main_thread()} and pinned == []
        written = {p.stem: p.read_text() for p in (tmp_path / "label_2").glob("*.txt")}
        assert written == serial_annotate(ragged, ckpt, 0, 3)[0]

    def test_truncated_cloud_in_a_middle_frame_is_format_error(self, dataset, training,
                                                               tmp_path, capsys):
        copy = tmp_path / "ds"
        shutil.copytree(dataset, copy)
        path = copy / "velodyne" / f"{manifest_frames(copy)[3]}.bin"
        path.write_bytes(path.read_bytes()[:-5])
        code = run(["annotate", "--checkpoint", Path(training) / "ckpt_final.bin",
                    "--dataset", copy, "--out", tmp_path / "ann", "--seed", "0"] + FAST)
        assert code == 3
        assert "error category=format: point record truncated" in capsys.readouterr().err

    def test_forward_failure_keeps_its_category_and_cancels_pending_frames(
            self, dataset, training, tmp_path, capsys, monkeypatch):
        import frustumbox.cli as cli
        from frustumbox.errors import NumericError

        prepared = []
        failed = threading.Event()
        original = cli.frame_samples

        def slow_after_first(root, frame, *args, **kwargs):
            prepared.append(frame)
            if len(prepared) > 1:
                # hold the worker until the forward has failed, so frames
                # it has not started are still pending then
                failed.wait(timeout=10)
            return original(root, frame, *args, **kwargs)

        def failing_forward(*args, **kwargs):
            failed.set()
            raise NumericError("forward failed on purpose")

        monkeypatch.setattr(cli, "frame_samples", slow_after_first)
        monkeypatch.setattr(cli, "predict_samples", failing_forward)
        cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
        code = run(["annotate", "--checkpoint", Path(training) / "ckpt_final.bin",
                    "--dataset", dataset, "--out", tmp_path, "--seed", "0"]
                   + FAST + ["train.batch_size=1"])
        assert code == 6
        assert "error category=numeric: forward failed on purpose" in capsys.readouterr().err
        frames = manifest_frames(dataset)
        assert prepared == frames[: len(prepared)] and len(prepared) <= 2 < len(frames)
        if hasattr(os, "sched_getaffinity"):
            assert os.sched_getaffinity(0) == cpus


    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                        or len(os.sched_getaffinity(0)) < 2,
                        reason="needs sched_setaffinity and two allowed CPUs")
    @pytest.mark.parametrize("first_fails", [True, False])
    def test_a_later_chunk_failing_first_stops_both_threads(
            self, dataset, training, tmp_path, capsys, monkeypatch, first_fails):
        # the first chunk's forward waits until the second chunk's has
        # failed; the error reported is still the earliest failing chunk's,
        # and the thread that finishes the first chunk takes no other
        import frustumbox.cli as cli
        from frustumbox.errors import NumericError
        from frustumbox.frustums import frame_samples

        frames = manifest_frames(dataset)
        first = frame_samples(dataset, frames[0], 16, 0, require_gt=False)[0][0].object_id
        later_failed = threading.Event()
        forwarded = []
        forward = cli.predict_samples

        def forward_failing(model, samples, batch_size):
            (sample,) = samples
            forwarded.append(sample.object_id)
            if sample.object_id == first:
                assert later_failed.wait(timeout=10)
                if not first_fails:
                    return forward(model, samples, batch_size)
            else:
                later_failed.set()
            raise NumericError(f"non-finite prediction for object {sample.object_id}")

        monkeypatch.setattr(cli, "predict_samples", forward_failing)
        code = self._annotate(dataset, training, tmp_path, ["train.batch_size=1"])
        assert code == 6
        assert len(forwarded) == 2 and forwarded[0] != forwarded[1] and first in forwarded
        named = first if first_fails else next(o for o in forwarded if o != first)
        assert (f"error category=numeric: non-finite prediction for object {named}\n"
                in capsys.readouterr().err)


class TestGradcheckCommand:
    def test_zero_probes_is_config_error(self, capsys):
        assert run(["gradcheck", "--seed", "0", "--probes", "0"] + FAST) == 2
        err = capsys.readouterr().err
        assert "error category=config: gradcheck needs" in err and "--probes >= 1" in err

    @pytest.mark.parametrize("flag, value", [("--batch", "0"), ("--batch", "-1"),
                                             ("--step", "0")])
    def test_bad_argument_is_config_error(self, capsys, flag, value):
        assert run(["gradcheck", "--seed", "0", flag, value] + FAST) == 2
        assert "error category=config: gradcheck needs --batch >= 1" in capsys.readouterr().err

    def test_tiny_config_passes(self, capsys):
        code = run(["gradcheck", "--seed", "0", "--probes", "1"] + FAST)
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out
        assert "worst relative error" in out

    def test_reports_every_parameter_group(self, capsys):
        run(["gradcheck", "--seed", "0", "--probes", "1"] + FAST)
        out = capsys.readouterr().out
        assert "embed.l0.w" in out and "head.dir.l2.w" in out

    def test_checks_the_configured_box_weight(self, capsys):
        def box_head_rows(overrides):
            assert run(["gradcheck", "--seed", "0", "--probes", "1"] + FAST + overrides) == 0
            rows = {}
            for line in capsys.readouterr().out.splitlines():
                words = line.split()
                if words and words[0].startswith(("head.loc.", "head.dim.", "head.yaw.")):
                    rows[words[0]] = float(words[words.index("analytic") + 1])
            return rows

        default = box_head_rows([])
        unweighted = box_head_rows(["train.lambda_box=0"])
        assert len(default) == len(unweighted) == 12
        assert any(v != 0.0 for v in default.values())
        assert all(v == 0.0 for v in unweighted.values()), unweighted


class TestAttnCommand:
    def test_dump_rows(self, dataset, training, tmp_path):
        out_file = tmp_path / "attn.json"
        code = run(
            ["attn", "--checkpoint", Path(training) / "ckpt_final.bin",
             "--dataset", dataset, "--frame", "000000", "--object", "0",
             "--point", "3", "--top-k", "10", "--out", out_file, "--seed", "0"]
            + FAST
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert len(payload["rows"]) == 10
        scores = [r["score"] for r in payload["rows"]]
        assert all(a >= b for a, b in zip(scores, scores[1:]))
        assert abs(payload["reference_row_sum"] - 1.0) < 1e-9
        for tok in payload["box_token_rows"]:
            assert abs(tok["row_sum"] - 1.0) < 1e-9
        # point coordinates match the frustum points exactly
        from frustumbox.frustums import build_dataset_samples

        samples = [
            s for s in build_dataset_samples(dataset, 16, 0)
            if s.frame_id == "000000"
        ]
        original = samples[0].points + samples[0].centroid
        for row in payload["rows"]:
            if row["kind"] == "point":
                np.testing.assert_array_equal(
                    row["coordinate"], original[row["point_index"]]
                )

    def test_figure_style_top500(self, dataset, tmp_path):
        # a model sampling 512 points per frustum supports a 500-row dump
        from frustumbox.model import BoxAnnotator, ModelConfig

        cfg = ModelConfig(d=16, n_points=512, n_local_layers=1,
                          n_global_layers=1, n_decoder_layers=1, heads=2,
                          head_hidden=16)
        model = BoxAnnotator(cfg, rng=np.random.default_rng(0))
        ckpt = model.save(tmp_path / "wide.ckpt")
        out_file = tmp_path / "attn500.json"
        code = run(
            ["attn", "--checkpoint", ckpt, "--dataset", dataset,
             "--frame", "000000", "--object", "0", "--point", "0",
             "--top-k", "500", "--out", out_file, "--seed", "0"]
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert len(payload["rows"]) == 500

    def test_exports_the_sample_annotate_labeled(self, dataset, training, tmp_path,
                                                 monkeypatch):
        import frustumbox.cli as cli

        built = {}
        original = cli.frame_samples

        def recorded(root, frame, *args, **kwargs):
            samples, empty = original(root, frame, *args, **kwargs)
            built[frame] = samples
            return samples, empty

        monkeypatch.setattr(cli, "frame_samples", recorded)
        ckpt = Path(training) / "ckpt_final.bin"
        assert run(["annotate", "--checkpoint", ckpt, "--dataset", dataset,
                    "--out", tmp_path / "ann", "--seed", "0"] + FAST) == 0
        monkeypatch.setattr(cli, "frame_samples", original)
        frame = manifest_frames(dataset)[-1]
        sample = built[frame][-1]
        out_file = tmp_path / "attn.json"
        assert run(["attn", "--checkpoint", ckpt, "--dataset", dataset, "--frame", frame,
                    "--object", len(built[frame]) - 1, "--point", "0", "--top-k", 16 + 7,
                    "--out", out_file, "--seed", "0"] + FAST) == 0
        payload = json.loads(out_file.read_text())
        assert payload["object_id"] == sample.object_id
        points = {r["point_index"]: r["coordinate"] for r in payload["rows"]
                  if r["kind"] == "point"}
        assert sorted(points) == list(range(len(sample.points)))
        np.testing.assert_array_equal([points[i] for i in sorted(points)],
                                      sample.points + sample.centroid)

    @pytest.mark.parametrize("top_k, code", [(None, 0), (0, 4), (16 + 8, 4)])
    def test_top_k_defaults_to_the_sequence_length(self, dataset, training, tmp_path,
                                                   capsys, top_k, code):
        out_file = tmp_path / "attn.json"
        flag = [] if top_k is None else ["--top-k", top_k]
        assert run(["attn", "--checkpoint", Path(training) / "ckpt_final.bin",
                    "--dataset", dataset, "--frame", "000000", "--object", "0",
                    "--point", "0", "--out", out_file, "--seed", "0"] + flag + FAST) == code
        if code:
            assert f"error category=data: top_k {top_k} outside 1..23" in capsys.readouterr().err
        else:
            payload = json.loads(out_file.read_text())
            assert payload["top_k"] == len(payload["rows"]) == 16 + 7

    @pytest.fixture(scope="class")
    def two_layer_ckpt(self, tmp_path_factory):
        from frustumbox.model import BoxAnnotator, ModelConfig

        cfg = ModelConfig(d=16, n_points=16, n_local_layers=2, n_global_layers=1,
                          n_decoder_layers=1, heads=2, head_hidden=16)
        model = BoxAnnotator(cfg, rng=np.random.default_rng(0))
        return model.save(tmp_path_factory.mktemp("two_layer") / "model.ckpt")

    @pytest.mark.parametrize("layer", [0, 1])
    def test_one_objects_recompute_equals_the_whole_frames(self, dataset, two_layer_ckpt,
                                                           tmp_path, monkeypatch, layer):
        # an object's local maps depend on its own points only, so `attn`
        # recomputes the chosen object alone; the full model's JSON must be
        # that of the whole frame's recompute
        from frustumbox.frustums import frame_samples
        from frustumbox.model import BoxAnnotator

        samples, _ = frame_samples(dataset, "000000", 16, 0, require_gt=False)
        chosen = len(samples) - 1
        assert chosen > 0

        def attn(out_file):
            return run(["attn", "--checkpoint", two_layer_ckpt, "--dataset", dataset,
                        "--frame", "000000", "--object", chosen, "--point", "3",
                        "--layer", layer, "--out", out_file, "--seed", "0"] + FAST)

        assert attn(tmp_path / "alone.json") == 0
        one_object = BoxAnnotator.local_attention

        def whole_frame(model, points, layer):
            np.testing.assert_array_equal(points, samples[chosen].points[None])
            frame = np.stack([s.points for s in samples])
            return one_object(model, frame, layer)[chosen : chosen + 1]

        monkeypatch.setattr(BoxAnnotator, "local_attention", whole_frame)
        assert attn(tmp_path / "frame.json") == 0
        assert (tmp_path / "alone.json").read_bytes() == (tmp_path / "frame.json").read_bytes()

    def _attn_layer(self, dataset, ckpt, out_file, layer):
        return run(["attn", "--checkpoint", ckpt, "--dataset", dataset, "--frame", "000000",
                    "--object", "0", "--point", "3", "--layer", layer, "--out", out_file,
                    "--seed", "0"] + FAST)

    def test_layer_picks_the_local_layer(self, dataset, two_layer_ckpt, tmp_path):
        payloads = {}
        for layer in (0, 1, -1):
            assert self._attn_layer(dataset, two_layer_ckpt, tmp_path / f"{layer}.json",
                                    layer) == 0
            payloads[layer] = json.loads((tmp_path / f"{layer}.json").read_text())
            assert payloads[layer]["layer"] == layer
        assert payloads[0]["rows"] != payloads[-1]["rows"]
        assert payloads[0]["box_token_rows"] != payloads[-1]["box_token_rows"]
        # -1 counts from the last layer: the second of two
        payloads[1]["layer"] = -1
        assert payloads[1] == payloads[-1]

    @pytest.mark.parametrize("layer", [2, -3])
    def test_layer_outside_the_stack(self, dataset, two_layer_ckpt, tmp_path, capsys, layer):
        out_file = tmp_path / "attn.json"
        assert self._attn_layer(dataset, two_layer_ckpt, out_file, layer) == 4
        assert (f"error category=data: layer {layer} outside the 2 local layers"
                in capsys.readouterr().err)
        assert not out_file.exists()

    def test_out_of_range_indices(self, dataset, training, tmp_path, capsys):
        code = run(
            ["attn", "--checkpoint", Path(training) / "ckpt_final.bin",
             "--dataset", dataset, "--frame", "000000", "--object", "99",
             "--point", "0", "--out", tmp_path / "x.json"] + FAST
        )
        assert code == 4
        assert "error category=data" in capsys.readouterr().err


class TestAblateCommand:
    def test_two_variant_table(self, dataset, tmp_path):
        out = tmp_path / "abl"
        # exercise the harness through the library entry with a tiny budget
        from frustumbox.config import build_run_config
        from frustumbox.evaluate import run_ablation
        from frustumbox.frustums import build_dataset_samples, filter_samples

        cfg = build_run_config({k.split("=")[0]: k.split("=")[1] for k in FAST})
        train_s, _ = filter_samples(
            build_dataset_samples(dataset, cfg.model.n_points, 0, split="train")
        )
        eval_s, _ = filter_samples(
            build_dataset_samples(dataset, cfg.model.n_points, 0, split="val")
        )
        rows = run_ablation(train_s, eval_s, cfg.model, cfg.train, seeds=[0],
                            variants=("A", "B"))
        assert [r.name for r in rows] == ["A", "B"]
        for row in rows:
            assert 0.0 <= row.mean["miou"] <= 1.0

    @pytest.mark.parametrize("flag", ["--train-split", "--eval-split"])
    def test_unknown_split_is_config_error(self, dataset, tmp_path, capsys, flag):
        out = tmp_path / "abl"
        assert run(["ablate", "--dataset", dataset, "--out", out, flag, "vall",
                    "--seed", "0"] + FAST) == 2
        assert ("error category=config: no manifest frame is in split 'vall'; "
                "splits present: train, val") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["a", "-1", "1,,x", ","])
    def test_bad_seed_list_is_config_error(self, dataset, tmp_path, capsys, seeds):
        code = run(["ablate", "--dataset", dataset, "--out", tmp_path / "abl", "--seeds",
                    seeds, "--seed", "0"] + FAST)
        assert code == 2
        assert "error category=config" in capsys.readouterr().err
        assert not (tmp_path / "abl").exists()

    def test_cli_ablate_writes_table(self, dataset, tmp_path):
        out = tmp_path / "abl_cli"
        code = run(
            ["ablate", "--dataset", dataset, "--out", out, "--seeds", "0",
             "--seed", "0", "train.epochs=1"] + FAST
        )
        assert code == 0
        table = (out / "ablation.txt").read_text()
        assert len(table.strip().splitlines()) == 5
        payload = json.loads((out / "ablation.json").read_text())
        assert sorted(payload) == ["A", "B", "C", "D", "full"]
        assert payload["A"]["toggles"] == {"n_global_layers": 0, "n_decoder_layers": 0,
                                           "pos_mode": "none"}
        assert payload["B"]["toggles"] == {"n_global_layers": 1, "n_decoder_layers": 0,
                                           "pos_mode": "none"}
        assert payload["D"]["toggles"] == {"n_global_layers": 1, "n_decoder_layers": 1,
                                           "pos_mode": "sine"}
