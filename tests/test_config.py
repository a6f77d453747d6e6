from dataclasses import fields, is_dataclass

import pytest

from frustumbox.errors import ConfigError
from frustumbox.model import ModelConfig
from frustumbox.synthetic import SceneSpec
from frustumbox.train import TrainConfig

from frustumbox.config import (
    RunConfig,
    build_run_config,
    load_run_config,
    parse_config_text,
    resolved_text,
)


class TestParseText:
    def test_basic_pairs_and_comments(self):
        text = """
        # a comment
        model.d = 32
        train.epochs=7   # trailing comment
        seed=5
        """
        pairs = parse_config_text(text)
        assert pairs == {"model.d": "32", "train.epochs": "7", "seed": "5"}

    def test_rejects_garbage_line(self):
        with pytest.raises(ConfigError, match="expected key=value"):
            parse_config_text("not a pair")


class TestBuild:
    def test_defaults(self):
        cfg = build_run_config()
        assert cfg.model.d == 64  # desk preset
        assert cfg.train.lr_max == 1e-4
        assert cfg.seed == 0

    def test_sections_and_types(self):
        cfg = build_run_config(
            {
                "model.d": "32",
                "model.n_global_layers": "0",
                "model.pos_mode": "sine",
                "train.epochs": "3",
                "train.lr_max": "5e-4",
                "scene.occlusion": "0.4",
                "scene.length_range": "3.0,4.0",
                "n_scenes": "9",
            }
        )
        assert cfg.model.d == 32 and cfg.model.n_global_layers == 0
        assert cfg.model.pos_mode == "sine"
        assert cfg.train.epochs == 3 and cfg.train.lr_max == 5e-4
        assert cfg.scene.occlusion == 0.4
        assert cfg.scene.length_range == (3.0, 4.0)
        assert cfg.n_scenes == 9

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration key 'model.dd'"):
            build_run_config({"model.dd": "1"})
        with pytest.raises(ConfigError, match="unknown configuration key 'model.use_global'"):
            build_run_config({"model.use_global": "false"})
        with pytest.raises(ConfigError, match="unknown configuration key 'banana'"):
            build_run_config({"banana": "1"})

    def test_overrides_beat_file(self):
        cfg = build_run_config({"train.epochs": "2"}, overrides=["train.epochs=9"])
        assert cfg.train.epochs == 9

    def test_bad_bool(self):
        with pytest.raises(ConfigError, match="train.augment: expected a boolean, got 'maybe'"):
            build_run_config({"train.augment": "maybe"})

    @pytest.mark.parametrize("key, raw", [("model.d", "abc"), ("train.lr_max", "fast"),
                                          ("scene.length_range", "3,x"), ("seed", "1.5")])
    def test_bad_number_names_the_key(self, key, raw):
        with pytest.raises(ConfigError, match=f"^{key}: "):
            build_run_config({key: raw})

    @pytest.mark.parametrize("key, raw", [("train.lr_max", "nan"), ("scene.noise_sigma", "inf"),
                                          ("scene.length_range", "3,-inf")])
    def test_non_finite_float_names_the_key(self, key, raw):
        with pytest.raises(ConfigError, match=f"^{key}: expected finite numbers, got '{raw}'$"):
            build_run_config({key: raw})

    @pytest.mark.parametrize("key", ["seed", "n_scenes", "val_every"])
    def test_negative_top_level_value_rejected(self, key):
        with pytest.raises(ConfigError, match=f"^{key} must be >= 0, got -1$"):
            build_run_config({key: "-1"})

    def test_invalid_resulting_config_raises(self):
        # d not divisible by heads is rejected at construction
        with pytest.raises(ConfigError, match="embed width 30 not divisible by 8 heads"):
            build_run_config({"model.d": "30"})


class TestResolvedText:
    def test_roundtrip_is_identity(self):
        cfg = build_run_config({"model.d": "32", "train.epochs": "3", "seed": "4"})
        text = resolved_text(cfg)
        again = build_run_config(parse_config_text(text))
        assert resolved_text(again) == text

    def test_every_field_is_a_key(self):
        # every field away from its default: a field the resolver skipped
        # would come back at its default, or be missing from the text
        cfg = RunConfig(
            model=ModelConfig(d=48, n_points=96, n_local_layers=3, n_global_layers=2,
                              n_decoder_layers=0, heads=4, head_hidden=80, pos_mode="sine"),
            train=TrainConfig(batch_size=3, epochs=5, lr_max=2e-3, lr_min=1e-5,
                              weight_decay=0.01, lambda_box=2.5, augment=False,
                              shift_range=0.5, scale_low=0.9, scale_high=1.1, flip_prob=0.25,
                              checkpoint_every=2),
            scene=SceneSpec(n_objects_min=1, n_objects_max=4, length_range=(3.0, 4.0),
                            width_range=(1.4, 2.0), height_range=(1.2, 1.9),
                            yaw_range=(-1.0, 1.0), range_min=5.0, range_max=30.0,
                            occlusion=0.2, truncation=0.1, noise_sigma=0.02,
                            clutter_density=0.3, points_base=300, points_min=10,
                            points_max=1000, ground_z=-1.5),
            seed=7, n_scenes=9, val_every=3,
        )
        default = RunConfig()
        for obj, base in [(cfg, default)] + [(getattr(cfg, s), getattr(default, s))
                                             for s in ("model", "train", "scene")]:
            for f in fields(obj):
                if not is_dataclass(getattr(obj, f.name)):
                    assert getattr(obj, f.name) != getattr(base, f.name), f.name

        text = resolved_text(cfg)
        assert build_run_config(parse_config_text(text)) == cfg
        sections = {"model": ModelConfig, "train": TrainConfig, "scene": SceneSpec}
        keys = {f.name for f in fields(RunConfig) if f.name not in sections}
        keys |= {f"{s}.{f.name}" for s, cls in sections.items() for f in fields(cls)}
        assert {line.partition("=")[0] for line in text.splitlines()} == keys

    def test_defaults_are_the_field_defaults(self):
        assert build_run_config() == RunConfig()

    def test_lists_every_key(self):
        text = resolved_text(RunConfig())
        assert "model.d=" in text
        assert "train.lr_max=" in text
        assert "scene.noise_sigma=" in text
        assert "seed=" in text

    def test_file_loading(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("model.d=16\nmodel.heads=2\n")
        cfg = load_run_config(path, overrides=["seed=11"])
        assert cfg.model.d == 16 and cfg.seed == 11
