"""Run configuration: one key=value file, namespaced sections, overrides.

Keys are ``section.field`` for the model, training, and scene sections plus
a few top-level run keys. Unknown keys are rejected outright so a typo can
never silently fall back to a default. ``resolved_text`` renders the fully
resolved configuration for logging; every command prints and persists it
before doing work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError
from .model import ModelConfig
from .synthetic import SceneSpec
from .train import TrainConfig


@dataclass
class RunConfig:
    model: ModelConfig
    train: TrainConfig
    scene: SceneSpec
    seed: int = 0
    n_scenes: int = 64
    val_every: int = 4

    @classmethod
    def default(cls):
        return cls(model=ModelConfig.desk(), train=TrainConfig(), scene=SceneSpec())


_TOP_LEVEL = {"seed": int, "n_scenes": int, "val_every": int}
_SECTIONS = {"model": ModelConfig, "train": TrainConfig, "scene": SceneSpec}


def _coerce(key, raw, like):
    """Parse key's string value into the type of its current value `like`."""
    if isinstance(like, bool):
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    try:
        if isinstance(like, int):
            return int(raw)
        if isinstance(like, float):
            values = (float(raw),)
        elif isinstance(like, (tuple, list)):
            values = tuple(float(tok) for tok in raw.split(","))
        else:
            return raw
    except ValueError as err:
        raise ConfigError(f"{key}: {err}") from None
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{key}: expected finite numbers, got {raw!r}")
    return values[0] if isinstance(like, float) else values


def parse_config_text(text):
    """key=value lines into an ordered dict; '#' starts a comment."""
    pairs = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line.strip()!r}")
        key, _, value = stripped.partition("=")
        pairs[key.strip()] = value.strip()
    return pairs


def build_run_config(pairs=None, overrides=()):
    """Resolve defaults, file pairs, then command-line overrides, in order."""
    merged = dict(pairs or {})
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, _, value = item.partition("=")
        merged[key.strip()] = value.strip()

    cfg = RunConfig.default()
    section_values = {name: cfg_obj.to_dict() for name, cfg_obj in
                      (("model", cfg.model), ("train", cfg.train), ("scene", cfg.scene))}
    top_values = {"seed": cfg.seed, "n_scenes": cfg.n_scenes, "val_every": cfg.val_every}

    for key, raw in merged.items():
        if key in _TOP_LEVEL:
            top_values[key] = _coerce(key, raw, top_values[key])
            if top_values[key] < 0:
                raise ConfigError(f"{key} must be >= 0, got {top_values[key]}")
            continue
        section, _, field_name = key.partition(".")
        if section in _SECTIONS and field_name in section_values[section]:
            current = section_values[section][field_name]
            section_values[section][field_name] = _coerce(key, raw, current)
        else:
            raise ConfigError(f"unknown configuration key {key!r}")

    return RunConfig(
        model=ModelConfig.from_dict(section_values["model"]),
        train=TrainConfig.from_dict(section_values["train"]),
        scene=SceneSpec.from_dict(section_values["scene"]),
        **top_values,
    )


def load_run_config(path=None, overrides=()):
    pairs = {}
    if path is not None:
        with open(path) as fh:
            pairs = parse_config_text(fh.read())
    return build_run_config(pairs, overrides)


def resolved_text(cfg):
    """Deterministic dump of every resolved key."""
    lines = []
    for key in sorted(_TOP_LEVEL):
        lines.append(f"{key}={getattr(cfg, key)}")
    for section in sorted(_SECTIONS):
        values = getattr(cfg, section).to_dict()
        for field_name in sorted(values):
            value = values[field_name]
            if isinstance(value, (list, tuple)):
                value = ",".join(repr(float(v)) for v in value)
            lines.append(f"{section}.{field_name}={value}")
    return "\n".join(lines) + "\n"
