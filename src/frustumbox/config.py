"""Run configuration: one key=value file, namespaced sections, overrides.

Keys are the fields of ``RunConfig`` and, as ``section.field``, of its model,
training and scene sections. Unknown keys are rejected outright so a typo can
never silently fall back to a default. ``resolved_text`` renders the fully
resolved configuration for logging; every command prints and persists it
before doing work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace

from .errors import ConfigError
from .model import ModelConfig
from .synthetic import SceneSpec
from .train import TrainConfig


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig.desk)
    train: TrainConfig = field(default_factory=TrainConfig)
    scene: SceneSpec = field(default_factory=SceneSpec)
    seed: int = 0
    n_scenes: int = 64
    val_every: int = 4


def _sections(cfg):
    """Field values by name of each section, and of the top level under ""."""
    values = {"": {}}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            values[f.name] = {g.name: getattr(value, g.name) for g in fields(value)}
        else:
            values[""][f.name] = value
    return values


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

    cfg = RunConfig()
    values = _sections(cfg)
    for key, raw in merged.items():
        section, _, name = key.rpartition(".")
        if name not in values.get(section, ()):
            raise ConfigError(f"unknown configuration key {key!r}")
        values[section][name] = value = _coerce(key, raw, values[section][name])
        if not section and value < 0:
            raise ConfigError(f"{key} must be >= 0, got {value}")
    top = values.pop("")
    # replace() re-runs each class's __post_init__, its one validation
    return replace(cfg, **top, **{name: replace(getattr(cfg, name), **section_values)
                                  for name, section_values in values.items()})


def load_run_config(path, overrides):
    pairs = {}
    if path is not None:
        with open(path) as fh:
            pairs = parse_config_text(fh.read())
    return build_run_config(pairs, overrides)


def resolved_text(cfg):
    """Deterministic dump of every resolved key, the top-level ones first."""
    lines = []
    for section, values in sorted(_sections(cfg).items()):
        for name, value in sorted(values.items()):
            if isinstance(value, (list, tuple)):
                value = ",".join(repr(float(v)) for v in value)
            lines.append(f"{section}.{name}={value}" if section else f"{name}={value}")
    return "\n".join(lines) + "\n"
