"""Run configuration: flat `key = value` files with dotted keys.

Every field has a recorded default; parse -> serialize -> parse is a fixed
point.  Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .model import ModelConfig
from .pipeline import AugConfig


class ConfigError(ValueError):
    pass


_DTYPES = {"float32": np.float32, "float64": np.float64}


@dataclass
class OptimConfig:
    lr: float = 1e-4
    lr_decay: float = 1.0        # multiplicative per-epoch factor
    epochs: int = 25
    batch_size: int = 8
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    max_steps: int = 2000
    checkpoint_interval: int = 10  # epochs

    def __post_init__(self):
        for key in ("epochs", "batch_size", "max_steps", "checkpoint_interval"):
            if getattr(self, key) < 1:
                raise ConfigError(f"optim.{key} must be >= 1, "
                                  f"got {getattr(self, key)}")
        # lr = 0 is allowed: it leaves the model at its init
        if not 0 <= self.lr < np.inf:
            raise ConfigError(f"optim.lr must be in [0, inf), got {self.lr}")
        if not 0 < self.lr_decay < np.inf:
            raise ConfigError(f"optim.lr_decay must be in (0, inf), got {self.lr_decay}")
        for key in ("beta1", "beta2"):  # Adam divides by 1 - beta**t
            if not 0 <= getattr(self, key) < 1:
                raise ConfigError(f"optim.{key} must be in [0,1), "
                                  f"got {getattr(self, key)}")
        # Adam divides m by sqrt(v) + eps, both 0 where all gradients were 0
        if not 0 < self.eps < np.inf:
            raise ConfigError(f"optim.eps must be in (0, inf), got {self.eps}")


@dataclass
class TrainConfig:
    seed: int = 7
    manifest: str = ""
    out_dir: str = "runs/default"
    dtype: str = "float32"
    multiscale: bool = True

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"train.seed must be >= 0, got {self.seed}")
        if self.dtype not in _DTYPES:
            raise ConfigError(f"train.dtype must be one of {', '.join(_DTYPES)}, "
                              f"got {self.dtype!r}")


@dataclass
class EvalConfig:
    threshold: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError(f"eval.threshold must be in [0,1], "
                              f"got {self.threshold}")


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    aug: AugConfig = field(default_factory=AugConfig)
    optim: OptimConfig = field(default_factory=OptimConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def np_dtype(self):
        return _DTYPES[self.train.dtype]

    def validate(self):
        """Check every section's ranges again, as after an edit in place."""
        for get in _SECTIONS.values():
            get(self).__post_init__()
        return self


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ",".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_scalar(text, proto):
    text = text.strip()
    if isinstance(proto, bool):
        if text not in ("true", "false"):
            raise ConfigError(f"expected true/false, got {text!r}")
        return text == "true"
    if isinstance(proto, int):
        return int(text)
    if isinstance(proto, float):
        return float(text)
    return text


def _parse_value(text, proto):
    if isinstance(proto, (tuple, list)):
        elem = proto[0] if len(proto) else 0
        if text.strip() == "":
            return ()
        return tuple(_parse_scalar(t, elem) for t in text.split(","))
    return _parse_scalar(text, proto)


_SECTIONS = {
    "model": lambda cfg: cfg.model,
    "backbone": lambda cfg: cfg.model.backbone,
    "aug": lambda cfg: cfg.aug,
    "optim": lambda cfg: cfg.optim,
    "train": lambda cfg: cfg.train,
    "eval": lambda cfg: cfg.eval,
}

# fields that hold nested dataclasses and are therefore not flat keys
_SKIP = {("model", "backbone")}


def serialize_config(cfg: RunConfig) -> str:
    lines = []
    for section in sorted(_SECTIONS):
        obj = _SECTIONS[section](cfg)
        for f in sorted(fields(obj), key=lambda f: f.name):
            if (section, f.name) in _SKIP:
                continue
            lines.append(f"{section}.{f.name} = {_fmt(getattr(obj, f.name))}")
    return "\n".join(lines) + "\n"


def parse_config(text) -> RunConfig:
    cfg = RunConfig()
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if "." not in key:
            raise ConfigError(f"line {ln}: key {key!r} must be dotted "
                              f"(section.field)")
        section, name = key.split(".", 1)
        if section not in _SECTIONS:
            raise ConfigError(f"line {ln}: unknown section {section!r}")
        obj = _SECTIONS[section](cfg)
        if not hasattr(obj, name) or (section, name) in _SKIP:
            raise ConfigError(f"line {ln}: unknown key {key!r}")
        proto = getattr(obj, name)
        try:
            setattr(obj, name, _parse_value(value, proto))
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"line {ln}: bad value for {key!r}: {exc}")
    return cfg.validate()


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config(f.read())


def save_config(path, cfg: RunConfig):
    with open(path, "w", encoding="utf-8") as f:
        f.write(serialize_config(cfg))
