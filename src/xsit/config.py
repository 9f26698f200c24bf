"""Run configuration: built-in defaults < config file < CLI overrides.

The config file is JSON with three sections (encoder, psp, train); the
resolved effective config is echoed to <out>/config.resolved.json on every
training run. Every value, from the file or an override, must have its
default's JSON type (a float key also takes an integer) and lie in range.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass

from .encoder import EncoderConfig


DEFAULTS = {
    "encoder": {
        "dim": 48,
        "depth": 4,
        "heads": 6,
        "mlp_ratio": 4,
        "dropout": 0.1,
    },
    "psp": {
        "class_restricted_projection": True,
        "rectify_prototypes": True,
    },
    "train": {
        "epochs": 30,
        "batch_size": 16,
        "lr": 1e-4,
        "weight_decay": 1e-2,
        "projection_period": 5,
        "seed": 0,
        "class_weighted": True,
    },
}

_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number"}

# Ranges beyond the type: (test, description) per key.
_RANGES = {
    "encoder.dropout": (lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
    "train.lr": (lambda v: v > 0.0, "> 0"),
    "train.weight_decay": (lambda v: v >= 0.0, ">= 0"),
}


class ConfigError(ValueError):
    pass


def _checked(section: str, key: str, val):
    """`val` as the type of the key's default, or ConfigError. Bools are
    JSON true/false only, ints take no fractional part, floats take ints."""
    dotted = f"{section}.{key}"
    if section not in DEFAULTS or key not in DEFAULTS[section]:
        raise ConfigError(f"unknown config key '{dotted}'")
    kind = type(DEFAULTS[section][key])
    number = isinstance(val, (int, float)) and not isinstance(val, bool)
    if kind is bool:
        ok = isinstance(val, bool)
    elif kind is int:
        ok = number and (isinstance(val, int) or val.is_integer())
    else:
        ok = number
    if not ok:
        raise ConfigError(f"config key '{dotted}' needs "
                          f"{_TYPE_NAMES[kind]}, got {val!r}")
    val = kind(val)
    if dotted in _RANGES and not _RANGES[dotted][0](val):
        raise ConfigError(f"config key '{dotted}' must be "
                          f"{_RANGES[dotted][1]}, got {val!r}")
    return val


def load_config(path: str | None = None, overrides: dict | None = None) -> dict:
    """Merge defaults, an optional JSON file, and flat 'section.key'
    overrides. An override given as text is read as JSON, so 'true' is a
    bool and '3' an int; text that is not JSON stays a string."""
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        with open(path) as f:
            user = json.load(f)
        if not isinstance(user, dict) or not all(
                isinstance(v, dict) for v in user.values()):
            raise ConfigError(f"{path}: config must map sections to objects")
        for section, values in user.items():
            if section not in cfg:
                raise ConfigError(f"unknown config section '{section}'")
            for key, val in values.items():
                cfg[section][key] = _checked(section, key, val)
    for dotted, val in (overrides or {}).items():
        if isinstance(val, str):
            try:
                val = json.loads(val)
            except json.JSONDecodeError:
                pass
        section, _, key = dotted.partition(".")
        cfg[section][key] = _checked(section, key, val)
    return cfg


def encoder_config(cfg: dict, seq_len: int, patch_size: int,
                   channels: int) -> EncoderConfig:
    e = cfg["encoder"]
    return EncoderConfig(dim=e["dim"], depth=e["depth"], heads=e["heads"],
                         mlp_ratio=e["mlp_ratio"], dropout=e["dropout"],
                         seq_len=seq_len, patch_size=patch_size,
                         channels=channels)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 16
    lr: float = 1e-4
    weight_decay: float = 1e-2
    projection_period: int = 5
    seed: int = 0
    class_weighted: bool = True

    def __post_init__(self):
        if self.epochs < 0 or self.projection_period < 1 or self.batch_size < 1:
            raise ConfigError("train config out of range")


def train_config(cfg: dict) -> TrainConfig:
    t = cfg["train"]
    return TrainConfig(epochs=t["epochs"], batch_size=t["batch_size"],
                       lr=t["lr"], weight_decay=t["weight_decay"],
                       projection_period=t["projection_period"], seed=t["seed"],
                       class_weighted=t["class_weighted"])
