"""Run configuration: built-in defaults < config file < CLI overrides.

The config file is JSON with three sections (encoder, psp, train); the
resolved effective config is echoed to <out>/config.resolved.json on every
training run. Every value, from the file or an override, must have its
default's JSON type (a float key also takes an integer) and lie in range,
and the encoder section must pass EncoderConfig's own checks.
"""

from __future__ import annotations

import copy
import json

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

TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number"}

# Ranges beyond the type: (test, description) per key.
_RANGES = {
    "encoder.dropout": (lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
    "train.lr": (lambda v: v > 0.0, "> 0"),
    "train.weight_decay": (lambda v: v >= 0.0, ">= 0"),
    "train.epochs": (lambda v: v >= 0, ">= 0"),
    "train.batch_size": (lambda v: v >= 1, ">= 1"),
    "train.projection_period": (lambda v: v >= 1, ">= 1"),
}


class ConfigError(ValueError):
    pass


def has_type(kind: type, val) -> bool:
    """The type rule of every JSON setting: bools are JSON true/false only,
    ints take no fractional part, floats take ints."""
    number = isinstance(val, (int, float)) and not isinstance(val, bool)
    if kind is bool:
        return isinstance(val, bool)
    if kind is int:
        return number and (isinstance(val, int) or val.is_integer())
    return number


def _checked(section: str, key: str, val):
    """`val` as the type of the key's default, or ConfigError."""
    dotted = f"{section}.{key}"
    if section not in DEFAULTS or key not in DEFAULTS[section]:
        raise ConfigError(f"unknown config key '{dotted}'")
    kind = type(DEFAULTS[section][key])
    if not has_type(kind, val):
        raise ConfigError(f"config key '{dotted}' needs "
                          f"{TYPE_NAMES[kind]}, got {val!r}")
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
            try:
                user = json.load(f)
            except json.JSONDecodeError as e:
                raise ConfigError(f"{path}: not valid JSON ({e})") from e
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
    try:
        EncoderConfig(**cfg["encoder"])
    except ValueError as e:
        raise ConfigError(f"config key {e}") from e
    return cfg
