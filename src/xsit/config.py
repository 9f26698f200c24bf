"""Run configuration: built-in defaults < config file < CLI overrides.

The config file is JSON with three sections (encoder, psp, train); the
resolved effective config is echoed to <out>/config.resolved.json on every
training run. Every value, from the file or an override, must have its
field's type by the one type rule of `surface.checked` and lie in range,
and the encoder section must pass EncoderConfig's own checks.
"""

from __future__ import annotations

import contextlib
import copy
import json

from .encoder import EncoderConfig
from .surface import SurfaceError, checked


DEFAULTS = {
    "encoder": {k: getattr(EncoderConfig(), k)
                for k in ("dim", "depth", "heads", "mlp_ratio", "dropout")},
    "psp": {"rectify_prototypes": True},
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

# key -> (type, test, description) of every setting
FIELDS = {
    "encoder.dim": (int, lambda v: v >= 1, ">= 1"),
    "encoder.depth": (int, lambda v: v >= 0, ">= 0"),
    "encoder.heads": (int, lambda v: v >= 1, ">= 1"),
    "encoder.mlp_ratio": (int, lambda v: v >= 1, ">= 1"),
    "encoder.dropout": (float, lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
    "psp.rectify_prototypes": (bool, None, ""),
    "train.epochs": (int, lambda v: v >= 0, ">= 0"),
    "train.batch_size": (int, lambda v: v >= 1, ">= 1"),
    "train.lr": (float, lambda v: v > 0.0, "> 0"),
    "train.weight_decay": (float, lambda v: v >= 0.0, ">= 0"),
    "train.projection_period": (int, lambda v: v >= 1, ">= 1"),
    "train.seed": (int, lambda v: v >= 0, ">= 0"),
    "train.class_weighted": (bool, None, ""),
}

ConfigError = SurfaceError  # a bad setting is a bad input like any other


def check_settings(where: str, values: dict) -> dict:
    """`values`, keyed 'section.key', each checked against FIELDS and made
    its type (a float setting given as an integer is a float); `where`
    names their source."""
    for key in values:
        if key not in FIELDS:
            raise ConfigError(f"{where}unknown config key '{key}'")
    return {k: FIELDS[k][0](checked(f"{where}config ", k, v, FIELDS[k]))
            for k, v in values.items()}


def load_config(path: str | None = None, overrides: dict | None = None) -> dict:
    """Merge defaults, an optional JSON file, and flat 'section.key'
    overrides. An override given as text is read as JSON, so 'true' is a
    bool and '3' an int; text that is not JSON stays a string. An error
    names the file, or '--set' for an override, and the key."""
    given = {}
    if path is not None:
        with open(path) as f:
            try:
                user = json.load(f)
            except json.JSONDecodeError as e:
                raise ConfigError(f"{path}: not valid JSON ({e})") from e
        if not isinstance(user, dict) or not all(
                isinstance(v, dict) for v in user.values()):
            raise ConfigError(f"{path}: config must map sections to objects")
        for section in user:
            if section not in DEFAULTS:
                raise ConfigError(f"{path}: unknown config section "
                                  f"'{section}'")
        given = check_settings(f"{path}: ", {f"{s}.{k}": v for s, vals in
                                             user.items() for k, v in
                                             vals.items()})
    texts = dict(overrides or {})
    for key, val in texts.items():
        with contextlib.suppress(TypeError, ValueError):
            texts[key] = json.loads(val)
    given.update(check_settings("--set: ", texts))
    cfg = copy.deepcopy(DEFAULTS)
    for dotted, val in given.items():
        section, key = dotted.split(".")
        cfg[section][key] = val
    EncoderConfig(**cfg["encoder"])
    return cfg
