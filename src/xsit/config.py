"""Run configuration: built-in defaults < config file < CLI overrides.

The config file is JSON with three sections (encoder, psp, train); the
resolved effective config is echoed to <out>/config.resolved.json on every
training run. Every value, from the file or an override, must have its
field's type by the one type rule of `files.checked` and lie in range,
and the encoder section must pass EncoderConfig's own checks.
"""

from __future__ import annotations

import contextlib
import copy
import json

from .encoder import EncoderConfig
from .files import InputError, checked


_ENCODER = EncoderConfig()

# key -> (type, test, description, default) of every setting
FIELDS = {
    "encoder.dim": (int, lambda v: v >= 1, ">= 1", _ENCODER.dim),
    "encoder.depth": (int, lambda v: v >= 0, ">= 0", _ENCODER.depth),
    "encoder.heads": (int, lambda v: v >= 1, ">= 1", _ENCODER.heads),
    "encoder.mlp_ratio": (int, lambda v: v >= 1, ">= 1", _ENCODER.mlp_ratio),
    "encoder.dropout": (float, lambda v: 0.0 <= v < 1.0, "in [0, 1)",
                        _ENCODER.dropout),
    "psp.rectify_prototypes": (bool, None, "", True),
    "train.epochs": (int, lambda v: v >= 0, ">= 0", 30),
    "train.batch_size": (int, lambda v: v >= 1, ">= 1", 16),
    "train.lr": (float, lambda v: v > 0.0, "> 0", 1e-4),
    "train.weight_decay": (float, lambda v: v >= 0.0, ">= 0", 1e-2),
    "train.projection_period": (int, lambda v: v >= 1, ">= 1", 5),
    "train.seed": (int, lambda v: v >= 0, ">= 0", 0),
    "train.class_weighted": (bool, None, "", True),
}

# section -> key -> default, read off FIELDS
DEFAULTS = {}
for _key, (*_, _default) in FIELDS.items():
    _section, _name = _key.split(".")
    DEFAULTS.setdefault(_section, {})[_name] = _default


def check_settings(where: str, values: dict) -> dict:
    """`values`, keyed 'section.key', each checked against FIELDS and made
    its type (a float setting given as an integer is a float); `where`
    names their source."""
    for key in values:
        if key not in FIELDS:
            raise InputError(f"{where}unknown config key '{key}'")
    return {k: FIELDS[k][0](checked(f"{where}config ", k, v, FIELDS[k][:3]))
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
                raise InputError(f"{path}: not valid JSON ({e})") from e
        if not isinstance(user, dict) or not all(
                isinstance(v, dict) for v in user.values()):
            raise InputError(f"{path}: config must map sections to objects")
        for section in user:
            if section not in DEFAULTS:
                raise InputError(f"{path}: unknown config section "
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
