import json
import re

import pytest

from xsit import config as cfgmod
from xsit.files import InputError


class TestLoadConfig:
    def test_defaults(self):
        cfg = cfgmod.load_config()
        assert cfg["encoder"]["dim"] == 48
        assert cfg["train"]["epochs"] == 30
        assert cfg == cfgmod.DEFAULTS
        assert cfg is not cfgmod.DEFAULTS

    def test_file_merge(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"encoder": {"dim": 36},
                                 "train": {"lr": 3e-4}}))
        cfg = cfgmod.load_config(str(p))
        assert cfg["encoder"]["dim"] == 36
        assert cfg["train"]["lr"] == 3e-4
        assert cfg["encoder"]["depth"] == 4  # untouched default

    def test_unknown_section(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"nope": {}}))
        with pytest.raises(InputError, match="section"):
            cfgmod.load_config(str(p))

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"train": {"nope": 1}}))
        with pytest.raises(InputError, match="train.nope"):
            cfgmod.load_config(str(p))

    def test_overrides_win_over_file(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"train": {"epochs": 5}}))
        cfg = cfgmod.load_config(str(p), {"train.epochs": 7})
        assert cfg["train"]["epochs"] == 7

    def test_override_coerces_type(self):
        cfg = cfgmod.load_config(overrides={"train.lr": "0.001"})
        assert cfg["train"]["lr"] == 0.001
        assert isinstance(cfg["train"]["lr"], float)

    def test_bad_override_key(self):
        with pytest.raises(InputError):
            cfgmod.load_config(overrides={"train.nope": 1})


class TestTrainConfig:
    def test_from_dict(self):
        t = cfgmod.load_config()["train"]
        assert t["epochs"] == 30 and t["projection_period"] == 5

    def test_rejects_bad_values(self):
        with pytest.raises(InputError):
            cfgmod.load_config(overrides={"train.projection_period": 0})
        with pytest.raises(InputError):
            cfgmod.load_config(overrides={"train.epochs": -1})


class TestBounds:
    """Values of the right type that no run can use fail in load_config,
    with a message that names the key."""

    @pytest.mark.parametrize("key,val", [
        ("train.batch_size", 0), ("train.projection_period", 0),
        ("train.epochs", -1), ("encoder.heads", 5), ("encoder.dim", 0),
        ("encoder.depth", -1), ("train.seed", -1)])
    def test_rejected_naming_the_key(self, key, val):
        with pytest.raises(InputError, match=re.escape(key)):
            cfgmod.load_config(overrides={key: val})

    def test_encoder_section_from_file(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"encoder": {"dim": 20, "heads": 3}}))
        with pytest.raises(InputError, match="encoder.heads"):
            cfgmod.load_config(str(p))

    def test_lowest_values_pass(self):
        cfg = cfgmod.load_config(overrides={
            "train.batch_size": 1, "train.projection_period": 1,
            "train.epochs": 0, "encoder.depth": 0, "encoder.dim": 6})
        assert cfg["train"]["epochs"] == 0 and cfg["encoder"]["depth"] == 0


class TestStrictTypes:
    """One check for config-file values and overrides alike."""

    def write(self, tmp_path, cfg):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        return str(p)

    def test_data_section_is_gone(self, tmp_path):
        with pytest.raises(InputError, match="data.normalize"):
            cfgmod.load_config(overrides={"data.normalize": "false"})
        with pytest.raises(InputError, match="section 'data'"):
            cfgmod.load_config(self.write(tmp_path,
                                          {"data": {"normalize": False}}))

    def test_bool_only_from_json_bools(self, tmp_path):
        for val in ("no", "yes", "1", 1, 0):
            with pytest.raises(InputError, match="true or false"):
                cfgmod.load_config(overrides={"train.class_weighted": val})
        with pytest.raises(InputError, match="class_weighted"):
            cfgmod.load_config(self.write(
                tmp_path, {"train": {"class_weighted": "no"}}))
        cfg = cfgmod.load_config(overrides={"train.class_weighted": "false"})
        assert cfg["train"]["class_weighted"] is False

    def test_int_rejects_fractions(self, tmp_path):
        with pytest.raises(InputError, match="an integer"):
            cfgmod.load_config(overrides={"train.epochs": "2.7"})
        with pytest.raises(InputError, match="an integer"):
            cfgmod.load_config(self.write(tmp_path, {"train": {"epochs": 2.7}}))
        with pytest.raises(InputError, match="an integer"):
            cfgmod.load_config(overrides={"train.epochs": True})
        cfg = cfgmod.load_config(overrides={"train.epochs": "5.0"})
        assert cfg["train"]["epochs"] == 5
        assert isinstance(cfg["train"]["epochs"], int)

    def test_float_accepts_int(self, tmp_path):
        cfg = cfgmod.load_config(self.write(tmp_path, {"train": {"lr": 1}}),
                                 {"encoder.dropout": "0"})
        assert cfg["train"]["lr"] == 1.0
        assert isinstance(cfg["train"]["lr"], float)
        assert isinstance(cfg["encoder"]["dropout"], float)

    def test_file_must_map_sections_to_objects(self, tmp_path):
        for bad in ([], {"train": 5}):
            with pytest.raises(InputError, match="sections"):
                cfgmod.load_config(self.write(tmp_path, bad))

    def test_file_not_json_names_the_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"train": {lr: 1}}')
        with pytest.raises(InputError,
                           match=re.escape(f"{path}: not valid JSON")):
            cfgmod.load_config(str(path))

    def test_file_string_is_not_a_number(self, tmp_path):
        with pytest.raises(InputError, match="train.lr"):
            cfgmod.load_config(self.write(tmp_path,
                                          {"train": {"lr": "0.001"}}))

    def test_dropout_below_one(self):
        with pytest.raises(InputError, match=r"\[0, 1\)"):
            cfgmod.load_config(overrides={"encoder.dropout": "1.0"})
        with pytest.raises(InputError, match=r"\[0, 1\)"):
            cfgmod.load_config(overrides={"encoder.dropout": "-0.1"})
        cfg = cfgmod.load_config(overrides={"encoder.dropout": "0.99"})
        assert cfg["encoder"]["dropout"] == 0.99

    def test_lr_positive_and_weight_decay_nonnegative(self):
        for lr in ("0", "-1"):
            with pytest.raises(InputError, match="train.lr"):
                cfgmod.load_config(overrides={"train.lr": lr})
        with pytest.raises(InputError, match="weight_decay"):
            cfgmod.load_config(overrides={"train.weight_decay": "-1e-3"})
        cfg = cfgmod.load_config(overrides={"train.weight_decay": "0"})
        assert cfg["train"]["weight_decay"] == 0.0
