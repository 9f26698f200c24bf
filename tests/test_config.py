import json

import pytest

from xsit import config as cfgmod


class TestLoadConfig:
    def test_defaults(self):
        cfg = cfgmod.load_config()
        assert cfg["encoder"]["dim"] == 48
        assert cfg["train"]["epochs"] == 30
        assert cfg == cfgmod.DEFAULTS
        assert cfg is not cfgmod.DEFAULTS

    def test_file_merge(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"encoder": {"dim": 32},
                                 "train": {"lr": 3e-4}}))
        cfg = cfgmod.load_config(str(p))
        assert cfg["encoder"]["dim"] == 32
        assert cfg["train"]["lr"] == 3e-4
        assert cfg["encoder"]["depth"] == 4  # untouched default

    def test_unknown_section(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"nope": {}}))
        with pytest.raises(cfgmod.ConfigError, match="section"):
            cfgmod.load_config(str(p))

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"train": {"nope": 1}}))
        with pytest.raises(cfgmod.ConfigError, match="train.nope"):
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
        with pytest.raises(cfgmod.ConfigError):
            cfgmod.load_config(overrides={"train.nope": 1})


class TestTrainConfig:
    def test_from_dict(self):
        t = cfgmod.train_config(cfgmod.load_config())
        assert t.epochs == 30 and t.projection_period == 5

    def test_rejects_bad_values(self):
        with pytest.raises(cfgmod.ConfigError):
            cfgmod.TrainConfig(projection_period=0)
        with pytest.raises(cfgmod.ConfigError):
            cfgmod.TrainConfig(epochs=-1)


class TestStrictTypes:
    """One check for config-file values and overrides alike."""

    def write(self, tmp_path, cfg):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        return str(p)

    def test_data_section_is_gone(self, tmp_path):
        with pytest.raises(cfgmod.ConfigError, match="data.normalize"):
            cfgmod.load_config(overrides={"data.normalize": "false"})
        with pytest.raises(cfgmod.ConfigError, match="section 'data'"):
            cfgmod.load_config(self.write(tmp_path,
                                          {"data": {"normalize": False}}))

    def test_bool_only_from_json_bools(self, tmp_path):
        for val in ("no", "yes", "1", 1, 0):
            with pytest.raises(cfgmod.ConfigError, match="true or false"):
                cfgmod.load_config(overrides={"train.class_weighted": val})
        with pytest.raises(cfgmod.ConfigError, match="class_weighted"):
            cfgmod.load_config(self.write(
                tmp_path, {"train": {"class_weighted": "no"}}))
        cfg = cfgmod.load_config(overrides={"train.class_weighted": "false"})
        assert cfg["train"]["class_weighted"] is False

    def test_int_rejects_fractions(self, tmp_path):
        with pytest.raises(cfgmod.ConfigError, match="an integer"):
            cfgmod.load_config(overrides={"train.epochs": "2.7"})
        with pytest.raises(cfgmod.ConfigError, match="an integer"):
            cfgmod.load_config(self.write(tmp_path, {"train": {"epochs": 2.7}}))
        with pytest.raises(cfgmod.ConfigError, match="an integer"):
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
            with pytest.raises(cfgmod.ConfigError, match="sections"):
                cfgmod.load_config(self.write(tmp_path, bad))

    def test_file_string_is_not_a_number(self, tmp_path):
        with pytest.raises(cfgmod.ConfigError, match="train.lr"):
            cfgmod.load_config(self.write(tmp_path,
                                          {"train": {"lr": "0.001"}}))

    def test_dropout_below_one(self):
        with pytest.raises(cfgmod.ConfigError, match=r"\[0, 1\)"):
            cfgmod.load_config(overrides={"encoder.dropout": "1.0"})
        with pytest.raises(cfgmod.ConfigError, match=r"\[0, 1\)"):
            cfgmod.load_config(overrides={"encoder.dropout": "-0.1"})
        cfg = cfgmod.load_config(overrides={"encoder.dropout": "0.99"})
        assert cfg["encoder"]["dropout"] == 0.99

    def test_lr_positive_and_weight_decay_nonnegative(self):
        for lr in ("0", "-1"):
            with pytest.raises(cfgmod.ConfigError, match="train.lr"):
                cfgmod.load_config(overrides={"train.lr": lr})
        with pytest.raises(cfgmod.ConfigError, match="weight_decay"):
            cfgmod.load_config(overrides={"train.weight_decay": "-1e-3"})
        cfg = cfgmod.load_config(overrides={"train.weight_decay": "0"})
        assert cfg["train"]["weight_decay"] == 0.0
