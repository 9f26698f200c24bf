import json
import os

import numpy as np
import pytest

from xsit import cli
from xsit import synth


SPEC = dict(mesh_order=2, patch_order=1, channels=2,
            lesion_patches=[3, 11, 19], delta=4.0,
            counts={"train": 16, "val": 8, "test": 8}, seed=3)

TRAIN_SETS = ["encoder.dim=16", "encoder.depth=1", "encoder.heads=2",
              "encoder.dropout=0.0", "train.epochs=3", "train.batch_size=8",
              "train.lr=1e-3", "train.projection_period=2"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("cliws")
    spec_path = ws / "spec.json"
    spec_path.write_text(synth.SynthSpec(**SPEC).to_json())
    data = ws / "data"
    assert cli.main(["gen-data", "--spec", str(spec_path),
                     "--out", str(data)]) == 0
    run = ws / "run"
    args = ["train", "--data", str(data), "--out", str(run), "--seed", "0"]
    for s in TRAIN_SETS:
        args += ["--set", s]
    assert cli.main(args) == 0
    return ws, str(data), str(run)


class TestGenData:
    def test_outputs(self, workspace):
        _, data, _ = workspace
        assert os.path.exists(os.path.join(data, "manifest.json"))
        assert os.path.exists(os.path.join(data, "synth_spec.json"))

    def test_bad_spec_path(self, tmp_path, capsys):
        rc = cli.main(["gen-data", "--spec", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "d")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestTrain:
    def test_artifacts(self, workspace):
        _, _, run = workspace
        for f in ("model.xck", "model.xck.provenance.json", "metrics.csv",
                  "config.resolved.json"):
            assert os.path.exists(os.path.join(run, f))

    def test_resolved_config_reflects_overrides(self, workspace):
        _, _, run = workspace
        with open(os.path.join(run, "config.resolved.json")) as f:
            cfg = json.load(f)
        assert cfg["encoder"]["dim"] == 16
        assert cfg["train"]["epochs"] == 3

    def test_bad_override_key(self, workspace, capsys):
        _, data, _ = workspace
        rc = cli.main(["train", "--data", data, "--out", "/tmp/x",
                       "--set", "train.nope=1"])
        assert rc == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_non_bool_override(self, workspace, capsys):
        _, data, _ = workspace
        rc = cli.main(["train", "--data", data, "--out", "/tmp/x",
                       "--set", "train.class_weighted=no"])
        assert rc == 1
        assert "train.class_weighted" in capsys.readouterr().err

    def test_malformed_override(self, workspace, capsys):
        _, data, _ = workspace
        rc = cli.main(["train", "--data", data, "--out", "/tmp/x",
                       "--set", "badpair"])
        assert rc == 1


class TestEval:
    def test_json_report(self, workspace, capsys):
        _, data, run = workspace
        rc = cli.main(["eval", "--checkpoint",
                       os.path.join(run, "model.xck"), "--data", data,
                       "--split", "test"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["split"] == "test"
        assert 0.0 <= report["bacc"] <= 1.0
        assert report["tp"] + report["fp"] + report["tn"] + report["fn"] == 8

    def test_missing_checkpoint(self, workspace, capsys):
        _, data, _ = workspace
        rc = cli.main(["eval", "--checkpoint", "/tmp/does-not-exist.xck",
                       "--data", data, "--split", "test"])
        assert rc == 1


class TestExplain:
    def test_individual(self, workspace, tmp_path, capsys):
        _, data, run = workspace
        out = tmp_path / "ex"
        rc = cli.main(["explain", "--checkpoint",
                       os.path.join(run, "model.xck"), "--data", data,
                       "--mode", "individual", "--subject", "s0024",
                       "--out", str(out)])
        assert rc == 0
        assert (out / "activation_s0024.csv").exists()
        assert (out / "activation_s0024.ply").exists()

    def test_group(self, workspace, tmp_path):
        _, data, run = workspace
        out = tmp_path / "gx"
        rc = cli.main(["explain", "--checkpoint",
                       os.path.join(run, "model.xck"), "--data", data,
                       "--mode", "group", "--out", str(out)])
        assert rc == 0
        assert (out / "group_mean_activation.csv").exists()

    def test_prototypes(self, workspace, tmp_path):
        _, data, run = workspace
        out = tmp_path / "px"
        rc = cli.main(["explain", "--checkpoint",
                       os.path.join(run, "model.xck"), "--data", data,
                       "--mode", "prototypes", "--out", str(out)])
        assert rc == 0
        assert (out / "prototype_thickness.ply").exists()

    def test_overlap(self, workspace, tmp_path, capsys):
        _, data, run = workspace
        out = tmp_path / "ox"
        ckpt = os.path.join(run, "model.xck")
        rc = cli.main(["explain", "--checkpoint", ckpt, "--data", data,
                       "--mode", "overlap", "--extra-checkpoints", ckpt,
                       "--out", str(out)])
        assert rc == 0
        with open(out / "overlap.json") as f:
            report = json.load(f)
        assert report["overlap_percent"] == 100.0

    def test_unknown_subject(self, workspace, tmp_path, capsys):
        _, data, run = workspace
        rc = cli.main(["explain", "--checkpoint",
                       os.path.join(run, "model.xck"), "--data", data,
                       "--mode", "individual", "--subject", "nobody",
                       "--out", str(tmp_path / "nx")])
        assert rc == 1


class TestMesh:
    def test_writes_ply(self, tmp_path, capsys):
        out = str(tmp_path / "ico.ply")
        assert cli.main(["mesh", "--order", "1", "--out", out]) == 0
        with open(out) as f:
            head = f.read(200)
        assert head.startswith("ply")
        assert "element vertex 42" in head
