import json
import os
import shutil
import warnings

import numpy as np
import pytest

from xsit import cli
from xsit import explain as expl
from xsit import surface as surf
from xsit import synth
from xsit import train
from xsit.files import InputError
from xsit.tensor import TensorError, load_arrays, save_arrays


SPEC = dict(mesh_order=2, patch_order=1, channels=2,
            lesion_patches=[3, 11, 19], delta=4.0,
            counts={"train": 16, "val": 8, "test": 8}, seed=3)

TRAIN_SETS = ["encoder.dim=16", "encoder.depth=1", "encoder.heads=2",
              "encoder.dropout=0.0", "train.epochs=3", "train.batch_size=8",
              "train.lr=1e-3", "train.projection_period=2"]

# the tiny spec and settings of tests/test_benchmark_tracing.py
TINY_SPEC = dict(mesh_order=2, patch_order=1, channels=2,
                 lesion_patches=[3, 11], delta=4.0,
                 counts={"train": 8, "val": 4, "test": 4}, seed=1)
TINY_SETS = ["encoder.dim=8", "encoder.depth=1", "encoder.heads=2",
             "train.epochs=1", "train.batch_size=4"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("cliws")
    spec_path = ws / "spec.json"
    spec_path.write_text(synth.SynthSpec(**SPEC).to_json())
    data = ws / "data"
    assert cli.main(["gen-data", "--spec", str(spec_path),
                     "--out", str(data)]) == 0
    run = ws / "run"
    args = ["train", "--data", str(data), "--out", str(run),
            "--set", "train.seed=0"]
    for s in TRAIN_SETS:
        args += ["--set", s]
    assert cli.main(args) == 0
    return ws, str(data), str(run)


def gen_tiny(ws, name, **changes):
    """The data of TINY_SPEC with `changes`, in `ws/name`."""
    spec = ws / f"{name}.json"
    spec.write_text(synth.SynthSpec(**dict(TINY_SPEC, **changes)).to_json())
    assert cli.main(["gen-data", "--spec", str(spec),
                     "--out", str(ws / name)]) == 0
    return str(ws / name)


def tiny_train_args(data, out, *settings):
    return ["train", "--data", data, "--out", str(out)] + [
        a for s in TINY_SETS + list(settings) for a in ("--set", s)]


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """TINY_SPEC data, and an unprojected (train.epochs=0) checkpoint."""
    ws = tmp_path_factory.mktemp("tiny")
    data = gen_tiny(ws, "data")
    assert cli.main(tiny_train_args(data, ws / "run0", "train.epochs=0")) == 0
    return data, str(ws / "run0" / "model.xck")


class TestGenData:
    def test_outputs(self, workspace):
        _, data, _ = workspace
        assert os.path.exists(os.path.join(data, "manifest.json"))
        assert os.path.exists(os.path.join(data, "synth_spec.json"))

    @pytest.mark.parametrize("text,message", [
        ('{"mesh_orde": 2}', "unknown key 'mesh_orde'"),
        ('{"counts": {"train": 4, "test": 1}}',
         "key 'counts' needs one integer for each of train, val, test"),
        ('{"counts": {"train": 4, "val": 2, "test": 1, "tset": 1}}',
         "key 'counts' needs one integer for each of train, val, test"),
        ('{"counts": {"train": 4, "val": 2.5, "test": 1}}',
         "key 'counts.val' needs an integer, got 2.5"),
        ('{"mesh_order": "2"}', "key 'mesh_order' needs an integer, got '2'"),
        ('{"misaligned_lesion": false}', "unknown key 'misaligned_lesion'"),
        ('{"delta": "3"}', "key 'delta' needs a number, got '3'"),
        ('{"lesion_patches": 3}', "key 'lesion_patches' needs a list"),
        ('{"lesion_patches": [3, 1.5]}',
         "key 'lesion_patches[1]' needs an integer, got 1.5"),
        ('{"channels": 0}', "key 'channels' must be >= 1"),
        ('{"noise_sigma": -1}', "key 'noise_sigma' must be >= 0"),
        ('{"positive_fraction": 1.5}',
         "key 'positive_fraction' must be in [0, 1]"),
        ("[1, 2]", "a spec must be a JSON object"),
        ("{bad", "not valid JSON")])
    def test_bad_spec_names_file_and_key(self, tmp_path, capsys, text,
                                         message):
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        rc = cli.main(["gen-data", "--spec", str(spec),
                       "--out", str(tmp_path / "d")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {spec}: ") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "d").exists()

    def test_float_key_takes_an_integer(self, tmp_path):
        """An integer for a float key and an integral float for an int key
        are accepted; the written spec keeps the integer as given."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(dict(SPEC, delta=4, channels=2.0)))
        assert cli.main(["gen-data", "--spec", str(spec),
                         "--out", str(tmp_path / "d")]) == 0
        written = json.loads((tmp_path / "d" / "synth_spec.json").read_text())
        assert written["delta"] == 4 and type(written["delta"]) is int
        assert written["channels"] == 2 and type(written["channels"]) is int

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

    def test_seed_is_set_through_set_only(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["train", "--data", data, "--out", str(tmp_path),
                      "--seed", "0"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --seed 0" in capsys.readouterr().err

    def test_malformed_override(self, workspace, capsys):
        _, data, _ = workspace
        rc = cli.main(["train", "--data", data, "--out", "/tmp/x",
                       "--set", "badpair"])
        assert rc == 1

    @pytest.mark.parametrize("setting", [
        "train.batch_size=0", "train.projection_period=0", "train.epochs=-1",
        "encoder.heads=5", "encoder.dim=0", "encoder.depth=-1"])
    def test_bad_value_stops_before_loading_data(self, workspace, tmp_path,
                                                 monkeypatch, capsys,
                                                 setting):
        _, data, _ = workspace
        calls = []
        monkeypatch.setattr(cli.surf, "load_dataset",
                            lambda *a: calls.append(a))
        rc = cli.main(["train", "--data", data, "--out", str(tmp_path),
                       "--set", setting])
        err = capsys.readouterr().err
        assert rc == 1 and calls == []
        assert err.startswith("error: ") and err.count("\n") == 1
        assert setting.split("=")[0] in err


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


def entry_edit(name, **changes):
    """A header edit that sets keys of one array entry."""
    def edit(header):
        header["arrays"][name].update(changes)
        return header
    return edit


def drop_dtype(header):
    del header["arrays"]["psp.xi"]["dtype"]
    return header


# defect -> edit of a checkpoint's JSON header
HEADER_EDITS = {
    "header_list": lambda h: [1, 2],
    "no_arrays": lambda h: {"meta": {}},
    "no_meta": lambda h: {"arrays": h["arrays"]},
    "bogus_dtype": entry_edit("psp.xi", dtype="bogus"),
    "no_dtype": drop_dtype,
    "shape_text": entry_edit("psp.xi", shape="80x48"),
    "negative_shape": entry_edit("psp.xi", shape=[-80, 48]),
    "offset_text": entry_edit("psp.xi", offset="0"),
    "negative_offset": entry_edit("psp.xi", offset=-4),
    "float_nbytes": entry_edit("psp.xi", nbytes=15360.0),
}


def rewrite_header(path, edit):
    with open(path, "rb") as f:
        whole = f.read()
    hlen = int.from_bytes(whole[8:12], "little")
    header = json.dumps(edit(json.loads(whole[12:12 + hlen]))).encode()
    with open(path, "wb") as f:
        f.write(whole[:8] + len(header).to_bytes(4, "little") + header
                + whole[12 + hlen:])


class TestCheckpointDefects:
    """A damaged checkpoint stops eval and explain with one error line."""

    @pytest.mark.parametrize("defect,message", [
        ("missing_array", "array 'block0.mlp.w1'"),
        ("wrong_shape", "array 'psp.xi': found shape (80, 5)"),
        ("missing_sidecar", "cannot read the provenance sidecar"),
        ("short_sidecar", "1 provenance entries for 80 prototypes"),
        ("truncated", "truncated"),
        ("no_mesh_order", "missing key 'mesh_order'"),
        ("no_stats", "missing key 'stats'"),
        ("encoder_key", "unknown config key 'encoder.width'"),
        ("header_list", "header must be an object, got list"),
        ("no_arrays", "header key 'arrays' must hold an object"),
        ("no_meta", "header key 'meta' must hold an object"),
        ("bogus_dtype", "entry 'psp.xi': key 'dtype' must be 'float32', "
                        "got 'bogus'"),
        ("no_dtype", "entry 'psp.xi': missing key 'dtype'"),
        ("shape_text", "entry 'psp.xi': key 'shape' must be a list of "
                       "integers >= 0, got '80x48'"),
        ("negative_shape", "entry 'psp.xi': key 'shape' must be a list of "
                           "integers >= 0, got [-80, 48]"),
        ("offset_text", "entry 'psp.xi': key 'offset' must be an integer "
                        ">= 0, got '0'"),
        ("negative_offset", "entry 'psp.xi': key 'offset' must be an "
                            "integer >= 0, got -4"),
        ("float_nbytes", "entry 'psp.xi': key 'nbytes' must be an integer "
                         ">= 0, got 15360.0"),
        ("nan_weight", "entry 'block0.attn.wq' holds non-finite values"),
        ("inf_weight", "entry 'psp.logits' holds non-finite values")])
    def test_error_line_and_exit_1(self, workspace, tmp_path, capsys,
                                   defect, message):
        _, data, run = workspace
        ckpt = str(tmp_path / "model.xck")
        side = ckpt + ".provenance.json"
        shutil.copy(os.path.join(run, "model.xck"), ckpt)
        shutil.copy(os.path.join(run, "model.xck.provenance.json"), side)
        if defect in HEADER_EDITS:
            rewrite_header(ckpt, HEADER_EDITS[defect])
        elif defect in ("missing_array", "wrong_shape", "no_mesh_order",
                        "no_stats", "encoder_key", "nan_weight",
                        "inf_weight"):
            arrays, meta = load_arrays(ckpt)
            if defect == "missing_array":
                del arrays["block0.mlp.w1"]
            elif defect == "wrong_shape":
                arrays["psp.xi"] = arrays["psp.xi"][:, :5]
            elif defect == "no_mesh_order":
                del meta["mesh_order"]
            elif defect == "no_stats":
                del meta["stats"]
            elif defect == "nan_weight":
                arrays["block0.attn.wq"][1, 2] = np.nan
            elif defect == "inf_weight":
                arrays["psp.logits"][7] = -np.inf
            else:
                meta["encoder"]["width"] = 3
            save_arrays(ckpt, arrays, meta)
        elif defect == "missing_sidecar":
            os.remove(side)
        elif defect == "short_sidecar":
            with open(side, "w") as f:
                json.dump([["s0000", 2]], f)
        else:
            with open(ckpt, "rb") as f:
                whole = f.read()
            with open(ckpt, "wb") as f:
                f.write(whole[:-100])
        for args in (["eval", "--split", "test"],
                     ["explain", "--mode", "individual",
                      "--out", str(tmp_path / "ex")]):
            rc = cli.main(args[:1] + ["--checkpoint", ckpt, "--data", data]
                          + args[1:])
            err = capsys.readouterr().err
            assert rc == 1
            assert err.startswith("error: ") and err.count("\n") == 1
            assert ckpt in err and message in err


class TestDatasetDefects:
    def test_empty_split(self, workspace, tmp_path, capsys):
        _, data, run = workspace
        bad = tmp_path / "data"
        shutil.copytree(data, bad)
        edit_json(bad / "manifest.json", lambda d: d.update(subjects=[
            s for s in d["subjects"] if s["split"] != "test"]))
        out = tmp_path / "ex"
        for args in (["eval", "--split", "test"],
                     ["explain", "--mode", "individual", "--out", str(out)]):
            rc = cli.main(args[:1] + ["--checkpoint",
                                      os.path.join(run, "model.xck"),
                                      "--data", str(bad)] + args[1:])
            assert rc == 1
            assert capsys.readouterr().err == (
                "error: split 'test' is empty\n")
        assert not out.exists()

    def test_subject_holding_nan(self, workspace, tmp_path, capsys):
        _, data, run = workspace
        bad = tmp_path / "data"
        shutil.copytree(data, bad)
        feats = np.fromfile(bad / "s0003.f32", dtype="<f4")
        feats[5] = np.nan
        feats.tofile(bad / "s0003.f32")
        rc = cli.main(["eval", "--checkpoint", os.path.join(run, "model.xck"),
                       "--data", str(bad), "--split", "test"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {bad / 's0003.f32'}: non-finite feature values\n")

    def test_manifest_without_stats(self, workspace, tmp_path, capsys):
        _, data, run = workspace
        bad = tmp_path / "data"
        shutil.copytree(data, bad)
        manifest = bad / "manifest.json"
        d = json.loads(manifest.read_text())
        del d["stats"]
        manifest.write_text(json.dumps(d))
        rc = cli.main(["eval", "--checkpoint", os.path.join(run, "model.xck"),
                       "--data", str(bad), "--split", "test"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{manifest}: missing key 'stats'" in err


def edit_json(path, edit):
    with open(path) as f:
        d = json.load(f)
    edit(d)
    with open(path, "w") as f:
        json.dump(d, f)


def edit_meta(path, edit):
    arrays, meta = load_arrays(path)
    edit(meta)
    save_arrays(path, arrays, meta)


def set_std(std):
    return lambda d: d["stats"]["thickness"].update(std=std)


def swap_first_entry(entries):
    entries[0] = [7, "x"]  # [epoch, subject] for [subject, epoch]


INF, NAN = float("inf"), float("nan")

# defect -> (file it edits: config, spec, manifest, meta or sidecar, or
# None for a --set; the edit or the --set; key texts the error names)
INPUT_DEFECTS = {
    "config-lr-inf": ("config", {"train": {"lr": INF}}, ["train.lr"]),
    "config-weight_decay-nan": ("config", {"train": {"weight_decay": NAN}},
                                ["train.weight_decay"]),
    "config-seed-negative": ("config", {"train": {"seed": -1}},
                             ["train.seed"]),
    "set-lr-inf": (None, "train.lr=Infinity", ["train.lr"]),
    "set-lr-nan": (None, "train.lr=NaN", ["train.lr"]),
    "set-weight_decay-inf": (None, "train.weight_decay=Infinity",
                             ["train.weight_decay"]),
    "set-weight_decay-nan": (None, "train.weight_decay=NaN",
                             ["train.weight_decay"]),
    "set-seed-negative": (None, "train.seed=-1", ["train.seed"]),
    "config-retired-switch": ("config", {"psp": {
        "class_restricted_projection": True}},
        ["unknown config key 'psp.class_restricted_projection'"]),
    "set-retired-switch": (None, "psp.class_restricted_projection=true",
                           ["unknown config key "
                            "'psp.class_restricted_projection'"]),
    "spec-delta-nan": ("spec", dict(SPEC, delta=NAN), ["key 'delta'"]),
    "spec-constant-channel": ("spec", dict(SPEC, noise_sigma=0,
                                           baseline_amplitude=0),
                              ["stats.thickness", "key 'std'"]),
    "spec-delta-overflow": ("spec", dict(
        mesh_order=2, patch_order=1, channels=2, lesion_patches=[3],
        delta=1e300, counts={"train": 1, "val": 3, "test": 1},
        positive_fraction=0.4, seed=1),
        ["subject s0001: non-finite feature values"]),
    "manifest-std-zero": ("manifest", set_std(0),
                          ["stats.thickness", "key 'std'"]),
    "manifest-std-negative": ("manifest", set_std(-1),
                              ["stats.thickness", "key 'std'"]),
    "manifest-std-nan": ("manifest", set_std(NAN),
                         ["stats.thickness", "key 'std'"]),
    "meta-std-nan": ("meta", set_std(NAN), ["stats.thickness", "key 'std'"]),
    "sidecar-entry-types": ("sidecar", swap_first_entry,
                            ["entry 0", "key 'subject_id'"]),
}


class TestEveryInputNamesItsSourceAndKey:
    """A defect in any input stops the command that reads it with one error
    line that names the file, or --set, and the key, and exit 1."""

    @pytest.mark.parametrize("defect", INPUT_DEFECTS)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_error_line_and_exit_1(self, workspace, tmp_path, capsys,
                                   defect):
        _, data, run = workspace
        source, change, keys = INPUT_DEFECTS[defect]
        bad_data, bad_run = tmp_path / "data", tmp_path / "run"
        shutil.copytree(data, bad_data)
        shutil.copytree(run, bad_run)
        ckpt = str(bad_run / "model.xck")
        out = tmp_path / "out"
        train_args = ["train", "--data", str(bad_data), "--out", str(out)]
        for setting in TRAIN_SETS:
            train_args += ["--set", setting]
        named = {"config": tmp_path / "config.json",
                 "spec": tmp_path / "spec.json",
                 "manifest": bad_data / "manifest.json",
                 "meta": ckpt, "sidecar": ckpt + ".provenance.json"}
        path = str(named.get(source, "--set"))
        if source is None:
            args = train_args + ["--set", change]
        elif source == "config":
            (tmp_path / "config.json").write_text(json.dumps(change))
            args = train_args + ["--config", path]
        elif source == "spec":
            (tmp_path / "spec.json").write_text(json.dumps(change))
            args = ["gen-data", "--spec", path, "--out", str(out)]
        elif source == "manifest":
            edit_json(path, change)
            args = train_args
        else:
            (edit_meta if source == "meta" else edit_json)(path, change)
            args = ["eval", "--checkpoint", ckpt, "--data", data,
                    "--split", "test"]
        rc = cli.main(args)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        for key in keys:
            assert key in err
        assert not out.exists()


# data that does not fit the workspace model: manifest key it differs in ->
# the spec that makes it
MISFITS = {"channels": dict(SPEC, channels=3),
           "mesh_order": dict(SPEC, mesh_order=3),
           "stats": dict(SPEC, seed=4)}


@pytest.fixture(scope="module")
def misfit_data(tmp_path_factory):
    ws = tmp_path_factory.mktemp("misfit")
    for key, spec in MISFITS.items():
        (ws / f"{key}.json").write_text(synth.SynthSpec(**spec).to_json())
        assert cli.main(["gen-data", "--spec", str(ws / f"{key}.json"),
                         "--out", str(ws / key)]) == 0
    return {key: str(ws / key) for key in MISFITS}


def read_args(run, data, command, out):
    ckpt = os.path.join(run, "model.xck")
    if command == "eval":
        return ["eval", "--checkpoint", ckpt, "--data", data,
                "--split", "test"]
    return ["explain", "--checkpoint", ckpt, "--data", data, "--mode",
            command, "--out", str(out)]


class TestDataMustFitTheModel:
    """A read command stops with one error line naming the manifest and
    the key when the data does not fit the model, and writes nothing."""

    @pytest.mark.parametrize("key,command", [
        ("channels", "eval"), ("channels", "individual"),
        ("mesh_order", "eval"), ("mesh_order", "individual"),
        ("stats", "prototypes")])
    def test_error_line_and_exit_1(self, workspace, misfit_data, tmp_path,
                                   capsys, key, command):
        _, _, run = workspace
        out = tmp_path / "out"
        rc = cli.main(read_args(run, misfit_data[key], command, out))
        err = capsys.readouterr().err
        assert rc == 1
        manifest = os.path.join(misfit_data[key], "manifest.json")
        assert err.startswith(f"error: {manifest}: key '{key}' must be "
                              "the model's ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "individual", "group"])
    def test_other_stats_are_read_with_the_models(self, workspace,
                                                 misfit_data, tmp_path,
                                                 command):
        _, _, run = workspace
        assert cli.main(read_args(run, misfit_data["stats"], command,
                                  tmp_path / "out")) == 0


def run_command(argv):
    """The command's return value, without main's `error:` line: a refused
    input raises its exception to the caller."""
    args = cli._parser().parse_args(argv)
    return cli._COMMANDS[args.command](args)


class TestRefusalIsAnInputError:
    """A refused input raises files.InputError, with the message main
    prints, so a caller tells it from another ValueError by its type."""

    @pytest.mark.parametrize("text,message", [
        ('{"mesh_orde": 2}', "unknown key 'mesh_orde'"),
        ("[1, 2]", "a spec must be a JSON object"),
        ('{"channels": 0}', "key 'channels' must be >= 1, got 0")])
    def test_bad_spec(self, tmp_path, text, message):
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        with pytest.raises(InputError) as e:
            run_command(["gen-data", "--spec", str(spec),
                         "--out", str(tmp_path / "d")])
        assert str(e.value) == f"{spec}: {message}"

    def test_unknown_subject(self, workspace, tmp_path):
        _, data, run = workspace
        with pytest.raises(InputError) as e:
            run_command(["explain", "--checkpoint",
                         os.path.join(run, "model.xck"), "--data", data,
                         "--mode", "individual", "--subject", "nobody",
                         "--out", str(tmp_path / "nx")])
        assert str(e.value) == "subject 'nobody' is not in split 'test'"

    @pytest.mark.parametrize("command", ["eval", "individual"])
    def test_data_that_does_not_fit_the_model(self, workspace, misfit_data,
                                              tmp_path, command):
        _, _, run = workspace
        data = misfit_data["channels"]
        with pytest.raises(InputError) as e:
            run_command(read_args(run, data, command, tmp_path / "out"))
        assert str(e.value).startswith(
            f"{os.path.join(data, 'manifest.json')}: key 'channels' must be "
            "the model's ")


    def test_failed_run_is_a_tensor_error(self, tiny, tmp_path):
        """A training step that makes a non-finite value is a failed run,
        not a refused input."""
        data, _ = tiny
        with pytest.raises(TensorError) as e:
            run_command(tiny_train_args(data, tmp_path / "run",
                                        "train.lr=1e30"))
        assert not isinstance(e.value, InputError)
        assert str(e.value).startswith("epoch 0 batch 1: encoder block 0: ")


class TestRefusalTexts:
    """Refusals raised deep in a command reach `xsit` as one `error:` line
    and exit 1, and write nothing."""

    def refused(self, capsys, argv, out, line):
        rc = cli.main(argv)
        assert rc == 1
        assert capsys.readouterr().err == f"error: {line}\n"
        assert not os.path.exists(out)

    def test_non_finite_training_step(self, tiny, tmp_path, capsys):
        data, _ = tiny
        out = tmp_path / "run"
        self.refused(capsys, tiny_train_args(data, out, "train.lr=1e30"), out,
                     "epoch 0 batch 1: encoder block 0: non-finite values "
                     "produced by op 'matmul'")

    def test_non_finite_training_step_warns_nothing(self, tiny, tmp_path,
                                                    capsys):
        """The op check names the non-finite value; numpy, whose warnings
        `xsit` would print ahead of the error line, says nothing."""
        data, _ = tiny
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(tiny_train_args(data, tmp_path / "run",
                                          "train.lr=1e30"))
        assert rc == 1
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_prototypes_of_unprojected_checkpoint(self, tiny, tmp_path,
                                                  capsys):
        data, ckpt = tiny
        out = tmp_path / "px"
        self.refused(capsys, ["explain", "--checkpoint", ckpt, "--data", data,
                              "--mode", "prototypes", "--out", str(out)],
                     out, "patch 0: no provenance (checkpoint was never "
                          "projected)")

    def test_overlap_of_different_partitions(self, tiny, tmp_path, capsys):
        _, ckpt = tiny
        other = gen_tiny(tmp_path, "order3", mesh_order=3)
        run = tmp_path / "run3"
        assert cli.main(tiny_train_args(other, run, "train.epochs=0")) == 0
        capsys.readouterr()
        out = tmp_path / "ox"
        self.refused(capsys, ["explain", "--checkpoint", ckpt, "--mode",
                              "overlap", "--extra-checkpoints",
                              str(run / "model.xck"), "--out", str(out)],
                     out, "checkpoints use different partitions")

    def test_training_split_without_positives(self, tmp_path, capsys):
        data = gen_tiny(tmp_path, "controls", positive_fraction=0.0)
        capsys.readouterr()
        out = tmp_path / "run"
        self.refused(capsys, tiny_train_args(data, out,
                                             "train.class_weighted=false"),
                     out, "no projection candidates in the training split")


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

    @pytest.mark.parametrize("data", ["nan-subject", "none"])
    def test_overlap_reads_no_data(self, workspace, tmp_path, data):
        _, good, run = workspace
        ckpt = os.path.join(run, "model.xck")
        args = ["explain", "--checkpoint", ckpt, "--mode", "overlap",
                "--extra-checkpoints", ckpt, "--out", str(tmp_path / "ox")]
        if data == "nan-subject":
            bad = tmp_path / "data"
            shutil.copytree(good, bad)
            feats = np.fromfile(bad / "s0003.f32", dtype="<f4")
            feats[5] = np.nan
            feats.tofile(bad / "s0003.f32")
            args += ["--data", str(bad)]
        assert cli.main(args) == 0
        with open(tmp_path / "ox" / "overlap.json") as f:
            assert json.load(f)["overlap_percent"] == 100.0

    def test_other_modes_need_data(self, workspace, tmp_path, capsys):
        _, _, run = workspace
        out = tmp_path / "gx"
        rc = cli.main(["explain", "--checkpoint",
                       os.path.join(run, "model.xck"), "--mode", "group",
                       "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: --mode group needs --data\n")
        assert not out.exists()

    def test_unknown_subject(self, workspace, tmp_path, capsys):
        _, data, run = workspace
        out = tmp_path / "nx"
        rc = cli.main(["explain", "--checkpoint",
                       os.path.join(run, "model.xck"), "--data", data,
                       "--mode", "individual", "--subject", "nobody",
                       "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: subject 'nobody' is not in split 'test'\n")
        assert not out.exists()

    def test_subject_of_another_split(self, workspace, tmp_path, capsys):
        _, data, run = workspace
        with open(os.path.join(data, "manifest.json")) as f:
            subject = next(s["id"] for s in json.load(f)["subjects"]
                           if s["split"] == "train")
        out = tmp_path / "nx"
        rc = cli.main(["explain", "--checkpoint",
                       os.path.join(run, "model.xck"), "--data", data,
                       "--mode", "individual", "--subject", subject,
                       "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: subject '{subject}' is not in split 'test'\n")
        assert not out.exists()

    def test_group_without_correct_positives(self, workspace, tmp_path,
                                             capsys):
        _, data, run = workspace
        controls = tmp_path / "data"
        shutil.copytree(data, controls)
        edit_json(controls / "manifest.json", lambda d: d.update(subjects=[
            s for s in d["subjects"]
            if s["split"] != "test" or s["label"] == 0]))
        out = tmp_path / "gx"
        rc = cli.main(["explain", "--checkpoint",
                       os.path.join(run, "model.xck"), "--data",
                       str(controls), "--mode", "group", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: group filter matched no samples\n")
        assert not out.exists()

    def test_single_subject_bytes_match_split_run(self, workspace, tmp_path):
        _, data, run = workspace
        ckpt = os.path.join(run, "model.xck")
        every, one = tmp_path / "every", tmp_path / "one"
        assert cli.main(["explain", "--checkpoint", ckpt, "--data", data,
                         "--mode", "individual", "--split", "test",
                         "--out", str(every)]) == 0
        assert cli.main(["explain", "--checkpoint", ckpt, "--data", data,
                         "--mode", "individual", "--subject", "s0027",
                         "--out", str(one)]) == 0
        names = sorted(os.listdir(one))
        assert names == ["activation_s0027.csv", "activation_s0027.ply"]
        for name in names:
            assert (one / name).read_bytes() == (every / name).read_bytes()

    def test_two_hemisphere_maps_are_fresh_mesh_bytes(self, tmp_path):
        """One explain writes every subject's hemispheres on the model's
        one mesh; each file is `write_ply` of that subject's map on a
        freshly built mesh."""
        spec = tmp_path / "spec.json"
        spec.write_text(synth.SynthSpec(**dict(
            SPEC, hemispheres=2, lesion_patches=[3, 91],
            counts={"train": 4, "val": 2, "test": 3})).to_json())
        data, run = str(tmp_path / "data"), str(tmp_path / "run")
        out = tmp_path / "ex"
        assert cli.main(["gen-data", "--spec", str(spec), "--out", data]) == 0
        args = ["train", "--data", data, "--out", run]
        for s in TRAIN_SETS + ["train.epochs=1", "train.batch_size=4"]:
            args += ["--set", s]
        assert cli.main(args) == 0
        ckpt = os.path.join(run, "model.xck")
        assert cli.main(["explain", "--checkpoint", ckpt, "--data", data,
                         "--mode", "individual", "--out", str(out)]) == 0
        model = train.load_checkpoint(ckpt)
        _, splits = surf.load_dataset(os.path.join(data, "manifest.json"))
        v = surf.vertex_count(2)
        for sample in splits["test"]:
            _, per_vertex, _ = expl.activation_map(sample, model)
            for i in range(2):
                name = f"activation_{sample.subject_id}.hemi{i}.ply"
                fresh = tmp_path / name
                surf.write_ply(str(fresh), surf.build_icosphere(2),
                               per_vertex[i * v:(i + 1) * v],
                               scalar_name="activation")
                assert (out / name).read_bytes() == fresh.read_bytes()
        assert len(os.listdir(out)) == 3 * 3

    @pytest.mark.parametrize("mode", ["individual", "group"])
    def test_unknown_split(self, workspace, tmp_path, capsys, mode):
        _, data, run = workspace
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["explain", "--checkpoint",
                      os.path.join(run, "model.xck"), "--data", data,
                      "--mode", mode, "--split", "tset",
                      "--out", str(tmp_path / "sx")])
        assert exit_info.value.code == 2
        assert "invalid choice: 'tset'" in capsys.readouterr().err

    @pytest.mark.parametrize("channel", ["5", "2", "-1"])
    def test_channel_out_of_range(self, workspace, tmp_path, capsys,
                                  channel):
        _, data, run = workspace
        out = tmp_path / "cx"
        rc = cli.main(["explain", "--checkpoint",
                       os.path.join(run, "model.xck"), "--data", data,
                       "--mode", "prototypes", "--channel", channel,
                       "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == (f"error: --channel {channel}: the model has 2 "
                       "channels, 0 to 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("mode,flag", [
        ("group", ["--subject", "s0024"]),
        ("individual", ["--channel", "0"]),
        ("prototypes", ["--extra-checkpoints", "other.xck"]),
        ("prototypes", ["--split", "val"]),
        ("overlap", ["--split", "test"])],
        ids=["subject", "channel", "extra-checkpoints", "split-prototypes",
             "split-overlap"])
    def test_flag_of_another_mode_stops_before_reading(self, tmp_path,
                                                       capsys, mode, flag):
        """The checkpoint and data do not exist: the flag is refused
        before either is opened."""
        out = tmp_path / "fx"
        rc = cli.main(["explain", "--checkpoint", str(tmp_path / "none"),
                       "--data", str(tmp_path / "none"), "--mode", mode,
                       *flag, "--out", str(out)])
        assert rc == 1
        owner = {"--subject": "individual", "--channel": "prototypes",
                 "--extra-checkpoints": "overlap",
                 "--split": "individual and group"}[flag[0]]
        assert capsys.readouterr().err == (
            f"error: {flag[0]} is read by --mode {owner} only, not by "
            f"--mode {mode}\n")
        assert not out.exists()


class TestMesh:
    def test_missing_directory_names_the_requested_path(self, tmp_path,
                                                        capsys):
        out = tmp_path / "missing" / "ico.ply"
        assert cli.main(["mesh", "--order", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: [Errno 2] No such file or directory: "
                       f"'{out}'\n")
        assert ".tmp-" not in err

    def test_writes_ply(self, tmp_path, capsys):
        out = str(tmp_path / "ico.ply")
        assert cli.main(["mesh", "--order", "1", "--out", out]) == 0
        with open(out) as f:
            head = f.read(200)
        assert head.startswith("ply")
        assert "element vertex 42" in head
