"""The benchmark's traced run wraps the program's functions and tensor ops
by name (benchmarks/spans.py). These tests wrap them the same way and run
a tiny train/eval/explain round, so that a rename which would break the
traced run fails here."""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "benchmarks"))

import spans  # noqa: E402
import workloads  # noqa: E402
from xsit import cli, synth, tensor  # noqa: E402

SPEC = dict(mesh_order=2, patch_order=1, channels=2, lesion_patches=[3, 11],
            delta=4.0, counts={"train": 8, "val": 4, "test": 4}, seed=1)
TRAIN_SETS = ["encoder.dim=8", "encoder.depth=1", "encoder.heads=2",
              "train.epochs=1", "train.batch_size=4"]


def _instrumented(tracer, body):
    """Run body() with the program instrumented; put every original back
    in a finally, also when instrumenting fails halfway."""
    targets = list(workloads.MODULES.values()) + [tensor.Tensor,
                                                  tensor.AdamW]
    saved = [(t, dict(vars(t))) for t in targets]
    try:
        restore = spans.instrument(tracer, workloads.MODULES)
        body()
        restore()
    finally:
        for t, attrs in saved:
            for name, val in attrs.items():
                if vars(t).get(name) is not val:
                    setattr(t, name, val)


def test_instrument_wraps_and_restores():
    originals = {(m, f): getattr(workloads.MODULES[m], f)
                 for m, f, _ in spans.FUNCTIONS}

    def body():
        for m, f, _ in spans.FUNCTIONS:
            assert getattr(workloads.MODULES[m], f) is not originals[m, f]
    _instrumented(spans.Tracer(), body)
    for m, f, _ in spans.FUNCTIONS:
        assert getattr(workloads.MODULES[m], f) is originals[m, f]


def test_traced_round_records_every_layer(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(synth.SynthSpec(**SPEC).to_json())
    data, ckpt = str(tmp_path / "data"), str(tmp_path / "m" / "model.xck")

    def run(*argv):
        assert cli.main(list(argv)) == 0, argv

    def body():
        run("gen-data", "--spec", str(spec), "--out", data)
        sets = [a for s in TRAIN_SETS for a in ("--set", s)]
        run("train", "--data", data, "--out", str(tmp_path / "m"), *sets)
        run("eval", "--checkpoint", ckpt, "--data", data, "--split", "test")
        for mode in ("individual", "group", "prototypes"):
            run("explain", "--checkpoint", ckpt, "--data", data, "--mode",
                mode, "--out", str(tmp_path / mode))

    tracer = spans.Tracer()
    _instrumented(tracer, body)
    names = {s[0] for s in tracer.spans}
    expected = {name for _, _, name in spans.FUNCTIONS} | {
        "encoder.encode_train", "encoder.encode_infer",
        "psp.project_prototypes", "tensor.backward", "tensor.adamw"} | {
        f"tensor.{op}.fwd" for op in spans.OPS}
    assert expected <= names, sorted(expected - names)
    metrics = spans.layer_metrics(tracer)
    # one partition, and with it one icosphere, per command: gen-data,
    # train, eval and three explains
    assert metrics["surface.build_partition_calls"][0] == 6
    assert metrics["surface.build_icosphere_calls"][0] == 6
    assert metrics["train.validation_s"][0] > 0.0
