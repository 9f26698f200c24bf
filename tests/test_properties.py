"""Property tests: checkpoints and resolved configs survive the trip to
disk and back unchanged."""

import json

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from xsit import surface as surf
from xsit import train
from xsit.config import load_config


@st.composite
def small_models(draw):
    """(config, manifest) of a small random encoder on a small random
    partition, one or two hemispheres."""
    heads = draw(st.integers(1, 3))
    overrides = {
        "encoder.heads": heads,
        "encoder.dim": heads * draw(st.integers(1, 4)),
        "encoder.depth": draw(st.integers(0, 2)),
        "encoder.mlp_ratio": draw(st.integers(1, 3)),
        "psp.rectify_prototypes": draw(st.booleans()),
        "train.seed": draw(st.integers(0, 2 ** 16))}
    mesh_order = draw(st.integers(1, 2))
    channels = [f"c{i}" for i in range(draw(st.integers(1, 3)))]
    manifest = surf.DatasetManifest(
        mesh_order=mesh_order, patch_order=draw(st.integers(0, mesh_order - 1)),
        hemispheres=draw(st.integers(1, 2)), channels=channels,
        stats={c: {"mean": 0.0, "std": 1.0} for c in channels}, subjects=[])
    return load_config(None, overrides), manifest


@given(small_models())
def test_checkpoint_round_trip(tmp_path_factory, setup):
    cfg, manifest = setup
    model = train.init_model(cfg, manifest)
    rng = np.random.default_rng(cfg["train"]["seed"])
    # random decoder state and provenance, so the round trip carries more
    # than the initial zeros and Nones
    n = model.bank.xi.shape[0]
    model.scaler.logits.data = rng.normal(size=n).astype(np.float32)
    model.bank.provenance = [(f"s{i}", int(i % 3)) if i % 2 else None
                             for i in range(n)]
    path = str(tmp_path_factory.mktemp("ck") / "model.xck")
    train.save_checkpoint(path, model)
    again = train.load_checkpoint(path)
    assert again.trainable().keys() == model.trainable().keys()
    for k, t in model.trainable().items():
        assert again.trainable()[k].data.tobytes() == t.data.tobytes()
    assert again.meta == json.loads(json.dumps(model.meta))
    assert again.bank.provenance == model.bank.provenance
    samples = [surf.SurfaceSample(f"x{i}", i % 2, rng.normal(
        size=(manifest.vertices_total, len(manifest.channels))).astype(
            np.float32)) for i in range(3)]
    assert (train.predict_probs(again, samples).tobytes()
            == train.predict_probs(model, samples).tobytes())


@st.composite
def valid_overrides(draw):
    heads = draw(st.integers(1, 8))
    return {
        "encoder.heads": heads, "encoder.dim": heads * draw(st.integers(1, 8)),
        "encoder.depth": draw(st.integers(0, 6)),
        "encoder.mlp_ratio": draw(st.integers(1, 8)),
        "encoder.dropout": draw(st.floats(0.0, 1.0, exclude_max=True)),
        "psp.class_restricted_projection": draw(st.booleans()),
        "psp.rectify_prototypes": draw(st.booleans()),
        "train.epochs": draw(st.integers(0, 1000)),
        "train.batch_size": draw(st.integers(1, 512)),
        "train.lr": draw(st.floats(1e-12, 10.0)),
        "train.weight_decay": draw(st.floats(0.0, 10.0)),
        "train.projection_period": draw(st.integers(1, 100)),
        "train.seed": draw(st.integers(0, 2 ** 32)),
        "train.class_weighted": draw(st.booleans())}


@given(valid_overrides())
def test_resolved_config_round_trip(tmp_path_factory, overrides):
    cfg = load_config(None, overrides)
    path = tmp_path_factory.mktemp("cfg") / "config.resolved.json"
    with open(path, "w") as f:   # as train_run writes it
        json.dump(cfg, f, indent=2, sort_keys=True)
    again = load_config(str(path))
    assert again == cfg
    assert all(type(again[s][k]) is type(cfg[s][k])
               for s in cfg for k in cfg[s])
