"""Property tests: checkpoints and resolved configs survive the trip to
disk and back unchanged; every partition up to order 4 is the geometric
one and has its invariants; scattering patches back to vertices gives the
bits of a sequential sum; the decoder keeps its contract."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from test_surface import plane_sign_oracle
from xsit import psp
from xsit import surface as surf
from xsit import train
from xsit.config import load_config
from xsit.tensor import Tensor

ORDERS = [(d, p) for d in range(5) for p in range(d + 1)]


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
    assert again.params.keys() == model.params.keys()
    for k, t in model.params.items():
        assert again.params[k].data.tobytes() == t.data.tobytes()
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


@pytest.mark.parametrize("d,p", ORDERS)
def test_partition_invariants(d, p):
    part = surf.build_partition(d, p)
    pvi = part.patch_vertex_indices
    assert pvi.tolist() == plane_sign_oracle(d, p)
    assert (np.diff(pvi, axis=1) > 0).all()
    valence = np.bincount(pvi.reshape(-1), minlength=surf.vertex_count(d))
    assert set(np.unique(valence)) <= {1, 2, 5, 6}
    assert (valence == 5).sum() == 12
    # the order-p vertices keep their indices and are the patch corners
    corners = surf.build_icosphere(p).faces
    assert ((valence == 5) | (valence == 6)).sum() == surf.vertex_count(p)
    assert all(set(corners[f]) <= set(pvi[f]) for f in range(len(pvi)))


@st.composite
def patch_values(draw):
    """(partition, hemispheres, [H*N, M] values) on a small partition, in
    float32 or float64, with random rows holding a NaN or an infinity."""
    d = draw(st.integers(0, 3))
    part = surf.build_partition(d, draw(st.integers(0, d)))
    hemispheres = draw(st.integers(1, 2))
    rows = hemispheres * part.n_patches
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    values = np.random.default_rng(draw(st.integers(0, 2 ** 16))).normal(
        size=(rows, part.patch_size)).astype(dtype)
    masked = draw(st.lists(st.integers(0, rows - 1), max_size=rows))
    values[masked, draw(st.integers(0, part.patch_size - 1))] = draw(
        st.sampled_from([np.nan, np.inf, -np.inf]))
    return part, hemispheres, values


@given(patch_values())
def test_unpatchify_is_a_sequential_sum(case):
    part, hemispheres, values = case
    v = surf.vertex_count(part.mesh_order)
    ids = (part.patch_vertex_indices[None]
           + v * np.arange(hemispheres)[:, None, None]).reshape(
               -1, part.patch_size)
    keep = np.isfinite(values).all(axis=1)
    total, counts = np.zeros(hemispheres * v), np.zeros(hemispheres * v)
    np.add.at(total, ids[keep], values[keep])
    np.add.at(counts, ids[keep], 1)
    with np.errstate(invalid="ignore"):
        want = np.where(counts > 0, total / np.maximum(counts, 1), np.nan)
    assert surf.unpatchify(values, part, hemispheres).tobytes() == \
        want.tobytes()


def _floats(shape):
    """Multiples of 1/8 in [-4, 4]: exact in float32, with zeros and ties,
    and no norm so small that float32 and float64 disagree on it."""
    return arrays(np.float32, shape,
                  elements=st.integers(-32, 32).map(lambda k: k / 8))


def _cosine(x, xi, rectify):
    """cos(relu(x), relu(xi)) in float64; 0 where a rectified row is 0."""
    u = np.maximum(x.astype(np.float64), 0)
    v = np.maximum(xi, 0) if rectify else xi.astype(np.float64)
    nu, nv = np.linalg.norm(u, axis=-1), np.linalg.norm(v, axis=-1)
    valid = (nu > 0) & (nv > 0)
    return np.where(valid, (u * v).sum(-1) / np.where(valid, nu * nv, 1), 0)


@st.composite
def decoder_states(draw):
    """(embeddings [B, N, D], prototypes [N, D], logits [N]); prototypes
    are sometimes copies of the first sample's embeddings, as after a
    projection."""
    b, n, d = (draw(st.integers(1, 3)), draw(st.integers(1, 12)),
               draw(st.integers(1, 8)))
    x = draw(_floats((b, n, d)))
    xi = x[0].copy() if draw(st.booleans()) else draw(_floats((n, d)))
    return x, xi, draw(_floats((n,)))


@given(decoder_states(), st.booleans())
def test_activations_sum_to_probability(state, rectify):
    x, xi, logits = state
    bank = psp.PrototypeBank(Tensor(xi))
    scaler = psp.SparseScaler(Tensor(logits))
    acts = psp.patch_activations(Tensor(x), bank, scaler, rectify).data
    prob = psp.class_probability(Tensor(x), bank, scaler, rectify).data
    w = psp.sparse_weights(Tensor(logits)).data
    np.testing.assert_allclose(acts, w * _cosine(x, xi, rectify),
                               rtol=1e-6, atol=1e-6)
    assert prob.tobytes() == acts.sum(axis=-1).tobytes()


@given(decoder_states())
def test_sparse_weights_simplex(state):
    _, _, logits = state
    n = logits.shape[0]
    w = psp.sparse_weights(Tensor(logits)).data
    dense = Tensor(logits).softmax(axis=-1).data
    assert ((w == 0) == (dense < 1.0 / n)).all()
    assert abs(float(w.sum()) - 1.0) <= 1e-6


@given(decoder_states())
def test_rect_cosine_in_unit_interval(state):
    x, xi, _ = state
    cos = Tensor(x).rect_cosine(Tensor(xi), rectify_proto=True).data
    np.testing.assert_allclose(cos, _cosine(x, xi, True), atol=1e-6)
    # float32 rounding of a row with itself, 1 + 2^-23, is clamped to 1
    assert (cos >= 0).all() and (cos <= 1).all()
