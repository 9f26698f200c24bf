"""Tests of the benchmark's own parts: the float64 reference against the
program on a tiny model, span self-time arithmetic, metric selection and
the checks' ability to fail.

    python3 -m pytest benchmarks/tests
"""

import numpy as np
import pytest

import checks
import reference
import spans
import workloads
from xsit import explain, surface, tensor, train
from xsit.config import load_config


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A small untrained model with random prototypes and scaler logits,
    saved as a checkpoint, and a few random subjects."""
    manifest = surface.DatasetManifest(
        mesh_order=2, patch_order=0, hemispheres=2, channels=["a", "b"],
        stats={"a": {"mean": 0.3, "std": 1.7}, "b": {"mean": -1.0,
                                                     "std": 0.4}},
        subjects=[])
    cfg = load_config(None, {"encoder.dim": 12, "encoder.depth": 2,
                             "encoder.heads": 3})
    model = train.init_model(cfg, manifest)
    rng = np.random.default_rng(0)
    model.bank.xi.data = rng.normal(size=model.bank.xi.shape).astype(
        np.float32)
    model.scaler.logits.data = rng.normal(
        size=model.scaler.logits.shape).astype(np.float32)
    path = str(tmp_path_factory.mktemp("tiny") / "model.xck")
    train.save_checkpoint(path, model)
    samples = [surface.SurfaceSample(f"s{i}", i % 2, rng.normal(
        size=(manifest.vertices_total, 2)).astype(np.float32))
        for i in range(5)]
    return model, path, samples


def test_checkpoint_reader_matches_program(tiny):
    model, path, _ = tiny
    arrays, meta = reference.read_checkpoint(path)
    theirs, their_meta = tensor.load_arrays(path)
    assert meta == their_meta
    assert sorted(arrays) == sorted(theirs)
    for k in arrays:
        assert np.array_equal(arrays[k], theirs[k].astype(np.float64))


def test_reference_forward_matches_program(tiny):
    model, path, samples = tiny
    part = model.partition()
    ref = reference.Reference(path, part.patch_vertex_indices)
    acts = ref.activations([s.features for s in samples])
    probs = train.predict_probs(model, [surface.normalize(
        s, model.stats, model.channels) for s in samples])
    assert np.max(np.abs(acts.sum(axis=1) - probs)) <= checks.ACT_TOL
    for s, a in zip(samples, acts):
        per_patch, _, _ = explain.activation_map(s, model, part)
        assert np.max(np.abs(per_patch - a)) <= checks.ACT_TOL
    w = ref.weights()
    assert abs(w.sum() - 1.0) < 1e-12 and 0 < np.sum(w > 0) < w.size


def test_reference_forward_detects_a_changed_weight(tiny):
    model, path, samples = tiny
    ref = reference.Reference(path, model.partition().patch_vertex_indices)
    before = ref.activations([samples[0].features])
    ref.params["block1.mlp.w2"][0, 0] += 0.05
    assert np.max(np.abs(ref.activations([samples[0].features]) - before)) \
        > checks.ACT_TOL


def test_self_time_subtracts_covered_child_time():
    spans_ = [
        ["root", -1, 0.0, 10.0],
        ["a", 0, 1.0, 3.0],
        ["b", 0, 2.0, 5.0],      # overlaps a: [1, 5] covered once
        ["c", 0, 8.0, 12.0],     # clipped to the parent's end
        ["d", 1, 1.5, 2.5],      # grandchild: only a's time shrinks
    ]
    assert spans.self_times(spans_) == pytest.approx([4.0, 1.0, 3.0, 4.0,
                                                      1.0])


def test_inclusive_time_counts_outermost_spans():
    spans_ = [
        ["run", -1, 0.0, 10.0],
        ["eval", 0, 1.0, 4.0],
        ["eval", 1, 2.0, 3.0],   # nested in eval: not counted again
        ["step", 0, 5.0, 6.0],
        ["eval", 3, 5.2, 5.7],   # parent is step, not run
    ]
    assert spans.inclusive_time(spans_, {"eval"}) == pytest.approx(3.5)
    assert spans.inclusive_time(spans_, {"eval"}, parents={"run"}) == \
        pytest.approx(3.0)


def test_tracer_records_parents_and_restores_functions():
    tracer = spans.Tracer()

    def inner():
        return 1

    def outer():
        return wrapped_inner() + 1

    wrapped_inner = tracer.wrap(inner, "inner")
    assert tracer.wrap(outer, "outer")() == 2
    names = [(s[0], s[1]) for s in tracer.spans]
    assert names == [("outer", -1), ("inner", 0)]
    original = surface.patchify
    restore = spans.instrument(tracer, workloads.MODULES)
    assert surface.patchify is not original
    restore()
    assert surface.patchify is original
    assert tensor.Tensor.matmul.__name__ == "matmul"
    assert tensor.Tensor.__add__ is tensor.Tensor.add


def test_end_to_end_takes_run_totals_and_median_request():
    op = workloads.Op
    rounds = [[op("train", 10.0, 100, 0, ""), op("eval", 1.0, 50, 0, ""),
               op("eval", 3.0, 50, 0, ""), op("explain", 2.0, 50, 0, ""),
               op("one", 0.2, 1, 0, ""), op("one", 0.4, 1, 0, "")],
              [op("train", 20.0, 100, 0, ""), op("eval", 2.0, 50, 0, ""),
               op("eval", 2.0, 50, 0, ""), op("explain", 5.0, 50, 0, ""),
               op("one", 0.3, 1, 0, ""), op("one", 0.9, 1, 0, "")]]
    m = workloads.end_to_end(rounds, [3.0, 1.0, 2.0], 100.0)
    assert m["setup_s"]["value"] == 2.0
    assert m["train_samples_per_s"]["value"] == pytest.approx(200 / 30)
    assert m["eval_samples_per_s"]["value"] == 25.0
    assert m["explain_samples_per_s"]["value"] == pytest.approx(100 / 7)
    assert m["explain_one_p50_s"]["value"] == pytest.approx(0.35)
    # an explain over a split of one subject is a one-subject request too;
    # a failed command counts in neither
    rounds[1] += [op("explain", 0.5, 1, 0, ""), op("one", 0.1, 1, 1, "")]
    m = workloads.end_to_end(rounds, [3.0, 1.0, 2.0], 100.0)
    assert m["explain_samples_per_s"]["value"] == pytest.approx(101 / 7.5)
    assert m["explain_one_p50_s"]["value"] == pytest.approx(0.4)


def test_checks_fail_on_bad_outputs(tmp_path):
    part = surface.build_partition(2, 0)
    checks.partition_invariants(part.patch_vertex_indices, 2, 0)
    broken = part.patch_vertex_indices.copy()
    broken[0, 0] = broken[0, 1]
    with pytest.raises(checks.CheckError):
        checks.partition_invariants(broken, 2, 0)

    per_patch = np.linspace(0.0, 0.1, part.n_patches)
    path = tmp_path / "a.csv"
    path.write_text("patch_index,value,weight,provenance_subject\n" + "".join(
        f"{i},{float(v)!r},0.05,\n" for i, v in enumerate(per_patch)))
    prov = [None] * part.n_patches
    weights = np.full(part.n_patches, 0.05)
    checks.check_patch_csv(str(path), per_patch, weights, prov)
    with pytest.raises(checks.CheckError):
        checks.check_patch_csv(str(path), per_patch + 1e-5, weights, prov)

    mesh = surface.build_icosphere(2)
    expected = checks.vertex_mean(per_patch, part.patch_vertex_indices, 1)
    surface.write_ply(str(tmp_path / "a.ply"), mesh,
                      explain.vertex_map(per_patch, part, 1))
    checks.check_surface(str(tmp_path / "a"), expected, 1, 2)
    with pytest.raises(checks.CheckError):
        checks.check_surface(str(tmp_path / "a"), expected * 1.01, 1, 2)
