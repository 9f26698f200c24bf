from dataclasses import replace

import numpy as np
import pytest

from xsit import explain
from xsit import surface as surf
from xsit import synth
from xsit import train
from xsit.config import load_config
from xsit.files import InputError


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("explaindata")
    spec = synth.SynthSpec(mesh_order=2, patch_order=1, channels=2,
                           lesion_patches=[3, 11, 19], delta=4.0,
                           counts={"train": 16, "val": 8, "test": 8}, seed=2)
    manifest, samples = surf.load_dataset(synth.generate(spec, str(out)))
    cfg = load_config()
    cfg["encoder"].update({"dim": 16, "depth": 1, "heads": 2, "dropout": 0.0})
    cfg["train"].update({"epochs": 4, "batch_size": 8, "lr": 1e-3,
                         "projection_period": 2})
    model, _ = train.train_run(cfg, manifest, samples)
    return spec, model, samples


class TestActivationMap:
    def test_sums_to_probability(self, trained):
        spec, model, samples = trained
        s = samples["test"][0]
        per_patch, per_vertex, prob = explain.activation_map(s, model)
        assert per_patch.sum() == pytest.approx(prob, abs=1e-6)
        norm = surf.normalize(s, model.stats, model.channels)
        direct = train.predict_probs(model, [norm])[0]
        assert prob == pytest.approx(float(direct), abs=1e-5)

    def test_vertex_map_shape_finite(self, trained):
        spec, model, samples = trained
        _, per_vertex, _ = explain.activation_map(samples["test"][0], model)
        v = surf.vertex_count(model.mesh_order) * model.hemispheres
        assert per_vertex.shape == (v,)
        assert np.all(np.isfinite(per_vertex))


class TestVertexMap:
    def test_interior_vertex_keeps_patch_value(self):
        # mesh order 3 so patches have interior (singly-claimed) vertices
        part = surf.build_partition(3, 1)
        per_patch = np.arange(80, dtype=float)
        vm = explain.vertex_map(per_patch, part, 1)
        # a vertex claimed once must carry exactly its patch value
        claims = np.zeros(surf.vertex_count(3))
        for idx in part.patch_vertex_indices:
            claims[idx] += 1
        solo = np.nonzero(claims == 1)[0]
        assert solo.size
        for p, idx in enumerate(part.patch_vertex_indices):
            mine = np.intersect1d(idx, solo)
            np.testing.assert_array_equal(vm[mine], float(p))

    def test_boundary_vertex_is_mean(self):
        part = surf.build_partition(2, 1)
        per_patch = np.arange(80, dtype=float)
        vm = explain.vertex_map(per_patch, part, 1)
        owners = [[] for _ in range(surf.vertex_count(2))]
        for p, idx in enumerate(part.patch_vertex_indices):
            for i in idx:
                owners[i].append(float(p))
        for v, vals in enumerate(owners):
            assert vm[v] == pytest.approx(np.mean(vals))

    def test_nan_only_when_all_masked(self):
        part = surf.build_partition(2, 1)
        per_patch = np.full(80, np.nan)
        per_patch[0] = 2.0
        vm = explain.vertex_map(per_patch, part, 1)
        idx0 = part.patch_vertex_indices[0]
        assert np.all(np.isfinite(vm[idx0]))
        everyone = np.unique(np.concatenate(part.patch_vertex_indices))
        rest = np.setdiff1d(everyone, idx0)
        assert np.all(np.isnan(vm[rest]))


class TestGroupMean:
    def test_label_filter(self, trained):
        # the group is the positives the model classifies correctly; a
        # control relabelled positive is misclassified and stays out
        spec, model, samples = trained
        control = next(s for s in samples["test"] if s.label == 0)
        mean, _ = explain.group_mean_map(
            samples["test"] + [replace(control, label=1)], model)
        singles = [explain.activation_map(s, model)[0]
                   for s in samples["test"] if s.label == 1]
        keep = [m for m in singles if m.sum() >= 0.5]
        assert keep
        np.testing.assert_allclose(mean, np.mean(keep, axis=0), atol=1e-7)

    def test_empty_filter_raises(self, trained):
        spec, model, samples = trained
        with pytest.raises(InputError, match="no samples"):
            explain.group_mean_map([], model)


class TestPrototypeSurface:
    def test_masked_and_stitched(self, trained):
        spec, model, samples = trained
        surface = explain.export_prototype_surface(model, samples["train"], 0)
        from xsit import psp
        w = psp.sparse_weights(model.scaler.logits).data
        part = model.partition()
        v = surf.vertex_count(model.mesh_order)
        by_id = {s.subject_id: s for s in samples["train"]}
        claimed = np.zeros(v, dtype=bool)
        for i in np.nonzero(w > 0)[0]:
            claimed[part.patch_vertex_indices[i]] = True
        assert np.all(np.isfinite(surface[claimed]))
        assert np.all(np.isnan(surface[~claimed]))
        # a vertex claimed by exactly one active patch copies raw features
        counts = np.zeros(v)
        for i in np.nonzero(w > 0)[0]:
            counts[part.patch_vertex_indices[i]] += 1
        for i in np.nonzero(w > 0)[0]:
            idx = part.patch_vertex_indices[i]
            solo = idx[counts[idx] == 1]
            feats = by_id[model.bank.provenance[i][0]].features
            np.testing.assert_array_equal(surface[solo], feats[solo, 0])

    def test_missing_subject_raises(self, trained):
        spec, model, samples = trained
        with pytest.raises(InputError, match="not in"):
            explain.export_prototype_surface(model, samples["test"], 0)


class TestOverlap:
    def _fake_model(self, trained, prov_ids, logits):
        import copy
        _, model, _ = trained
        m = copy.deepcopy(model)
        m.scaler.logits.data = np.asarray(logits, dtype=np.float32)
        m.bank.provenance = [(p, 0) if p is not None else None
                             for p in prov_ids]
        return m

    def test_identical_models_full_overlap(self, trained):
        _, model, _ = trained
        assert explain.prototype_overlap([model, model]) == 100.0

    def test_hand_computed_pair(self, trained):
        n = 80
        logits = np.full(n, -10.0)
        logits[:4] = 10.0  # patches 0-3 active, rest masked
        prov_a = ["s0"] * n
        prov_b = ["s0", "s0", "s1", "s1"] + ["s0"] * (n - 4)
        a = self._fake_model(trained, prov_a, logits)
        b = self._fake_model(trained, prov_b, logits)
        assert explain.prototype_overlap([a, b]) == pytest.approx(50.0)

    def test_null_sources_do_not_agree(self, trained):
        n = 80
        logits = np.full(n, -10.0)
        logits[:4] = 10.0  # patches 0-3 active, rest masked
        prov = [None, None, "s0", "s1"] + ["s0"] * (n - 4)
        a = self._fake_model(trained, prov, logits)
        b = self._fake_model(trained, prov, logits)
        assert explain.prototype_overlap([a, b]) == pytest.approx(50.0)

    def test_matches_loop_reference(self, trained):
        rng = np.random.default_rng(0)
        n, models = 80, []
        for _ in range(3):
            logits = np.where(rng.random(n) < 0.5, 10.0, -10.0)
            prov = [rng.choice([None, "s0", "s1"]) for _ in range(n)]
            models.append(self._fake_model(trained, prov, logits))
        scores = []
        for a, b in [(0, 1), (0, 2), (1, 2)]:
            wa, wb = (m.scaler.logits.data > 0 for m in (models[a],
                                                         models[b]))
            pa, pb = (m.bank.provenance for m in (models[a], models[b]))
            union = [i for i in range(n) if wa[i] or wb[i]]
            agree = sum(1 for i in union if wa[i] and wb[i]
                        and pa[i] is not None and pa[i] == pb[i])
            scores.append(agree / len(union))
        assert explain.prototype_overlap(models) == 100.0 * np.mean(scores)

    def test_needs_two(self, trained):
        _, model, _ = trained
        with pytest.raises(InputError, match="two"):
            explain.prototype_overlap([model])


class TestPatchCsv:
    def test_columns(self, trained, tmp_path):
        spec, model, samples = trained
        per_patch, _, _ = explain.activation_map(samples["test"][0], model)
        path = str(tmp_path / "p.csv")
        explain.write_patch_csv(path, per_patch, model)
        with open(path) as f:
            lines = f.read().splitlines()
        assert lines[0] == "patch_index,value,weight,provenance_subject"
        assert len(lines) == 1 + per_patch.size
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == pytest.approx(per_patch[0])
