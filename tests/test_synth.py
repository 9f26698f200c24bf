import json
import os

import numpy as np
import pytest

from xsit import surface as surf
from xsit import synth

SMALL = dict(mesh_order=2, patch_order=1, channels=2,
             lesion_patches=[3, 11], delta=3.0,
             counts={"train": 8, "val": 4, "test": 4}, seed=5)


class TestSpec:
    def test_roundtrip_json(self):
        spec = synth.SynthSpec(**SMALL)
        again = synth.SynthSpec.from_json(spec.to_json())
        assert again == spec

    def test_rejects_out_of_range_patch(self):
        with pytest.raises(ValueError, match="out of range"):
            synth.SynthSpec(patch_order=1, lesion_patches=[80])

    def test_rejects_empty_lesion(self):
        with pytest.raises(ValueError, match="nonempty"):
            synth.SynthSpec(lesion_patches=[])

    def test_ground_truth_mask(self):
        spec = synth.SynthSpec(**SMALL)
        mask = synth.lesion_ground_truth(spec)
        assert mask.shape == (80,)
        assert mask.sum() == 2
        assert mask[3] == 1 and mask[11] == 1


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthdata")
    spec = synth.SynthSpec(**SMALL)
    manifest_path = synth.generate(spec, str(out))
    manifest, samples = surf.load_dataset(manifest_path)
    return spec, manifest, samples, str(out)


class TestGenerate:

    def test_counts_and_splits(self, dataset):
        spec, manifest, samples, _ = dataset
        for split, n in spec.counts.items():
            got = [s for s in manifest.subjects if s["split"] == split]
            assert len(got) == n
            labels = [s["label"] for s in got]
            assert sum(labels) == round(n * spec.positive_fraction)

    def test_feature_shape(self, dataset):
        spec, manifest, samples, _ = dataset
        v = surf.vertex_count(spec.mesh_order)
        for s in samples["train"]:
            assert s.features.shape == (v, spec.channels)
            assert s.features.dtype == np.float32

    def test_lesion_effect_size(self, dataset):
        # group mean difference on lesioned vertices approximates delta*sigma
        spec, manifest, samples, _ = dataset
        partition = surf.build_partition(spec.mesh_order, spec.patch_order)
        idx = synth.lesion_vertices(spec, partition)
        every = sum(samples.values(), [])
        pos = np.mean([s.features[idx, 0] for s in every
                       if s.label == 1])
        neg = np.mean([s.features[idx, 0] for s in every
                       if s.label == 0])
        assert (neg - pos) == pytest.approx(spec.delta * spec.noise_sigma,
                                            abs=0.5)

    def test_no_effect_outside_lesion(self, dataset):
        spec, manifest, samples, _ = dataset
        partition = surf.build_partition(spec.mesh_order, spec.patch_order)
        idx = synth.lesion_vertices(spec, partition)
        v = surf.vertex_count(spec.mesh_order)
        rest = np.setdiff1d(np.arange(v), idx)
        every = sum(samples.values(), [])
        pos = np.mean([s.features[rest, 0] for s in every if s.label == 1])
        neg = np.mean([s.features[rest, 0] for s in every if s.label == 0])
        assert abs(pos - neg) < 0.2

    def test_other_channels_untouched(self, dataset):
        spec, manifest, samples, _ = dataset
        every = sum(samples.values(), [])
        pos = np.mean([s.features[:, 1] for s in every if s.label == 1])
        neg = np.mean([s.features[:, 1] for s in every if s.label == 0])
        assert abs(pos - neg) < 0.2

    def test_stats_from_train_split_only(self, dataset):
        spec, manifest, samples, _ = dataset
        stats = surf.compute_stats(samples["train"], manifest.channels)
        assert manifest.stats == stats

    def test_channel_names(self, dataset):
        _, manifest, _, _ = dataset
        assert manifest.channels[0] == "thickness"

    def test_spec_sidecar_written(self, dataset):
        spec, _, _, out = dataset
        with open(os.path.join(out, "synth_spec.json")) as f:
            assert synth.SynthSpec(**json.load(f)) == spec

    def test_byte_deterministic(self, dataset, tmp_path):
        spec, _, _, out = dataset
        synth.generate(synth.SynthSpec(**SMALL), str(tmp_path))
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as a, \
                 open(os.path.join(tmp_path, name), "rb") as b:
                assert a.read() == b.read(), name

    def test_seed_changes_data(self, tmp_path):
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        synth.generate(synth.SynthSpec(**SMALL), str(d1))
        synth.generate(synth.SynthSpec(**{**SMALL, "seed": 6}), str(d2))
        with open(d1 / "s0000.f32", "rb") as a, \
             open(d2 / "s0000.f32", "rb") as b:
            assert a.read() != b.read()
