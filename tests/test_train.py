import hashlib
import json
import os
import re

import numpy as np
import pytest

from xsit import psp
from xsit import surface as surf
from xsit import synth
from xsit import train
from xsit.config import load_config
from xsit.files import InputError
from xsit.tensor import AdamW, Tensor, load_arrays, save_arrays


def small_config(**train_over):
    cfg = load_config()
    cfg["encoder"].update({"dim": 16, "depth": 1, "heads": 2, "dropout": 0.0})
    cfg["train"].update({"epochs": 3, "batch_size": 8, "lr": 1e-3,
                         "projection_period": 2})
    cfg["train"].update(train_over)
    return cfg


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("traindata")
    spec = synth.SynthSpec(mesh_order=2, patch_order=1, channels=2,
                           lesion_patches=[3, 11, 19], delta=4.0,
                           counts={"train": 16, "val": 8, "test": 8}, seed=1)
    manifest, samples = surf.load_dataset(synth.generate(spec, str(out)))
    return manifest, samples


class TestMetrics:
    def test_perfect(self):
        m = train.compute_metrics(np.array([0.9, 0.8, 0.1, 0.2]),
                                  np.array([1, 1, 0, 0]))
        assert m.bacc == 1.0 and m.f1 == 1.0
        assert (m.tp, m.fp, m.tn, m.fn) == (2, 0, 2, 0)

    def test_chance(self):
        m = train.compute_metrics(np.array([0.9, 0.9, 0.9, 0.9]),
                                  np.array([1, 1, 0, 0]))
        assert m.bacc == 0.5

    def test_against_sklearn_formulae(self):
        rng = np.random.default_rng(0)
        probs = rng.uniform(size=50)
        labels = rng.integers(0, 2, size=50)
        m = train.compute_metrics(probs, labels)
        pred = probs >= 0.5
        tpr = np.mean(pred[labels == 1])
        tnr = np.mean(~pred[labels == 0])
        assert m.bacc == pytest.approx((tpr + tnr) / 2)


class TestClassWeights:
    def test_balanced_is_unit(self):
        assert train.class_weights([0, 0, 1, 1]) == (1.0, 1.0)

    def test_inverse_frequency(self):
        c0, c1 = train.class_weights([0] * 9 + [1])
        assert c0 == pytest.approx(10 / 18)
        assert c1 == pytest.approx(10 / 2)

    def test_single_class_rejected(self):
        with pytest.raises(InputError, match="both classes"):
            train.class_weights([1, 1, 1])


class TestWeightedBCE:
    def test_matches_manual(self):
        from xsit.tensor import Tensor
        p = np.array([0.9, 0.2, 0.7])
        y = np.array([1, 0, 0])
        loss = train.weighted_bce(Tensor(p), y, (2.0, 3.0)).item()
        manual = -(3.0 * np.log(0.9) + 2.0 * np.log(0.8)
                   + 2.0 * np.log(0.3)) / 3
        assert loss == pytest.approx(manual, rel=1e-5)

    def test_clamps_extremes(self):
        from xsit.tensor import Tensor
        loss = train.weighted_bce(Tensor(np.array([0.0])), np.array([1]))
        assert np.isfinite(loss.item())

    def test_gradient_direction(self):
        from xsit.tensor import Tensor
        p = Tensor(np.array([0.3]), requires_grad=True)
        train.weighted_bce(p, np.array([1])).backward()
        assert p.grad[0] < 0  # push probability up for a positive


class TestTrainRun:
    def test_loss_decreases_and_history(self, tiny_data, tmp_path):
        manifest, samples = tiny_data
        cfg = small_config(epochs=4)
        model, history = train.train_run(cfg, manifest, samples,
                                         str(tmp_path))
        epochs = [h for h in history if h[0] != "final"]
        assert len(epochs) == 4
        assert history[-1][0] == "final"
        assert epochs[-1][1] < epochs[0][1]
        for f in ("model.xck", "metrics.csv", "config.resolved.json",
                  "model.xck.provenance.json"):
            assert os.path.exists(tmp_path / f)

    def test_deterministic_given_seed(self, tiny_data):
        manifest, samples = tiny_data
        cfg = small_config(epochs=2)
        m1, h1 = train.train_run(cfg, manifest, samples)
        m2, h2 = train.train_run(cfg, manifest, samples)
        assert h1 == h2
        for k, t in m1.params.items():
            assert t.data.tobytes() == m2.params[k].data.tobytes()

    def test_dropout_run_bytes_pinned(self, tiny_data, tmp_path):
        """A run with dropout on writes these exact bytes, at 1 and 2 BLAS
        threads. They change if the attention's arithmetic order changes,
        e.g. the scale folded into q, if a first gradient keeps a
        transposed layout, or if the keep masks' draws or gelu's erf
        change."""
        manifest, samples = tiny_data
        cfg = small_config()
        cfg["encoder"]["dropout"] = 0.1
        train.train_run(cfg, manifest, samples, str(tmp_path))
        digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                   [:16] for f in ("model.xck", "model.xck.provenance.json",
                                   "metrics.csv")}
        assert digests == {"model.xck": "7c5c0f96f51084ff",
                           "model.xck.provenance.json": "fcc863fb0056046e",
                           "metrics.csv": "814b1791df4dcf1b"}

    def test_seed_changes_outcome(self, tiny_data):
        manifest, samples = tiny_data
        m1, _ = train.train_run(small_config(epochs=1), manifest, samples)
        m2, _ = train.train_run(small_config(epochs=1, seed=9), manifest,
                                samples)
        assert m1.params["patch_proj.w"].data.tobytes() != \
            m2.params["patch_proj.w"].data.tobytes()

    def test_prototypes_are_real_patches(self, tiny_data):
        # after training, every prototype equals some positive training
        # subject's embedded patch exactly
        manifest, samples = tiny_data
        model, _ = train.train_run(small_config(), manifest, samples)
        from xsit import psp
        pos = sorted([surf.normalize(s, model.stats, model.channels)
                      for s in samples["train"] if s.label == 1],
                     key=lambda s: s.subject_id)
        emb = psp.encode_samples(pos, model.params, model.enc_cfg,
                                 model.partition(), model.hemispheres)
        ids = [s.subject_id for s in pos]
        for i, prov in enumerate(model.bank.provenance):
            assert prov is not None
            c = ids.index(prov[0])
            np.testing.assert_array_equal(model.bank.xi.data[i], emb[c, i])

    def test_provenance_restricted_to_positives(self, tiny_data):
        manifest, samples = tiny_data
        model, _ = train.train_run(small_config(), manifest, samples)
        pos_ids = {s.subject_id for s in samples["train"] if s.label == 1}
        assert {p[0] for p in model.bank.provenance} <= pos_ids

    def test_zero_epoch_run(self, tiny_data):
        manifest, samples = tiny_data
        model, history = train.train_run(small_config(epochs=0), manifest,
                                         samples)
        assert history == []
        assert all(p is None for p in model.bank.provenance)

    def test_empty_train_split_rejected(self, tiny_data):
        manifest, samples = tiny_data
        with pytest.raises(InputError, match="nonempty"):
            train.train_run(small_config(), manifest,
                            {"train": [], "val": samples["val"]})

    def test_evaluate_learns_separation(self, tiny_data):
        # delta=4 planted effect: even a tiny model should beat chance on val
        manifest, samples = tiny_data
        cfg = small_config(epochs=6)
        model, _ = train.train_run(cfg, manifest, samples)
        rep = train.evaluate(model, samples["test"])
        assert rep.bacc > 0.5


class TestInference:
    def test_activations_keep_no_tape(self, tiny_data, monkeypatch):
        """Encoder parameters, prototypes and logits enter as constants,
        so no node of an inference pass joins the tape."""
        manifest, samples = tiny_data
        model = train.init_model(small_config(), manifest)
        made = []
        make = Tensor._make

        def record(self, *args):
            made.append(make(self, *args))
            return made[-1]

        monkeypatch.setattr(Tensor, "_make", record)
        train.activations(model, train.normalized(samples["test"], model))
        assert made
        assert [t.op for t in made if t.requires_grad] == []


class TestHistoryCsv:
    def test_roundtrip_floats(self, tmp_path):
        path = str(tmp_path / "h.csv")
        train.write_history_csv(path, [(0, 0.5, 0.75, 0.8),
                                       ("final", "", 1.0, 1.0)])
        with open(path) as f:
            lines = f.read().splitlines()
        assert lines[0] == "epoch,train_loss,val_bacc,val_f1"
        assert float(lines[1].split(",")[1]) == 0.5
        assert lines[2].startswith("final,")


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tiny_data, tmp_path):
        manifest, samples = tiny_data
        model, _ = train.train_run(small_config(), manifest, samples)
        path = str(tmp_path / "m.xck")
        train.save_checkpoint(path, model)
        again = train.load_checkpoint(path)
        for k, t in model.params.items():
            assert t.data.tobytes() == again.params[k].data.tobytes()
        assert again.bank.provenance == model.bank.provenance
        assert again.stats == model.stats
        p1 = train.predict_probs(model,
                                 [surf.normalize(s, model.stats,
                                                 model.channels)
                                  for s in samples["test"]])
        p2 = train.predict_probs(again,
                                 [surf.normalize(s, again.stats,
                                                 again.channels)
                                  for s in samples["test"]])
        assert p1.tobytes() == p2.tobytes()

    def test_provenance_sidecar_is_json(self, tiny_data, tmp_path):
        manifest, samples = tiny_data
        model, _ = train.train_run(small_config(), manifest, samples)
        path = str(tmp_path / "m.xck")
        train.save_checkpoint(path, model)
        with open(path + ".provenance.json") as f:
            side = json.load(f)
        assert len(side) == model.bank.xi.data.shape[0]

    def test_params_are_the_decoders_arrays(self, tiny_data, tmp_path):
        """After init and after a load, the prototypes and scaler logits in
        `params` are the tensors the decoder reads, so one AdamW step over
        `params` moves the class probability."""
        manifest, samples = tiny_data
        model = train.init_model(small_config(), manifest)
        path = str(tmp_path / "m.xck")
        train.save_checkpoint(path, model)
        test = train.normalized(samples["test"], model)
        for m in (model, train.load_checkpoint(path)):
            assert m.bank.xi is m.params["psp.xi"]
            assert m.scaler.logits is m.params["psp.logits"]
            patches = np.stack([surf.patchify(s, m.part, m.hemispheres)
                                for s in test])
            emb = train.enc.encode(Tensor(patches), m.params, m.enc_cfg)
            fixed = Tensor(emb.data)
            before = psp.class_probability(fixed, m.bank, m.scaler).data
            p = psp.class_probability(emb, m.bank, m.scaler)
            train.weighted_bce(p, [s.label for s in test]).backward()
            AdamW(m.params, lr=1e-3, weight_decay=1e-2).step()
            after = psp.class_probability(fixed, m.bank, m.scaler).data
            assert np.all(after != before)

    def test_dataset_keys_read_the_checkpoint_meta(self, tiny_data,
                                                    tmp_path):
        """Every key of the dataset table is a Model attribute that reads
        the checkpoint meta's value."""
        manifest, _ = tiny_data
        path = str(tmp_path / "m.xck")
        train.save_checkpoint(path, train.init_model(small_config(),
                                                     manifest))
        _, meta = load_arrays(path)
        model = train.load_checkpoint(path)
        for key in surf.DATASET_KEYS:
            assert getattr(model, key) == meta[key] == getattr(manifest, key)
            assert getattr(model, key) is model.meta[key]

    def test_load_draws_no_model(self, tiny_data, tmp_path, monkeypatch):
        """The arrays are checked against the encoder's shape list; no
        throwaway model is drawn to learn them."""
        manifest, samples = tiny_data
        model = train.init_model(small_config(), manifest)
        path = str(tmp_path / "m.xck")
        train.save_checkpoint(path, model)

        def refuse(*args):
            raise AssertionError("a checkpoint load drew a model")

        monkeypatch.setattr(train.enc, "init_params", refuse)
        again = train.load_checkpoint(path)
        assert again.params.keys() == model.params.keys()
        test = train.normalized(samples["test"], model)
        assert (train.predict_probs(again, test).tobytes()
                == train.predict_probs(model, test).tobytes())

    def test_retired_switch_in_meta_is_ignored(self, tiny_data, tmp_path):
        """A checkpoint whose meta still holds the retired
        `class_restricted_projection` switch predicts as before."""
        manifest, samples = tiny_data
        model, _ = train.train_run(small_config(epochs=1), manifest, samples)
        path = str(tmp_path / "m.xck")
        train.save_checkpoint(path, model)
        test = train.normalized(samples["test"], model)
        before = train.predict_probs(train.load_checkpoint(path), test)
        arrays, meta = load_arrays(path)
        meta["class_restricted_projection"] = True
        save_arrays(path, arrays, meta)
        after = train.predict_probs(train.load_checkpoint(path), test)
        assert after.tobytes() == before.tobytes()


class TestCheckpointDefects:
    """A checkpoint whose arrays or sidecar do not fit its meta fails in
    load_checkpoint, naming the file and what is wrong."""

    @pytest.fixture
    def saved(self, tiny_data, tmp_path):
        manifest, _ = tiny_data
        path = str(tmp_path / "m.xck")
        train.save_checkpoint(path, train.init_model(small_config(),
                                                     manifest))
        return path

    def rewrite(self, path, edit):
        arrays, meta = load_arrays(path)
        edit(arrays)
        save_arrays(path, arrays, meta)

    def test_missing_array(self, saved):
        self.rewrite(saved, lambda a: a.pop("block0.mlp.w1"))
        with pytest.raises(InputError,
                           match=r"m\.xck: array 'block0\.mlp\.w1': found "
                                 r"nothing"):
            train.load_checkpoint(saved)

    def test_wrong_shape(self, saved):
        def cut(a):
            a["psp.xi"] = a["psp.xi"][:, :5]
        self.rewrite(saved, cut)
        with pytest.raises(InputError,
                           match=r"m\.xck: array 'psp\.xi': found shape "
                                 r"\(80, 5\), the model needs shape "
                                 r"\(80, 16\)"):
            train.load_checkpoint(saved)

    def test_extra_array(self, saved):
        self.rewrite(saved, lambda a: a.update(extra=np.zeros(2, np.float32)))
        with pytest.raises(InputError, match="'extra'.*no such array"):
            train.load_checkpoint(saved)

    def test_missing_sidecar(self, saved):
        os.remove(saved + ".provenance.json")
        with pytest.raises(InputError,
                           match=r"m\.xck\.provenance\.json: cannot read"):
            train.load_checkpoint(saved)

    def test_short_sidecar(self, saved):
        with open(saved + ".provenance.json", "w") as f:
            json.dump([["s0000", 2]], f)
        with pytest.raises(InputError,
                           match="1 provenance entries for 80 prototypes"):
            train.load_checkpoint(saved)

    def test_malformed_sidecar(self, saved):
        for bad in ({"a": 1}, [5] * 80, [["s0000"]] * 80):
            with open(saved + ".provenance.json", "w") as f:
                json.dump(bad, f)
            with pytest.raises(InputError, match="subject_id, epoch"):
                train.load_checkpoint(saved)

    @pytest.mark.parametrize("entry,message", [
        ([7, "x"], "entry 0: key 'subject_id' must be a string, got 7"),
        (["s0000", "x"], "entry 0: key 'epoch' must be an integer, got 'x'"),
        (["s0000", 2.0], "entry 0: key 'epoch' must be an integer, got 2.0")])
    def test_sidecar_entry_types(self, saved, entry, message):
        with open(saved + ".provenance.json", "w") as f:
            json.dump([entry] * 80, f)
        with pytest.raises(InputError, match=re.escape(
                f"m.xck.provenance.json: {message}")):
            train.load_checkpoint(saved)

    @pytest.mark.parametrize("edit,message", [
        (lambda m: m.pop("mesh_order"), "missing key 'mesh_order'"),
        (lambda m: m.update(patch_order=1.0),
         "key 'patch_order' must be an integer >= 0"),
        (lambda m: m.update(hemispheres=True),
         "key 'hemispheres' must be an integer >= 1"),
        (lambda m: m.update(channels="thickness"),
         "key 'channels' must be a nonempty list of names"),
        (lambda m: m.pop("stats"), "missing key 'stats'"),
        (lambda m: m["stats"].pop("thickness"),
         "key 'stats' must hold one {mean, std} pair of numbers per channel"),
        (lambda m: m["stats"]["ch1"].update(std="1"),
         "key 'stats' must hold one {mean, std} pair of numbers per channel"),
        (lambda m: m["stats"]["ch1"].update(std=0.0),
         "stats.ch1: key 'std' must be a number > 0, got 0.0"),
        (lambda m: m["stats"]["thickness"].update(mean=float("inf")),
         "stats.thickness: key 'mean' must be a number, got inf"),
        (lambda m: m.pop("rectify_prototypes"),
         "missing key 'rectify_prototypes'"),
        (lambda m: m.pop("encoder"), "key 'encoder' must be an object"),
        (lambda m: m.update(encoder=[16]), "key 'encoder' must be an object"),
        (lambda m: m["encoder"].update(width=3),
         "unknown config key 'encoder.width'"),
        (lambda m: m["encoder"].pop("heads"), "missing key 'encoder.heads'"),
        (lambda m: m["encoder"].update(dim="16"),
         "config key 'encoder.dim' needs an integer"),
        (lambda m: m["encoder"].update(heads=5),
         "'encoder.heads' must divide 'encoder.dim'"),
        (lambda m: m.update(patch_order=3),
         "patch order must not exceed mesh order")])
    def test_bad_meta(self, saved, edit, message):
        arrays, meta = load_arrays(saved)
        edit(meta)
        save_arrays(saved, arrays, meta)
        with pytest.raises(InputError,
                           match=re.escape(f"m.xck: {message}")):
            train.load_checkpoint(saved)

    def test_untrained_model_round_trips(self, saved):
        again = train.load_checkpoint(saved)
        assert again.bank.provenance == [None] * 80
        assert again.meta["config"] == small_config()
