import numpy as np
import pytest

from xsit import psp
from xsit.tensor import Tensor


def cos_oracle(u, v):
    u = np.maximum(u, 0.0)
    v = np.maximum(v, 0.0)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu < 1e-8 or nv < 1e-8:
        return 0.0
    return float(u @ v / (nu * nv))


class TestRectifiedCosine:
    def test_matches_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 7))
        xi = rng.normal(size=(5, 7))
        sims = Tensor(x).rect_cosine(Tensor(xi)).data
        for i in range(5):
            assert sims[i] == pytest.approx(cos_oracle(x[i], xi[i]),
                                            abs=1e-6)

    def test_self_similarity_one(self):
        rng = np.random.default_rng(1)
        x = np.abs(rng.normal(size=(4, 6))) + 0.1
        sims = Tensor(x).rect_cosine(Tensor(x)).data
        np.testing.assert_allclose(sims, 1.0, atol=1e-6)

    def test_all_negative_gives_zero(self):
        x = -np.ones((2, 5))
        xi = np.ones((2, 5))
        sims = Tensor(x).rect_cosine(Tensor(xi)).data
        np.testing.assert_array_equal(sims, 0.0)

    def test_range(self):
        rng = np.random.default_rng(2)
        sims = Tensor(rng.normal(size=(100, 9))).rect_cosine(
            Tensor(rng.normal(size=(100, 9)))).data
        assert np.all(sims >= 0.0) and np.all(sims <= 1.0 + 1e-7)

    def test_gradient_fd(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(3, 6)), requires_grad=True,
                   dtype=np.float64)
        xi = Tensor(rng.normal(size=(3, 6)), dtype=np.float64)
        x.rect_cosine(xi).sum().backward()
        grad = x.grad.copy()
        h = 1e-6
        flat = x.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = x.rect_cosine(xi).sum().item()
            flat[i] = orig - h
            fm = x.rect_cosine(xi).sum().item()
            flat[i] = orig
            fd = (fp - fm) / (2 * h)
            assert grad.reshape(-1)[i] == pytest.approx(fd, abs=1e-6)


class TestSparseWeights:
    def test_sum_to_one(self):
        rng = np.random.default_rng(4)
        logits = Tensor(rng.normal(size=(16,)))
        w = psp.sparse_weights(logits).data
        assert w.sum() == pytest.approx(1.0, abs=1e-6)

    def test_below_uniform_masked(self):
        logits = np.zeros(8)
        logits[:3] = 5.0
        w = psp.sparse_weights(Tensor(logits)).data
        assert np.all(w[3:] == 0.0)
        assert np.all(w[:3] > 0.0)

    def test_uniform_logits_keep_all(self):
        w = psp.sparse_weights(Tensor(np.zeros(10))).data
        np.testing.assert_allclose(w, 0.1, atol=1e-7)

    def test_mask_constant_in_backward(self):
        # gradients flow only through kept entries; masked entries get the
        # softmax coupling term but no direct path
        logits = Tensor(np.array([3.0, 3.0, -5.0, -5.0]),
                        requires_grad=True, dtype=np.float64)
        psp.sparse_weights(logits).mul(
            Tensor(np.array([1.0, 2.0, 3.0, 4.0]))).sum().backward()
        g = logits.grad
        h = 1e-6
        for i in range(4):
            orig = logits.data[i]
            logits.data[i] = orig + h
            fp = psp.sparse_weights(logits).mul(
                Tensor(np.array([1.0, 2.0, 3.0, 4.0]))).sum().item()
            logits.data[i] = orig - h
            fm = psp.sparse_weights(logits).mul(
                Tensor(np.array([1.0, 2.0, 3.0, 4.0]))).sum().item()
            logits.data[i] = orig
            assert g[i] == pytest.approx((fp - fm) / (2 * h), abs=1e-6)


class TestClassProbability:
    def test_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        n, d = 6, 5
        x = rng.normal(size=(2, n, d))
        xi = rng.normal(size=(n, d))
        logits = rng.normal(size=(n,))
        bank = psp.PrototypeBank(Tensor(xi), [0] * n)
        scaler = psp.SparseScaler(Tensor(logits))
        probs = psp.class_probability(Tensor(x), bank, scaler).data

        sm = np.exp(logits - logits.max())
        sm /= sm.sum()
        keep = sm >= 1.0 / n
        w = np.where(keep, sm, 0.0)
        w /= w.sum()
        for b in range(2):
            expect = sum(w[i] * cos_oracle(x[b, i], xi[i])
                         for i in range(n))
            assert probs[b] == pytest.approx(expect, abs=1e-6)

    def test_range(self):
        rng = np.random.default_rng(6)
        bank = psp.PrototypeBank(Tensor(rng.normal(size=(8, 4))), [0] * 8)
        scaler = psp.SparseScaler(Tensor(rng.normal(size=(8,))))
        p = psp.class_probability(Tensor(rng.normal(size=(10, 8, 4))),
                                  bank, scaler).data
        assert np.all(p >= 0.0) and np.all(p <= 1.0 + 1e-6)


@pytest.fixture(scope="module")
def setting():
    from xsit import encoder as enc
    from xsit import surface as surf
    cfg = enc.EncoderConfig(dim=8, depth=1, heads=2, dropout=0.0,
                            seq_len=80, patch_size=6, channels=1)
    params = enc.init_params(cfg, 0)
    partition = surf.build_partition(2, 1)
    v = surf.vertex_count(2)
    rng = np.random.default_rng(11)
    samples = [surf.SurfaceSample(f"s{i:02d}", 1,
                                  rng.normal(size=(v, 1)).astype(np.float32))
               for i in range(5)]
    return cfg, params, partition, samples


def random_bank(seed: int) -> psp.PrototypeBank:
    """80 unprojected prototypes of dimension 8, drawn as a fresh model
    draws them."""
    xi = np.random.default_rng(seed).normal(0.0, 0.02, (80, 8))
    return psp.PrototypeBank(Tensor(xi.astype(np.float32),
                                    requires_grad=True), [None] * 80)


class TestProjection:
    """Projection searches real candidate samples through the encoder, so the
    oracle recomputes embeddings with encode_samples and argmaxes by hand."""

    def test_picks_argmax_per_patch(self, setting):
        cfg, params, partition, samples = setting
        bank = random_bank(3)
        xi0 = bank.xi.data.copy()
        psp.project_prototypes(bank, params, cfg, samples, partition,
                               hemispheres=1, epoch=4)
        ordered = sorted(samples, key=lambda s: s.subject_id)
        emb = psp.encode_samples(ordered, params, cfg, partition, 1)
        for p in range(80):
            sims = [cos_oracle(emb[c, p], xi0[p]) for c in range(5)]
            best = int(np.argmax(sims))
            assert bank.provenance[p] == (ordered[best].subject_id, 4)
            np.testing.assert_array_equal(bank.xi.data[p], emb[best, p])

    def test_unrectified_prototypes_use_the_decoders_similarity(self,
                                                                  setting):
        """With rectify_prototypes=False each source is the argmax of the
        decoder's own similarity, cos(relu(x), xi), not of the rectified
        one."""
        cfg, params, partition, samples = setting
        bank = random_bank(3)
        xi0 = bank.xi.data.copy()
        psp.project_prototypes(bank, params, cfg, samples, partition,
                               hemispheres=1, epoch=0,
                               rectify_prototypes=False)
        ordered = sorted(samples, key=lambda s: s.subject_id)
        emb = psp.encode_samples(ordered, params, cfg, partition, 1)
        own = Tensor(emb).rect_cosine(Tensor(xi0), rectify_proto=False).data
        rect = Tensor(emb).rect_cosine(Tensor(xi0), rectify_proto=True).data
        got = [[s.subject_id for s in ordered].index(p[0])
               for p in bank.provenance]
        np.testing.assert_array_equal(got, own.argmax(axis=0))
        assert np.any(own.argmax(axis=0) != rect.argmax(axis=0))
        np.testing.assert_array_equal(bank.xi.data,
                                      emb[got, np.arange(80)])

    def test_idempotent(self, setting):
        cfg, params, partition, samples = setting
        bank = random_bank(5)
        psp.project_prototypes(bank, params, cfg, samples, partition,
                               hemispheres=1, epoch=0)
        xi1 = bank.xi.data.copy()
        prov1 = [p[0] for p in bank.provenance]
        psp.project_prototypes(bank, params, cfg, samples, partition,
                               hemispheres=1, epoch=1)
        assert [p[0] for p in bank.provenance] == prov1
        np.testing.assert_array_equal(bank.xi.data, xi1)

    def test_tie_breaks_to_lowest_subject_id(self, setting):
        cfg, params, partition, samples = setting
        # all candidates share identical features -> all similarities tie
        clones = [type(samples[0])(sid, 1, samples[0].features)
                  for sid in ["s_b", "s_a", "s_c"]]
        bank = random_bank(7)
        psp.project_prototypes(bank, params, cfg, clones, partition,
                               hemispheres=1, epoch=0)
        assert all(p[0] == "s_a" for p in bank.provenance)

    def test_empty_candidates_raise(self, setting):
        cfg, params, partition, _ = setting
        bank = random_bank(9)
        with pytest.raises(Exception, match="empty"):
            psp.project_prototypes(bank, params, cfg, [], partition,
                                   hemispheres=1, epoch=0)


@pytest.mark.parametrize("batch", [1, 16, 50])
def test_embeddings_do_not_depend_on_the_batching(monkeypatch, batch):
    """50 subjects of the acceptance BENCH shape (ico4 mesh, ico1 patches,
    3 channels) through the default encoder: encoding them `batch` at a
    time gives the bits of encoding them all in one call."""
    from xsit import encoder as enc
    from xsit import surface as surf
    partition = surf.build_partition(4, 1)
    cfg = enc.EncoderConfig(seq_len=partition.n_patches,
                            patch_size=partition.patch_size, channels=3)
    params = enc.init_params(cfg, 0)
    rng = np.random.default_rng(21)
    samples = [surf.SurfaceSample(
        f"s{i:02d}", i % 2,
        rng.normal(size=(surf.vertex_count(4), 3)).astype(np.float32))
        for i in range(50)]
    patches = np.stack([surf.patchify(s, partition, 1) for s in samples])
    whole = enc.encode(Tensor(patches), params, cfg).data
    monkeypatch.setattr(psp, "_ENCODE_BATCH", batch)
    emb = psp.encode_samples(samples, params, cfg, partition, 1)
    assert emb.tobytes() == whole.tobytes()
