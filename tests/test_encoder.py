import tracemalloc
import weakref

import numpy as np
import pytest

from xsit import encoder as enc
from xsit.tensor import Tensor, TensorError, keep_scale

TINY = enc.EncoderConfig(dim=8, depth=1, heads=2, mlp_ratio=2, dropout=0.0,
                         seq_len=12, patch_size=3, channels=1)


def tiny_inputs(rng, batch=2, cfg=TINY):
    return rng.uniform(-1, 1, size=(batch, cfg.seq_len, cfg.patch_size,
                                    cfg.channels))


class TestInit:
    def test_same_seed_identical(self):
        a = enc.init_params(TINY, 7)
        b = enc.init_params(TINY, 7)
        assert a.keys() == b.keys()
        for k in a:
            assert a[k].data.tobytes() == b[k].data.tobytes()

    def test_different_seeds_differ(self):
        a = enc.init_params(TINY, 1)
        b = enc.init_params(TINY, 2)
        assert a["patch_proj.w"].data.tobytes() != \
            b["patch_proj.w"].data.tobytes()

    def test_weight_std(self):
        cfg = enc.EncoderConfig(dim=64, depth=1, heads=4, seq_len=4,
                                patch_size=40, channels=4)
        params = enc.init_params(cfg, 0)
        w = params["patch_proj.w"].data
        assert w.size >= 10_000
        assert abs(w.std() - 0.02) < 0.2 * 0.02

    def test_heads_must_divide_dim(self):
        with pytest.raises(ValueError, match="heads"):
            enc.EncoderConfig(dim=10, heads=3)


class TestEncode:
    def test_output_shape(self):
        rng = np.random.default_rng(0)
        params = enc.init_params(TINY, 0)
        out = enc.encode(Tensor(tiny_inputs(rng, 3)), params, TINY)
        assert out.shape == (3, TINY.seq_len, TINY.dim)

    def test_depth_zero_is_projection_plus_posemb(self):
        cfg = enc.EncoderConfig(dim=8, depth=0, heads=2, seq_len=12,
                                patch_size=3, channels=1, dropout=0.0)
        rng = np.random.default_rng(1)
        params = enc.init_params(cfg, 0)
        x = tiny_inputs(rng)
        out = enc.encode(Tensor(x), params, cfg)
        flat = Tensor(x).reshape(2, 12, 3)
        manual = flat.matmul(params["patch_proj.w"]).add(
            params["patch_proj.b"]).add(params["pos_emb"]).layernorm(
            params["final_norm.g"], params["final_norm.b"])
        np.testing.assert_array_equal(out.data, manual.data)

    def test_batch_permutation(self):
        rng = np.random.default_rng(2)
        params = enc.init_params(TINY, 0)
        x = tiny_inputs(rng, 4)
        out = enc.encode(Tensor(x), params, TINY).data
        perm = [2, 0, 3, 1]
        out_p = enc.encode(Tensor(x[perm]), params, TINY).data
        np.testing.assert_allclose(out_p, out[perm], atol=1e-6)

    def test_identical_patches_with_zero_posemb(self):
        rng = np.random.default_rng(3)
        params = enc.init_params(TINY, 0)
        params["pos_emb"].data = np.zeros_like(params["pos_emb"].data)
        x = tiny_inputs(rng, 1)
        x[0, 5] = x[0, 2]
        out = enc.encode(Tensor(x), params, TINY).data
        np.testing.assert_allclose(out[0, 5], out[0, 2], atol=1e-5)

    def test_sequence_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        params = enc.init_params(TINY, 0)
        params["pos_emb"].data = np.zeros_like(params["pos_emb"].data)
        x = tiny_inputs(rng, 1)
        perm = rng.permutation(TINY.seq_len)
        out = enc.encode(Tensor(x), params, TINY).data
        out_p = enc.encode(Tensor(x[:, perm]), params, TINY).data
        np.testing.assert_allclose(out_p, out[:, perm], atol=1e-5)

    def test_inference_deterministic(self):
        rng = np.random.default_rng(5)
        cfg = enc.EncoderConfig(dim=8, depth=1, heads=2, dropout=0.5,
                                seq_len=12, patch_size=3, channels=1)
        params = enc.init_params(cfg, 0)
        x = tiny_inputs(rng, 2, cfg)
        a = enc.encode(Tensor(x), params, cfg, training=False).data
        b = enc.encode(Tensor(x), params, cfg, training=False).data
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("tape", [False, True])
    def test_graph_lives_only_on_the_tape(self, monkeypatch, tape):
        """With constant parameters no node keeps its inputs, so once
        encode returns every array an op made is freed but the result's.
        With trainable ones the tape keeps exactly the outputs that some
        backward reads: the flattened patches (read by the patch matmul),
        both block layernorms' outputs (by the q/k/v and first MLP
        matmuls), the q, k and v products (by attention, through their
        views), the reshaped context (by the output matmul), the first
        MLP product (by gelu) and gelu's output (by the second MLP
        matmul). The final layernorm's is the result. The residual
        stream, the other products and attention's output are freed."""
        made = []
        make = Tensor._make

        def recording(self, data, parents, backward, op):
            out = make(self, data, parents, backward, op)
            made.append((op, weakref.ref(out.data)))
            return out
        monkeypatch.setattr(Tensor, "_make", recording)
        params = {k: Tensor(t.data, requires_grad=tape)
                  for k, t in enc.init_params(TINY, 0).items()}
        x = Tensor(tiny_inputs(np.random.default_rng(6)))
        out = enc.encode(x, params, TINY, training=False)
        assert made[-1][1]() is out.data
        alive = sorted(op for op, ref in made if ref() is not None)
        assert alive == (["gelu", "layernorm", "layernorm", "layernorm",
                          "matmul", "matmul", "matmul", "matmul", "reshape",
                          "reshape"] if tape else ["layernorm"])

    def test_training_dropout_needs_rng(self):
        cfg = enc.EncoderConfig(dim=8, depth=1, heads=2, dropout=0.5,
                                seq_len=12, patch_size=3, channels=1)
        params = enc.init_params(cfg, 0)
        with pytest.raises(TensorError, match="rng"):
            enc.encode(Tensor(np.zeros((1, 12, 3, 1))), params, cfg,
                       training=True)

    def test_wrong_shape(self):
        params = enc.init_params(TINY, 0)
        with pytest.raises(TensorError, match="config expects"):
            enc.encode(Tensor(np.zeros((1, 12, 4, 1))), params, TINY)


class TestKeepMask:
    def test_no_mask_when_rate_rounds_to_zero(self):
        rng = np.random.default_rng(0)
        assert enc._threshold(7e-6) == 0
        assert enc._keep_mask((4, 4), 7e-6, True, rng) is None
        assert enc._keep_mask((4, 4), 8e-6, True, rng) is not None

    def test_kept_fraction(self):
        keep = enc._keep_mask((1000, 1000), 0.1, True,
                              np.random.default_rng(1))
        assert keep.dtype == bool and keep.shape == (1000, 1000)
        assert abs(keep.mean() - (1 - enc._rate(0.1))) <= 0.002

    @pytest.mark.parametrize("chunks", [0, 3],
                             ids=["below-a-chunk", "across-chunks"])
    def test_the_bits_and_stream_of_one_draw(self, chunks):
        """Drawn in chunks, the mask has the bits of one draw of the whole
        mask and leaves the generator where that draw would."""
        n = chunks * enc._MASK_CHUNK + 7
        assert enc._MASK_CHUNK % 4 == 0 and n % 4 != 0
        rng, one = np.random.default_rng(8), np.random.default_rng(8)
        keep = enc._keep_mask((n,), 0.1, True, rng)
        bits = one.bit_generator.random_raw((n + 3) // 4).view(np.uint16)
        assert keep.tobytes() == (bits[:n] >= enc._threshold(0.1)).tobytes()
        assert rng.bit_generator.state == one.bit_generator.state

    def test_peaks_at_one_byte_per_element(self):
        shape = (8, 1024, 1024)
        n = 8 * 1024 * 1024
        rng = np.random.default_rng(9)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            keep = enc._keep_mask(shape, 0.1, True, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert keep.shape == shape
        assert peak - start < 1.25 * n

    def test_rate_near_one_is_capped(self):
        p = 0.999995
        assert enc._threshold(p) == 65535
        scale = keep_scale(enc._rate(p), np.float32)
        assert np.isfinite(scale) and scale == 65536
        cfg = enc.EncoderConfig(dim=8, depth=1, heads=2, dropout=p,
                                seq_len=12, patch_size=3, channels=1)
        params = enc.init_params(cfg, 0)
        x = Tensor(tiny_inputs(np.random.default_rng(2), 2, cfg))
        loss = enc.encode(x, params, cfg, training=True,
                          rng=np.random.default_rng(3)).sum()
        loss.backward()
        assert np.isfinite(loss.data).all()
        assert all(np.isfinite(t.grad).all() for t in params.values())


class TestEncoderGradients:
    def test_scalar_head_matches_fd(self):
        rng = np.random.default_rng(6)
        params = {k: Tensor(v.data.astype(np.float64), requires_grad=True)
                  for k, v in enc.init_params(TINY, 0).items()}
        x = Tensor(tiny_inputs(rng, 1), requires_grad=True, dtype=np.float64)
        head = Tensor(rng.uniform(-1, 1, (TINY.dim, 1)), dtype=np.float64)

        def fn():
            return enc.encode(x, params, TINY).matmul(head).sum()

        fn().backward()
        for t in [x, params["patch_proj.w"], params["block0.attn.wq"],
                  params["block0.mlp.w1"], params["final_norm.g"]]:
            grad = t.grad.copy()
            fd = np.zeros_like(t.data)
            flat = t.data.reshape(-1)
            sl = np.linspace(0, flat.size - 1, min(flat.size, 24),
                             dtype=int)
            h = 1e-6
            for i in sl:
                orig = flat[i]
                flat[i] = orig + h
                fp = fn().item()
                flat[i] = orig - h
                fm = fn().item()
                flat[i] = orig
                fd.reshape(-1)[i] = (fp - fm) / (2 * h)
            np.testing.assert_allclose(grad.reshape(-1)[sl],
                                       fd.reshape(-1)[sl],
                                       rtol=1e-6, atol=1e-8)


def test_backward_frees_the_step():
    """After backward() every array of the step's graph is freed, though
    the loss is still referenced: traced memory is back where it was
    before the forward (the leaves' gradients already exist, so backward
    accumulates into them in place)."""
    cfg = enc.EncoderConfig(dim=12, depth=2, heads=3, dropout=0.1,
                            seq_len=24, patch_size=3, channels=1)
    params = enc.init_params(cfg, 0)
    x = Tensor(tiny_inputs(np.random.default_rng(7), 4, cfg))

    def step(seed):
        loss = enc.encode(x, params, cfg, training=True,
                          rng=np.random.default_rng(seed)).sum()
        loss.backward()
        return loss

    step(0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = step(1)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loss.data.size == 1
    assert after - before < 0.02 * (peak - before)
