import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import xsit
from xsit import tensor
from xsit.files import InputError
from xsit.tensor import (AdamW, Tensor, TensorError, erf, load_arrays,
                         save_arrays)


def fd_grad(fn, t, h=1e-6):
    """Central finite differences of a scalar-valued fn in the tensor's
    entries (tensor must be float64)."""
    fd = np.zeros_like(t.data)
    flat = t.data.reshape(-1)
    out = fd.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = fn().item()
        flat[i] = orig - h
        fm = fn().item()
        flat[i] = orig
        out[i] = (fp - fm) / (2 * h)
    return fd


def assert_grad_matches(fn, tensors, rtol=1e-6, atol=1e-8):
    loss = fn()
    for t in tensors:
        t.grad = None
    loss = fn()
    loss.backward()
    for t in tensors:
        fd = fd_grad(fn, t)
        np.testing.assert_allclose(t.grad, fd, rtol=rtol, atol=atol)


def randt(rng, shape, lo=-2.0, hi=2.0):
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True,
                  dtype=np.float64)


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(a.matmul(b).data, b.data)

    def test_inner_product(self):
        out = Tensor([[1.0, 2.0]]).matmul(Tensor([[3.0], [4.0]]))
        assert out.item() == 11.0

    def test_shape_mismatch(self):
        with pytest.raises(TensorError, match="inner dims"):
            Tensor(np.ones((4, 5))).matmul(Tensor(np.ones((4, 3))))

    def test_grad_of_sum_is_ones_times_bt(self):
        rng = np.random.default_rng(3)
        a = randt(rng, (4, 5))
        b = randt(rng, (5, 3))
        a.matmul(b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((4, 3)) @ b.data.T,
                                   rtol=1e-12)
        assert_grad_matches(lambda: a.matmul(b).sum(), [a, b])

    def test_batched_grad(self):
        rng = np.random.default_rng(4)
        a = randt(rng, (2, 3, 4))
        w = randt(rng, (4, 5))
        assert_grad_matches(lambda: (a.matmul(w) * a.matmul(w)).sum(), [a, w])


class TestSoftmax:
    def test_uniform(self):
        out = Tensor([0.0, 0.0, 0.0]).softmax()
        np.testing.assert_allclose(out.data, [1 / 3] * 3)

    def test_stabilized(self):
        out = Tensor([1000.0, 0.0]).softmax()
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-6)

    def test_reference_values(self):
        x = np.array([1.0, 2.0, 3.0])
        expect = np.exp(x) / np.exp(x).sum()
        np.testing.assert_allclose(Tensor(x).softmax().data, expect,
                                   rtol=1e-6)

    def test_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-2, 2, size=(5, 7))
        y = Tensor(x).softmax().data
        np.testing.assert_allclose(y.sum(-1), 1.0, atol=1e-6)
        y2 = Tensor(x + 3.7).softmax().data
        np.testing.assert_allclose(y, y2, atol=1e-6)

    def test_grad(self):
        rng = np.random.default_rng(5)
        x = randt(rng, (3, 4))
        c = Tensor(rng.uniform(-1, 1, size=(3, 4)), dtype=np.float64)
        assert_grad_matches(lambda: (x.softmax() * c).sum(), [x])


class TestAttention:
    @staticmethod
    def qkv(rng, dtype=np.float64, shape=(2, 2, 5, 3)):
        return [Tensor(rng.uniform(-2, 2, size=shape), requires_grad=True,
                       dtype=dtype) for _ in range(3)]

    def test_grad(self):
        rng = np.random.default_rng(12)
        q, k, v = self.qkv(rng)
        c = Tensor(rng.uniform(-1, 1, size=q.shape), dtype=np.float64)
        assert_grad_matches(lambda: (q.attention(k, v) * c).sum(), [q, k, v])

    def test_grad_with_keep_mask(self):
        rng = np.random.default_rng(13)
        q, k, v = self.qkv(rng)
        keep = rng.random((2, 2, 5, 5)) >= 0.3
        c = Tensor(rng.uniform(-1, 1, size=q.shape), dtype=np.float64)
        assert_grad_matches(lambda: (q.attention(k, v, keep, 0.3) * c).sum(),
                            [q, k, v])

    @staticmethod
    def fused_and_composed(shape, keep, c, heads_first=True):
        """[out, q.grad, k.grad, v.grad] as bytes, in float32, from the
        attention node and from matmul, scale, softmax, dropout mul and
        matmul as separate nodes, with the loss sum(out * c). With
        heads_first=False the leaves are [B, S, h, dh] and q, k, v their
        [B, h, S, dh] transposes, as in the encoder."""
        b, h, s, dh = shape
        results = []
        for fused in (True, False):
            rng = np.random.default_rng(15)
            leaves = [Tensor(rng.uniform(-2, 2, size=shape if heads_first
                                         else (b, s, h, dh)),
                             requires_grad=True, dtype=np.float32)
                      for _ in range(3)]
            q, k, v = leaves if heads_first else \
                [t.transpose((0, 2, 1, 3)) for t in leaves]
            if fused:
                out = q.attention(k, v, keep, 0.0 if keep is None else 0.1)
            else:
                out = q.matmul(k.transpose((0, 1, 3, 2))).mul(
                    1.0 / np.sqrt(dh)).softmax()
                if keep is not None:
                    out = out.mul(Tensor(keep.astype(np.float32) / (1.0 - 0.1)))
                out = out.matmul(v)
            (out * Tensor(c.astype(np.float32))).sum().backward()
            results.append([out.data.tobytes()]
                           + [t.grad.tobytes() for t in leaves])
        return results

    def test_bytes_of_the_composed_ops(self):
        """Forward and gradients equal, byte for byte in float32, those of
        matmul, scale, softmax, dropout mul and matmul as separate nodes."""
        rng = np.random.default_rng(14)
        keep = rng.random((2, 2, 5, 5)) >= 0.1
        c = rng.uniform(-1, 1, size=(2, 2, 5, 3))
        fused, composed = self.fused_and_composed((2, 2, 5, 3), keep, c)
        assert fused == composed

    @staticmethod
    def slices_per_block(monkeypatch, n, s, dtype):
        """Blocks of n [s, s] slices; below one slice a node on the tape
        keeps row statistics and recomputes its probabilities."""
        monkeypatch.setattr(tensor, "_ATTN_BLOCK",
                            int(n * s * s * np.dtype(dtype).itemsize))

    # blocks of two [5, 5] slices: (1, 7) is one grid row of 7 slices in 4
    # blocks, (7, 1) 7 rows of one slice in 4 blocks, (3, 3) two blocks per
    # row; each has a partial last block. With half a slice per block
    # ("recompute") every block is one slice.
    @pytest.mark.parametrize("lead", [(1, 7), (7, 1), (3, 3)],
                             ids=["1x7", "7x1", "3x3"])
    @pytest.mark.parametrize("masked,slices", [
        (True, 2), (False, 2), (True, 0.5), (False, 0.5)],
        ids=["keep", "nokeep", "keep-recompute", "nokeep-recompute"])
    def test_bytes_across_blocks(self, monkeypatch, lead, masked, slices):
        self.slices_per_block(monkeypatch, slices, 5, np.float32)
        rng = np.random.default_rng(17)
        keep = rng.random(lead + (5, 5)) >= 0.1
        c = rng.uniform(-1, 1, size=lead + (5, 3))
        fused, composed = self.fused_and_composed(
            lead + (5, 3), keep if masked else None, c, heads_first=False)
        assert fused == composed

    @pytest.mark.parametrize("lead,slices", [
        ((1, 7), 2), ((7, 1), 2), ((1, 7), 0.5), ((7, 1), 0.5)],
        ids=["1x7", "7x1", "1x7-recompute", "7x1-recompute"])
    def test_grad_across_blocks(self, monkeypatch, lead, slices):
        self.slices_per_block(monkeypatch, slices, 5, np.float64)
        rng = np.random.default_rng(18)
        q, k, v = self.qkv(rng, shape=lead + (5, 3))
        keep = rng.random(lead + (5, 5)) >= 0.3
        c = Tensor(rng.uniform(-1, 1, size=q.shape), dtype=np.float64)
        assert_grad_matches(lambda: (q.attention(k, v, keep, 0.3) * c).sum(),
                            [q, k, v])

    @pytest.mark.parametrize("tape", [True, False], ids=["taped", "untaped"])
    def test_forward_keeps_below_one_score_array(self, tape):
        """With slices larger than a block, a node on the tape keeps each
        row's max and sum rather than the probabilities, and neither
        forward holds more than one block of scores: the traced memory
        grows, even at its peak, by less than one whole score array."""
        s = 512
        assert s * s * 4 > tensor._ATTN_BLOCK
        shape = (2, 4, s, 4)
        rng = np.random.default_rng(20)
        q, k, v = self.qkv(rng, np.float32, shape)
        for t in (q, k, v):
            t.requires_grad = tape
        keep = rng.random(shape[:2] + (s, s)) >= 0.1
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = q.attention(k, v, keep, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.requires_grad == tape
        assert peak - start < math.prod(shape[:2]) * s * s * 4

    def test_backward_peaks_below_one_score_array(self):
        """The backward's [..., S, S] temporaries exist one block at a
        time: over 8 blocks it peaks below one whole score array."""
        s = 512
        per_block = max(1, tensor._ATTN_BLOCK // (s * s * 4))
        shape = (2, 4 * per_block, s, 4)
        rng = np.random.default_rng(19)
        q, k, v = self.qkv(rng, np.float32, shape)
        keep = rng.random(shape[:2] + (s, s)) >= 0.1
        c = Tensor(rng.uniform(-1, 1, size=shape), dtype=np.float32)
        loss = (q.attention(k, v, keep, 0.1) * c).sum()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < math.prod(shape[:2]) * s * s * 4

    def test_keep_mask_must_have_the_scores_shape(self):
        q = Tensor(np.ones((1, 2, 4, 3)))
        with pytest.raises(TensorError, match="keep mask"):
            q.attention(q, q, np.ones((4, 4), dtype=bool), 0.1)

    def test_shape_mismatch(self):
        q = Tensor(np.ones((1, 2, 4, 3)))
        with pytest.raises(TensorError, match="attention"):
            q.attention(Tensor(np.ones((1, 2, 5, 3))), q)


class TestLayernorm:
    def test_constant_slice(self):
        out = Tensor([5.0, 5.0, 5.0]).layernorm(Tensor(np.ones(3)),
                                                Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, np.zeros(3), atol=1e-7)

    def test_symmetric(self):
        out = Tensor([1.0, -1.0]).layernorm(Tensor(np.ones(2)),
                                            Tensor(np.zeros(2)))
        a = 1.0 / np.sqrt(1 + 1e-5)
        np.testing.assert_allclose(out.data, [a, -a], rtol=1e-6)

    def test_reference(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-2, 2, size=7)
        out = Tensor(x).layernorm(Tensor(np.ones(7)), Tensor(np.zeros(7)))
        ref = (x - x.mean()) / np.sqrt(x.var() + 1e-5)
        np.testing.assert_allclose(out.data, ref, rtol=1e-6)

    def test_grad(self):
        rng = np.random.default_rng(7)
        x = randt(rng, (2, 5))
        g = randt(rng, (5,), lo=0.5, hi=1.5)
        b = randt(rng, (5,))
        assert_grad_matches(
            lambda: (x.layernorm(g, b) * x.layernorm(g, b)).sum(), [x, g, b])


class TestErf:
    """A dense sweep of [-6, 6] against math.erf, which is double-accurate."""
    X = np.linspace(-6.0, 6.0, 120_001)
    EXACT = np.array([math.erf(v) for v in X])

    def test_float32_within_5e_7(self):
        got = erf(self.X.astype(np.float32))
        exact = np.array([math.erf(v) for v in
                          self.X.astype(np.float32).astype(np.float64)])
        assert got.dtype == np.float32
        assert np.abs(got.astype(np.float64) - exact).max() <= 5e-7

    def test_float64_is_cephes(self):
        """Within 3 ulp of math.erf, the error of Cephes' algorithm itself
        (at x = -0.9374, say), and within 2 ulp of scipy's port of it."""
        got = erf(self.X)
        ulp = np.spacing(np.abs(self.EXACT))
        assert got.dtype == np.float64
        assert (np.abs(got - self.EXACT) <= 3 * ulp).all()
        special = pytest.importorskip("scipy.special")
        assert (np.abs(got - special.erf(self.X)) <= 2 * ulp).all()

    def test_odd_and_saturated(self):
        for dtype in (np.float32, np.float64):
            x = self.X.astype(dtype)
            assert (erf(-x) == -erf(x)).all()
            assert (erf(np.array([-40.0, 40.0], dtype)) == [-1, 1]).all()


def test_runtime_imports_no_scipy():
    src = os.path.dirname(os.path.dirname(xsit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, xsit.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path})
    assert out.stdout == "False\n"


class TestElementwise:
    def test_sum_of_ones(self):
        assert Tensor(np.ones((3, 4))).sum().item() == 12.0

    @pytest.mark.parametrize("op", ["add", "mul", "div", "gelu", "log",
                                    "sum", "mean", "neg"])
    def test_grad_vs_fd(self, op):
        rng = np.random.default_rng(hash(op) % 2 ** 31)
        if op == "log":
            x = randt(rng, (3, 4), lo=0.5, hi=2.0)
        else:
            x = randt(rng, (3, 4))
        if op in ("add", "mul", "div"):
            y = randt(rng, (3, 4), lo=0.5, hi=2.0)
            fn = lambda: (getattr(x, op)(y) * getattr(x, op)(y)).sum()
            assert_grad_matches(fn, [x, y])
        elif op in ("sum", "mean"):
            fn = lambda: getattr(x, op)(axis=1).mul(
                Tensor([1.0, -2.0, 0.5], dtype=np.float64)).sum()
            assert_grad_matches(fn, [x])
        else:
            fn = lambda: (getattr(x, op)() * getattr(x, op)()).sum()
            assert_grad_matches(fn, [x])

    def test_structural_grads(self):
        rng = np.random.default_rng(11)
        x = randt(rng, (3, 4))
        fn = lambda: (x.reshape(4, 3).transpose((1, 0))
                      * x.reshape(4, 3).transpose((1, 0))).sum()
        assert_grad_matches(fn, [x])

    def test_leading_broadcast_only(self):
        a = Tensor(np.ones((2, 3, 4)))
        b = Tensor(np.ones(4))
        assert a.add(b).shape == (2, 3, 4)
        with pytest.raises(TensorError, match="broadcast"):
            a.add(Tensor(np.ones((2, 1, 4))))

    def test_nan_raises(self):
        with pytest.raises(TensorError, match="non-finite"):
            Tensor([-1.0]).log()


class TestBackwardPass:
    def test_sum_grad_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_square_grad(self):
        x = Tensor(np.arange(5.0), requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * x.data)

    def test_fanout_accumulates(self):
        x = Tensor(np.array([3.0]), requires_grad=True, dtype=np.float64)
        y = x * 2.0
        (y + y * y).sum().backward()
        # d/dx (2x + 4x^2) = 2 + 8x
        np.testing.assert_allclose(x.grad, [2 + 8 * 3.0])

    def test_nonscalar_rejected(self):
        with pytest.raises(TensorError, match="scalar"):
            Tensor(np.ones(3), requires_grad=True).backward()

    def test_each_node_visited_once(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * 2.0
        z = y + y          # diamond
        visits = z.sum().backward()
        # nodes: x, const 2, y, z (y used twice but visited once), sum
        assert visits == 5

    def test_consumes_the_graph_and_leaves_keep_grads(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        y = x * 2.0
        loss = (y * y).sum()
        loss.backward()
        np.testing.assert_array_equal(x.grad, 8 * x.data)
        for node in (y, loss):
            assert node.grad is None and node._backward is None
            assert node._parents == ()

    def test_second_backward_is_refused(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        loss = (x * x).sum()
        loss.backward()
        with pytest.raises(TensorError, match="'sum'.*earlier backward"):
            loss.backward()
        np.testing.assert_array_equal(x.grad, 2 * x.data)

    def test_graph_on_a_consumed_node_is_refused(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        y = x * 2.0
        y.sum().backward()
        with pytest.raises(TensorError, match="'mul'.*earlier backward"):
            (y * 3.0).sum().backward()
        np.testing.assert_array_equal(x.grad, np.full(3, 2.0))


# every tape op, called on [3, 3] operands a and b
TAPE_OPS = {
    "add": lambda a, b: a.add(b),
    "mul": lambda a, b: a.mul(b),
    "div": lambda a, b: a.div(b),
    "neg": lambda a, b: a.neg(),
    "matmul": lambda a, b: a.matmul(b),
    "gelu": lambda a, b: a.gelu(),
    "log": lambda a, b: a.log(),
    "clamp": lambda a, b: a.clamp(0.6, 1.2),
    "sum": lambda a, b: a.sum(axis=0),
    "reshape": lambda a, b: a.reshape(9),
    "transpose": lambda a, b: a.transpose((1, 0)),
    "softmax": lambda a, b: a.softmax(),
    "attention": lambda a, b: a.attention(b, b),
    "layernorm": lambda a, b: a.layernorm(Tensor(b.data[0]), Tensor(b.data[1])),
    "rect_cosine": lambda a, b: a.rect_cosine(b),
}


class TestTape:
    """An op's output joins the tape only when an operand requires a
    gradient; otherwise it keeps neither parents nor closure."""

    @pytest.mark.parametrize("op", sorted(TAPE_OPS))
    def test_constant_operands_make_a_constant(self, op):
        rng = np.random.default_rng(0)
        a, b = (Tensor(rng.uniform(0.5, 1.5, (3, 3))) for _ in range(2))
        out = TAPE_OPS[op](a, b)
        assert out.op == op
        assert not out.requires_grad
        assert out._backward is None and out._parents == ()


class TestAdamW:
    def test_zero_grad_zero_decay_no_change(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(2, np.float32)
        opt = AdamW({"p": p}, lr=0.1, weight_decay=0.0)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])
        assert opt.t == 1

    def test_first_step_bias_correction(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.ones(1, np.float32)
        AdamW({"p": p}, lr=0.1, weight_decay=0.0).step()
        np.testing.assert_allclose(p.data, [0.9], atol=1e-6)

    def test_missing_grad(self):
        p = Tensor(np.ones(1), requires_grad=True)
        with pytest.raises(TensorError, match="'p' has no gradient"):
            AdamW({"p": p}, lr=1e-4, weight_decay=1e-2).step()

    def test_missing_grad_changes_nothing(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([2.0]), requires_grad=True)
        a.grad = np.ones(1, np.float32)
        opt = AdamW({"a": a, "b": b}, lr=0.1, weight_decay=1e-2)
        with pytest.raises(TensorError, match="'b' has no gradient"):
            opt.step()
        np.testing.assert_array_equal(a.data, [1.0])
        assert opt.t == 0

    def test_quadratic_convergence(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = AdamW({"p": p}, lr=0.1, weight_decay=0.0)
        for _ in range(100):
            opt.zero_grad()
            ((p - 3.0) * (p - 3.0)).sum().backward()
            opt.step()
        assert abs(p.item() - 3.0) < 1e-2

    def test_decay_exempts_vectors(self):
        """With a zero gradient only the decay moves a parameter: the
        vector stays, the matrix shrinks by lr*wd*p."""
        vec = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        mat = Tensor(np.array([[1.0, -2.0], [3.0, 4.0]]), requires_grad=True)
        vec0, mat0 = vec.data.copy(), mat.data.copy()
        vec.grad, mat.grad = np.zeros_like(vec0), np.zeros_like(mat0)
        AdamW({"v": vec, "m": mat}, lr=0.1, weight_decay=0.5).step()
        np.testing.assert_array_equal(vec.data, vec0)
        np.testing.assert_allclose(mat.data, mat0 - 0.1 * 0.5 * mat0,
                                   rtol=1e-6)


class TestCheckpointContainer:
    def test_bit_exact_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {"a.w": rng.normal(size=(3, 4)).astype(np.float32),
                  "b": rng.normal(size=7).astype(np.float32)}
        meta = {"note": "x", "k": 3}
        path = str(tmp_path / "ck.xck")
        save_arrays(path, arrays, meta)
        loaded, meta2 = load_arrays(path)
        assert meta2 == meta
        for k in arrays:
            assert loaded[k].tobytes() == arrays[k].tobytes()

    def test_deterministic_bytes(self, tmp_path):
        arrays = {"z": np.ones(3, np.float32), "a": np.zeros(2, np.float32)}
        p1, p2 = str(tmp_path / "1"), str(tmp_path / "2")
        save_arrays(p1, arrays, {"m": 1})
        save_arrays(p2, dict(reversed(arrays.items())), {"m": 1})
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad"
        p.write_bytes(b"not a checkpoint")
        with pytest.raises(InputError, match="container"):
            load_arrays(str(p))

    def test_truncated_or_inconsistent(self, tmp_path):
        arrays = {"a": np.ones((80, 48), np.float32),
                  "b": np.zeros(3, np.float32)}
        path = str(tmp_path / "ck.xck")
        save_arrays(path, arrays, {"m": 1})
        whole = open(path, "rb").read()
        p = tmp_path / "cut"
        p.write_bytes(whole[:-100])           # the end of "a" and all of "b"
        with pytest.raises(InputError, match=r"cut: entry 'a'.*truncated"):
            load_arrays(str(p))
        p.write_bytes(whole[:20])             # inside the header
        with pytest.raises(InputError, match=r"cut: header.*truncated"):
            load_arrays(str(p))
        p.write_bytes(whole[:10])             # inside the header length
        with pytest.raises(InputError, match="truncated"):
            load_arrays(str(p))
        hlen = int.from_bytes(whole[8:12], "little")
        header = whole[12:12 + hlen].replace(b'"nbytes": 12', b'"nbytes": 16')
        p.write_bytes(whole[:8] + len(header).to_bytes(4, "little") + header
                      + whole[12 + hlen:])
        with pytest.raises(InputError, match=r"entry 'b' has 16 bytes"):
            load_arrays(str(p))
