import numpy as np
import pytest

from xsit.tensor import (AdamW, AdamWState, Tensor, TensorError, adamw_step,
                         load_arrays, save_arrays)


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
        y = Tensor(x).softmax(-1).data
        np.testing.assert_allclose(y.sum(-1), 1.0, atol=1e-6)
        y2 = Tensor(x + 3.7).softmax(-1).data
        np.testing.assert_allclose(y, y2, atol=1e-6)

    def test_grad(self):
        rng = np.random.default_rng(5)
        x = randt(rng, (3, 4))
        c = Tensor(rng.uniform(-1, 1, size=(3, 4)), dtype=np.float64)
        assert_grad_matches(lambda: (x.softmax(-1) * c).sum(), [x])


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


class TestAdamW:
    def test_zero_grad_zero_decay_no_change(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(2, np.float32)
        st = AdamWState.for_param(p, lr=0.1, weight_decay=0.0)
        adamw_step(p, st)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])
        assert st.step == 1

    def test_first_step_bias_correction(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.ones(1, np.float32)
        st = AdamWState.for_param(p, lr=0.1, weight_decay=0.0)
        adamw_step(p, st)
        np.testing.assert_allclose(p.data, [0.9], atol=1e-6)

    def test_missing_grad(self):
        p = Tensor(np.ones(1), requires_grad=True)
        with pytest.raises(TensorError, match="no gradient"):
            adamw_step(p, AdamWState.for_param(p))

    def test_quadratic_convergence(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = AdamW({"p": p}, lr=0.1, weight_decay=0.0)
        for _ in range(100):
            opt.zero_grad()
            ((p - 3.0) * (p - 3.0)).sum().backward()
            opt.step()
        assert abs(p.item() - 3.0) < 1e-2

    def test_decay_exempts_vectors(self):
        vec = Tensor(np.ones(3), requires_grad=True)
        mat = Tensor(np.ones((2, 2)), requires_grad=True)
        opt = AdamW({"v": vec, "m": mat}, weight_decay=0.5)
        assert opt.states["v"].weight_decay == 0.0
        assert opt.states["m"].weight_decay == 0.5


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
        with pytest.raises(TensorError, match="container"):
            load_arrays(str(p))
