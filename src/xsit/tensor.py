"""Minimal dense tensor with reverse-mode autodiff.

Forward values live in numpy arrays (float32 by default; float64 supported so
tests can run a high-precision shadow of the same graph). The graph is a
dynamic tape of nodes, not of values: a tensor is its array and its node,
and an op with a gradient-requiring operand gives its output a node that
records its parents' nodes and a closure that pushes the output gradient
back to them. The closure keeps only the arrays its backward reads, so an
array that no backward reads is freed as soon as the forward drops its
tensor. Any other op's output is a constant whose node keeps neither.
Broadcasting is restricted to leading batch dimensions -- a smaller operand
must match the trailing shape of the larger one exactly.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .files import InputError, atomic_write, check_fields

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT2PI = 0.3989422804014327

# Bytes of attention scores per block of whole [S, S] (batch·head) slices,
# the block size and nothing else: the forward's one [S, S] array and the
# backward's two exist one block at a time. A paper-scale [640, 640] slice
# (1.6 MB) is larger than a block, so there each block is one slice. At
# [16, 6, 80, 80] with dropout (one BLAS thread, 2-vCPU VM) forward+backward
# took 4.4-4.9 ms at 512 KB, 4.4-5.3 at 256 KB, 4.2-5.0 at 1 MB and
# 4.5-5.4 unblocked (minima of 40 calls, three repeats).
_ATTN_BLOCK = 1 << 19

# float32 erf: the rational x·P(x²)/Q(x²) of Eigen's and XLA's float
# kernel on [-4, 4], outside of which erf rounds to ±1 in float32. P is odd
# of degree 13 (alpha_13 first), Q even of degree 8 (beta_8 first).
_ERF32_P = tuple(np.float32(c) for c in (
    -2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
    -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
    -1.60960333262415e-02))
_ERF32_Q = tuple(np.float32(c) for c in (
    -1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
    -7.37332916720468e-03, -1.42647390514189e-02))


class TensorError(ValueError):
    """A misuse of the autodiff, or a non-finite value an op produced,
    which a training step reports with its epoch and batch. A bad file is
    a `files.InputError`."""


def _check_finite(arr: np.ndarray, op: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise TensorError(f"non-finite values produced by op '{op}'")
    return arr


def _horner(z: np.ndarray, coefs) -> np.ndarray:
    """Polynomial with the given coefficients, highest power first, at z,
    evaluated in a new array in z's dtype."""
    out = z * coefs[0] + coefs[1]
    for c in coefs[2:]:
        out *= z
        out += c
    return out


def _erf32(x: np.ndarray) -> np.ndarray:
    """erf of a float32 array in float32, within 5e-7 of the exact value."""
    x = np.clip(x, -4.0, 4.0)
    x2 = x * x
    p = _horner(x2, _ERF32_P)
    p *= x
    p /= _horner(x2, _ERF32_Q)
    return p


def erf(x: np.ndarray) -> np.ndarray:
    """The error function, in float32 for a float32 array, else `math.erf`
    elementwise in float64."""
    if x.dtype == np.float32:
        return _erf32(x)
    return np.asarray(np.frompyfunc(math.erf, 1, 1)(x), dtype=np.float64)


def keep_scale(p: float, dtype) -> np.floating:
    """Inverted dropout's scale for a keep mask that drops at exactly rate
    p: kept values are multiplied by 1/(1 - p), in dtype."""
    dtype = np.dtype(dtype).type
    return dtype(1.0) / dtype(1.0 - p)


def _dropout_(a: np.ndarray, keep: np.ndarray, scale):
    """a·keep·scale in a's dtype: for bool keep, a·(keep·scale) to the bit."""
    out = np.multiply(a, keep, dtype=a.dtype)
    return np.multiply(out, scale, out=out)


def _leading_broadcast_shape(sa: tuple, sb: tuple, op: str) -> tuple:
    """Result shape when the smaller operand matches the larger one's trailing
    dims. Interior size-1 stretching is rejected on purpose."""
    small, big = (sa, sb) if len(sa) <= len(sb) else (sb, sa)
    if small != big[len(big) - len(small):]:
        raise TensorError(
            f"{op}: shape {sa} does not leading-broadcast against {sb}"
        )
    return big


def _reduce_to_shape(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    return grad


class _Node:
    """A tensor's record on the tape: its gradient, whether it needs one,
    its parents' nodes and the closure that pushes its gradient to them,
    with the shape and dtype that gradient takes. A node holds no value:
    its closure keeps only the arrays its backward reads."""

    __slots__ = ("grad", "requires_grad", "parents", "backward", "op",
                 "shape", "dtype")

    def __init__(self, shape, dtype, requires_grad=False, parents=(),
                 backward=None, op="leaf"):
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.parents = parents
        self.backward = backward
        self.op = op
        self.shape = shape
        self.dtype = dtype

    def accum(self, grad: np.ndarray):
        if not self.requires_grad:
            return
        if self.grad is None:
            # always a copy (add hands one array to both parents), and C
            # order: np.matmul rounds differently on a transposed layout
            self.grad = np.array(grad, dtype=self.dtype, order="C")
        else:
            self.grad += grad.astype(self.dtype, copy=False)


def _node_field(name: str) -> property:
    """A tensor attribute that reads, and sets, its node's `name`."""
    return property(lambda t: getattr(t.node, name),
                    lambda t, v: setattr(t.node, name, v))


class Tensor:
    """One numpy array, `data`, and its node on the tape, `node`. The
    tape links nodes, never tensors, so an array goes when the forward
    drops its tensor unless some node's backward reads it. A leaf's data
    may be replaced by an array of the same shape and dtype."""

    __slots__ = ("data", "node")

    def __init__(self, data, requires_grad=False, dtype=None, _node=None):
        if dtype is None:
            dtype = data.dtype if isinstance(data, np.ndarray) and \
                data.dtype in (np.float32, np.float64) else np.float32
        self.data = np.asarray(data, dtype=dtype)
        self.node = _node or _Node(self.data.shape, self.data.dtype,
                                   requires_grad)

    grad = _node_field("grad")
    requires_grad = _node_field("requires_grad")
    _backward = _node_field("backward")
    op = _node_field("op")

    # -- basic introspection ------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise TensorError("item() needs a scalar tensor")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op}, grad={self.requires_grad})"

    # -- graph construction helpers ----------------------------------------
    def _make(self, data, parents, backward, op):
        """The tensor of one op's output. Its node is on the tape, with its
        parents' nodes and the backward closure, if a parent requires a
        gradient, else a constant's that holds neither, so an inference
        pass frees each step's inputs. The closure must reach its operands
        through their nodes and the arrays it reads, never their tensors."""
        data = _check_finite(np.asarray(data), op)
        rg = any(p.requires_grad for p in parents)
        node = _Node(data.shape, data.dtype, rg,
                     tuple(p.node for p in parents) if rg else (),
                     backward if rg else None, op)
        return Tensor(data, dtype=data.dtype, _node=node)

    # -- arithmetic ---------------------------------------------------------
    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def add(self, other) -> "Tensor":
        other = self._coerce(other)
        _leading_broadcast_shape(self.shape, other.shape, "add")
        a, b = self.node, other.node

        def backward(g):
            if a.requires_grad:
                a.accum(_reduce_to_shape(g, a.shape))
            if b.requires_grad:
                b.accum(_reduce_to_shape(g, b.shape))
        return self._make(self.data + other.data, (self, other), backward, "add")

    def mul(self, other) -> "Tensor":
        other = self._coerce(other)
        _leading_broadcast_shape(self.shape, other.shape, "mul")
        a, b, x, y = self.node, other.node, self.data, other.data

        def backward(g):
            if a.requires_grad:
                a.accum(_reduce_to_shape(g * y, a.shape))
            if b.requires_grad:
                b.accum(_reduce_to_shape(g * x, b.shape))
        return self._make(x * y, (self, other), backward, "mul")

    def div(self, other) -> "Tensor":
        other = self._coerce(other)
        _leading_broadcast_shape(self.shape, other.shape, "div")
        a, b, x, y = self.node, other.node, self.data, other.data

        def backward(g):
            if a.requires_grad:
                a.accum(_reduce_to_shape(g / y, a.shape))
            if b.requires_grad:
                b.accum(_reduce_to_shape(-g * x / y ** 2, b.shape))
        return self._make(x / y, (self, other), backward, "div")

    def neg(self) -> "Tensor":
        a = self.node
        return self._make(-self.data, (self,), lambda g: a.accum(-g), "neg")

    def sub(self, other) -> "Tensor":
        return self.add(self._coerce(other).neg())

    __add__ = add
    __mul__ = mul
    __sub__ = sub
    __truediv__ = div
    __neg__ = neg

    def __rsub__(self, other):
        return self._coerce(other).sub(self)

    def matmul(self, other: "Tensor", bias: "Tensor | None" = None) -> "Tensor":
        """self·other, and with a bias of the product's trailing shape,
        self·other + bias: the bias is added in place to the product, in
        this one node, with the bytes of a matmul and an add."""
        other = self._coerce(other)
        if self.ndim < 2 or other.ndim < 2:
            raise TensorError("matmul needs >=2-d operands")
        if self.shape[-1] != other.shape[-2]:
            raise TensorError(
                f"matmul inner dims differ: {self.shape} x {other.shape}")
        if self.ndim != other.ndim:
            _leading_broadcast_shape(self.shape[:-2], other.shape[:-2], "matmul")
        x, y = self.data, other.data
        out = np.matmul(x, y)
        parents = (self, other)
        if bias is not None:
            bias = self._coerce(bias)
            if bias.ndim > out.ndim or \
                    out.shape[out.ndim - bias.ndim:] != bias.shape:
                raise TensorError(f"matmul: bias of shape {bias.shape} for "
                                  f"a product of shape {out.shape}")
            out += bias.data
            parents += (bias,)
        a, b = self.node, other.node
        c = None if bias is None else bias.node

        def backward(g):
            if a.requires_grad:
                a.accum(_reduce_to_shape(
                    np.matmul(g, np.swapaxes(y, -1, -2)), a.shape))
            if b.requires_grad:
                b.accum(_reduce_to_shape(
                    np.matmul(np.swapaxes(x, -1, -2), g), b.shape))
            if c is not None and c.requires_grad:
                c.accum(_reduce_to_shape(g, c.shape))
        return self._make(out, parents, backward, "matmul")

    __matmul__ = matmul

    # -- elementwise nonlinearities -----------------------------------------
    def gelu(self) -> "Tensor":
        a, x = self.node, self.data
        cdf = erf(x * _INV_SQRT2)
        cdf += 1.0
        cdf *= 0.5

        def backward(g):
            pdf = _INV_SQRT2PI * np.exp(-0.5 * x * x)
            a.accum(g * (cdf + x * pdf))
        return self._make(x * cdf, (self,), backward, "gelu")

    def log(self) -> "Tensor":
        a, x = self.node, self.data
        with np.errstate(invalid="ignore", divide="ignore"):
            return self._make(np.log(x), (self,),
                              lambda g: a.accum(g / x), "log")

    def clamp(self, lo: float, hi: float) -> "Tensor":
        a = self.node
        inside = (self.data >= lo) & (self.data <= hi)
        return self._make(np.clip(self.data, lo, hi), (self,),
                          lambda g: a.accum(g * inside), "clamp")

    # -- reductions ---------------------------------------------------------
    def sum(self, axis=None) -> "Tensor":
        a = self.node

        def backward(g):
            if axis is not None:
                g = np.expand_dims(g, axis)
            a.accum(np.broadcast_to(g, a.shape).copy())
        return self._make(self.data.sum(axis=axis), (self,), backward, "sum")

    def mean(self, axis=None) -> "Tensor":
        n = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis).mul(1.0 / n)

    # -- structural ---------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        a = self.node
        return self._make(self.data.reshape(shape), (self,),
                          lambda g: a.accum(g.reshape(a.shape)), "reshape")

    def transpose(self, axes) -> "Tensor":
        a = self.node
        axes = tuple(axes)
        inv = tuple(np.argsort(axes))
        return self._make(np.transpose(self.data, axes), (self,),
                          lambda g: a.accum(np.transpose(g, inv)),
                          "transpose")

    # -- fused ops ----------------------------------------------------------
    def dropout(self, keep: np.ndarray, p: float) -> "Tensor":
        """Inverted dropout by a bool keep mask of self's shape that drops
        at rate p; the node keeps the mask, not a float factor."""
        if keep.shape != self.shape:
            raise TensorError(f"dropout: keep mask {keep.shape} for {self}")
        a = self.node
        kept = keep_scale(p, self.data.dtype)
        return self._make(_dropout_(self.data, keep, kept), (self,), lambda g:
                          a.accum(_dropout_(g, keep, kept)), "dropout")

    def softmax(self) -> "Tensor":
        """Softmax along the last axis."""
        a = self.node
        y = self.data - self.data.max(axis=-1, keepdims=True)
        np.exp(y, out=y)
        y /= y.sum(axis=-1, keepdims=True)

        def backward(g):
            g = g - (g * y).sum(axis=-1, keepdims=True)
            g *= y
            a.accum(g)
        return self._make(y, (self,), backward, "softmax")

    def attention(self, k: "Tensor", v: "Tensor",
                  keep: np.ndarray | None = None, p: float = 0.0) -> "Tensor":
        """softmax(q·kᵀ/√dh)·v for q = self, k, v of shape [..., S, dh], as
        one node. With a boolean keep mask of the scores' shape that drops
        at rate p, the probabilities get inverted dropout first: kept ones
        are scaled by `keep_scale(p)`, the rest zeroed.

        It makes FlashAttention-2's passes (Dao 2023, §3.1): the scores are
        (q/√dh)·kᵀ, their exponentials E = exp(s - m), for m each row's max,
        stay unnormalised and are masked by one multiply, and keep_scale/ℓ,
        for ℓ each row's sum of E, scales the [S, dh] product. Forward and
        backward run in blocks of whole [S, S] slices, about `_ATTN_BLOCK`
        bytes of scores each, so the [S, S] arrays exist one block at a
        time. A node on the tape keeps the mask, packed 8 to a byte, each
        row's m and 1/ℓ ([..., S, 1]) and its output O; its backward
        recomputes E from q, k and m, with the forward's bits, and takes
        rowsum(dP∘P) as rowsum(dO∘O), over [S, dh]. A node off the tape
        keeps nothing. No row is split and every product is one BLAS call
        per slice, so a slice's bytes do not depend on the blocks. O has
        q's memory layout: for the encoder's heads, views of [B, S, h, dh]
        arrays, the transpose back is a view too, so the O this node keeps
        is the array the next matmul keeps, not a copy.
        """
        k, v = self._coerce(k), self._coerce(v)
        if self.ndim < 2 or k.shape != self.shape or v.shape != self.shape:
            raise TensorError(f"attention: q, k, v must share one [..., S, "
                              f"dh] shape, got {self.shape}, {k.shape}, "
                              f"{v.shape}")
        dtype = self.data.dtype.type
        *lead, s, dh = self.shape
        scale = dtype(1.0 / math.sqrt(dh))
        kept = dtype(1) if keep is None else keep_scale(p, dtype)  # any p
        if keep is not None and keep.shape != (*lead, s, s):
            raise TensorError(f"attention: keep mask of shape {keep.shape} "
                              f"for scores of shape {(*lead, s, s)}")
        # the slices as an [r, m] grid: r along the first leading dim, m
        # along the rest. Up to 4-d that is a view, so the encoder's
        # transposed q, k and v are not copied.
        r, m = (lead[0], math.prod(lead[1:])) if lead else (1, 1)

        def grid(a):
            return a.reshape(r, m, s, a.shape[-1])

        # blocks are [rows, step] slabs of the grid: `rows` whole grid rows
        # while a row fits in a block, else `step` slices of one row
        fit = _ATTN_BLOCK // max(1, s * s * self.data.itemsize)
        step = max(1, min(fit, m))
        rows = max(1, min(fit // max(1, m), r))
        blocks = [(slice(i, i + rows), slice(j, j + step))
                  for i in range(0, r, rows) for j in range(0, m, step)]
        # each slice's mask packed flat, 8 to a byte: one long row unpacks
        # faster than s short ones
        mask = None if keep is None else \
            np.packbits(keep.reshape(r, m, s * s), axis=-1)
        q4, k4, v4 = grid(self.data), grid(k.data), grid(v.data)
        nq, nk, nv = self.node, k.node, v.node

        def exps(b, out, forward):
            """Block b's E in out (its first rows and slices for a shorter
            last block), and its keep mask unpacked, or None. The forward
            stores the rows' max in top[b]; the backward reads it there."""
            nrows, nslices = q4[b].shape[:2]
            e = np.matmul(q4[b] * scale, np.swapaxes(k4[b], -1, -2),
                          out=out[:nrows, :nslices])
            if forward:
                np.max(e, axis=-1, keepdims=True, out=top[b])
            e -= top[b]
            np.exp(e, out=e)
            bits = None if mask is None else np.unpackbits(
                mask[b], axis=-1, count=s * s).view(bool).reshape(e.shape)
            return e, bits

        block = (rows, step, s, s)
        top, inv = np.empty((2, r, m, s, 1), dtype)  # m and 1/ℓ of each row
        ctx = np.empty_like(q4)  # in q's layout
        buf = np.empty(block, dtype)
        for b in blocks:
            e, bits = exps(b, buf, True)
            np.divide(dtype(1), e.sum(axis=-1, keepdims=True), out=inv[b])
            if bits is not None:
                e *= bits
            np.matmul(e, v4[b], out=ctx[b])
            ctx[b] *= kept * inv[b]

        def backward(g):
            g = grid(g)
            dq, dk, dv = (np.empty((r, m, s, dh), dtype) for _ in range(3))
            again, work = np.empty(block, dtype), np.empty(block, dtype)
            for b in blocks:
                e, bits = exps(b, again, False)
                # ℓ·dS = E∘(dP - D): dP, the dropped probabilities' gradient
                # through the mask, and D = rowsum(dP∘P) = rowsum(dO∘O)
                ds = np.matmul(g[b] * kept, np.swapaxes(v4[b], -1, -2),
                               out=work[:e.shape[0], :e.shape[1]])
                if bits is not None:
                    ds *= bits
                ds -= (g[b] * ctx[b]).sum(axis=-1, keepdims=True)
                ds *= e
                if bits is not None:
                    e *= bits
                np.matmul(np.swapaxes(e, -1, -2), g[b] * (kept * inv[b]),
                          out=dv[b])
                rs = scale * inv[b]
                np.matmul(ds, k4[b], out=dq[b])
                dq[b] *= rs
                np.matmul(np.swapaxes(ds, -1, -2), q4[b] * rs, out=dk[b])
            nv.accum(dv.reshape(nv.shape))
            nq.accum(dq.reshape(nq.shape))
            nk.accum(dk.reshape(nk.shape))
        return self._make(ctx.reshape(self.shape), (self, k, v), backward,
                          "attention")

    def layernorm(self, gain: "Tensor", bias: "Tensor") -> "Tensor":
        """Normalize over the last axis (variance + 1e-5), then affine."""
        gain, bias = self._coerce(gain), self._coerce(bias)
        if gain.shape != self.shape[-1:] or bias.shape != self.shape[-1:]:
            raise TensorError("layernorm gain/bias must match last axis")
        x = self.data
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + 1e-5)
        xhat = (x - mu) * inv
        n = self.shape[-1]
        a, ng, nb, w = self.node, gain.node, bias.node, gain.data

        def backward(g):
            ng.accum(_reduce_to_shape(g * xhat, ng.shape))
            nb.accum(_reduce_to_shape(g, nb.shape))
            dxhat = g * w
            dx = inv / n * (n * dxhat
                            - dxhat.sum(axis=-1, keepdims=True)
                            - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True))
            a.accum(dx)
        return self._make(gain.data * xhat + bias.data, (self, gain, bias),
                          backward, "layernorm")

    def rect_cosine(self, proto: "Tensor",
                    rectify_proto: bool = True) -> "Tensor":
        """Cosine similarity of the ReLU-rectified rows (last axis).

        Returns 0 where either rectified row has norm below 1e-8 ("no
        evidence"). Output lies in [0, 1]: in float32 a row compared with
        itself can round to 1 + 2^-23, so the value is clamped to 1 (the
        gradient is the unclamped cosine's). With rectify_proto=False the
        prototype rows pass through unrectified (output may go negative).
        """
        proto = self._coerce(proto)
        _leading_broadcast_shape(self.shape, proto.shape, "rect_cosine")
        u = np.maximum(self.data, 0)
        v = np.maximum(proto.data, 0) if rectify_proto else proto.data
        nu = np.sqrt((u * u).sum(axis=-1))
        nv = np.sqrt((v * v).sum(axis=-1))
        valid = (nu >= 1e-8) & (nv >= 1e-8)
        denom = np.where(valid, nu * nv, 1.0)
        dot = (u * v).sum(axis=-1)
        c = np.where(valid, dot / denom, 0.0)
        a, b, x, xi = self.node, proto.node, self.data, proto.data

        def backward(g):
            # d cos/du = v/(nu nv) - cos * u/nu^2, chained through the ReLU
            du = (g * valid)[..., None] * (
                v / denom[..., None]
                - (c / np.where(nu > 0, nu * nu, 1.0))[..., None] * u)
            dv = (g * valid)[..., None] * (
                u / denom[..., None]
                - (c / np.where(nv > 0, nv * nv, 1.0))[..., None] * v)
            a.accum(_reduce_to_shape(du * (x > 0), a.shape))
            vmask = (xi > 0) if rectify_proto else \
                np.ones_like(xi, dtype=bool)
            b.accum(_reduce_to_shape(dv * vmask, b.shape))
        return self._make(np.minimum(c, 1.0), (self, proto), backward,
                          "rect_cosine")

    # -- reverse pass -------------------------------------------------------
    def backward(self) -> int:
        """Run reverse-mode accumulation from this scalar; returns the number
        of graph nodes visited (each exactly once).

        The pass consumes the graph: once a node's closure has run, the node
        drops its gradient, closure and parents, so each interior array is
        freed as soon as nothing later in the pass needs it, and the loss
        no longer holds its graph. Leaves keep `.grad`. A second backward()
        through a consumed node is a TensorError."""
        if self.data.size != 1:
            raise TensorError("backward() requires a scalar loss")
        order = []
        seen = set()
        stack = [(self.node, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            if node.requires_grad and node.backward is None \
                    and node.op != "leaf":
                raise TensorError(
                    f"backward(): the graph through op '{node.op}' was "
                    f"consumed by an earlier backward()")
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.node.grad = np.ones_like(self.data)
        visits = len(order)
        while order:
            node = order.pop()
            if node.backward is not None:
                if node.grad is not None:
                    node.backward(node.grad)
                node.grad, node.backward, node.parents = None, None, ()
        return visits


# -- AdamW -------------------------------------------------------------------

_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class AdamW:
    """AdamW with decoupled weight decay over a named parameter dict. Only
    matrix-shaped params decay; biases, norm gains and logit vectors are
    exempt, as is standard for AdamW."""

    def __init__(self, params: dict, lr: float, weight_decay: float):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self):
        """One update of every parameter. A parameter without a gradient
        stops the step before anything changes."""
        for name, p in self.params.items():
            if p.grad is None:
                raise TensorError(f"AdamW: parameter '{name}' has no gradient")
        self.t += 1
        for name, p in self.params.items():
            g = p.grad
            self.m[name] = m = _BETA1 * self.m[name] + (1 - _BETA1) * g
            self.v[name] = v = _BETA2 * self.v[name] + (1 - _BETA2) * g * g
            mhat = m / (1 - _BETA1 ** self.t)
            vhat = v / (1 - _BETA2 ** self.t)
            wd = self.weight_decay if p.data.ndim > 1 else 0.0
            update = mhat / (np.sqrt(vhat) + _EPS) + wd * p.data
            p.data = (p.data - self.lr * update).astype(p.data.dtype)

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None


# -- checkpoint container ----------------------------------------------------
# Layout: 8-byte magic, uint32 little-endian header length, JSON header,
# then raw little-endian float32 payloads. The header maps each array name
# to shape/dtype/offset/nbytes and carries a free-form "meta" dict.

_MAGIC = b"XSCKPT01"


# key -> (type, test, description) of one array entry of the header
_ENTRY = {
    "dtype": (str, lambda v: v == "float32", "'float32'"),
    "shape": (list, lambda v: all(type(n) is int and n >= 0 for n in v),
              "a list of integers >= 0"),
    "offset": (int, lambda v: v >= 0, "an integer >= 0"),
    "nbytes": (int, lambda v: v >= 0, "an integer >= 0"),
}


def save_arrays(path: str, arrays: dict, meta: dict | None = None) -> None:
    entries = {}
    payloads = []
    offset = 0
    for name in sorted(arrays):
        raw = np.ascontiguousarray(arrays[name], dtype="<f4").tobytes()
        entries[name] = {"shape": list(np.shape(arrays[name])),
                         "dtype": "float32", "offset": offset,
                         "nbytes": len(raw)}
        payloads.append(raw)
        offset += len(raw)
    header = json.dumps({"meta": meta or {}, "arrays": entries},
                        sort_keys=True).encode()
    atomic_write(path, b"".join(
        [_MAGIC, len(header).to_bytes(4, "little"), header, *payloads]))


def load_arrays(path: str):
    """Returns (arrays: dict[str, np.ndarray], meta: dict). A header, an
    entry or an array that save_arrays would not have written, or that
    does not fit the file, is an InputError naming the file and the key."""
    with open(path, "rb") as f:
        if f.read(8) != _MAGIC:
            raise InputError(f"{path}: not a checkpoint container")
        blob = f.read()
    hlen = int.from_bytes(blob[:4], "little")
    if len(blob) < 4 + hlen:
        raise InputError(f"{path}: header of {hlen} bytes, file truncated")
    try:
        header = json.loads(blob[4:4 + hlen])
    except ValueError as e:
        raise InputError(f"{path}: corrupt header ({e})") from e
    if not isinstance(header, dict):
        raise InputError(f"{path}: header must be an object, got "
                         f"{type(header).__name__}")
    for key in ("meta", "arrays"):
        if not isinstance(header.get(key), dict):
            raise InputError(f"{path}: header key '{key}' must hold an "
                             f"object")
    payload = memoryview(blob)[4 + hlen:]
    arrays = {}
    for name, ent in header["arrays"].items():
        check_fields(f"{path}: entry '{name}': ", ent, _ENTRY)
        start, end = ent["offset"], ent["offset"] + ent["nbytes"]
        if ent["nbytes"] != math.prod(ent["shape"]) * 4:
            raise InputError(f"{path}: entry '{name}' has {ent['nbytes']} "
                             f"bytes for shape {ent['shape']} of float32")
        if end > len(payload):
            raise InputError(f"{path}: entry '{name}' ends at payload byte "
                             f"{end} of {len(payload)}, file truncated")
        arr = np.frombuffer(payload[start:end], dtype="<f4")
        if not np.isfinite(arr).all():
            raise InputError(f"{path}: entry '{name}' holds non-finite "
                             f"values")
        arrays[name] = arr.reshape(ent["shape"]).copy()
    return arrays, header["meta"]
