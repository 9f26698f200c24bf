"""Minimal dense tensor with reverse-mode autodiff.

Forward values live in numpy arrays (float32 by default; float64 supported so
tests can run a high-precision shadow of the same graph). The graph is a
dynamic tape: an op with a gradient-requiring operand records its parents and
a closure that pushes the output gradient back to them; any other op's output
is a constant that keeps neither. Broadcasting is restricted to leading batch
dimensions -- a smaller operand must match the trailing shape of the larger
one exactly.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .files import InputError, atomic_write, check_fields

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT2PI = 0.3989422804014327

# Bytes of attention scores per block of whole [S, S] (batch·head) slices:
# one block of scores, probabilities and score gradient exists at a time,
# and it stays in cache between the products. Forward+backward of a
# [16, 6, 80, 80] attention with dropout (one BLAS thread, 4 MB L2) took
# 3.70 ms at 512 KB, 3.96 at 256 KB, 3.83 at 1 MB and 4.35 unblocked.
# It also decides what a node on the tape keeps for its backward: the
# probabilities while one slice fits in a block, else each row's max and
# sum of exponentials, from which the backward recomputes each block's
# probabilities. A [640, 640] slice is larger than a block, so paper-scale
# blocks are one slice each and recompute. A [80, 80] slice fits, and
# there recomputing cost 5% of the `bench-train` benchmark's training.
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

# float64 erf: Cephes ndtr.c, the algorithm of scipy.special.erf. T/U for
# |x| <= 1, then erf = 1 - erfc with P/Q below |x| = 8 and R/S above. U, Q
# and S have an implicit leading 1.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
          2.23200534594684319226E3, 7.00332514112805075473E3,
          5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4,
          4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
           7.46321056442269912687E0, 4.86371970985681366614E1,
           1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3,
           5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1,
           3.54937778887819891062E2, 9.75708501743205489753E2,
           1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0,
           5.01905042251180477414E0, 6.16021097993053585195E0,
           7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (2.26052863220117276590E0, 9.39603524938001434673E0,
           1.20489539808096656605E1, 1.70814450747565897222E1,
           9.60896809063285878198E0, 3.36907645100081516050E0)


class TensorError(ValueError):
    """A misuse of the autodiff, or a non-finite value an op produced,
    which a training step reports with its epoch and batch. A bad file is
    a `files.InputError`."""


def _check_finite(arr: np.ndarray, op: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise TensorError(f"non-finite values produced by op '{op}'")
    return arr


def _horner(z: np.ndarray, coefs, monic: bool = False) -> np.ndarray:
    """Polynomial with the given coefficients, highest power first, at z,
    evaluated in a new array in z's dtype; with monic=True the leading
    coefficient 1 is implicit (Cephes' p1evl)."""
    out = z + coefs[0] if monic else z * coefs[0] + coefs[1]
    for c in coefs[1:] if monic else coefs[2:]:
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


def _erf64(x: np.ndarray) -> np.ndarray:
    """erf in float64, step for step Cephes' erf/erfc as scipy has them:
    odd, and within 3 ulp of the exact value."""
    x = np.asarray(x, dtype=np.float64)
    a = np.abs(x)
    out = np.empty_like(x)
    near = a <= 1.0
    z = x[near] ** 2
    out[near] = a[near] * _horner(z, _ERF_T) / _horner(z, _ERF_U,
                                                          monic=True)
    a = a[~near]
    mid = a < 8.0
    num = np.where(mid, _horner(a, _ERFC_P), _horner(a, _ERFC_R))
    den = np.where(mid, _horner(a, _ERFC_Q, monic=True),
                   _horner(a, _ERFC_S, monic=True))
    # erfc; exp underflows to 0 for |x| past about 27, where erf is 1
    out[~near] = 1.0 - np.exp(-a * a) * num / den
    return np.copysign(out, x)


def erf(x: np.ndarray) -> np.ndarray:
    """The error function, in float32 for a float32 array, else float64."""
    return _erf32(x) if x.dtype == np.float32 else _erf64(x)


def keep_scale(p: float, dtype) -> np.floating:
    """Inverted dropout's scale for a keep mask that drops at exactly rate
    p: kept values are multiplied by 1/(1 - p), in dtype."""
    dtype = np.dtype(dtype).type
    return dtype(1.0) / dtype(1.0 - p)


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


def _softmax_(z: np.ndarray, rows=None) -> np.ndarray:
    """Softmax along the last axis, computed in place in z. With rows, a
    pair of arrays of z's shape but 1 along the last axis, each row's max
    and sum of exponentials are stored in them."""
    top = z.max(axis=-1, keepdims=True)
    z -= top
    np.exp(z, out=z)
    total = z.sum(axis=-1, keepdims=True)
    z /= total
    if rows is not None:
        rows[0][...], rows[1][...] = top, total
    return z


def _softmax_grad_(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient at a softmax's input from the gradient g at its output y,
    computed in place in g."""
    g -= (g * y).sum(axis=-1, keepdims=True)
    g *= y
    return g


class Tensor:
    """Node in the autodiff graph; wraps one numpy array."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "op")

    def __init__(self, data, requires_grad=False, dtype=None,
                 _parents=(), _backward=None, op="leaf"):
        if dtype is None:
            dtype = data.dtype if isinstance(data, np.ndarray) and \
                data.dtype in (np.float32, np.float64) else np.float32
        self.data = np.asarray(data, dtype=dtype)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = tuple(_parents)
        self._backward = _backward
        self.op = op

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
        """The node for one op's output: on the tape with its parents and
        backward closure if a parent requires a gradient, else a constant
        that holds neither, so an inference pass frees each step's inputs."""
        data = _check_finite(np.asarray(data), op)
        rg = any(p.requires_grad for p in parents)
        return Tensor(data, requires_grad=rg, dtype=data.dtype,
                      _parents=parents if rg else (),
                      _backward=backward if rg else None, op=op)

    def _accum(self, grad: np.ndarray):
        if not self.requires_grad:
            return
        if self.grad is None:
            # always a copy (add hands one array to both parents), and C
            # order: np.matmul rounds differently on a transposed layout
            self.grad = np.array(grad, dtype=self.data.dtype, order="C")
        else:
            self.grad += grad.astype(self.data.dtype, copy=False)

    # -- arithmetic ---------------------------------------------------------
    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def add(self, other) -> "Tensor":
        other = self._coerce(other)
        _leading_broadcast_shape(self.shape, other.shape, "add")

        def backward(g):
            if self.requires_grad:
                self._accum(_reduce_to_shape(g, self.shape))
            if other.requires_grad:
                other._accum(_reduce_to_shape(g, other.shape))
        return self._make(self.data + other.data, (self, other), backward, "add")

    def mul(self, other) -> "Tensor":
        other = self._coerce(other)
        _leading_broadcast_shape(self.shape, other.shape, "mul")

        def backward(g):
            if self.requires_grad:
                self._accum(_reduce_to_shape(g * other.data, self.shape))
            if other.requires_grad:
                other._accum(_reduce_to_shape(g * self.data, other.shape))
        return self._make(self.data * other.data, (self, other), backward, "mul")

    def div(self, other) -> "Tensor":
        other = self._coerce(other)
        _leading_broadcast_shape(self.shape, other.shape, "div")

        def backward(g):
            if self.requires_grad:
                self._accum(_reduce_to_shape(g / other.data, self.shape))
            if other.requires_grad:
                other._accum(_reduce_to_shape(
                    -g * self.data / other.data ** 2, other.shape))
        return self._make(self.data / other.data, (self, other), backward, "div")

    def neg(self) -> "Tensor":
        return self._make(-self.data, (self,), lambda g: self._accum(-g), "neg")

    def sub(self, other) -> "Tensor":
        return self.add(self._coerce(other).neg())

    __add__ = add
    __mul__ = mul
    __sub__ = sub
    __truediv__ = div
    __neg__ = neg

    def __rsub__(self, other):
        return self._coerce(other).sub(self)

    def matmul(self, other: "Tensor") -> "Tensor":
        other = self._coerce(other)
        if self.ndim < 2 or other.ndim < 2:
            raise TensorError("matmul needs >=2-d operands")
        if self.shape[-1] != other.shape[-2]:
            raise TensorError(
                f"matmul inner dims differ: {self.shape} x {other.shape}")
        if self.ndim != other.ndim:
            _leading_broadcast_shape(self.shape[:-2], other.shape[:-2], "matmul")

        def backward(g):
            if self.requires_grad:
                ga = np.matmul(g, np.swapaxes(other.data, -1, -2))
                self._accum(_reduce_to_shape(ga, self.shape))
            if other.requires_grad:
                gb = np.matmul(np.swapaxes(self.data, -1, -2), g)
                other._accum(_reduce_to_shape(gb, other.shape))
        return self._make(np.matmul(self.data, other.data), (self, other),
                          backward, "matmul")

    __matmul__ = matmul

    # -- elementwise nonlinearities -----------------------------------------
    def gelu(self) -> "Tensor":
        x = self.data
        cdf = erf(x * _INV_SQRT2)
        cdf += 1.0
        cdf *= 0.5

        def backward(g):
            pdf = _INV_SQRT2PI * np.exp(-0.5 * x * x)
            self._accum(g * (cdf + x * pdf))
        return self._make(x * cdf, (self,), backward, "gelu")

    def log(self) -> "Tensor":
        with np.errstate(invalid="ignore", divide="ignore"):
            return self._make(np.log(self.data), (self,),
                              lambda g: self._accum(g / self.data), "log")

    def clamp(self, lo: float, hi: float) -> "Tensor":
        inside = (self.data >= lo) & (self.data <= hi)
        return self._make(np.clip(self.data, lo, hi), (self,),
                          lambda g: self._accum(g * inside), "clamp")

    # -- reductions ---------------------------------------------------------
    def sum(self, axis=None) -> "Tensor":
        def backward(g):
            if axis is not None:
                g = np.expand_dims(g, axis)
            self._accum(np.broadcast_to(g, self.shape).copy())
        return self._make(self.data.sum(axis=axis), (self,), backward, "sum")

    def mean(self, axis=None) -> "Tensor":
        n = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis).mul(1.0 / n)

    # -- structural ---------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        return self._make(self.data.reshape(shape), (self,),
                          lambda g: self._accum(g.reshape(self.shape)),
                          "reshape")

    def transpose(self, axes) -> "Tensor":
        axes = tuple(axes)
        inv = tuple(np.argsort(axes))
        return self._make(np.transpose(self.data, axes), (self,),
                          lambda g: self._accum(np.transpose(g, inv)),
                          "transpose")

    # -- fused ops ----------------------------------------------------------
    def softmax(self) -> "Tensor":
        """Softmax along the last axis."""
        y = _softmax_(np.array(self.data))
        return self._make(y, (self,), lambda g: self._accum(
            _softmax_grad_(np.array(g), y)), "softmax")

    def attention(self, k: "Tensor", v: "Tensor",
                  keep: np.ndarray | None = None, p: float = 0.0) -> "Tensor":
        """softmax(q·kᵀ/√dh)·v for q = self, k, v of shape [..., S, dh], as
        one node. With a boolean keep mask of the scores' shape that drops
        at rate p, the probabilities get inverted dropout first: kept ones
        are scaled by `keep_scale(p)`, the rest zeroed.

        Forward and backward run in blocks of whole [S, S] slices, about
        `_ATTN_BLOCK` bytes of scores each, so the scores, the dropped
        probabilities and the score gradient exist one block at a time.
        Of [..., S, S] shape a node on the tape keeps the mask and, while
        one slice fits in a block, the softmax output y. A larger slice
        keeps only each row's max and sum of exponentials ([..., S, 1]),
        and the backward recomputes the probabilities from q, k and those
        two. A node off the tape keeps nothing. No row is split and every
        product is one BLAS call per slice, so the arithmetic, and the
        bytes, are those of matmul, a mul by the scale in the dtype,
        softmax, a mask mul and matmul as separate nodes.
        """
        k, v = self._coerce(k), self._coerce(v)
        if self.ndim < 2 or k.shape != self.shape or v.shape != self.shape:
            raise TensorError(f"attention: q, k, v must share one [..., S, "
                              f"dh] shape, got {self.shape}, {k.shape}, "
                              f"{v.shape}")
        dtype = self.data.dtype.type
        *lead, s, dh = self.shape
        scale = dtype(1.0 / math.sqrt(dh))
        kept = keep_scale(p, dtype)
        if keep is not None and keep.shape != (*lead, s, s):
            raise TensorError(f"attention: keep mask of shape {keep.shape} "
                              f"for scores of shape {(*lead, s, s)}")
        # the slices as an [r, m] grid: r along the first leading dim, m
        # along the rest. Up to 4-d that is a view, so the encoder's
        # transposed q, k and v are not copied.
        r, m = (lead[0], math.prod(lead[1:])) if lead else (1, 1)

        def grid(a):
            return a.reshape(r, m, s, a.shape[-1])

        fit = _ATTN_BLOCK // max(1, s * s * self.data.itemsize)
        step = max(1, fit)
        if step >= m:  # blocks of whole grid rows
            rows = step // max(1, m)
            blocks = [slice(i, i + rows) for i in range(0, r, rows)]
        else:
            blocks = [(i, slice(j, j + step))
                      for i in range(r) for j in range(0, m, step)]
        mask = None if keep is None else grid(keep)

        def drop(a, b, dst=None):
            if mask is None:
                return a
            dst = np.multiply(a, mask[b], out=dst, dtype=a.dtype)
            dst *= kept
            return dst

        q4, k4, v4 = grid(self.data), grid(k.data), grid(v.data)

        def scores(b, out):
            """Block b's scaled scores, written into out, or into its first
            rows for a shorter last block."""
            out = np.matmul(q4[b], np.swapaxes(k4[b], -1, -2),
                            out=out[:len(q4[b])])
            out *= scale
            return out

        tape = self.requires_grad or k.requires_grad or v.requires_grad
        block = (q4[blocks[0]] if blocks else q4).shape[:-1] + (s,)
        # y is kept while a slice fits in a block, else the rows' max and
        # sum; a node off the tape keeps neither
        y = np.empty((r, m, s, s), dtype) if tape and fit else None
        top, total = np.empty((2, r, m, s, 1), dtype) if tape and not fit \
            else (None, None)
        buf = np.empty(block, dtype) if y is None else None
        ctx = np.empty((r, m, s, dh), dtype)
        for b in blocks:
            pb = scores(b, buf if y is None else y[b])
            _softmax_(pb, None if top is None else (top[b], total[b]))
            np.matmul(drop(pb, b), v4[b], out=ctx[b])

        def backward(g):
            g = grid(g)
            dq, dk, dv = (np.empty((r, m, s, dh), dtype) for _ in range(3))
            again = np.empty(block, dtype) if y is None else None
            for b in blocks:
                if y is None:  # the forward's probabilities, recomputed
                    pb = scores(b, again)
                    pb -= top[b]
                    np.exp(pb, out=pb)
                    pb /= total[b]
                else:
                    pb = y[b]
                np.matmul(np.swapaxes(drop(pb, b), -1, -2), g[b], out=dv[b])
                ds = np.matmul(g[b], np.swapaxes(v4[b], -1, -2))
                ds = _softmax_grad_(drop(ds, b, dst=ds), pb)
                ds *= scale
                np.matmul(ds, k4[b], out=dq[b])
                # kᵀ's product is written whole, then transposed into place:
                # a transposed `out=` would take matmul off BLAS
                dk[b] = np.swapaxes(
                    np.matmul(np.swapaxes(q4[b], -1, -2), ds), -1, -2)
            v._accum(dv.reshape(v.shape))
            self._accum(dq.reshape(self.shape))
            k._accum(dk.reshape(k.shape))
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

        def backward(g):
            gain._accum(_reduce_to_shape(g * xhat, gain.shape))
            bias._accum(_reduce_to_shape(g, bias.shape))
            dxhat = g * gain.data
            dx = inv / n * (n * dxhat
                            - dxhat.sum(axis=-1, keepdims=True)
                            - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True))
            self._accum(dx)
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
        if self.shape[-1] != proto.shape[-1]:
            raise TensorError(
                f"rect_cosine dim mismatch: {self.shape} vs {proto.shape}")
        _leading_broadcast_shape(self.shape, proto.shape, "rect_cosine")
        u = np.maximum(self.data, 0)
        v = np.maximum(proto.data, 0) if rectify_proto else proto.data
        nu = np.sqrt((u * u).sum(axis=-1))
        nv = np.sqrt((v * v).sum(axis=-1))
        valid = (nu >= 1e-8) & (nv >= 1e-8)
        denom = np.where(valid, nu * nv, 1.0)
        dot = (u * v).sum(axis=-1)
        c = np.where(valid, dot / denom, 0.0)

        def backward(g):
            # d cos/du = v/(nu nv) - cos * u/nu^2, chained through the ReLU
            du = (g * valid)[..., None] * (
                v / denom[..., None]
                - (c / np.where(nu > 0, nu * nu, 1.0))[..., None] * u)
            dv = (g * valid)[..., None] * (
                u / denom[..., None]
                - (c / np.where(nv > 0, nv * nv, 1.0))[..., None] * v)
            self._accum(_reduce_to_shape(du * (self.data > 0), self.shape))
            vmask = (proto.data > 0) if rectify_proto else \
                np.ones_like(proto.data, dtype=bool)
            proto._accum(_reduce_to_shape(dv * vmask, proto.shape))
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
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            if node.requires_grad and node._backward is None \
                    and node.op != "leaf":
                raise TensorError(
                    f"backward(): the graph through op '{node.op}' was "
                    f"consumed by an earlier backward()")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        visits = len(order)
        while order:
            node = order.pop()
            if node._backward is not None:
                if node.grad is not None:
                    node._backward(node.grad)
                node.grad, node._backward, node._parents = None, None, ()
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
