"""Minimal dense tensor with reverse-mode autodiff.

Forward values live in numpy arrays (float32 by default; float64 supported so
tests can run a high-precision shadow of the same graph). The graph is a
dynamic tape: every op records its parents and a closure that pushes the
output gradient back to them. Broadcasting is restricted to leading batch
dimensions -- a smaller operand must match the trailing shape of the larger
one exactly.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT2PI = 0.3989422804014327


class TensorError(ValueError):
    pass


def _check_finite(arr: np.ndarray, op: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise TensorError(f"non-finite values produced by op '{op}'")
    return arr


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

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise TensorError("item() needs a scalar tensor")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op}, grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    # -- graph construction helpers ----------------------------------------
    def _make(self, data, parents, backward, op):
        data = _check_finite(np.asarray(data), op)
        rg = any(p.requires_grad for p in parents)
        return Tensor(data, requires_grad=rg, dtype=data.dtype,
                      _parents=parents if rg else (),
                      _backward=backward if rg else None, op=op)

    def _accum(self, grad: np.ndarray):
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad.astype(self.data.dtype, copy=False)

    # -- arithmetic ---------------------------------------------------------
    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def add(self, other) -> "Tensor":
        other = self._coerce(other)
        _leading_broadcast_shape(self.shape, other.shape, "add")
        out = self._make(self.data + other.data, (self, other), None, "add")

        def backward(g):
            self._accum(_reduce_to_shape(g, self.shape))
            other._accum(_reduce_to_shape(g, other.shape))
        out._backward = backward
        return out

    def mul(self, other) -> "Tensor":
        other = self._coerce(other)
        _leading_broadcast_shape(self.shape, other.shape, "mul")
        out = self._make(self.data * other.data, (self, other), None, "mul")

        def backward(g):
            self._accum(_reduce_to_shape(g * other.data, self.shape))
            other._accum(_reduce_to_shape(g * self.data, other.shape))
        out._backward = backward
        return out

    def div(self, other) -> "Tensor":
        other = self._coerce(other)
        _leading_broadcast_shape(self.shape, other.shape, "div")
        out = self._make(self.data / other.data, (self, other), None, "div")

        def backward(g):
            self._accum(_reduce_to_shape(g / other.data, self.shape))
            other._accum(_reduce_to_shape(-g * self.data / other.data ** 2,
                                          other.shape))
        out._backward = backward
        return out

    def neg(self) -> "Tensor":
        out = self._make(-self.data, (self,), None, "neg")
        out._backward = lambda g: self._accum(-g)
        return out

    def sub(self, other) -> "Tensor":
        return self.add(self._coerce(other).neg())

    __add__ = add
    __mul__ = mul
    __sub__ = sub
    __truediv__ = div
    __neg__ = neg

    def __radd__(self, other):
        return self.add(other)

    def __rmul__(self, other):
        return self.mul(other)

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
        out = self._make(np.matmul(self.data, other.data),
                         (self, other), None, "matmul")

        def backward(g):
            ga = np.matmul(g, np.swapaxes(other.data, -1, -2))
            gb = np.matmul(np.swapaxes(self.data, -1, -2), g)
            self._accum(_reduce_to_shape(ga, self.shape))
            other._accum(_reduce_to_shape(gb, other.shape))
        out._backward = backward
        return out

    __matmul__ = matmul

    # -- elementwise nonlinearities -----------------------------------------
    def gelu(self) -> "Tensor":
        x = self.data
        cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
        out = self._make(x * cdf, (self,), None, "gelu")

        def backward(g):
            pdf = _INV_SQRT2PI * np.exp(-0.5 * x * x)
            self._accum(g * (cdf + x * pdf))
        out._backward = backward
        return out

    def log(self) -> "Tensor":
        with np.errstate(invalid="ignore", divide="ignore"):
            out = self._make(np.log(self.data), (self,), None, "log")
        out._backward = lambda g: self._accum(g / self.data)
        return out

    def clamp(self, lo: float, hi: float) -> "Tensor":
        out = self._make(np.clip(self.data, lo, hi), (self,), None, "clamp")
        inside = (self.data >= lo) & (self.data <= hi)
        out._backward = lambda g: self._accum(g * inside)
        return out

    # -- reductions ---------------------------------------------------------
    def sum(self, axis=None, keepdims=False) -> "Tensor":
        out = self._make(self.data.sum(axis=axis, keepdims=keepdims),
                         (self,), None, "sum")

        def backward(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accum(np.broadcast_to(g, self.shape).copy())
        out._backward = backward
        return out

    def mean(self, axis=None, keepdims=False) -> "Tensor":
        n = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims).mul(1.0 / n)

    # -- structural ---------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = self._make(self.data.reshape(shape), (self,), None, "reshape")
        out._backward = lambda g: self._accum(g.reshape(self.shape))
        return out

    def transpose(self, axes) -> "Tensor":
        axes = tuple(axes)
        out = self._make(np.transpose(self.data, axes), (self,), None,
                         "transpose")
        inv = tuple(np.argsort(axes))
        out._backward = lambda g: self._accum(np.transpose(g, inv))
        return out

    # -- fused ops ----------------------------------------------------------
    def softmax(self, axis: int = -1) -> "Tensor":
        z = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(z)
        y = e / e.sum(axis=axis, keepdims=True)
        out = self._make(y, (self,), None, "softmax")

        def backward(g):
            dot = (g * y).sum(axis=axis, keepdims=True)
            self._accum((g - dot) * y)
        out._backward = backward
        return out

    def layernorm(self, gain: "Tensor", bias: "Tensor",
                  eps: float = 1e-5) -> "Tensor":
        """Normalize over the last axis, then affine."""
        gain, bias = self._coerce(gain), self._coerce(bias)
        if gain.shape != self.shape[-1:] or bias.shape != self.shape[-1:]:
            raise TensorError("layernorm gain/bias must match last axis")
        x = self.data
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + eps)
        xhat = (x - mu) * inv
        out = self._make(gain.data * xhat + bias.data, (self, gain, bias),
                         None, "layernorm")
        n = self.shape[-1]

        def backward(g):
            gain._accum(_reduce_to_shape(g * xhat, gain.shape))
            bias._accum(_reduce_to_shape(g, bias.shape))
            dxhat = g * gain.data
            dx = inv / n * (n * dxhat
                            - dxhat.sum(axis=-1, keepdims=True)
                            - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True))
            self._accum(dx)
        out._backward = backward
        return out

    def rect_cosine(self, proto: "Tensor", eps: float = 1e-8,
                    rectify_proto: bool = True) -> "Tensor":
        """Cosine similarity of the ReLU-rectified rows (last axis).

        Returns 0 where either rectified row has norm below eps ("no
        evidence"); output lands in [0, 1]. With rectify_proto=False the
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
        valid = (nu >= eps) & (nv >= eps)
        denom = np.where(valid, nu * nv, 1.0)
        dot = (u * v).sum(axis=-1)
        c = np.where(valid, dot / denom, 0.0)
        out = self._make(c, (self, proto), None, "rect_cosine")

        def backward(g):
            # d cos/du = v/(nu nv) - cos * u/nu^2, chained through the ReLU
            cn = np.where(valid, c, 0.0)
            du = (g * valid)[..., None] * (
                v / denom[..., None]
                - (cn / np.where(nu > 0, nu * nu, 1.0))[..., None] * u)
            dv = (g * valid)[..., None] * (
                u / denom[..., None]
                - (cn / np.where(nv > 0, nv * nv, 1.0))[..., None] * v)
            self._accum(_reduce_to_shape(du * (self.data > 0), self.shape))
            vmask = (proto.data > 0) if rectify_proto else \
                np.ones_like(proto.data, dtype=bool)
            proto._accum(_reduce_to_shape(dv * vmask, proto.shape))
        out._backward = backward
        return out

    # -- reverse pass -------------------------------------------------------
    def backward(self) -> int:
        """Run reverse-mode accumulation from this scalar; returns the number
        of graph nodes visited (each exactly once)."""
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
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        visits = 0
        for node in reversed(order):
            visits += 1
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
        return visits


# -- AdamW -------------------------------------------------------------------

@dataclass
class AdamWState:
    """Per-parameter optimizer state plus hyper-parameters."""
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 1e-2

    @classmethod
    def for_param(cls, param: Tensor, **hypers) -> "AdamWState":
        return cls(m=np.zeros_like(param.data), v=np.zeros_like(param.data),
                   **hypers)


def adamw_step(param: Tensor, state: AdamWState) -> None:
    """One AdamW update with decoupled weight decay."""
    if param.grad is None:
        raise TensorError("adamw_step: parameter has no gradient")
    g = param.grad
    state.step += 1
    state.m = state.beta1 * state.m + (1 - state.beta1) * g
    state.v = state.beta2 * state.v + (1 - state.beta2) * g * g
    mhat = state.m / (1 - state.beta1 ** state.step)
    vhat = state.v / (1 - state.beta2 ** state.step)
    update = mhat / (np.sqrt(vhat) + state.eps) + state.weight_decay * param.data
    param.data = (param.data - state.lr * update).astype(param.data.dtype)


class AdamW:
    """Convenience wrapper driving adamw_step over a named parameter dict."""

    def __init__(self, params: dict, lr=1e-4, beta1=0.9, beta2=0.999,
                 eps=1e-8, weight_decay=1e-2):
        self.params = params
        # decay only matrix-shaped params; biases, norm gains, and logit
        # vectors are exempt, as is standard for AdamW
        self.states = {
            name: AdamWState.for_param(
                p, lr=lr, beta1=beta1, beta2=beta2, eps=eps,
                weight_decay=weight_decay if p.data.ndim > 1 else 0.0)
            for name, p in params.items()
        }

    def step(self):
        for name, p in self.params.items():
            adamw_step(p, self.states[name])

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None


# -- checkpoint container ----------------------------------------------------
# Layout: 8-byte magic, uint32 little-endian header length, JSON header,
# then raw little-endian payloads. The header maps each array name to
# shape/dtype/offset/nbytes and carries a free-form "meta" dict.

_MAGIC = b"XSCKPT01"


def save_arrays(path: str, arrays: dict, meta: dict | None = None) -> None:
    entries = {}
    payloads = []
    offset = 0
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        if arr.dtype == np.float64:
            arr = arr.astype(np.float32)
        raw = arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
        entries[name] = {"shape": list(arr.shape), "dtype": str(arr.dtype),
                         "offset": offset, "nbytes": len(raw)}
        payloads.append(raw)
        offset += len(raw)
    header = json.dumps({"meta": meta or {}, "arrays": entries},
                        sort_keys=True).encode()
    dirname = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=dirname, prefix=".ckpt-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(_MAGIC)
            f.write(np.array(len(header), dtype="<u4").tobytes())
            f.write(header)
            for raw in payloads:
                f.write(raw)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_arrays(path: str):
    """Returns (arrays: dict[str, np.ndarray], meta: dict)."""
    with open(path, "rb") as f:
        if f.read(8) != _MAGIC:
            raise TensorError(f"{path}: not a checkpoint container")
        hlen = int(np.frombuffer(f.read(4), dtype="<u4")[0])
        header = json.loads(f.read(hlen))
        base = f.tell()
        arrays = {}
        for name, ent in header["arrays"].items():
            f.seek(base + ent["offset"])
            raw = f.read(ent["nbytes"])
            arrays[name] = np.frombuffer(raw, dtype=ent["dtype"]).reshape(
                ent["shape"]).copy()
    return arrays, header["meta"]
