"""Float64 reference of the X-SiT classifier, written from the model's
definition rather than from the program's code.

It reads the checkpoint container and the raw subject files itself, and
computes in float64 with numpy and scipy: per-channel z-normalisation,
patch gathering, the pre-norm transformer encoder (inference mode, so no
dropout), the rectified-cosine prototype decoder with its sparse simplex
weights, and the class-weighted binary cross-entropy. The program computes
the same quantities in float32 through its own autodiff tape; the checks
compare the two within a tolerance set by float32 rounding.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.special import erf

MAGIC = b"XSCKPT01"
LN_EPS = 1e-5
COS_EPS = 1e-8


def read_checkpoint(path: str):
    """Return (float64 arrays by name, meta) from an XSCKPT01 file: magic,
    little-endian uint32 header length, JSON header, raw payloads."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:8] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint container")
    hlen = int.from_bytes(raw[8:12], "little")
    header = json.loads(raw[12:12 + hlen])
    base = 12 + hlen
    arrays = {}
    for name, ent in header["arrays"].items():
        dtype = np.dtype(ent["dtype"]).newbyteorder("<")
        count = ent["nbytes"] // dtype.itemsize
        arrays[name] = np.frombuffer(raw, dtype=dtype, count=count,
                                     offset=base + ent["offset"]).reshape(
            ent["shape"]).astype(np.float64)
    return arrays, header["meta"]


def read_subject(path: str, v_total: int, channels: int) -> np.ndarray:
    """Raw little-endian float32 features [V_total, F] of one subject."""
    return np.fromfile(path, dtype="<f4").reshape(v_total, channels)


def layernorm(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * g + b


def softmax(z, axis=-1):
    e = np.exp(z - z.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def gelu(x):
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def embed(params: dict, patches: np.ndarray, depth: int,
          heads: int) -> np.ndarray:
    """Encoder over [B, S, M, F] patches; returns [B, S, D]."""
    b, s, m, f = patches.shape
    x = patches.reshape(b, s, m * f) @ params["patch_proj.w"]
    x = x + params["patch_proj.b"] + params["pos_emb"]
    d = x.shape[-1]
    dh = d // heads
    for i in range(depth):
        p = {k[len(f"block{i}."):]: v for k, v in params.items()
             if k.startswith(f"block{i}.")}
        h = layernorm(x, p["norm1.g"], p["norm1.b"])

        def heads_of(name):
            y = h @ p[f"attn.w{name}"] + p[f"attn.b{name}"]
            return y.reshape(b, s, heads, dh).transpose(0, 2, 1, 3)

        q, k, v = heads_of("q"), heads_of("k"), heads_of("v")
        attn = softmax(q @ k.transpose(0, 1, 3, 2) / math.sqrt(dh))
        ctx = (attn @ v).transpose(0, 2, 1, 3).reshape(b, s, d)
        x = x + ctx @ p["attn.wo"] + p["attn.bo"]
        h = layernorm(x, p["norm2.g"], p["norm2.b"])
        x = x + gelu(h @ p["mlp.w1"] + p["mlp.b1"]) @ p["mlp.w2"] \
            + p["mlp.b2"]
    return layernorm(x, params["final_norm.g"], params["final_norm.b"])


def sparse_weights(logits: np.ndarray) -> np.ndarray:
    """Softmax weights below the uniform level 1/N set to zero, the rest
    renormalised to sum to one."""
    dense = softmax(logits)
    kept = np.where(dense >= 1.0 / logits.shape[-1], dense, 0.0)
    return kept / kept.sum()


def rect_cosine(x: np.ndarray, xi: np.ndarray, rectify_xi: bool):
    """cos(relu(x), relu(xi)) over the last axis, 0 where a norm vanishes."""
    u = np.maximum(x, 0.0)
    v = np.maximum(xi, 0.0) if rectify_xi else xi
    nu = np.sqrt((u * u).sum(axis=-1))
    nv = np.sqrt((v * v).sum(axis=-1))
    valid = (nu >= COS_EPS) & (nv >= COS_EPS)
    return np.where(valid, (u * v).sum(axis=-1)
                    / np.where(valid, nu * nv, 1.0), 0.0)


def activations(params: dict, emb: np.ndarray, rectify_xi: bool):
    """Per-patch activations w_i * cos_i [B, N]; they sum to P(c|x)."""
    return sparse_weights(params["psp.logits"]) * rect_cosine(
        emb, params["psp.xi"], rectify_xi)


def weighted_bce(p: np.ndarray, y: np.ndarray, weights: tuple) -> float:
    pc = np.clip(p, 1e-6, 1.0 - 1e-6)
    cw = np.where(y > 0.5, weights[1], weights[0])
    ll = y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)
    return float(-(cw * ll).mean())


class Reference:
    """A checkpoint evaluated in float64 on raw subject features."""

    def __init__(self, checkpoint: str, patch_vertex_indices: np.ndarray):
        self.params, self.meta = read_checkpoint(checkpoint)
        self.pvi = np.asarray(patch_vertex_indices)
        self.depth = self.meta["encoder"]["depth"]
        self.heads = self.meta["encoder"]["heads"]
        self.rectify = self.meta["rectify_prototypes"]

    def patches(self, raw: np.ndarray) -> np.ndarray:
        """Normalised [H*N, M, F] patch sequence of one subject."""
        x = raw.astype(np.float64)
        for c, name in enumerate(self.meta["channels"]):
            st = self.meta["stats"][name]
            x[:, c] = (x[:, c] - st["mean"]) / st["std"]
        v = x.shape[0] // self.meta["hemispheres"]
        return np.concatenate([x[h * v:(h + 1) * v][self.pvi]
                               for h in range(self.meta["hemispheres"])])

    def embed(self, raws: list, chunk: int = 32) -> np.ndarray:
        out = []
        for i in range(0, len(raws), chunk):
            batch = np.stack([self.patches(r) for r in raws[i:i + chunk]])
            out.append(embed(self.params, batch, self.depth, self.heads))
        return np.concatenate(out)

    def activations(self, raws: list) -> np.ndarray:
        return activations(self.params, self.embed(raws), self.rectify)

    def weights(self) -> np.ndarray:
        return sparse_weights(self.params["psp.logits"])

    def loss(self, params: dict, patches: np.ndarray, y: np.ndarray,
             weights: tuple) -> float:
        emb = embed(params, patches, self.depth, self.heads)
        p = activations(params, emb, self.rectify).sum(axis=-1)
        return weighted_bce(p, y, weights)
