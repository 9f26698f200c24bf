"""Surface transformer encoder: patch sequence [B, S, M, F] -> embeddings
[B, S, D].

Pre-norm blocks (multi-head self-attention + GELU MLP, residual connections),
learned absolute positional embeddings, no class token -- every patch
embedding is consumed by the decoder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .files import InputError
from .tensor import Tensor, TensorError, keep_scale


@dataclass(frozen=True)
class EncoderConfig:
    dim: int = 48            # D
    depth: int = 4           # transformer blocks L
    heads: int = 6
    mlp_ratio: int = 4
    dropout: float = 0.1
    seq_len: int = 80        # N_total = H * N
    patch_size: int = 45     # M
    channels: int = 3        # F

    def __post_init__(self):
        """The rule across settings; their ranges are the config's."""
        if self.heads < 1 or self.dim % self.heads != 0:
            raise InputError(f"'encoder.heads' must divide 'encoder.dim', "
                             f"got {self.heads} and {self.dim}")


def _trunc_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Normal(0, 0.02) resampled until every draw lies within 2 std."""
    out = np.zeros(shape)
    bad = np.ones(shape, dtype=bool)
    while bad.any():
        out[bad] = rng.normal(0.0, 0.02, size=int(bad.sum()))
        bad = np.abs(out) > 0.04
    return out.astype(np.float32)


def param_shapes(config: EncoderConfig) -> dict:
    """Every parameter's name and shape, in the order `init_params` draws
    them; a checkpoint's encoder arrays are checked against it."""
    d, hid = config.dim, config.dim * config.mlp_ratio
    shapes = {"patch_proj.w": (config.patch_size * config.channels, d),
              "patch_proj.b": (d,), "pos_emb": (config.seq_len, d)}
    for i in range(config.depth):
        block = {"norm1.g": (d,), "norm1.b": (d,)}
        for x in "qkvo":
            block.update({f"attn.w{x}": (d, d), f"attn.b{x}": (d,)})
        block.update({"norm2.g": (d,), "norm2.b": (d,), "mlp.w1": (d, hid),
                      "mlp.b1": (hid,), "mlp.w2": (hid, d), "mlp.b2": (d,)})
        shapes.update({f"block{i}.{k}": v for k, v in block.items()})
    shapes.update({"final_norm.g": (d,), "final_norm.b": (d,)})
    return shapes


def init_params(config: EncoderConfig, seed: int) -> dict:
    """Named parameter dict, deterministic given the seed: matrices truncated
    normal, `pos_emb` normal, layernorm gains ones, other vectors zeros."""
    rng = np.random.default_rng(seed)
    p = {}
    for name, shape in param_shapes(config).items():
        if name == "pos_emb":
            a = rng.normal(0.0, 0.02, size=shape).astype(np.float32)
        elif len(shape) == 2:
            a = _trunc_normal(rng, shape)
        else:
            a = np.full(shape, float(name.endswith(".g")), np.float32)
        p[name] = Tensor(a, requires_grad=True)
    return p


def _threshold(p: float) -> int:
    """Dropout at rate p drops each element whose 16-bit draw is below
    t = round(p·2^16), capped at 2^16 - 1: it drops at exactly t/2^16."""
    return min(round(p * 65536), 65535)


def _rate(p: float) -> float:
    """The exact rate at which a keep mask for rate p drops."""
    return _threshold(p) / 65536


def _keep_mask(shape: tuple, p: float, training: bool,
               rng: np.random.Generator | None) -> np.ndarray | None:
    """Boolean dropout keep mask, or None when dropout is off (t is 0).
    Each element takes 16 bits of the rng's raw 64-bit output."""
    t = _threshold(p)
    if not training or t == 0:
        return None
    if rng is None:
        raise TensorError("training-mode dropout needs an rng")
    n = math.prod(shape)
    bits = rng.bit_generator.random_raw((n + 3) // 4).view(np.uint16)
    return (bits[:n] >= t).reshape(shape)


def _dropout(x: Tensor, p: float, training: bool,
             rng: np.random.Generator | None) -> Tensor:
    keep = _keep_mask(x.shape, p, training, rng)
    if keep is None:
        return x
    return x.mul(Tensor(keep * keep_scale(_rate(p), x.data.dtype),
                        dtype=x.data.dtype))


def _attention(x: Tensor, params: dict, pre: str, config: EncoderConfig,
               training: bool, rng) -> Tensor:
    b, s, d = x.shape
    h = config.heads
    dh = d // h

    def project(name):
        y = x.matmul(params[pre + f"attn.w{name}"]).add(
            params[pre + f"attn.b{name}"])
        return y.reshape(b, s, h, dh).transpose((0, 2, 1, 3))  # B,h,S,dh

    q, k, v = project("q"), project("k"), project("v")
    keep = _keep_mask((b, h, s, s), config.dropout, training, rng)
    ctx = q.attention(k, v, keep, _rate(config.dropout))
    ctx = ctx.transpose((0, 2, 1, 3)).reshape(b, s, d)
    out = ctx.matmul(params[pre + "attn.wo"]).add(params[pre + "attn.bo"])
    return _dropout(out, config.dropout, training, rng)


def _mlp(x: Tensor, params: dict, pre: str, config: EncoderConfig,
         training: bool, rng) -> Tensor:
    y = x.matmul(params[pre + "mlp.w1"]).add(params[pre + "mlp.b1"]).gelu()
    y = _dropout(y, config.dropout, training, rng)
    y = y.matmul(params[pre + "mlp.w2"]).add(params[pre + "mlp.b2"])
    return _dropout(y, config.dropout, training, rng)


def encode(patches: Tensor, params: dict, config: EncoderConfig,
           training: bool = False,
           rng: np.random.Generator | None = None) -> Tensor:
    """f_SiT over a [B, S, M, F] batch; returns [B, S, D]."""
    b, s, m, f = patches.shape
    if s != config.seq_len or m != config.patch_size or f != config.channels:
        raise TensorError(
            f"encode: got patches {patches.shape}, config expects "
            f"[B, {config.seq_len}, {config.patch_size}, {config.channels}]")
    x = patches.reshape(b, s, m * f)
    x = x.matmul(params["patch_proj.w"]).add(params["patch_proj.b"])
    x = x.add(params["pos_emb"])
    x = _dropout(x, config.dropout, training, rng)
    for i in range(config.depth):
        pre = f"block{i}."
        try:
            normed = x.layernorm(params[pre + "norm1.g"],
                                 params[pre + "norm1.b"])
            x = x.add(_attention(normed, params, pre, config, training, rng))
            normed = x.layernorm(params[pre + "norm2.g"],
                                 params[pre + "norm2.b"])
            x = x.add(_mlp(normed, params, pre, config, training, rng))
        except TensorError as e:
            raise TensorError(f"encoder block {i}: {e}") from e
    return x.layernorm(params["final_norm.g"], params["final_norm.b"])
