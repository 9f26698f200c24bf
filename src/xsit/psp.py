"""Prototypical surface patch decoder.

Class probability = sum_i w_i * cos(relu(x_i), relu(xi_i)) where xi is one
learnable prototype embedding per patch position and w is a sparse simplex
weighting: softmax weights with below-average entries (< 1/N) zeroed and the
survivors renormalized. Prototypes are periodically replaced by the most
similar real training patch at the same position, which is what makes the
decoder's reasoning case-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import encoder as enc
from . import surface as surf
from .tensor import Tensor, TensorError

# Samples per inference-mode encoder call. It bounds one call's memory
# only: a subject's embedding has the same bits in any batch (pinned by
# tests/test_psp.py), so an active prototype is bit-equal to a fresh
# encoding of its source subject, one at a time or in a split.
_ENCODE_BATCH = 16


@dataclass
class PrototypeBank:
    xi: Tensor                     # N_total x D, learnable
    provenance: list = field(default_factory=list)  # per patch: None or (subject_id, epoch)


@dataclass
class SparseScaler:
    logits: Tensor                 # N_total, learnable


def sparse_weights(logits: Tensor) -> Tensor:
    """Dense softmax weights, hard-thresholded at the uniform level 1/N and
    renormalized. The survival mask is a constant for differentiation."""
    n = logits.shape[-1]
    dense = logits.softmax()
    mask = (dense.data >= 1.0 / n).astype(dense.data.dtype)
    kept = dense.mul(Tensor(mask, dtype=dense.data.dtype))
    return kept.div(kept.sum())


def patch_activations(x: Tensor, bank: PrototypeBank,
                      scaler: SparseScaler,
                      rectify_prototypes: bool = True) -> Tensor:
    """Per-patch activations w_i * cos(relu(x_i), relu(xi_i)) for x of shape
    [..., N, D]; returns [..., N]. They sum to P(c|x)."""
    if x.shape[-2:] != bank.xi.shape:
        raise TensorError(
            f"patch_activations: embeddings {x.shape} vs prototypes "
            f"{bank.xi.shape}")
    cos = x.rect_cosine(bank.xi, rectify_proto=rectify_prototypes)  # [..., N]
    return cos.mul(sparse_weights(scaler.logits))


def class_probability(x: Tensor, bank: PrototypeBank,
                      scaler: SparseScaler,
                      rectify_prototypes: bool = True) -> Tensor:
    """P(c|x) for x of shape [N, D] or [B, N, D]; returns scalar or [B]."""
    return patch_activations(x, bank, scaler, rectify_prototypes).sum(axis=-1)


def project_prototypes(bank: PrototypeBank, params: dict,
                       config: enc.EncoderConfig, samples: list,
                       partition: surf.PatchPartition, hemispheres: int,
                       epoch: int, rectify_prototypes: bool = True) -> None:
    """Replace every prototype with the most similar real patch embedding at
    its position, searching the given candidate samples (inference-mode
    encoding) under the decoder's own similarity. Ties go to the
    lexicographically lowest subject id."""
    if not samples:
        raise TensorError("project_prototypes: empty candidate set")
    ordered = sorted(samples, key=lambda s: s.subject_id)
    embeddings = encode_samples(ordered, params, config, partition,
                                hemispheres)  # C x N x D
    sim = Tensor(embeddings).rect_cosine(      # C x N
        Tensor(bank.xi.data), rectify_proto=rectify_prototypes).data
    best = sim.argmax(axis=0)                            # first max = lowest id
    bank.xi.data = embeddings[best, np.arange(len(best))]
    bank.provenance = [(ordered[b].subject_id, epoch) for b in best]


def encode_samples(samples: list, params: dict, config: enc.EncoderConfig,
                   partition: surf.PatchPartition,
                   hemispheres: int) -> np.ndarray:
    """Inference-mode embeddings for a sample list, encoded in batches of
    _ENCODE_BATCH; returns [S, N_total, D]. The parameters enter as
    constants, so no tape is recorded: no node keeps its inputs, and each
    batch's intermediate arrays are freed as the pass goes."""
    params = {name: Tensor(t.data) for name, t in params.items()}
    out = []
    for start in range(0, len(samples), _ENCODE_BATCH):
        chunk = samples[start:start + _ENCODE_BATCH]
        patches = np.stack([surf.patchify(s, partition, hemispheres)
                            for s in chunk])
        emb = enc.encode(Tensor(patches), params, config, training=False)
        out.append(emb.data)
    return np.concatenate(out, axis=0)
