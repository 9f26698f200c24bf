"""End-to-end training: weighted BCE, AdamW over encoder + prototypes +
scaling logits, prototype projection every few epochs, validation-Bacc model
selection, deterministic given the seed."""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import encoder as enc
from . import psp
from . import surface as surf
from .config import encoder_config, train_config
from .tensor import AdamW, Tensor, TensorError, load_arrays, save_arrays


class TrainError(RuntimeError):
    pass


@dataclass
class MetricsReport:
    bacc: float
    f1: float
    tp: int
    fp: int
    tn: int
    fn: int
    probabilities: list = field(default_factory=list)


def compute_metrics(probs: np.ndarray, labels: np.ndarray,
                    threshold: float = 0.5) -> MetricsReport:
    pred = probs >= threshold
    y = labels.astype(bool)
    tp = int(np.sum(pred & y)); fp = int(np.sum(pred & ~y))
    tn = int(np.sum(~pred & ~y)); fn = int(np.sum(~pred & y))
    tpr = tp / (tp + fn) if tp + fn else 0.0
    tnr = tn / (tn + fp) if tn + fp else 0.0
    f1 = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
    return MetricsReport(bacc=(tpr + tnr) / 2, f1=f1, tp=tp, fp=fp, tn=tn,
                         fn=fn, probabilities=[float(p) for p in probs])


def class_weights(labels) -> tuple:
    """Inverse-frequency weights: c_y = total / (2 * count_y)."""
    labels = np.asarray(labels)
    total = labels.size
    n1 = int(labels.sum())
    n0 = total - n1
    if n0 == 0 or n1 == 0:
        raise TrainError("training split needs both classes")
    return total / (2.0 * n0), total / (2.0 * n1)


def weighted_bce(p: Tensor, y: np.ndarray, weights: tuple = (1.0, 1.0)) -> Tensor:
    """Mean class-weighted binary cross-entropy over a batch of
    probabilities."""
    c0, c1 = weights
    y = np.asarray(y, dtype=p.data.dtype)
    cw = Tensor(np.where(y > 0.5, c1, c0).astype(p.data.dtype))
    yt = Tensor(y)
    pc = p.clamp(1e-6, 1.0 - 1e-6)
    ll = yt.mul(pc.log()).add((1.0 - yt).mul((1.0 - pc).log()))
    return cw.mul(ll).mean().neg()


@dataclass
class Model:
    """Everything needed for inference, explanation, and checkpointing."""
    params: dict                   # encoder parameter tensors
    enc_cfg: enc.EncoderConfig
    bank: psp.PrototypeBank
    scaler: psp.SparseScaler
    mesh_order: int
    patch_order: int
    hemispheres: int
    channels: list
    stats: dict
    part: surf.PatchPartition
    rectify_prototypes: bool = True
    class_restricted_projection: bool = True

    def trainable(self) -> dict:
        out = dict(self.params)
        out["psp.xi"] = self.bank.xi
        out["psp.logits"] = self.scaler.logits
        return out

    def partition(self) -> surf.PatchPartition:
        return self.part


def init_model(cfg: dict, manifest: surf.DatasetManifest) -> Model:
    part = surf.build_partition(manifest.mesh_order, manifest.patch_order)
    n_total = part.n_patches * manifest.hemispheres
    ecfg = encoder_config(cfg, seq_len=n_total, patch_size=part.patch_size,
                          channels=len(manifest.channels))
    seed = cfg["train"]["seed"]
    params = enc.init_params(ecfg, seed)
    bank = psp.PrototypeBank.init(n_total, ecfg.dim, seed + 1)
    scaler = psp.SparseScaler.init(n_total)
    return Model(params=params, enc_cfg=ecfg, bank=bank, scaler=scaler,
                 mesh_order=manifest.mesh_order,
                 patch_order=manifest.patch_order,
                 hemispheres=manifest.hemispheres,
                 channels=list(manifest.channels), stats=manifest.stats,
                 part=part,
                 rectify_prototypes=cfg["psp"]["rectify_prototypes"],
                 class_restricted_projection=cfg["psp"][
                     "class_restricted_projection"])


def normalized(samples, model: Model) -> list:
    """Samples z-normalised with the model's dataset statistics."""
    return [surf.normalize(s, model.stats, model.channels) for s in samples]


def activations(model: Model, samples) -> np.ndarray:
    """Inference-mode per-patch activations [S, N_total] of
    already-normalized samples; each row sums to its class probability."""
    emb = psp.encode_samples(samples, model.params, model.enc_cfg,
                             model.partition(), model.hemispheres)
    return psp.patch_activations(Tensor(emb), model.bank, model.scaler,
                                 model.rectify_prototypes).data


def predict_probs(model: Model, samples) -> np.ndarray:
    """Inference-mode class probabilities, already-normalized samples."""
    return activations(model, samples).sum(axis=-1)


def evaluate(model: Model, samples,
             normalize_inputs: bool = True) -> MetricsReport:
    prepared = normalized(samples, model) if normalize_inputs else samples
    probs = predict_probs(model, prepared)
    labels = np.array([s.label for s in samples])
    return compute_metrics(probs, labels)


def _snapshot(model: Model) -> dict:
    return {
        "arrays": {k: t.data.copy() for k, t in model.trainable().items()},
        "provenance": copy.deepcopy(model.bank.provenance),
    }


def _restore(model: Model, snap: dict) -> None:
    for k, t in model.trainable().items():
        t.data = snap["arrays"][k].copy()
    model.bank.provenance = copy.deepcopy(snap["provenance"])


def train_run(cfg: dict, manifest: surf.DatasetManifest, splits: dict,
              out_dir: str | None = None):
    """Train a model; returns (model, history rows). History rows are
    (epoch, train_loss, val_bacc, val_f1) with a trailing 'final' row after
    the mandatory end-of-training projection."""
    tcfg = train_config(cfg)
    if not splits["train"] or (tcfg.epochs > 0 and not splits["val"]):
        raise TrainError("train and val splits must be nonempty")
    model = init_model(cfg, manifest)
    part = model.partition()
    train_samples = normalized(splits["train"], model)
    val_samples = normalized(splits["val"], model)
    labels = np.array([s.label for s in splits["train"]])
    cw = class_weights(labels) if tcfg.class_weighted else (1.0, 1.0)
    candidates = [s for s in train_samples
                  if s.label == 1 or not model.class_restricted_projection]
    if not candidates:
        raise TrainError("no projection candidates in the training split")

    def project(epoch):
        psp.project_prototypes(model.bank, model.params, model.enc_cfg,
                               candidates, part, model.hemispheres,
                               epoch=epoch,
                               rectify_prototypes=model.rectify_prototypes)

    patches_all = np.stack([surf.patchify(s, part, model.hemispheres)
                            for s in train_samples])
    optim = AdamW(model.trainable(), lr=tcfg.lr,
                  weight_decay=tcfg.weight_decay)
    history = []
    best = None  # (bacc, epoch, snapshot)
    if tcfg.epochs > 0:
        # initial projection: prototypes are real cases from the start, so
        # the scaler's early patch selection tracks true discriminability
        project(epoch=-1)
    for epoch in range(tcfg.epochs):
        shuffle_rng = np.random.default_rng([tcfg.seed, 1, epoch])
        dropout_rng = np.random.default_rng([tcfg.seed, 2, epoch])
        order = shuffle_rng.permutation(len(train_samples))
        losses = []
        for bi, start in enumerate(range(0, len(order), tcfg.batch_size)):
            idx = order[start:start + tcfg.batch_size]
            batch = Tensor(patches_all[idx])
            y = labels[idx]
            try:
                emb = enc.encode(batch, model.params, model.enc_cfg,
                                 training=True, rng=dropout_rng)
                p = psp.class_probability(emb, model.bank, model.scaler,
                                          model.rectify_prototypes)
                loss = weighted_bce(p, y, cw)
            except TensorError as e:
                raise TrainError(
                    f"epoch {epoch} batch {bi}: {e}") from e
            optim.zero_grad()
            loss.backward()
            optim.step()
            losses.append(loss.item())
        if (epoch + 1) % tcfg.projection_period == 0:
            project(epoch=epoch)
        val = evaluate(model, val_samples, normalize_inputs=False)
        history.append((epoch, float(np.mean(losses)), val.bacc, val.f1))
        # later epoch wins ties: with an easily saturated validation set the
        # earliest tied checkpoint is undertrained and its scaler diffuse
        if best is None or val.bacc >= best[0]:
            best = (val.bacc, epoch, _snapshot(model))
    if tcfg.epochs > 0:
        _restore(model, best[2])
        project(epoch=best[1])
        val = evaluate(model, val_samples, normalize_inputs=False)
        history.append(("final", "", val.bacc, val.f1))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        save_checkpoint(os.path.join(out_dir, "model.xck"), model, cfg)
        write_history_csv(os.path.join(out_dir, "metrics.csv"), history)
        with open(os.path.join(out_dir, "config.resolved.json"), "w") as f:
            json.dump(cfg, f, indent=2, sort_keys=True)
    return model, history


def write_history_csv(path: str, history) -> None:
    lines = ["epoch,train_loss,val_bacc,val_f1"]
    for row in history:
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x)
                              for x in row))
    surf._atomic_write(path, ("\n".join(lines) + "\n").encode())


# -- checkpointing -----------------------------------------------------------

def save_checkpoint(path: str, model: Model, cfg: dict | None = None) -> None:
    arrays = {k: t.data for k, t in model.trainable().items()}
    meta = {
        "encoder": {"dim": model.enc_cfg.dim, "depth": model.enc_cfg.depth,
                    "heads": model.enc_cfg.heads,
                    "mlp_ratio": model.enc_cfg.mlp_ratio,
                    "dropout": model.enc_cfg.dropout},
        "mesh_order": model.mesh_order, "patch_order": model.patch_order,
        "hemispheres": model.hemispheres, "channels": model.channels,
        "stats": model.stats,
        "rectify_prototypes": model.rectify_prototypes,
        "class_restricted_projection": model.class_restricted_projection,
        "config": cfg or {},
    }
    save_arrays(path, arrays, meta)
    sidecar = [list(p) if p is not None else None
               for p in model.bank.provenance]
    surf._atomic_write(path + ".provenance.json",
                       json.dumps(sidecar, sort_keys=True).encode())


def load_checkpoint(path: str) -> Model:
    arrays, meta = load_arrays(path)
    part = surf.build_partition(meta["mesh_order"], meta["patch_order"])
    n_total = part.n_patches * meta["hemispheres"]
    e = meta["encoder"]
    ecfg = enc.EncoderConfig(dim=e["dim"], depth=e["depth"], heads=e["heads"],
                             mlp_ratio=e["mlp_ratio"], dropout=e["dropout"],
                             seq_len=n_total, patch_size=part.patch_size,
                             channels=len(meta["channels"]))
    params = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()
              if not k.startswith("psp.")}
    bank = psp.PrototypeBank(
        xi=Tensor(arrays["psp.xi"], requires_grad=True),
        provenance=[None] * n_total)
    scaler = psp.SparseScaler(
        logits=Tensor(arrays["psp.logits"], requires_grad=True))
    sidecar_path = path + ".provenance.json"
    if os.path.exists(sidecar_path):
        with open(sidecar_path) as f:
            bank.provenance = [tuple(p) if p is not None else None
                               for p in json.load(f)]
    return Model(params=params, enc_cfg=ecfg, bank=bank, scaler=scaler,
                 mesh_order=meta["mesh_order"],
                 patch_order=meta["patch_order"],
                 hemispheres=meta["hemispheres"], channels=meta["channels"],
                 stats=meta["stats"], part=part,
                 rectify_prototypes=meta["rectify_prototypes"],
                 class_restricted_projection=meta[
                     "class_restricted_projection"])
