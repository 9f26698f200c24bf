"""End-to-end training: weighted BCE, AdamW over encoder + prototypes +
scaling logits, prototype projection every few epochs, validation-Bacc model
selection, deterministic given the seed."""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass

import numpy as np

from . import encoder as enc
from . import psp
from . import surface as surf
from .config import DEFAULTS, ConfigError, check_settings
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


def predicted_positive(probs: np.ndarray) -> np.ndarray:
    """The one rule for a positive prediction: probability >= 0.5."""
    return probs >= 0.5


def compute_metrics(probs: np.ndarray, labels: np.ndarray) -> MetricsReport:
    pred = predicted_positive(probs)
    y = labels.astype(bool)
    tp = int(np.sum(pred & y)); fp = int(np.sum(pred & ~y))
    tn = int(np.sum(~pred & ~y)); fn = int(np.sum(~pred & y))
    tpr = tp / (tp + fn) if tp + fn else 0.0
    tnr = tn / (tn + fp) if tn + fp else 0.0
    f1 = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
    return MetricsReport((tpr + tnr) / 2, f1, tp, fp, tn, fn)


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


def _from_meta(key: str) -> property:
    return property(lambda self: self.meta[key])


@dataclass
class Model:
    """Everything needed for inference, explanation, and checkpointing.
    `meta` is what the checkpoint stores besides the arrays."""
    params: dict                   # encoder parameter tensors
    enc_cfg: enc.EncoderConfig
    bank: psp.PrototypeBank
    scaler: psp.SparseScaler
    part: surf.PatchPartition
    meta: dict

    mesh_order = _from_meta("mesh_order")
    patch_order = _from_meta("patch_order")
    hemispheres = _from_meta("hemispheres")
    channels = _from_meta("channels")
    stats = _from_meta("stats")
    rectify_prototypes = _from_meta("rectify_prototypes")

    def trainable(self) -> dict:
        out = dict(self.params)
        out["psp.xi"] = self.bank.xi
        out["psp.logits"] = self.scaler.logits
        return out

    def partition(self) -> surf.PatchPartition:
        return self.part


# a meta key whose value is checked as a setting; each entry of the
# provenance sidecar that is not null: [subject, epoch]
_ANY = (object, None, "")
_PROVENANCE = {"subject_id": (str, None, "a string"),
               "epoch": (int, None, "an integer")}


def _assemble(meta: dict, arrays, provenance, source: str) -> Model:
    """The one place a Model is put together: partition, EncoderConfig and
    wrapped arrays, from `meta`. `arrays` maps names to arrays whose names
    and shapes must be the model's, or draws them from the EncoderConfig;
    `provenance` has one entry per prototype (None: never projected).
    Every meta key the Model reads must be present with its type, and any
    other is ignored; the config sections go through the config's own
    checks."""
    try:
        surf.check_dataset_fields(meta)
        surf.check_fields("", meta, dict.fromkeys(DEFAULTS["psp"], _ANY))
        if not isinstance(meta.get("encoder"), dict):
            raise ConfigError("key 'encoder' must be an object")
        given = check_settings("", {
            **{f"psp.{k}": meta[k] for k in DEFAULTS["psp"]},
            **{f"encoder.{k}": v for k, v in meta["encoder"].items()}})
        for key in DEFAULTS["encoder"]:
            if f"encoder.{key}" not in given:
                raise ConfigError(f"missing key 'encoder.{key}'")
        part = surf.build_partition(meta["mesh_order"], meta["patch_order"])
        n_total = part.n_patches * meta["hemispheres"]
        ecfg = enc.EncoderConfig(**{k: given[f"encoder.{k}"]
                                    for k in DEFAULTS["encoder"]},
                                 seq_len=n_total, patch_size=part.patch_size,
                                 channels=len(meta["channels"]))
    except ValueError as e:
        raise TrainError(f"{source}: {e}") from e
    arrays = arrays(ecfg) if callable(arrays) else arrays
    shapes = enc.param_shapes(ecfg)
    shapes.update({"psp.xi": (n_total, ecfg.dim), "psp.logits": (n_total,)})
    for name in sorted(shapes.keys() | arrays.keys()):
        got = f"shape {arrays[name].shape}" if name in arrays else "nothing"
        want = f"shape {shapes[name]}" if name in shapes else "no such array"
        if got != want:
            raise TrainError(f"{source}: array '{name}': found {got}, "
                             f"the model needs {want}")
    provenance = [None] * n_total if provenance is None else provenance
    if len(provenance) != n_total:
        raise TrainError(f"{source}: {len(provenance)} provenance entries "
                         f"for {n_total} prototypes")
    params = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
    bank = psp.PrototypeBank(params.pop("psp.xi"), provenance)
    scaler = psp.SparseScaler(params.pop("psp.logits"))
    return Model(params=params, enc_cfg=ecfg, bank=bank, scaler=scaler,
                 part=part, meta=meta)


def init_model(cfg: dict, manifest: surf.DatasetManifest) -> Model:
    """A fresh model; its initial arrays are drawn from train.seed."""
    seed = cfg["train"]["seed"]
    meta = {k: getattr(manifest, k) for k in
            ("mesh_order", "patch_order", "hemispheres", "channels", "stats")}
    meta.update(cfg["psp"], encoder=dict(cfg["encoder"]),
                config=copy.deepcopy(cfg))

    def draw(ecfg):
        arrays = {k: t.data for k, t in enc.init_params(ecfg, seed).items()}
        arrays["psp.xi"] = psp.PrototypeBank.init(
            ecfg.seq_len, ecfg.dim, seed + 1).xi.data
        arrays["psp.logits"] = np.zeros(ecfg.seq_len, np.float32)
        return arrays

    return _assemble(meta, draw, None, "initial model")


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


def evaluate(model: Model, samples) -> MetricsReport:
    probs = predict_probs(model, normalized(samples, model))
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
    tcfg = cfg["train"]
    if not splits["train"] or (tcfg["epochs"] > 0 and not splits["val"]):
        raise TrainError("train and val splits must be nonempty")
    model = init_model(cfg, manifest)
    part = model.partition()
    train_samples = normalized(splits["train"], model)
    labels = np.array([s.label for s in splits["train"]])
    cw = class_weights(labels) if tcfg["class_weighted"] else (1.0, 1.0)
    candidates = [s for s in train_samples if s.label == 1]
    if not candidates:
        raise TrainError("no projection candidates in the training split")

    def project(epoch):
        psp.project_prototypes(model.bank, model.params, model.enc_cfg,
                               candidates, part, model.hemispheres,
                               epoch=epoch,
                               rectify_prototypes=model.rectify_prototypes)

    patches_all = np.stack([surf.patchify(s, part, model.hemispheres)
                            for s in train_samples])
    optim = AdamW(model.trainable(), lr=tcfg["lr"],
                  weight_decay=tcfg["weight_decay"])
    history = []
    best = None  # (bacc, epoch, snapshot)
    if tcfg["epochs"] > 0:
        # initial projection: prototypes are real cases from the start, so
        # the scaler's early patch selection tracks true discriminability
        project(epoch=-1)
    for epoch in range(tcfg["epochs"]):
        shuffle_rng = np.random.default_rng([tcfg["seed"], 1, epoch])
        dropout_rng = np.random.default_rng([tcfg["seed"], 2, epoch])
        order = shuffle_rng.permutation(len(train_samples))
        losses = []
        for bi, start in enumerate(range(0, len(order), tcfg["batch_size"])):
            idx = order[start:start + tcfg["batch_size"]]
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
        if (epoch + 1) % tcfg["projection_period"] == 0:
            project(epoch=epoch)
        val = evaluate(model, splits["val"])
        history.append((epoch, float(np.mean(losses)), val.bacc, val.f1))
        # later epoch wins ties: with an easily saturated validation set the
        # earliest tied checkpoint is undertrained and its scaler diffuse
        if best is None or val.bacc >= best[0]:
            best = (val.bacc, epoch, _snapshot(model))
    if tcfg["epochs"] > 0:
        _restore(model, best[2])
        project(epoch=best[1])
        val = evaluate(model, splits["val"])
        history.append(("final", "", val.bacc, val.f1))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        save_checkpoint(os.path.join(out_dir, "model.xck"), model)
        write_history_csv(os.path.join(out_dir, "metrics.csv"), history)
        surf._atomic_write(os.path.join(out_dir, "config.resolved.json"),
                           json.dumps(cfg, indent=2, sort_keys=True).encode())
    return model, history


def write_history_csv(path: str, history) -> None:
    lines = ["epoch,train_loss,val_bacc,val_f1"]
    for row in history:
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x)
                              for x in row))
    surf._atomic_write(path, ("\n".join(lines) + "\n").encode())


# -- checkpointing -----------------------------------------------------------

def save_checkpoint(path: str, model: Model) -> None:
    """Write the arrays with the model's meta, and the provenance sidecar
    `<path>.provenance.json`; the two files travel together."""
    save_arrays(path, {k: t.data for k, t in model.trainable().items()},
                model.meta)
    sidecar = [list(p) if p is not None else None
               for p in model.bank.provenance]
    surf._atomic_write(path + ".provenance.json",
                       json.dumps(sidecar, sort_keys=True).encode())


def load_checkpoint(path: str) -> Model:
    """The model saved at `path`, with its required provenance sidecar."""
    arrays, meta = load_arrays(path)
    side = path + ".provenance.json"
    try:
        with open(side) as f:
            prov = json.load(f)
    except (OSError, ValueError) as e:
        raise TrainError(f"{side}: cannot read the provenance sidecar "
                         f"({e})") from e
    if not isinstance(prov, list) or not all(
            p is None or isinstance(p, list) and len(p) == 2 for p in prov):
        raise TrainError(f"{side}: expected a list of null or "
                         f"[subject_id, epoch] entries")
    prov = [p and tuple(surf.check_fields(f"{side}: entry {i}: ",
                                          dict(zip(_PROVENANCE, p)),
                                          _PROVENANCE).values())
            for i, p in enumerate(prov)]
    return _assemble(meta, arrays, prov, path)
