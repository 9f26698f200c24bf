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
from .config import DEFAULTS, check_settings
from .files import InputError, atomic_write, check_fields
from .tensor import AdamW, Tensor, TensorError, load_arrays, save_arrays


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
        raise InputError("training split needs both classes")
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
    params: dict                   # every array, by its checkpoint name
    enc_cfg: enc.EncoderConfig
    bank: psp.PrototypeBank
    scaler: psp.SparseScaler
    part: surf.PatchPartition
    meta: dict

    rectify_prototypes = _from_meta("rectify_prototypes")

    def partition(self) -> surf.PatchPartition:
        return self.part


for _key in surf.DATASET_KEYS:  # model.mesh_order, ..., model.stats
    setattr(Model, _key, _from_meta(_key))


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
        check_fields("", meta, dict.fromkeys(DEFAULTS["psp"], _ANY))
        if not isinstance(meta.get("encoder"), dict):
            raise InputError("key 'encoder' must be an object")
        given = check_settings("", {
            **{f"psp.{k}": meta[k] for k in DEFAULTS["psp"]},
            **{f"encoder.{k}": v for k, v in meta["encoder"].items()}})
        for key in DEFAULTS["encoder"]:
            if f"encoder.{key}" not in given:
                raise InputError(f"missing key 'encoder.{key}'")
        part = surf.build_partition(meta["mesh_order"], meta["patch_order"])
        n_total = part.n_patches * meta["hemispheres"]
        ecfg = enc.EncoderConfig(**{k: given[f"encoder.{k}"]
                                    for k in DEFAULTS["encoder"]},
                                 seq_len=n_total, patch_size=part.patch_size,
                                 channels=len(meta["channels"]))
    except ValueError as e:
        raise InputError(f"{source}: {e}") from e
    arrays = arrays(ecfg) if callable(arrays) else arrays
    shapes = enc.param_shapes(ecfg)
    shapes.update({"psp.xi": (n_total, ecfg.dim), "psp.logits": (n_total,)})
    for name in sorted(shapes.keys() | arrays.keys()):
        got = f"shape {arrays[name].shape}" if name in arrays else "nothing"
        want = f"shape {shapes[name]}" if name in shapes else "no such array"
        if got != want:
            raise InputError(f"{source}: array '{name}': found {got}, "
                             f"the model needs {want}")
    provenance = [None] * n_total if provenance is None else provenance
    if len(provenance) != n_total:
        raise InputError(f"{source}: {len(provenance)} provenance entries "
                         f"for {n_total} prototypes")
    params = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
    bank = psp.PrototypeBank(params["psp.xi"], provenance)
    scaler = psp.SparseScaler(params["psp.logits"])
    return Model(params=params, enc_cfg=ecfg, bank=bank, scaler=scaler,
                 part=part, meta=meta)


def init_model(cfg: dict, manifest: surf.DatasetManifest) -> Model:
    """A fresh model; its initial arrays are drawn from train.seed."""
    seed = cfg["train"]["seed"]
    meta = {k: getattr(manifest, k) for k in surf.DATASET_KEYS}
    meta.update(cfg["psp"], encoder=dict(cfg["encoder"]),
                config=copy.deepcopy(cfg))

    def draw(ecfg):
        arrays = {k: t.data for k, t in enc.init_params(ecfg, seed).items()}
        arrays["psp.xi"] = np.random.default_rng(seed + 1).normal(
            0.0, 0.02, (ecfg.seq_len, ecfg.dim)).astype(np.float32)
        arrays["psp.logits"] = np.zeros(ecfg.seq_len, np.float32)
        return arrays

    return _assemble(meta, draw, None, "initial model")


def normalized(samples, model: Model) -> list:
    """Samples z-normalised with the model's dataset statistics."""
    return [surf.normalize(s, model.stats, model.channels) for s in samples]


def activations(model: Model, samples) -> np.ndarray:
    """Inference-mode per-patch activations [S, N_total] of
    already-normalized samples; each row sums to its class probability.
    Prototypes and logits enter as constants, so no tape is recorded."""
    emb = psp.encode_samples(samples, model.params, model.enc_cfg,
                             model.partition(), model.hemispheres)
    return psp.patch_activations(
        Tensor(emb), psp.PrototypeBank(Tensor(model.bank.xi.data)),
        psp.SparseScaler(Tensor(model.scaler.logits.data)),
        model.rectify_prototypes).data


def predict_probs(model: Model, samples) -> np.ndarray:
    """Inference-mode class probabilities, already-normalized samples."""
    return activations(model, samples).sum(axis=-1)


def evaluate(model: Model, samples) -> MetricsReport:
    probs = predict_probs(model, normalized(samples, model))
    labels = np.array([s.label for s in samples])
    return compute_metrics(probs, labels)


def train_run(cfg: dict, manifest: surf.DatasetManifest, splits: dict,
              out_dir: str | None = None):
    """Train a model; returns (model, history rows). History rows are
    (epoch, train_loss, val_bacc, val_f1) with a trailing 'final' row after
    the mandatory end-of-training projection. An empty train split, an
    empty val split when epochs > 0, a class-weighted train split of one
    class and one without a positive subject are InputErrors."""
    tcfg = cfg["train"]
    if not splits["train"] or (tcfg["epochs"] > 0 and not splits["val"]):
        raise InputError("train and val splits must be nonempty")
    model = init_model(cfg, manifest)
    part = model.partition()
    train_samples = normalized(splits["train"], model)
    labels = np.array([s.label for s in splits["train"]])
    cw = class_weights(labels) if tcfg["class_weighted"] else (1.0, 1.0)
    candidates = [s for s in train_samples if s.label == 1]
    if not candidates:
        raise InputError("no projection candidates in the training split")

    def project(epoch):
        psp.project_prototypes(model.bank, model.params, model.enc_cfg,
                               candidates, part, model.hemispheres,
                               epoch=epoch,
                               rectify_prototypes=model.rectify_prototypes)

    patches_all = np.stack([surf.patchify(s, part, model.hemispheres)
                            for s in train_samples])
    optim = AdamW(model.params, lr=tcfg["lr"],
                  weight_decay=tcfg["weight_decay"])
    history = []
    best = None  # (bacc, epoch, arrays, provenance)
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
            # a non-finite value is named by the op check, not by numpy
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                try:
                    emb = enc.encode(batch, model.params, model.enc_cfg,
                                     training=True, rng=dropout_rng)
                    p = psp.class_probability(emb, model.bank, model.scaler,
                                              model.rectify_prototypes)
                    loss = weighted_bce(p, y, cw)
                except TensorError as e:
                    raise TensorError(f"epoch {epoch} batch {bi}: {e}") from e
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
            best = (val.bacc, epoch,
                    {k: t.data.copy() for k, t in model.params.items()},
                    list(model.bank.provenance))
    if tcfg["epochs"] > 0:
        _, epoch, arrays, model.bank.provenance = best
        for k, t in model.params.items():
            t.data = arrays[k]
        project(epoch=epoch)
        val = evaluate(model, splits["val"])
        history.append(("final", "", val.bacc, val.f1))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        save_checkpoint(os.path.join(out_dir, "model.xck"), model)
        write_history_csv(os.path.join(out_dir, "metrics.csv"), history)
        atomic_write(os.path.join(out_dir, "config.resolved.json"),
                     json.dumps(cfg, indent=2, sort_keys=True).encode())
    return model, history


def write_history_csv(path: str, history) -> None:
    lines = ["epoch,train_loss,val_bacc,val_f1"]
    for row in history:
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x)
                              for x in row))
    atomic_write(path, ("\n".join(lines) + "\n").encode())


# -- checkpointing -----------------------------------------------------------

def save_checkpoint(path: str, model: Model) -> None:
    """Write the arrays with the model's meta, and the provenance sidecar
    `<path>.provenance.json`; the two files travel together."""
    save_arrays(path, {k: t.data for k, t in model.params.items()},
                model.meta)
    atomic_write(path + ".provenance.json", json.dumps(
        model.bank.provenance, sort_keys=True).encode())


def load_checkpoint(path: str) -> Model:
    """The model saved at `path`, with its required provenance sidecar."""
    arrays, meta = load_arrays(path)
    side = path + ".provenance.json"
    try:
        with open(side) as f:
            prov = json.load(f)
    except (OSError, ValueError) as e:
        raise InputError(f"{side}: cannot read the provenance sidecar "
                         f"({e})") from e
    if not isinstance(prov, list) or not all(
            p is None or isinstance(p, list) and len(p) == 2 for p in prov):
        raise InputError(f"{side}: expected a list of null or "
                         f"[subject_id, epoch] entries")
    prov = [p and tuple(check_fields(f"{side}: entry {i}: ",
                                     dict(zip(_PROVENANCE, p)),
                                     _PROVENANCE).values())
            for i, p in enumerate(prov)]
    return _assemble(meta, arrays, prov, path)
