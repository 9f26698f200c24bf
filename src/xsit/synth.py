"""Synthetic surface dataset with planted regional thinning.

Control subjects are a smooth shared baseline (fixed mixture of low-frequency
cosine fields over the vertex coordinates) plus iid Gaussian noise; positive
subjects additionally lose delta*sigma on channel 0 at every vertex of the
lesion patches. The lesion is aligned to the patch partition so localization
tests have exact ground truth.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, asdict

import numpy as np

from . import surface as surf
from .files import InputError, atomic_write, checked


# key -> (type, test, description) of each spec setting
FIELDS = {
    "mesh_order": surf.ORDER,
    "patch_order": surf.ORDER,
    "hemispheres": (int, lambda v: v >= 1, ">= 1"),
    "channels": (int, lambda v: v >= 1, ">= 1"),
    "lesion_patches": (list, lambda v: len(v) > 0, "nonempty"),
    "delta": (float, lambda v: v >= 0, ">= 0"),
    "baseline_terms": (int, lambda v: v >= 0, ">= 0"),
    "baseline_amplitude": (float, None, ""),
    "noise_sigma": (float, lambda v: v >= 0, ">= 0"),
    "counts": (dict, None, ""),
    "positive_fraction": (float, lambda v: 0 <= v <= 1, "in [0, 1]"),
    "seed": (int, lambda v: v >= 0, ">= 0"),
}


@dataclass
class SynthSpec:
    """A synthetic dataset's settings, checked against FIELDS however the
    spec is made; a float setting keeps an integer as given."""
    mesh_order: int = 4
    patch_order: int = 1
    hemispheres: int = 1
    channels: int = 3
    lesion_patches: list = field(default_factory=lambda: [3, 11, 19, 27, 35,
                                                          43, 51, 59])
    delta: float = 3.0          # effect size in noise-sigma units, channel 0
    baseline_terms: int = 6
    baseline_amplitude: float = 1.0
    noise_sigma: float = 1.0
    counts: dict = field(default_factory=lambda: {"train": 200, "val": 50,
                                                  "test": 50})
    positive_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for key, f in FIELDS.items():
            setattr(self, key, checked("", key, getattr(self, key), f))
        self.lesion_patches = [
            checked("", f"lesion_patches[{i}]", v, (int, None, ""))
            for i, v in enumerate(self.lesion_patches)]
        if self.counts.keys() != set(surf.SPLITS):
            raise InputError(
                f"key 'counts' needs one integer for each of "
                f"{', '.join(surf.SPLITS)}, got {self.counts!r}")
        self.counts = {k: checked("", f"counts.{k}", v,
                                  (int, lambda n: n >= 1, ">= 1"))
                       for k, v in self.counts.items()}
        n_total = surf.face_count(self.patch_order) * self.hemispheres
        if any(not 0 <= i < n_total for i in self.lesion_patches):
            raise InputError(f"key 'lesion_patches' holds a patch "
                             f"index out of range [0, {n_total})")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SynthSpec":
        """The spec a JSON object gives; an InputError names the first key
        that is unknown or does not pass FIELDS."""
        try:
            d = json.loads(text)
        except ValueError as e:
            raise InputError(f"not valid JSON ({e})") from e
        if not isinstance(d, dict):
            raise InputError("a spec must be a JSON object")
        for key in d:
            if key not in FIELDS:
                raise InputError(f"unknown key '{key}'")
        return cls(**d)


def lesion_ground_truth(spec: SynthSpec) -> np.ndarray:
    n_total = surf.face_count(spec.patch_order) * spec.hemispheres
    mask = np.zeros(n_total, dtype=np.int64)
    mask[np.asarray(spec.lesion_patches, dtype=np.int64)] = 1
    return mask


def _baseline_fields(spec: SynthSpec, vertices: np.ndarray) -> np.ndarray:
    """One smooth field per channel, fixed by the run seed: sums of
    low-frequency cosines of directional coordinates."""
    rng = np.random.default_rng([spec.seed, 0])
    fields = np.zeros((vertices.shape[0], spec.channels), dtype=np.float64)
    for c in range(spec.channels):
        for _ in range(spec.baseline_terms):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            freq = rng.uniform(1.0, 3.0)
            phase = rng.uniform(0.0, 2 * np.pi)
            amp = spec.baseline_amplitude / np.sqrt(spec.baseline_terms)
            fields[:, c] += amp * np.cos(freq * vertices @ direction + phase)
    return fields.astype(np.float32)


def lesion_vertices(spec: SynthSpec,
                    partition: surf.PatchPartition) -> np.ndarray:
    """Sorted vertex indices (per full V_total indexing) covered by the
    lesion, read off the partition's one patch-to-vertex map."""
    ids = surf.vertex_ids(partition, spec.hemispheres)
    return np.unique(ids[spec.lesion_patches])


def generate(spec: SynthSpec, out_dir: str) -> str:
    """Write manifest + per-subject raw feature files; returns the manifest
    path. Byte-deterministic given the spec. Every subject is made first,
    and nothing is written if `load_dataset` would refuse the data: a
    non-finite value, as a spec that overflows float32 makes, or a manifest
    that fails its check, as a constant channel does."""
    partition = surf.build_partition(spec.mesh_order, spec.patch_order)
    mesh = partition.mesh
    v_total = mesh.n_vertices * spec.hemispheres
    lesion_idx = lesion_vertices(spec, partition)
    channels = [f"ch{c}" for c in range(spec.channels)]
    channels[0] = "thickness"

    subjects = []
    for split in surf.SPLITS:
        n_pos = int(round(spec.counts[split] * spec.positive_fraction))
        for k in range(spec.counts[split]):
            sid = f"s{len(subjects):04d}"
            subjects.append({"id": sid, "label": 1 if k < n_pos else 0,
                             "split": split, "path": f"{sid}.f32"})

    def features(i: int) -> np.ndarray:
        rng = np.random.default_rng([spec.seed, 1, i])
        feats = baseline + rng.normal(
            0.0, spec.noise_sigma,
            size=(v_total, spec.channels)).astype(np.float32)
        if subjects[i]["label"] == 1:
            feats[lesion_idx, 0] -= spec.delta * spec.noise_sigma
        return feats.astype(np.float32)

    # an overflow is found by the checks below, not reported by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        baseline = np.tile(_baseline_fields(spec, mesh.vertices),
                           (spec.hemispheres, 1))
        made = [features(i) for i in range(len(subjects))]
        train = [surf.SurfaceSample(s["id"], s["label"], feats)
                 for s, feats in zip(subjects, made) if s["split"] == "train"]
        stats = surf.compute_stats(train, channels)
    for s, feats in zip(subjects, made):
        if not np.isfinite(feats).all():
            raise InputError(f"the data it makes: subject {s['id']}: "
                             f"non-finite feature values")
    manifest = surf.DatasetManifest(
        mesh_order=spec.mesh_order, patch_order=spec.patch_order,
        hemispheres=spec.hemispheres, channels=channels, stats=stats,
        subjects=subjects)
    surf.check_dataset_fields(manifest.to_dict(), "the data it makes: ")
    os.makedirs(out_dir, exist_ok=True)
    for s, feats in zip(subjects, made):
        surf.save_sample(os.path.join(out_dir, s["path"]), feats)
    manifest_path = os.path.join(out_dir, "manifest.json")
    atomic_write(manifest_path, json.dumps(manifest.to_dict(), sort_keys=True,
                                           indent=2).encode())
    atomic_write(os.path.join(out_dir, "synth_spec.json"),
                 spec.to_json().encode())
    return manifest_path
