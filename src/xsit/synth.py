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
from .config import TYPE_NAMES, has_type


@dataclass
class SynthSpec:
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
    misaligned_lesion: bool = False
    seed: int = 0

    def __post_init__(self):
        n_total = surf.face_count(self.patch_order) * self.hemispheres
        if self.channels < 1:
            raise ValueError("key 'channels' must be >= 1")
        if self.noise_sigma < 0:
            raise ValueError("key 'noise_sigma' must be >= 0")
        if not 0 <= self.positive_fraction <= 1:
            raise ValueError("key 'positive_fraction' must be in [0, 1]")
        if not self.lesion_patches:
            raise ValueError("lesion patch set must be nonempty")
        if any(i < 0 or i >= n_total for i in self.lesion_patches):
            raise ValueError("lesion patch index out of range")
        if self.delta < 0 or any(c < 1 for c in self.counts.values()):
            raise ValueError("delta must be >= 0 and counts positive")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SynthSpec":
        """The spec a JSON object gives. Each key must have its default's
        type by the config's rule (a float key also takes an integer):
        lesion_patches a list of integers, counts one integer for each of
        train, val and test. A ValueError names the first key that does
        not."""
        try:
            d = json.loads(text)
        except ValueError as e:
            raise ValueError(f"not valid JSON ({e})") from e
        if not isinstance(d, dict):
            raise ValueError("a spec must be a JSON object")
        defaults = asdict(cls())
        spec = {}
        for key, val in d.items():
            if key not in defaults:
                raise ValueError(f"unknown key '{key}'")
            want = defaults[key]
            if isinstance(want, list):
                if not isinstance(val, list):
                    raise ValueError(f"key '{key}' needs a list, got {val!r}")
                val = [_typed(f"{key}[{i}]", int, v)
                       for i, v in enumerate(val)]
            elif isinstance(want, dict):
                if not isinstance(val, dict) or val.keys() != want.keys():
                    raise ValueError(f"key '{key}' needs one integer for "
                                     f"each of {', '.join(want)}, got "
                                     f"{val!r}")
                val = {k: _typed(f"{key}.{k}", int, v)
                       for k, v in val.items()}
            else:
                val = _typed(key, type(want), val)
            spec[key] = val
        return cls(**spec)


def _typed(name: str, kind: type, val):
    """`val` if it has type `kind` by the config's rule, an integral float
    made an int; else a ValueError naming the key."""
    if not has_type(kind, val):
        raise ValueError(f"key '{name}' needs {TYPE_NAMES[kind]}, got "
                         f"{val!r}")
    return int(val) if kind is int else val


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
    """Vertex indices (per full V_total indexing) covered by the lesion."""
    v = surf.vertex_count(spec.mesh_order)
    idx = set()
    n = partition.n_patches
    for patch in spec.lesion_patches:
        hemi, local = divmod(patch, n)
        verts = partition.patch_vertex_indices[local]
        if spec.misaligned_lesion:
            verts = _shifted_patch(partition, local)
        idx.update(int(i) + hemi * v for i in verts)
    return np.array(sorted(idx), dtype=np.int64)


def _shifted_patch(partition: surf.PatchPartition, patch: int) -> np.ndarray:
    """Vertices within the patch's angular radius of a half-patch-offset
    centroid; exercises robustness to lesion/patch misalignment."""
    mesh = partition.mesh
    own = partition.patch_vertex_indices[patch]
    centroid = mesh.vertices[own].mean(axis=0)
    centroid /= np.linalg.norm(centroid)
    radius = np.arccos(np.clip(mesh.vertices[own] @ centroid, -1, 1)).max()
    # offset direction: toward the first vertex of the patch
    target = mesh.vertices[own[0]]
    offset = centroid + 0.5 * (target - centroid)
    offset /= np.linalg.norm(offset)
    ang = np.arccos(np.clip(mesh.vertices @ offset, -1, 1))
    return np.nonzero(ang <= radius)[0]


def generate(spec: SynthSpec, out_dir: str) -> str:
    """Write manifest + per-subject raw feature files; returns the manifest
    path. Byte-deterministic given the spec."""
    os.makedirs(out_dir, exist_ok=True)
    partition = surf.build_partition(spec.mesh_order, spec.patch_order)
    mesh = partition.mesh
    v_total = mesh.n_vertices * spec.hemispheres
    baseline = np.tile(_baseline_fields(spec, mesh.vertices),
                       (spec.hemispheres, 1))
    lesion_idx = lesion_vertices(spec, partition)
    channels = [f"ch{c}" for c in range(spec.channels)]
    channels[0] = "thickness"

    subjects = []
    train_feats = []
    subject_index = 0
    for split in ("train", "val", "test"):
        n = spec.counts[split]
        n_pos = int(round(n * spec.positive_fraction))
        for k in range(n):
            label = 1 if k < n_pos else 0
            sid = f"s{subject_index:04d}"
            rng = np.random.default_rng([spec.seed, 1, subject_index])
            feats = baseline + rng.normal(
                0.0, spec.noise_sigma,
                size=(v_total, spec.channels)).astype(np.float32)
            if label == 1:
                feats[lesion_idx, 0] -= spec.delta * spec.noise_sigma
            feats = feats.astype(np.float32)
            path = f"{sid}.f32"
            surf.save_sample(os.path.join(out_dir, path), feats)
            subjects.append({"id": sid, "label": label, "split": split,
                             "path": path})
            if split == "train":
                train_feats.append(surf.SurfaceSample(sid, label, feats))
            subject_index += 1

    stats = surf.compute_stats(train_feats, channels)
    manifest = surf.DatasetManifest(
        mesh_order=spec.mesh_order, patch_order=spec.patch_order,
        hemispheres=spec.hemispheres, channels=channels, stats=stats,
        subjects=subjects)
    manifest_path = os.path.join(out_dir, "manifest.json")
    surf._atomic_write(manifest_path,
                       json.dumps(manifest.to_dict(), sort_keys=True,
                                  indent=2).encode())
    surf._atomic_write(os.path.join(out_dir, "synth_spec.json"),
                       spec.to_json().encode())
    return manifest_path
