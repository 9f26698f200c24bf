"""Icosphere geometry, triangular patch partitioning, and surface dataset I/O.

The mesh construction is fully deterministic: a fixed golden-ratio
icosahedron, midpoint subdivision with undirected edges processed in sorted
(min, max) order, new vertices appended after existing ones, everything
projected back to the unit sphere. Two builds at the same order produce
byte-identical vertex buffers.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

_PHI = (1.0 + math.sqrt(5.0)) / 2.0

_BASE_VERTICES = np.array([
    [-1.0, _PHI, 0.0], [1.0, _PHI, 0.0], [-1.0, -_PHI, 0.0], [1.0, -_PHI, 0.0],
    [0.0, -1.0, _PHI], [0.0, 1.0, _PHI], [0.0, -1.0, -_PHI], [0.0, 1.0, -_PHI],
    [_PHI, 0.0, -1.0], [_PHI, 0.0, 1.0], [-_PHI, 0.0, -1.0], [-_PHI, 0.0, 1.0],
], dtype=np.float64)

_BASE_FACES = np.array([
    [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
    [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
    [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
    [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
], dtype=np.int64)


class SurfaceError(ValueError):
    pass


@dataclass(frozen=True)
class IcosphereMesh:
    order: int
    vertices: np.ndarray  # V x 3, unit norm, float64
    faces: np.ndarray     # T x 3, CCW from outside

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]


def vertex_count(order: int) -> int:
    return 10 * 4 ** order + 2

def face_count(order: int) -> int:
    return 20 * 4 ** order


def build_icosphere(order: int) -> IcosphereMesh:
    if order < 0:
        raise SurfaceError("icosphere order must be >= 0")
    verts = _BASE_VERTICES / np.linalg.norm(_BASE_VERTICES, axis=1,
                                            keepdims=True)
    faces = _BASE_FACES.copy()
    for _ in range(order):
        verts, faces = _subdivide(verts, faces)
    assert verts.shape[0] == vertex_count(order)
    assert faces.shape[0] == face_count(order)
    return IcosphereMesh(order=order, vertices=verts, faces=faces)


def _subdivide(verts: np.ndarray, faces: np.ndarray):
    edges = set()
    for a, b, c in faces:
        edges.add((min(a, b), max(a, b)))
        edges.add((min(b, c), max(b, c)))
        edges.add((min(c, a), max(c, a)))
    midpoint_index = {}
    new_verts = [verts]
    next_idx = verts.shape[0]
    for e in sorted(edges):
        m = verts[e[0]] + verts[e[1]]
        m = m / np.linalg.norm(m)
        new_verts.append(m[None, :])
        midpoint_index[e] = next_idx
        next_idx += 1
    verts = np.vstack(new_verts)

    def mid(a, b):
        return midpoint_index[(min(a, b), max(a, b))]

    new_faces = []
    for a, b, c in faces:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        new_faces += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
    return verts, np.array(new_faces, dtype=np.int64)


@dataclass(frozen=True)
class PatchPartition:
    mesh_order: int   # d
    patch_order: int  # p
    patch_vertex_indices: np.ndarray  # N x M int64

    @property
    def n_patches(self) -> int:
        return self.patch_vertex_indices.shape[0]

    @property
    def patch_size(self) -> int:
        return self.patch_vertex_indices.shape[1]


def patch_size(mesh_order: int, patch_order: int) -> int:
    k = 2 ** (mesh_order - patch_order)
    return (k + 1) * (k + 2) // 2


def build_partition(mesh_order: int, patch_order: int) -> PatchPartition:
    """Assign each order-d vertex to the order-p face(s) whose spherical
    triangle contains it; boundary vertices land in every adjacent patch so
    all patches share one fixed size M."""
    if patch_order > mesh_order:
        raise SurfaceError("patch order must not exceed mesh order")
    if patch_order < 0:
        raise SurfaceError("patch order must be >= 0")
    fine = build_icosphere(mesh_order)
    coarse = build_icosphere(patch_order)
    m = patch_size(mesh_order, patch_order)
    tol = 1e-9
    patches = np.empty((coarse.n_faces, m), dtype=np.int64)
    pts = fine.vertices
    for fi, (a, b, c) in enumerate(coarse.faces):
        va, vb, vc = coarse.vertices[a], coarse.vertices[b], coarse.vertices[c]
        # central projection onto the face plane, then barycentric test
        basis = np.stack([va, vb, vc], axis=1)  # 3x3, columns are corners
        bary = np.linalg.solve(basis, pts.T).T
        # scale-invariant: a point is inside the spherical triangle iff its
        # ray hits the planar triangle iff all solved coords are >= 0
        scale = bary.sum(axis=1, keepdims=True)
        inside = (scale[:, 0] > 0) & np.all(bary >= -tol * scale, axis=1)
        idx = np.nonzero(inside)[0]
        if idx.size != m:
            raise SurfaceError(
                f"patch {fi}: expected {m} vertices, found {idx.size}")
        patches[fi] = idx
    covered = np.zeros(fine.n_vertices, dtype=bool)
    covered[patches.reshape(-1)] = True
    if not covered.all():
        raise SurfaceError("partition does not cover all vertices")
    return PatchPartition(mesh_order=mesh_order, patch_order=patch_order,
                          patch_vertex_indices=patches)


@dataclass
class SurfaceSample:
    subject_id: str
    label: int  # 0 control, 1 target class
    features: np.ndarray  # V_total x F float32


@dataclass
class DatasetManifest:
    mesh_order: int
    patch_order: int
    hemispheres: int
    channels: list
    stats: dict          # channel name -> {"mean": .., "std": ..}
    subjects: list       # dicts: id, label, split, path

    @property
    def vertices_total(self) -> int:
        return vertex_count(self.mesh_order) * self.hemispheres

    def to_dict(self) -> dict:
        return {
            "mesh_order": self.mesh_order, "patch_order": self.patch_order,
            "hemispheres": self.hemispheres, "channels": self.channels,
            "stats": self.stats, "subjects": self.subjects,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetManifest":
        return cls(mesh_order=d["mesh_order"], patch_order=d["patch_order"],
                   hemispheres=d["hemispheres"], channels=d["channels"],
                   stats=d["stats"], subjects=d["subjects"])


def patchify(sample: SurfaceSample, partition: PatchPartition,
             hemispheres: int) -> np.ndarray:
    """Gather per-vertex features into the [H*N, M, F] patch sequence,
    hemisphere-major."""
    v = vertex_count(partition.mesh_order)
    if sample.features.shape[0] != v * hemispheres:
        raise SurfaceError(
            f"sample {sample.subject_id}: {sample.features.shape[0]} vertices, "
            f"expected {v * hemispheres}")
    out = []
    for h in range(hemispheres):
        hemi = sample.features[h * v:(h + 1) * v]
        out.append(hemi[partition.patch_vertex_indices])
    return np.concatenate(out, axis=0)


def save_sample(path: str, features: np.ndarray) -> None:
    raw = np.ascontiguousarray(features, dtype="<f4").tobytes()
    _atomic_write(path, raw)


def load_sample(path: str, v_total: int, n_channels: int) -> np.ndarray:
    expect = v_total * n_channels * 4
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) != expect:
        raise SurfaceError(
            f"{path}: {len(raw)} bytes, expected {expect}")
    feats = np.frombuffer(raw, dtype="<f4").reshape(v_total, n_channels)
    if not np.all(np.isfinite(feats)):
        raise SurfaceError(f"{path}: non-finite feature values")
    return feats.astype(np.float32)


def load_dataset(manifest_path: str):
    """Load manifest + all samples, grouped by split. Features are returned
    raw (un-normalized); apply normalize() with the manifest stats."""
    with open(manifest_path) as f:
        manifest = DatasetManifest.from_dict(json.load(f))
    base = os.path.dirname(os.path.abspath(manifest_path))
    splits = {"train": [], "val": [], "test": []}
    for entry in manifest.subjects:
        if entry["split"] not in splits:
            raise SurfaceError(f"unknown split '{entry['split']}'")
        feats = load_sample(os.path.join(base, entry["path"]),
                            manifest.vertices_total, len(manifest.channels))
        splits[entry["split"]].append(SurfaceSample(
            subject_id=entry["id"], label=int(entry["label"]), features=feats))
    return manifest, splits


def normalize(sample: SurfaceSample, stats: dict,
              channels: list) -> SurfaceSample:
    """Per-channel z-normalization with (training-split) statistics."""
    feats = sample.features.astype(np.float32).copy()
    for ci, name in enumerate(channels):
        s = stats[name]
        feats[:, ci] = (feats[:, ci] - s["mean"]) / s["std"]
    return SurfaceSample(subject_id=sample.subject_id, label=sample.label,
                         features=feats)


def compute_stats(samples, channels: list) -> dict:
    stacked = np.stack([s.features for s in samples])  # S x V x F
    return {
        name: {"mean": float(stacked[:, :, ci].mean()),
               "std": float(stacked[:, :, ci].std())}
        for ci, name in enumerate(channels)
    }


# -- PLY export --------------------------------------------------------------

def write_ply(path: str, mesh: IcosphereMesh,
              scalar: np.ndarray | None = None,
              scalar_name: str = "value") -> None:
    """ASCII PLY with optional per-vertex scalar; NaN marks masked vertices."""
    lines = ["ply", "format ascii 1.0",
             f"element vertex {mesh.n_vertices}",
             "property float x", "property float y", "property float z"]
    if scalar is not None:
        if scalar.shape[0] != mesh.n_vertices:
            raise SurfaceError("scalar length must match vertex count")
        lines.append(f"property float {scalar_name}")
    lines += [f"element face {mesh.n_faces}",
              "property list uchar int vertex_indices", "end_header"]
    for i, v in enumerate(mesh.vertices):
        row = f"{v[0]:.8f} {v[1]:.8f} {v[2]:.8f}"
        if scalar is not None:
            row += f" {float(scalar[i]):.8f}" if np.isfinite(scalar[i]) \
                else " nan"
        lines.append(row)
    for f in mesh.faces:
        lines.append(f"3 {f[0]} {f[1]} {f[2]}")
    _atomic_write(path, ("\n".join(lines) + "\n").encode())


def _atomic_write(path: str, data: bytes) -> None:
    dirname = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=dirname, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
