"""Icosphere geometry, triangular patch partitioning, and surface dataset I/O.

The mesh construction is fully deterministic: a fixed golden-ratio
icosahedron, midpoint subdivision with undirected edges processed in sorted
(min, max) order, new vertices appended after existing ones, everything
projected back to the unit sphere. Two builds at the same order produce
byte-identical vertex buffers.

Subdivision keeps every face's descendants together: the order-d faces
descended from order-p face f are rows [f*4^(d-p), (f+1)*4^(d-p)). Patch f
of the order-(d, p) partition is the set of vertices of that block, so the
partition is read off the order-d mesh, and `patchify`/`unpatchify` are
the one map between per-vertex and per-patch values.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields
from functools import cached_property

import numpy as np

from .files import InputError, atomic_write, check_fields

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


@dataclass(frozen=True)
class IcosphereMesh:
    vertices: np.ndarray  # V x 3, unit norm, float64
    faces: np.ndarray     # T x 3, CCW from outside

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]

    # The PLY text of the geometry, formatted on first use and kept for the
    # mesh's lifetime, so each map written on it formats only its scalar:
    # the vertex rows, x y z as `%.8f` and a `%.8f` hole for the scalar,
    # and the face block.
    @cached_property
    def _ply_rows(self) -> str:
        return ("%.8f %.8f %.8f %%.8f\n" * self.n_vertices) % tuple(
            self.vertices.ravel().tolist())

    @cached_property
    def _ply_faces(self) -> str:
        return ("3 %d %d %d\n" * self.n_faces) % tuple(
            self.faces.ravel().tolist())


# The one rule for a mesh or patch order, wherever one is read. An order-30
# icosphere has 10·4^30 + 2 ≈ 1.15e19 vertices, more than an int64 index can
# count, so no larger order names a mesh or a file the program could hold,
# and every power of an order up to 29 is a small integer.
ORDER = (int, lambda v: 0 <= v <= 29, "an integer in [0, 29]")


def vertex_count(order: int) -> int:
    return 10 * 4 ** order + 2

def face_count(order: int) -> int:
    return 20 * 4 ** order


def build_icosphere(order: int) -> IcosphereMesh:
    if not ORDER[1](order):
        raise InputError(f"icosphere order must be {ORDER[2]}, got {order}")
    verts = _BASE_VERTICES / np.linalg.norm(_BASE_VERTICES, axis=1,
                                            keepdims=True)
    faces = _BASE_FACES.copy()
    for _ in range(order):
        verts, faces = _subdivide(verts, faces)
    assert verts.shape[0] == vertex_count(order)
    assert faces.shape[0] == face_count(order)
    return IcosphereMesh(vertices=verts, faces=faces)


def _subdivide(verts: np.ndarray, faces: np.ndarray):
    """One midpoint subdivision. Old vertices keep their indices and the 4
    children of face f are rows 4f..4f+3; `build_partition` relies on
    both. Midpoints are appended in sorted (min, max) edge order, and each
    is normalised by the dot-product norm: elementwise forms such as
    `np.linalg.norm(axis=1)` round some midpoints one ulp differently.

    Edge (a, b), a < b < V, is keyed by the one integer a*V + b. Since
    b < V, the keys sort exactly as the (a, b) rows sort lexicographically,
    so a 1-D unique over the keys finds the same edges in the same order
    as a row-wise unique, without its structured-array sort."""
    n = verts.shape[0]
    edges = np.sort(faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    keys, inverse = np.unique(edges[:, 0] * n + edges[:, 1],
                              return_inverse=True)
    m = verts[keys // n] + verts[keys % n]
    m = m / np.sqrt(np.matmul(m[:, None, :], m[:, :, None]))[:, 0]
    a, b, c = faces.T
    ab, bc, ca = (inverse.reshape(-1, 3) + n).T
    new_faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1)
    return np.vstack([verts, m]), new_faces.reshape(-1, 3)


@dataclass(frozen=True)
class PatchPartition:
    mesh_order: int   # d
    patch_order: int  # p
    patch_vertex_indices: np.ndarray  # N x M int64
    # the order-d mesh it was read off; None if made from indices alone
    mesh: IcosphereMesh | None = None

    @property
    def n_patches(self) -> int:
        return self.patch_vertex_indices.shape[0]

    @property
    def patch_size(self) -> int:
        return self.patch_vertex_indices.shape[1]


def patch_size(mesh_order: int, patch_order: int) -> int:
    """M, the vertices of one patch, by arithmetic alone."""
    if patch_order > mesh_order:
        raise InputError("patch order must not exceed mesh order")
    k = 2 ** (mesh_order - patch_order)
    return (k + 1) * (k + 2) // 2


def build_partition(mesh_order: int, patch_order: int) -> PatchPartition:
    """Patch f is the sorted distinct vertices of the order-d faces that
    descend from order-p face f, a block of 4^(d-p) consecutive faces.
    Vertices on a block's boundary land in every adjacent patch, so all
    patches share one fixed size M."""
    for name, order in (("mesh", mesh_order), ("patch", patch_order)):
        if not ORDER[1](order):
            raise InputError(f"{name} order must be {ORDER[2]}, got {order}")
    m = patch_size(mesh_order, patch_order)
    mesh = build_icosphere(mesh_order)
    blocks = np.sort(mesh.faces.reshape(face_count(patch_order), -1), axis=1)
    first = np.ones(blocks.shape, dtype=bool)
    first[:, 1:] = blocks[:, 1:] != blocks[:, :-1]
    sizes = first.sum(axis=1)
    if (sizes != m).any():
        fi = int(np.argmax(sizes != m))
        raise InputError(
            f"patch {fi}: expected {m} vertices, found {sizes[fi]}")
    patches = blocks[first].reshape(-1, m)
    covered = np.zeros(mesh.n_vertices, dtype=bool)
    covered[patches.reshape(-1)] = True
    if not covered.all():
        raise InputError("partition does not cover all vertices")
    return PatchPartition(mesh_order=mesh_order, patch_order=patch_order,
                          patch_vertex_indices=patches, mesh=mesh)


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
        return asdict(self)


def vertex_ids(partition: PatchPartition, hemispheres: int) -> np.ndarray:
    """[H*N, M] indices into the hemisphere-major vertex axis."""
    v = vertex_count(partition.mesh_order)
    offsets = np.arange(hemispheres, dtype=np.int64)[:, None, None] * v
    return (partition.patch_vertex_indices[None] + offsets).reshape(
        -1, partition.patch_size)


def patchify(sample: SurfaceSample, partition: PatchPartition,
             hemispheres: int) -> np.ndarray:
    """Gather per-vertex features into the [H*N, M, F] patch sequence,
    hemisphere-major."""
    v = vertex_count(partition.mesh_order)
    if sample.features.shape[0] != v * hemispheres:
        raise InputError(
            f"sample {sample.subject_id}: {sample.features.shape[0]} vertices, "
            f"expected {v * hemispheres}")
    return sample.features[vertex_ids(partition, hemispheres)]


def unpatchify(values: np.ndarray, partition: PatchPartition,
               hemispheres: int) -> np.ndarray:
    """The inverse of `patchify`: [H*N, M] patch values to the [H*V] mean
    over the patches that claim each vertex. Rows with a non-finite value
    are masked; a vertex that no unmasked patch claims is NaN."""
    keep = np.isfinite(values).all(axis=1)
    ids = vertex_ids(partition, hemispheres)[keep].reshape(-1)
    n = vertex_count(partition.mesh_order) * hemispheres
    # bincount adds the weights in float64 in input order, as a sequential
    # np.add.at into float64 zeros does, so the sums are the same bits
    total = np.bincount(ids, weights=values[keep].reshape(-1), minlength=n)
    counts = np.bincount(ids, minlength=n)
    with np.errstate(invalid="ignore"):
        return np.where(counts > 0, total / np.maximum(counts, 1), np.nan)


def save_sample(path: str, features: np.ndarray) -> None:
    raw = np.ascontiguousarray(features, dtype="<f4").tobytes()
    atomic_write(path, raw)


def load_sample(path: str, v_total: int, n_channels: int) -> np.ndarray:
    """The [v_total, n_channels] float32 features at `path`. A file of
    another size is refused by its size, unread."""
    expect = v_total * n_channels * 4
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size != expect:
            raise InputError(f"{path}: {size} bytes, expected {expect}")
        feats = np.fromfile(f, dtype="<f4").reshape(v_total, n_channels)
    if not np.all(np.isfinite(feats)):
        raise InputError(f"{path}: non-finite feature values")
    return feats.astype(np.float32, copy=False)


# -- the dataset -------------------------------------------------------------
SPLITS = ("train", "val", "test")  # the splits a subject can be in

# What a manifest and a checkpoint's meta both record about the data, the
# statistics of one channel, and one manifest subject entry, as field tables
# of `files.check_fields`.
DATASET_KEYS = {
    "mesh_order": ORDER,
    "patch_order": ORDER,
    "hemispheres": (int, lambda v: v >= 1, "an integer >= 1"),
    "channels": (list, lambda v: v and all(isinstance(c, str) for c in v),
                 "a nonempty list of names"),
    "stats": (dict, None, "an object"),
}
_STATS = {"mean": (float, None, "a number"),
          "std": (float, lambda v: v > 0, "a number > 0")}
# an id is a CSV field of the explain output and part of its file names,
# which the OS refuses with a '/' or a NUL
_SUBJECT = {
    "id": (str, lambda v: v and not set(v) & set("/,\n\r\0"),
           "a nonempty string without '/', ',', line break or NUL"),
    "label": (int, lambda v: v in (0, 1), "0 or 1"),
    "split": (str, lambda v: v in SPLITS, f"one of {', '.join(SPLITS)}"),
    "path": (str, None, "a string"),
}


def check_dataset_fields(d, where: str = "") -> None:
    """InputError naming the first of the mesh and patch orders,
    hemispheres, channel names and per-channel {mean, std > 0} stats that
    `d` lacks or holds out of range, or a patch order above the mesh
    order."""
    check_fields(where, d, DATASET_KEYS)
    try:
        patch_size(d["mesh_order"], d["patch_order"])
    except InputError as e:
        raise InputError(f"{where}{e}") from e
    stats = d["stats"]
    if sorted(stats) != sorted(d["channels"]) or not all(
            isinstance(s, dict) and sorted(s) == ["mean", "std"]
            and all(type(x) in (int, float) for x in s.values())
            for s in stats.values()):
        raise InputError(f"{where}key 'stats' must hold one {{mean, std}} "
                         f"pair of numbers per channel")
    for name, s in stats.items():
        check_fields(f"{where}stats.{name}: ", s, _STATS)


def load_dataset(manifest_path: str, wanted=None):
    """Manifest + raw samples, by split. They are normalised with a model's
    statistics (`train.normalized`), not the manifest's, where used. Every
    entry of the manifest is checked; only the subjects whose checked entry
    `wanted(entry)` accepts (all, without `wanted`) are read."""
    try:
        with open(manifest_path) as f:
            d = json.load(f)
    except json.JSONDecodeError as e:
        raise InputError(f"{manifest_path}: not valid JSON ({e})") from e
    where = f"{manifest_path}: "
    check_dataset_fields(d, where)
    subjects = check_fields(where, d, {"subjects": (list, None, "a list")})
    ids = set()
    for i, entry in enumerate(subjects["subjects"]):
        sid = check_fields(f"{where}subject {i}: ", entry, _SUBJECT)["id"]
        if sid in ids:
            raise InputError(f"{where}subject {i}: key 'id' must be "
                             f"unique, got {sid!r} again")
        ids.add(sid)
    manifest = DatasetManifest(**{f.name: d[f.name]
                                  for f in fields(DatasetManifest)})
    base = os.path.dirname(os.path.abspath(manifest_path))
    splits = {s: [] for s in SPLITS}
    # filter(None, ...) keeps every entry, each a nonempty object
    for entry in filter(wanted, manifest.subjects):
        feats = load_sample(os.path.join(base, entry["path"]),
                            manifest.vertices_total, len(manifest.channels))
        splits[entry["split"]].append(SurfaceSample(
            subject_id=entry["id"], label=entry["label"], features=feats))
    return manifest, splits


def normalize(sample: SurfaceSample, stats: dict,
              channels: list) -> SurfaceSample:
    """Per-channel z-normalization with (training-split) statistics."""
    feats = sample.features.astype(np.float32)
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
    """ASCII PLY with optional per-vertex scalar; NaN marks masked vertices.
    The vertex rows and faces are the mesh's own text, formatted once; a
    scalar fills the rows' holes by one `%`, and without one the holes are
    cut out. A non-finite scalar is written as NaN, which `%.8f` prints as
    `nan`."""
    lines = ["ply", "format ascii 1.0",
             f"element vertex {mesh.n_vertices}",
             "property float x", "property float y", "property float z"]
    if scalar is None:
        vertex_block = mesh._ply_rows.replace(" %.8f\n", "\n")
    else:
        column = np.asarray(scalar, dtype=np.float64)
        if column.shape != (mesh.n_vertices,):
            raise InputError(f"scalar must have shape ({mesh.n_vertices},)"
                             f", one value per vertex, got {column.shape}")
        lines.append(f"property float {scalar_name}")
        vertex_block = mesh._ply_rows % tuple(
            np.where(np.isfinite(column), column, np.nan).tolist())
    lines += [f"element face {mesh.n_faces}",
              "property list uchar int vertex_indices", "end_header"]
    text = "\n".join(lines) + "\n" + vertex_block + mesh._ply_faces
    atomic_write(path, text.encode())

