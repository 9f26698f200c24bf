"""Correctness checks on the program's outputs.

Each check compares what the CLI wrote against an independent computation
(the float64 reference in reference.py, the raw subject files, the planted
labels of the synthetic spec) or against a property the method must have.
None compares against a stored copy of earlier output. A failed check
raises CheckError.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

# float32 program against float64 reference. Per-patch activations,
# weights and probabilities lie in [0, 1]; the largest difference measured
# on the three workloads was 4.3e-8.
ACT_TOL = 1e-6
# Prototype embeddings are LayerNorm outputs of order 1; largest measured
# difference 9.1e-7.
EMB_TOL = 1e-5
# PLY scalars are printed with 8 decimals, so they are within 5e-9.
TEXT_TOL = 1e-8


class CheckError(AssertionError):
    pass


def expect(cond, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def planted_labels(spec: dict) -> dict:
    """Subject id -> label by the generator's rule: subjects are numbered
    across the train, val and test splits in order, and the first
    round(n * positive_fraction) of each split are positive."""
    labels, idx = {}, 0
    for split in ("train", "val", "test"):
        n = spec["counts"][split]
        n_pos = int(round(n * spec["positive_fraction"]))
        for k in range(n):
            labels[f"s{idx:04d}"] = int(k < n_pos)
            idx += 1
    return labels


def read_csv(path: str):
    """(values, weights, provenance subjects) of a patch CSV."""
    with open(path) as f:
        lines = f.read().splitlines()
    expect(lines[0] == "patch_index,value,weight,provenance_subject",
           f"{path}: bad header")
    rows = [line.split(",") for line in lines[1:]]
    expect([int(r[0]) for r in rows] == list(range(len(rows))),
           f"{path}: patch indices not 0..N-1")
    return (np.array([float(r[1]) for r in rows]),
            np.array([float(r[2]) for r in rows]), [r[3] for r in rows])


def read_ply(path: str):
    """(vertices [V,3], scalar [V] or None, faces [T,3]) of an ASCII PLY."""
    with open(path) as f:
        lines = f.read().splitlines()
    expect(lines[:2] == ["ply", "format ascii 1.0"], f"{path}: bad magic")
    end = lines.index("end_header")
    header = lines[:end]
    nv = int(header[2].split()[-1])
    props = [h for h in header if h.startswith("property float")]
    nf = int(next(h for h in header if h.startswith("element face"))
             .split()[-1])
    # numpy's text parser refuses rows of unequal length
    vert = np.loadtxt(lines[end + 1:end + 1 + nv], dtype=np.float64,
                      ndmin=2)
    faces = np.loadtxt(lines[end + 1 + nv:], dtype=np.int64, ndmin=2)
    expect(vert.shape == (nv, len(props)), f"{path}: vertex rows")
    expect(faces.shape == (nf, 4) and np.all(faces[:, 0] == 3),
           f"{path}: face rows")
    scalar = vert[:, 3] if len(props) == 4 else None
    return vert[:, :3], scalar, faces[:, 1:]


def partition_invariants(pvi: np.ndarray, mesh_order: int,
                         patch_order: int) -> None:
    """Each order-p face is a patch of (k+1)(k+2)/2 vertices, k =
    2^(d-p); together they cover every vertex; the order-p corners (an
    index prefix of the fine mesh) lie in 5 or 6 patches, edge vertices in
    2 and interior ones in 1."""
    k = 2 ** (mesh_order - patch_order)
    n_vertices = 10 * 4 ** mesh_order + 2
    expect(pvi.shape == (20 * 4 ** patch_order, (k + 1) * (k + 2) // 2),
           f"partition shape {pvi.shape}")
    expect(all(len(set(row.tolist())) == pvi.shape[1] for row in pvi),
           "a patch repeats a vertex")
    claims = np.bincount(pvi.reshape(-1), minlength=n_vertices)
    expect(claims.shape[0] == n_vertices and claims.min() >= 1,
           "partition does not cover every vertex")
    corners = 10 * 4 ** patch_order + 2
    expect(np.all(np.isin(claims[:corners], (5, 6))),
           "a patch corner is not shared by 5 or 6 patches")
    expect(np.sum(claims[:corners] == 5) == 12,
           "the 12 icosahedron corners must have valence 5")
    expect(np.all(np.isin(claims[corners:], (1, 2))),
           "a non-corner vertex lies in more than 2 patches")


def vertex_mean(per_patch: np.ndarray, pvi: np.ndarray,
                hemispheres: int) -> np.ndarray:
    """Per-vertex mean over the patches that claim the vertex, NaN where
    every claiming patch is NaN."""
    n, v = pvi.shape[0], int(pvi.max()) + 1
    acc = np.zeros(v * hemispheres)
    cnt = np.zeros(v * hemispheres)
    for i, val in enumerate(per_patch):
        if np.isfinite(val):
            idx = pvi[i % n] + (i // n) * v
            acc[idx] += val
            cnt[idx] += 1
    with np.errstate(invalid="ignore"):
        return np.where(cnt > 0, acc / np.maximum(cnt, 1), np.nan)


def ply_paths(stem: str, hemispheres: int) -> list:
    if hemispheres == 1:
        return [stem + ".ply"]
    return [f"{stem}.hemi{h}.ply" for h in range(hemispheres)]


def check_surface(stem: str, expected: np.ndarray, hemispheres: int,
                  mesh_order: int) -> None:
    """The PLY file(s) parse, have 10*4^d+2 unit vertices and 20*4^d
    faces, and carry the expected per-vertex scalar (NaN where masked)."""
    v = 10 * 4 ** mesh_order + 2
    for h, path in enumerate(ply_paths(stem, hemispheres)):
        vert, scalar, faces = read_ply(path)
        expect(vert.shape[0] == v and faces.shape[0] == 20 * 4 ** mesh_order,
               f"{path}: {vert.shape[0]} vertices, {faces.shape[0]} faces")
        expect(np.allclose(np.linalg.norm(vert, axis=1), 1.0, atol=1e-6),
               f"{path}: vertices off the unit sphere")
        expect(faces.min() >= 0 and faces.max() < v,
               f"{path}: face index out of range")
        want = expected[h * v:(h + 1) * v]
        expect(np.array_equal(np.isnan(scalar), np.isnan(want)),
               f"{path}: masked vertices differ")
        ok = ~np.isnan(want)
        err = np.max(np.abs(scalar[ok] - want[ok]), initial=0.0)
        expect(err <= TEXT_TOL, f"{path}: vertex scalar off by {err:.2e}")


def check_patch_csv(path: str, ref_per_patch: np.ndarray,
                    ref_weights: np.ndarray, provenance: list):
    """Values match the reference activations and sum to the reference
    probability; weights and provenance match the checkpoint. Returns the
    CSV values."""
    values, weights, prov = read_csv(path)
    err = np.max(np.abs(values - ref_per_patch))
    expect(err <= ACT_TOL, f"{path}: activation off by {err:.2e}")
    gap = abs(values.sum() - ref_per_patch.sum())
    expect(gap <= ACT_TOL,
           f"{path}: patch values sum {values.sum():.8f}, reference "
           f"probability {ref_per_patch.sum():.8f}")
    err = np.max(np.abs(weights - ref_weights))
    expect(err <= ACT_TOL, f"{path}: weights off by {err:.2e}")
    expect(prov == [p[0] if p else "" for p in provenance],
           f"{path}: provenance column differs from the checkpoint")
    return values


def check_eval(report: dict, ref_probs: np.ndarray, labels: np.ndarray):
    """tp/fp/tn/fn recounted from the reference probabilities and the
    planted labels; Bacc and F1 recomputed from the counts."""
    pred = ref_probs >= 0.5
    y = labels.astype(bool)
    border = np.abs(ref_probs - 0.5) <= ACT_TOL
    counts = {"tp": pred & y, "fp": pred & ~y, "tn": ~pred & ~y,
              "fn": ~pred & y}
    for key, mask in counts.items():
        expect(abs(report[key] - int(mask.sum())) <= int(border.sum()),
               f"eval {report['split']}: {key}={report[key]}, reference "
               f"{int(mask.sum())}")
    tp, fp, tn, fn = (report[k] for k in ("tp", "fp", "tn", "fn"))
    tpr = tp / (tp + fn) if tp + fn else 0.0
    tnr = tn / (tn + fp) if tn + fp else 0.0
    f1 = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
    expect(abs(report["bacc"] - (tpr + tnr) / 2) < 1e-12
           and abs(report["f1"] - f1) < 1e-12,
           f"eval {report['split']}: Bacc/F1 inconsistent with counts")


def balanced_accuracy(probs: np.ndarray, labels: np.ndarray) -> float:
    pred, y = probs >= 0.5, labels.astype(bool)
    return 0.5 * (np.mean(pred[y]) + np.mean(~pred[~y]))


def file_digest(paths: list) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(os.path.basename(p).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def fd_gradient(loss, params: dict, grads: dict, coords: list,
                h: float = 1e-6, rtol: float = 1e-5,
                atol: float = 1e-9) -> float:
    """Central differences of `loss(params)` at the given (name, flat index)
    coordinates against the autodiff gradients; returns the worst error
    relative to max(|fd|, atol / rtol)."""
    worst = 0.0
    for name, i in coords:
        flat = params[name].reshape(-1)
        orig = flat[i]
        flat[i] = orig + h
        up = loss(params)
        flat[i] = orig - h
        down = loss(params)
        flat[i] = orig
        fd = (up - down) / (2 * h)
        g = grads[name].reshape(-1)[i]
        err = abs(g - fd) / max(abs(fd), atol / rtol)
        expect(err <= rtol, f"gradient {name}[{i}]: autodiff {g:.6e}, "
                            f"central difference {fd:.6e}")
        worst = max(worst, err)
    return worst
