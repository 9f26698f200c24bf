"""Model explanations: per-patch activation maps, group means, stitched
prototype surfaces with ignored-region masking, and cross-checkpoint
prototype overlap.

The per-patch activations a_i = w_i * cos(x_i, xi_i) sum exactly to the
predicted probability, so the maps fully account for every prediction.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import surface as surf
from .files import InputError, atomic_write
from .train import Model, activations, normalized, predicted_positive, weights


def activation_map(sample: surf.SurfaceSample, model: Model,
                   partition: surf.PatchPartition | None = None):
    """Returns (per_patch [N_total], per_vertex [V_total], probability) of
    one raw sample.

    Per-vertex values broadcast each patch's activation to its vertices;
    boundary vertices take the mean over their adjacent patches. The model
    carries its own partition; `partition` is accepted for callers that
    pass it and is not used.
    """
    per_patch = activations(model, normalized([sample], model))[0]
    prob = float(per_patch.sum())
    return per_patch, vertex_map(per_patch, model.partition(),
                                 model.hemispheres), prob


def vertex_map(per_patch: np.ndarray, partition: surf.PatchPartition,
               hemispheres: int) -> np.ndarray:
    """Scatter patch scalars to vertices, averaging over shared boundaries.
    NaN patch values mark masked regions: a vertex is NaN only if every patch
    claiming it is masked."""
    values = np.repeat(per_patch[:, None], partition.patch_size, axis=1)
    return surf.unpatchify(values, partition, hemispheres)


def group_mean_map(samples: list, model: Model):
    """Mean activation map over the positive samples the model classifies
    correctly. Returns (per_patch mean, per_vertex mean)."""
    group = [s for s in samples if s.label == 1]
    maps = activations(model, normalized(group, model)) if group else []
    maps = [m for m in maps if predicted_positive(m.sum())]
    if not maps:
        raise InputError("group filter matched no samples")
    mean = np.mean(maps, axis=0)
    return mean, vertex_map(mean, model.partition(), model.hemispheres)


def export_prototype_surface(model: Model, train_samples: list,
                             channel: int) -> np.ndarray:
    """Stitch the provenance subjects' raw channel values into one surface.

    Patches with w_i = 0 are masked (NaN); boundary vertices claimed by
    several unmasked patches are averaged."""
    part = model.partition()
    w = weights(model)
    ids = surf.vertex_ids(part, model.hemispheres)
    by_id = {s.subject_id: s for s in train_samples}
    values = np.full((len(w), part.patch_size), np.nan)
    for i in np.nonzero(w > 0.0)[0]:
        prov = model.bank.provenance[i]
        if prov is None:
            raise InputError(
                f"patch {i}: no provenance (checkpoint was never projected)")
        if prov[0] not in by_id:
            raise InputError(f"patch {i}: provenance subject "
                             f"'{prov[0]}' not in the provided samples")
        values[i] = by_id[prov[0]].features[ids[i], channel]
    return surf.unpatchify(values, part, model.hemispheres)


def prototype_overlap(models: list) -> float:
    """Mean pairwise provenance agreement (percent) over patches active in
    at least one model of the pair: a patch agrees when it is active in
    both and both name the same source subject."""
    if len(models) < 2:
        raise InputError("overlap needs at least two checkpoints")
    shapes = {(m.mesh_order, m.patch_order, m.hemispheres) for m in models}
    if len(shapes) > 1:
        raise InputError("checkpoints use different partitions")
    actives = [weights(m) > 0.0 for m in models]
    sources = [np.array([p and p[0] for p in m.bank.provenance], object)
               for m in models]
    pair_scores = []
    for a, b in itertools.combinations(range(len(models)), 2):
        union = actives[a] | actives[b]
        agree = (actives[a] & actives[b] & (sources[a] == sources[b])
                 & np.not_equal(sources[a], None))
        pair_scores.append(agree.sum() / union.sum() if union.any() else 1.0)
    return 100.0 * float(np.mean(pair_scores))


def write_patch_csv(path: str, per_patch: np.ndarray, model: Model) -> None:
    w = weights(model)
    lines = ["patch_index,value,weight,provenance_subject"]
    for i, val in enumerate(per_patch):
        prov = model.bank.provenance[i]
        lines.append(f"{i},{float(val)!r},{float(w[i])!r},"
                     f"{prov[0] if prov is not None else ''}")
    atomic_write(path, ("\n".join(lines) + "\n").encode())
