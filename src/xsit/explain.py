"""Model explanations: per-patch activation maps, group means, stitched
prototype surfaces with ignored-region masking, and cross-checkpoint
prototype overlap.

The per-patch activations a_i = w_i * cos(x_i, xi_i) sum exactly to the
predicted probability, so the maps fully account for every prediction.
"""

from __future__ import annotations

import numpy as np

from . import psp
from . import surface as surf
from .train import Model, activations, normalized, predicted_positive


class ExplainError(ValueError):
    pass


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


def group_mean_map(samples: list, model: Model,
                   true_label: int | None = None,
                   predicted_correct: bool | None = None):
    """Mean activation map over a filtered sample group.

    Filters: true_label keeps samples with that label; predicted_correct
    keeps samples whose thresholded prediction matches (or mismatches) the
    label. Returns (per_patch mean, per_vertex mean)."""
    group = [s for s in samples
             if true_label is None or s.label == true_label]
    if not group:
        raise ExplainError("group filter matched no samples")
    maps = activations(model, normalized(group, model))
    if predicted_correct is not None:
        correct = predicted_positive(maps.sum(axis=-1)) == \
            np.array([s.label == 1 for s in group])
        maps = maps[correct == predicted_correct]
        if not len(maps):
            raise ExplainError("group filter matched no samples")
    mean = np.mean(maps, axis=0)
    return mean, vertex_map(mean, model.partition(), model.hemispheres)


def export_prototype_surface(model: Model, train_samples: list,
                             channel: int) -> np.ndarray:
    """Stitch the provenance subjects' raw channel values into one surface.

    Patches with w_i = 0 are masked (NaN); boundary vertices claimed by
    several unmasked patches are averaged."""
    part = model.partition()
    w = psp.sparse_weights(model.scaler.logits).data
    by_id = {s.subject_id: s for s in train_samples}
    values = np.full((len(w), part.patch_size), np.nan)
    for i in np.nonzero(w > 0.0)[0]:
        prov = model.bank.provenance[i]
        if prov is None:
            raise ExplainError(
                f"patch {i}: no provenance (checkpoint was never projected)")
        if prov[0] not in by_id:
            raise ExplainError(f"patch {i}: provenance subject "
                               f"'{prov[0]}' not in the provided samples")
        values[i] = surf.patchify(by_id[prov[0]], part,
                                  model.hemispheres)[i, :, channel]
    return surf.unpatchify(values, part, model.hemispheres)


def prototype_overlap(models: list) -> float:
    """Mean pairwise provenance agreement (percent) over patches active in
    at least one model of the pair."""
    if len(models) < 2:
        raise ExplainError("overlap needs at least two checkpoints")
    shapes = {(m.mesh_order, m.patch_order, m.hemispheres) for m in models}
    if len(shapes) > 1:
        raise ExplainError("checkpoints use different partitions")
    actives, provs = [], []
    for m in models:
        w = psp.sparse_weights(m.scaler.logits).data
        actives.append(w > 0.0)
        provs.append([p[0] if p is not None else None
                      for p in m.bank.provenance])
    pair_scores = []
    for a in range(len(models)):
        for b in range(a + 1, len(models)):
            union = np.nonzero(actives[a] | actives[b])[0]
            agree = sum(
                1 for i in union
                if actives[a][i] and actives[b][i]
                and provs[a][i] is not None and provs[a][i] == provs[b][i])
            pair_scores.append(agree / len(union) if len(union) else 1.0)
    return 100.0 * float(np.mean(pair_scores))


def write_patch_csv(path: str, per_patch: np.ndarray, model: Model) -> None:
    w = psp.sparse_weights(model.scaler.logits).data
    lines = ["patch_index,value,weight,provenance_subject"]
    for i, val in enumerate(per_patch):
        prov = model.bank.provenance[i]
        lines.append(f"{i},{float(val)!r},{float(w[i])!r},"
                     f"{prov[0] if prov is not None else ''}")
    surf._atomic_write(path, ("\n".join(lines) + "\n").encode())
