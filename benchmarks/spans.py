"""Tracing for the benchmark's traced run.

Spans are recorded around the public functions of the program's modules by
wrapping them from outside (no file of the program changes): each span has
a name, a start, an end and the index of the span that was open when it
started. Spans stay in memory and are written out when the run ends. The
per-layer metrics are derived from them afterwards.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import Counter, defaultdict

import numpy as np

# Tensor ops whose forward call and backward closure each get a span.
OPS = ("matmul", "add", "mul", "div", "neg", "softmax", "gelu", "layernorm",
       "rect_cosine", "reshape", "transpose", "sum", "log", "clamp")

# (module, function, span name) wrapped as they are.
FUNCTIONS = (
    ("surface", "build_icosphere", "surface.build_icosphere"),
    ("surface", "build_partition", "surface.build_partition"),
    ("surface", "load_dataset", "surface.load_dataset"),
    ("surface", "patchify", "surface.patchify"),
    ("surface", "normalize", "surface.normalize"),
    ("surface", "write_ply", "surface.write_ply"),
    ("synth", "generate", "synth.generate"),
    ("psp", "class_probability", "psp.class_probability"),
    ("train", "train_run", "train.train_run"),
    ("train", "weighted_bce", "train.weighted_bce"),
    ("train", "evaluate", "train.evaluate"),
    ("train", "predict_probs", "train.predict_probs"),
    ("train", "save_checkpoint", "train.save_checkpoint"),
    ("train", "load_checkpoint", "train.load_checkpoint"),
    ("train", "save_arrays", "tensor.save_arrays"),
    ("train", "load_arrays", "tensor.load_arrays"),
    ("explain", "activation_map", "explain.activation_map"),
    ("explain", "group_mean_map", "explain.group_mean_map"),
    ("explain", "vertex_map", "explain.vertex_map"),
    ("explain", "export_prototype_surface",
     "explain.export_prototype_surface"),
    ("explain", "write_patch_csv", "explain.write_patch_csv"),
)


class Tracer:
    """Spans as [name, parent, start, end]; parent is an index or -1.
    `values` holds numbers recorded at layer boundaries."""

    def __init__(self):
        self.spans = []
        self.values = defaultdict(list)
        self._open = []

    def wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
        return traced

    def write(self, path: str) -> None:
        with gzip.open(path, "wt") as f:
            for i, (name, parent, start, end) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "parent": parent,
                                    "start": start, "end": end}) + "\n")


def self_times(spans: list) -> list:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children = defaultdict(list)
    for name, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, parent, start, end) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def inclusive_time(spans: list, names: set, parents: set | None = None):
    """Total duration of spans named in `names` that have no ancestor also
    named there; with `parents`, only spans whose direct parent is named in
    `parents` count."""
    total = 0.0
    for name, parent, start, end in spans:
        if name not in names:
            continue
        if parents is not None and (parent < 0
                                    or spans[parent][0] not in parents):
            continue
        p = parent
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][1]
        if p < 0:
            total += end - start
    return total


def instrument(tracer: Tracer, modules: dict):
    """Wrap the program's functions with spans; returns a function that
    puts the originals back. `modules` maps short names ("surface", ...)
    to the imported modules of the program."""
    saved = []

    def patch(obj, attr, new):
        saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    for mod, fn, name in FUNCTIONS:
        patch(modules[mod], fn, tracer.wrap(getattr(modules[mod], fn), name))
    tensor = modules["tensor"]

    def encode(orig):
        train_span = tracer.wrap(orig, "encoder.encode_train")
        infer_span = tracer.wrap(orig, "encoder.encode_infer")

        def traced(patches, params, config, training=False, rng=None):
            if training:
                return train_span(patches, params, config, training, rng)
            tracer.values["encoder.samples_infer"].append(patches.shape[0])
            return infer_span(patches, params, config, training, rng)
        return traced
    patch(modules["encoder"], "encode", encode(modules["encoder"].encode))

    def project(orig):
        span = tracer.wrap(orig, "psp.project_prototypes")

        def traced(bank, *args, epoch, **kwargs):
            before = [p[0] if p else None for p in bank.provenance]
            span(bank, *args, epoch=epoch, **kwargs)
            after = [p[0] if p else None for p in bank.provenance]
            if epoch != -1:
                tracer.values["psp.projection_changes"].append(
                    sum(a != b for a, b in zip(before, after)))
                tracer.values["psp.projected"].append(len(after))
        return traced
    patch(modules["psp"], "project_prototypes",
          project(modules["psp"].project_prototypes))

    cls = tensor.Tensor
    for op in OPS:
        orig = cls.__dict__[op]
        new = _traced_op(tracer, orig, op)
        for attr, val in list(vars(cls).items()):
            if val is orig:
                patch(cls, attr, new)

    backward = tracer.wrap(cls.backward, "tensor.backward")

    def traced_backward(self):
        nodes = backward(self)
        tracer.values["tensor.backward_nodes"].append(nodes)
        return nodes
    patch(cls, "backward", traced_backward)
    patch(tensor.AdamW, "step", tracer.wrap(tensor.AdamW.step,
                                            "tensor.adamw"))
    patch(tensor.AdamW, "zero_grad", tracer.wrap(tensor.AdamW.zero_grad,
                                                 "tensor.zero_grad"))

    def restore():
        for obj, attr, old in reversed(saved):
            setattr(obj, attr, old)
    return restore


def _traced_op(tracer: Tracer, orig, op: str):
    forward = tracer.wrap(orig, f"tensor.{op}.fwd")
    bwd_name = f"tensor.{op}.bwd"

    @functools.wraps(orig)
    def traced(self, *args, **kwargs):
        out = forward(self, *args, **kwargs)
        if out.requires_grad and out._backward is not None:
            out._backward = tracer.wrap(out._backward, bwd_name)
        return out
    return traced


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics, name -> (value, unit), over everything traced."""
    spans = tracer.spans
    calls = Counter(s[0] for s in spans)

    def t(*names, parents=None):
        return inclusive_time(spans, set(names), parents)

    own = self_times(spans)
    backward_self = sum(o for s, o in zip(spans, own)
                        if s[0] == "tensor.backward")
    v = tracer.values
    projected = sum(v["psp.projected"])
    m = {
        "surface.build_partition_s": (t("surface.build_partition"), "s"),
        "surface.build_partition_calls": (
            calls["surface.build_partition"], "count"),
        "surface.build_icosphere_calls": (
            calls["surface.build_icosphere"], "count"),
        "surface.load_dataset_s": (t("surface.load_dataset"), "s"),
        "surface.patchify_s": (t("surface.patchify"), "s"),
        "surface.normalize_calls": (calls["surface.normalize"], "count"),
        "surface.write_ply_s": (t("surface.write_ply"), "s"),
        "synth.generate_s": (t("synth.generate"), "s"),
    }
    for op in OPS:
        m[f"tensor.{op}.fwd_s"] = (t(f"tensor.{op}.fwd"), "s")
        m[f"tensor.{op}.bwd_s"] = (t(f"tensor.{op}.bwd"), "s")
        m[f"tensor.{op}.calls"] = (calls[f"tensor.{op}.fwd"], "count")
    nodes = v["tensor.backward_nodes"]
    m.update({
        "tensor.backward_s": (backward_self, "s"),
        "tensor.backward_nodes_per_step": (
            float(np.median(nodes)) if nodes else 0.0, "count"),
        "tensor.adamw_s": (t("tensor.adamw"), "s"),
        "tensor.save_arrays_s": (t("tensor.save_arrays"), "s"),
        "tensor.load_arrays_s": (t("tensor.load_arrays"), "s"),
        "encoder.encode_train_s": (t("encoder.encode_train"), "s"),
        "encoder.encode_infer_s": (t("encoder.encode_infer"), "s"),
        "encoder.samples_encoded_infer": (
            sum(v["encoder.samples_infer"]), "count"),
        "psp.class_probability_s": (t("psp.class_probability"), "s"),
        "psp.project_prototypes_s": (t("psp.project_prototypes"), "s"),
        "psp.project_prototypes_calls": (
            calls["psp.project_prototypes"], "count"),
        "psp.projection_subject_changes": (
            sum(v["psp.projection_changes"]), "count"),
        "psp.projection_useful_ratio": (
            sum(v["psp.projection_changes"]) / projected if projected
            else 0.0, "ratio"),
        "train.step_forward_s": (
            t("encoder.encode_train") + t("train.weighted_bce")
            + t("psp.class_probability", parents={"train.train_run"}), "s"),
        "train.step_backward_s": (t("tensor.backward"), "s"),
        "train.step_optimizer_s": (
            t("tensor.adamw") + t("tensor.zero_grad"), "s"),
        "train.validation_s": (
            t("train.evaluate", parents={"train.train_run"}), "s"),
        "train.predict_probs_s": (t("train.predict_probs"), "s"),
        "train.save_checkpoint_s": (t("train.save_checkpoint"), "s"),
        "train.load_checkpoint_s": (t("train.load_checkpoint"), "s"),
        "explain.activation_map_s": (t("explain.activation_map"), "s"),
        "explain.activation_map_calls": (
            calls["explain.activation_map"], "count"),
        "explain.vertex_map_s": (t("explain.vertex_map"), "s"),
        "explain.write_patch_csv_s": (t("explain.write_patch_csv"), "s"),
    })
    return m
