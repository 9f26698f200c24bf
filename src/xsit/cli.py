"""Command-line entry point: data generation, training, evaluation,
explanation export, and mesh export."""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import explain as expl
from . import surface as surf
from . import synth
from . import train as tr
from .config import ConfigError, load_config


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="xsit",
                                description="prototype-based surface "
                                            "transformer classifier")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic dataset")
    g.add_argument("--spec", required=True, help="SynthSpec JSON file")
    g.add_argument("--out", required=True)

    t = sub.add_parser("train", help="train a model")
    t.add_argument("--config", default=None, help="run config JSON")
    t.add_argument("--data", required=True, help="dataset directory")
    t.add_argument("--out", required=True)
    t.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config key, e.g. train.lr=3e-4")

    e = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--split", required=True,
                   choices=["train", "val", "test"])

    x = sub.add_parser("explain", help="export explanations")
    x.add_argument("--checkpoint", required=True)
    x.add_argument("--data", required=True)
    x.add_argument("--mode", required=True,
                   choices=["individual", "group", "prototypes", "overlap"])
    x.add_argument("--out", required=True)
    x.add_argument("--split", default="test",
                   choices=["train", "val", "test"])
    x.add_argument("--subject", default=None,
                   help="subject id for --mode individual")
    x.add_argument("--channel", type=int, default=0,
                   help="feature channel for --mode prototypes")
    x.add_argument("--extra-checkpoints", nargs="*", default=[],
                   help="additional checkpoints for --mode overlap")

    m = sub.add_parser("mesh", help="export an icosphere as ASCII PLY")
    m.add_argument("--order", type=int, required=True)
    m.add_argument("--out", required=True)
    return p


def _parse_overrides(pairs):
    out = {}
    for pair in pairs:
        key, sep, val = pair.partition("=")
        if not sep:
            raise ConfigError(f"bad override '{pair}', expected KEY=VALUE")
        out[key] = val
    return out


def _cmd_gen_data(args) -> int:
    with open(args.spec) as f:
        text = f.read()
    try:
        manifest = synth.generate(synth.SynthSpec.from_json(text), args.out)
    except ValueError as e:
        raise ValueError(f"{args.spec}: {e}") from e
    print(f"wrote {manifest}")
    return 0


def _cmd_train(args) -> int:
    cfg = load_config(args.config, _parse_overrides(args.set))
    manifest, splits = surf.load_dataset(os.path.join(args.data,
                                                      "manifest.json"))
    _, history = tr.train_run(cfg, manifest, splits, out_dir=args.out)
    final = history[-1] if history else None
    if final is not None:
        print(f"best val bacc={final[2]:.4f} f1={final[3]:.4f}")
    print(f"wrote {os.path.join(args.out, 'model.xck')}")
    return 0


def _cmd_eval(args) -> int:
    model = tr.load_checkpoint(args.checkpoint)
    _, splits = surf.load_dataset(os.path.join(args.data, "manifest.json"))
    if not splits[args.split]:
        print(f"error: split '{args.split}' is empty", file=sys.stderr)
        return 1
    report = tr.evaluate(model, splits[args.split])
    print(json.dumps({"split": args.split, "bacc": report.bacc,
                      "f1": report.f1, "tp": report.tp, "fp": report.fp,
                      "tn": report.tn, "fn": report.fn}, sort_keys=True))
    return 0


def _cmd_explain(args) -> int:
    model = tr.load_checkpoint(args.checkpoint)
    n = len(model.channels)
    if args.mode == "prototypes" and not 0 <= args.channel < n:
        print(f"error: --channel {args.channel}: the model has {n} "
              f"channels, 0 to {n - 1}", file=sys.stderr)
        return 1
    _, splits = surf.load_dataset(os.path.join(args.data, "manifest.json"))
    os.makedirs(args.out, exist_ok=True)
    mesh = model.part.mesh

    def write_surface(name, per_vertex, scalar_name):
        """One PLY per hemisphere; a single hemisphere gets no suffix."""
        v = mesh.n_vertices
        for h in range(model.hemispheres):
            suffix = f".hemi{h}" if model.hemispheres > 1 else ""
            surf.write_ply(os.path.join(args.out, f"{name}{suffix}.ply"),
                           mesh, per_vertex[h * v:(h + 1) * v],
                           scalar_name=scalar_name)

    def export(name, per_patch, per_vertex):
        expl.write_patch_csv(os.path.join(args.out, name + ".csv"),
                             per_patch, model)
        write_surface(name, per_vertex, "activation")

    if args.mode == "individual":
        samples = splits[args.split]
        if args.subject is not None:
            samples = [s for s in samples if s.subject_id == args.subject]
        if not samples:
            print("error: no matching sample", file=sys.stderr)
            return 1
        for s in samples:
            per_patch, per_vertex, _ = expl.activation_map(s, model)
            export(f"activation_{s.subject_id}", per_patch, per_vertex)
        print(f"wrote {len(samples)} activation map(s) to {args.out}")
    elif args.mode == "group":
        per_patch, per_vertex = expl.group_mean_map(
            splits[args.split], model, true_label=1,
            predicted_correct=True)
        export("group_mean_activation", per_patch, per_vertex)
        print(f"wrote group mean map to {args.out}")
    elif args.mode == "prototypes":
        per_vertex = expl.export_prototype_surface(
            model, splits["train"], args.channel)
        write_surface(f"prototype_{model.channels[args.channel]}",
                      per_vertex, "feature")
        print(f"wrote stitched prototype surface to {args.out}")
    else:  # overlap
        models = [model] + [tr.load_checkpoint(c)
                            for c in args.extra_checkpoints]
        pct = expl.prototype_overlap(models)
        out_path = os.path.join(args.out, "overlap.json")
        surf._atomic_write(out_path, json.dumps(
            {"overlap_percent": pct, "models": 1 + len(
                args.extra_checkpoints)}).encode())
        print(f"overlap {pct:.1f}% -> {out_path}")
    return 0


def _cmd_mesh(args) -> int:
    mesh = surf.build_icosphere(args.order)
    surf.write_ply(args.out, mesh)
    print(f"wrote order-{args.order} icosphere "
          f"({mesh.n_vertices} vertices) to {args.out}")
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "explain": _cmd_explain,
    "mesh": _cmd_mesh,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
