"""Command-line entry point: data generation, training, evaluation,
explanation export, and mesh export."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from . import explain as expl
from . import surface as surf
from . import synth
from . import train as tr
from .config import load_config
from .files import InputError, atomic_write


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
    e.add_argument("--split", required=True, choices=surf.SPLITS)

    x = sub.add_parser("explain", help="export explanations")
    x.add_argument("--checkpoint", required=True)
    x.add_argument("--data", default=None,
                   help="dataset directory; --mode overlap reads none")
    x.add_argument("--mode", required=True,
                   choices=["individual", "group", "prototypes", "overlap"])
    x.add_argument("--out", required=True)
    x.add_argument("--split", choices=surf.SPLITS,
                   help="for --mode individual and group (default test)")
    x.add_argument("--subject", default=None,
                   help="subject id for --mode individual")
    x.add_argument("--channel", type=int, default=None,
                   help="feature channel for --mode prototypes (default 0)")
    x.add_argument("--extra-checkpoints", nargs="*", default=None,
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
            raise InputError(f"bad override '{pair}', expected KEY=VALUE")
        out[key] = val
    return out


def _cmd_gen_data(args) -> int:
    with open(args.spec) as f:
        text = f.read()
    try:
        manifest = synth.generate(synth.SynthSpec.from_json(text), args.out)
    except InputError as e:
        raise InputError(f"{args.spec}: {e}") from e
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


def _read(args, stats: bool = False):
    """The model at --checkpoint and the splits at --data. The data must
    fit the model: same mesh and patch orders, hemispheres and channels,
    and with `stats` the same training statistics."""
    model = tr.load_checkpoint(args.checkpoint)
    path = os.path.join(args.data, "manifest.json")
    manifest, splits = surf.load_dataset(path)
    for key in (k for k in surf.DATASET_KEYS if stats or k != "stats"):
        want, got = getattr(model, key), getattr(manifest, key)
        if got != want:
            raise InputError(f"{path}: key '{key}' must be the model's "
                             f"{want!r}, got {got!r}")
    return model, splits


def _cmd_eval(args) -> int:
    model, splits = _read(args)
    if not splits[args.split]:
        raise InputError(f"split '{args.split}' is empty")
    report = tr.evaluate(model, splits[args.split])
    print(json.dumps({"split": args.split, **asdict(report)},
                     sort_keys=True))
    return 0


# each explain flag that not every mode reads -> the modes that read it
_MODE_FLAGS = {"subject": ("individual",), "split": ("individual", "group"),
               "channel": ("prototypes",), "extra_checkpoints": ("overlap",)}


def _cmd_explain(args) -> int:
    for key, modes in _MODE_FLAGS.items():
        if getattr(args, key) is not None and args.mode not in modes:
            raise InputError(f"--{key.replace('_', '-')} is read by --mode "
                             f"{' and '.join(modes)} only, not by --mode "
                             f"{args.mode}")
    split = args.split or "test"
    if args.mode == "overlap":  # compares checkpoints only
        model = tr.load_checkpoint(args.checkpoint)
    elif args.data is None:
        raise InputError(f"--mode {args.mode} needs --data")
    else:
        # `prototypes` reads training subjects by id: the data must be the
        # model's own, whose stats name the training split they came from
        model, splits = _read(args, stats=args.mode == "prototypes")
    maps, scalar = [], "activation"  # (name, per-patch or None, per-vertex)
    if args.mode == "individual":
        samples = splits[split]
        if args.subject is not None:
            samples = [s for s in samples if s.subject_id == args.subject]
            if not samples:
                raise InputError(f"subject '{args.subject}' is not in split "
                                 f"'{split}'")
        if not samples:
            raise InputError(f"split '{split}' is empty")
        for s in samples:
            per_patch, per_vertex, _ = expl.activation_map(s, model)
            maps.append((f"activation_{s.subject_id}", per_patch, per_vertex))
        done = f"wrote {len(samples)} activation map(s) to {args.out}"
    elif args.mode == "group":
        maps.append(("group_mean_activation",
                     *expl.group_mean_map(splits[split], model)))
        done = f"wrote group mean map to {args.out}"
    elif args.mode == "prototypes":
        n, c = len(model.channels), args.channel or 0
        if not 0 <= c < n:
            raise InputError(f"--channel {c}: the model has {n} channels, "
                             f"0 to {n - 1}")
        maps.append((f"prototype_{model.channels[c]}", None,
                     expl.export_prototype_surface(model, splits["train"], c)))
        scalar = "feature"
        done = f"wrote stitched prototype surface to {args.out}"
    else:  # overlap
        models = [model] + [tr.load_checkpoint(c)
                            for c in args.extra_checkpoints or []]
        pct = expl.prototype_overlap(models)
        report = json.dumps({"overlap_percent": pct, "models": len(models)})
        out_path = os.path.join(args.out, "overlap.json")
        done = f"overlap {pct:.1f}% -> {out_path}"

    os.makedirs(args.out, exist_ok=True)
    if args.mode == "overlap":
        atomic_write(out_path, report.encode())
    mesh, h = model.part.mesh, model.hemispheres
    v = mesh.n_vertices
    for name, per_patch, per_vertex in maps:
        if per_patch is not None:
            expl.write_patch_csv(os.path.join(args.out, name + ".csv"),
                                 per_patch, model)
        for i in range(h):  # a single hemisphere gets no suffix
            suffix = f".hemi{i}" if h > 1 else ""
            surf.write_ply(os.path.join(args.out, f"{name}{suffix}.ply"),
                           mesh, per_vertex[i * v:(i + 1) * v],
                           scalar_name=scalar)
    print(done)
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
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
