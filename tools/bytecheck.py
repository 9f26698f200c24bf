"""Digest every output of a fixed set of xsit commands, to check that a
change keeps the bytes.

    python3 tools/bytecheck.py <checkout> <workdir> > digests.txt

runs, in `<workdir>` (made if missing, and which must be empty), each
command in a subprocess with `<checkout>/src` on PYTHONPATH, once with one
BLAS thread in `<workdir>/threads1` and once with two in
`<workdir>/threads2`, on two dataset specs: the acceptance suite's BENCH
shape (seed 11, `train.seed=11`, `train.epochs=5`) and the paper's shape
(order-6 mesh, order-2 patches, 2 hemispheres, 4/2/1 subjects, seed 11,
`train.epochs=1`, `train.batch_size=4`). Each spec gets `gen-data`,
`train`, `eval` of every split, `explain` of every mode (`individual` over
the test split and for one subject, `group`, `prototypes` at channels 0
and 2, `overlap` of the checkpoint with itself), and both share one
`mesh --order 3`. It prints
one sorted line per output file (sha256, path) and per command (exit
code, sha256 of stdout and of stderr), each led by its thread count
(`threads=1`, `threads=2`). Two checkouts keep the bytes when their runs
print the same lines. Lines of one thread count need not equal the other
count's: the paper shape's patch projection, of inner dimension 459,
rounds differently at 1 and 2 OpenBLAS threads.

    python3 tools/bytecheck.py ../parent /tmp/bc > a.txt; rm -r /tmp/bc
    python3 tools/bytecheck.py . /tmp/bc > b.txt; rm -r /tmp/bc
    diff a.txt b.txt
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

BENCH = dict(mesh_order=4, patch_order=1, hemispheres=1, channels=3,
             lesion_patches=[3, 11, 19, 27, 35, 43, 51, 59], delta=3.0,
             noise_sigma=1.0, counts={"train": 200, "val": 50, "test": 50},
             positive_fraction=0.5, seed=11)
PAPER = dict(mesh_order=6, patch_order=2, hemispheres=2,
             counts={"train": 4, "val": 2, "test": 1}, seed=11)
# shape -> (spec, training overrides)
SHAPES = {"bench": (BENCH, ["train.seed=11", "train.epochs=5"]),
          "paper": (PAPER, ["train.epochs=1", "train.batch_size=4"])}
THREADS = (1, 2)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _commands(shape: str, sets: list, test_subject: str | None):
    """(name, argv) of the commands after `gen-data` and `train`, paths
    relative to the work directory."""
    data, ckpt, out = f"{shape}/data", f"{shape}/model/model.xck", \
        f"{shape}/explain"
    read = ["--checkpoint", ckpt, "--data", data]
    cmds = [(f"{shape}-train", ["train", "--data", data, "--out",
                                f"{shape}/model",
                                *[a for s in sets for a in ("--set", s)]])]
    cmds += [(f"{shape}-eval-{s}", ["eval", *read, "--split", s])
             for s in ("train", "val", "test")]
    explain = ["explain", *read, "--mode"]
    cmds += [(f"{shape}-individual", [*explain, "individual", "--out",
                                      f"{out}/individual"]),
             (f"{shape}-one", [*explain, "individual", "--subject",
                               str(test_subject), "--out", f"{out}/one"]),
             (f"{shape}-group", [*explain, "group", "--out", f"{out}/group"])]
    cmds += [(f"{shape}-prototypes{c}", [*explain, "prototypes", "--channel",
                                         str(c), "--out",
                                         f"{out}/prototypes{c}"])
             for c in (0, 2)]
    cmds.append((f"{shape}-overlap", [
        "explain", "--checkpoint", ckpt, "--mode", "overlap",
        "--extra-checkpoints", ckpt, "--out", f"{out}/overlap"]))
    return cmds


def checkout_env(checkout: str, threads: str) -> dict:
    """The environment of a subprocess that runs the checkout's xsit with
    the given number of BLAS threads."""
    return dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"),
                OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                MKL_NUM_THREADS=threads)


def _digests(checkout: str, work: str, threads: str) -> list:
    """The file and command lines of every command, run in work with the
    given number of BLAS threads."""
    env = checkout_env(checkout, threads)
    lines = []

    def run(name, args):
        proc = subprocess.run([sys.executable, "-m", "xsit.cli", *args],
                              cwd=work, env=env, capture_output=True)
        lines.append(f"cmd {name} exit={proc.returncode} "
                     f"stdout={_sha(proc.stdout)} stderr={_sha(proc.stderr)}")

    run("mesh", ["mesh", "--order", "3", "--out", "mesh.ply"])
    for shape, (spec, sets) in SHAPES.items():
        os.makedirs(os.path.join(work, shape))
        with open(os.path.join(work, shape, "spec.json"), "w") as f:
            json.dump(spec, f)
        run(f"{shape}-gen-data", ["gen-data", "--spec", f"{shape}/spec.json",
                                  "--out", f"{shape}/data"])
        try:
            with open(os.path.join(work, shape, "data",
                                   "manifest.json")) as f:
                subjects = json.load(f)["subjects"]
            test_subject = next(s["id"] for s in subjects
                                if s["split"] == "test")
        except (OSError, ValueError, KeyError, StopIteration):
            test_subject = None  # the commands fail, and their lines say so
        for name, args in _commands(shape, sets, test_subject):
            run(name, args)
    for root, _, files in os.walk(work):
        for fname in files:
            path = os.path.join(root, fname)
            with open(path, "rb") as f:
                lines.append(f"file {_sha(f.read())} "
                             f"{os.path.relpath(path, work)}")
    return lines


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    checkout, work = (os.path.abspath(a) for a in argv)
    os.makedirs(work, exist_ok=True)
    if os.listdir(work):
        print(f"error: {work} is not empty", file=sys.stderr)
        return 2
    lines = []
    for threads in THREADS:
        sub = os.path.join(work, f"threads{threads}")
        os.makedirs(sub)
        lines += [f"threads={threads} {line}"
                  for line in _digests(checkout, sub, str(threads))]
    print("\n".join(sorted(lines)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
