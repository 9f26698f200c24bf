"""Measure the memory of `train` at both shapes of `tools/bytecheck.py`.

    python3 tools/trainmem.py <checkout>

For each of that tool's shapes, the acceptance suite's BENCH shape
(`bench`: order-4 mesh, order-1 patches, 200/50/50 subjects, seed 11,
`train.seed=11`, `train.epochs=5`) and the paper's shape (`paper`:
order-6 mesh, order-2 patches, 2 hemispheres, 4/2/1 subjects, seed 11,
`train.epochs=1`, `train.batch_size=4`), it generates the dataset in a
temporary directory and trains it with that tool's settings, under a
heading `== <shape> ==`. Each command runs in a subprocess with
`<checkout>/src` on PYTHONPATH and one BLAS thread. The first `train`
runs under tracemalloc and prints the live memory when the first
`backward()` starts, the ten source lines that allocated most of it, and
the traced peak during that `backward()`. A second `train`, untraced,
prints its `ru_maxrss`, the figure that a resident-memory benchmark sees.

    python3 tools/trainmem.py ../parent > a.txt
    python3 tools/trainmem.py . > b.txt
    diff a.txt b.txt
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

from bytecheck import SHAPES, checkout_env

# argv: the checkout, then `train`'s arguments
_TRACED = """
import contextlib, io, os, sys, tracemalloc
from xsit import cli, tensor

root, backward = os.path.realpath(sys.argv[1]), tensor.Tensor.backward
MB = 2 ** 20
report = []  # printed once train's own output is no longer redirected


def first(self):
    tensor.Tensor.backward = backward
    live = tracemalloc.get_traced_memory()[0]
    top = tracemalloc.take_snapshot().statistics("lineno")[:10]
    tracemalloc.reset_peak()
    visits = backward(self)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()  # the rest of the run is not measured
    report.append(f"live at the first backward(): {live / MB:.1f} MB")
    for stat in top:
        frame = stat.traceback[0]
        path = os.path.realpath(frame.filename)
        if path.startswith(root + os.sep):
            path = os.path.relpath(path, root)
        report.append(f"  {stat.size / MB:6.1f} MB in {stat.count:5d} "
                      f"blocks  {path}:{frame.lineno}")
    report.append(f"peak during that backward(): {peak / MB:.1f} MB")
    return visits


tensor.Tensor.backward = first
tracemalloc.start()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[2:])
for line in report:
    print(line)
sys.exit(code)
"""

# argv: `train`'s arguments
_UNTRACED = """
import contextlib, io, resource, sys
from xsit import cli

with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(f"ru_maxrss of an untraced train: {rss:.1f} MB")
sys.exit(code)
"""


def main(argv: list) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    checkout = os.path.abspath(argv[0])
    env = checkout_env(checkout, "1")
    for shape, (spec, sets) in SHAPES.items():
        print(f"== {shape} ==", flush=True)
        with tempfile.TemporaryDirectory() as work:
            with open(os.path.join(work, "spec.json"), "w") as f:
                json.dump(spec, f)
            data = os.path.join(work, "data")

            def train(out):
                return ["train", "--data", data, "--out",
                        os.path.join(work, out),
                        *[a for s in sets for a in ("--set", s)]]
            for args in (["-m", "xsit.cli", "gen-data", "--spec",
                          os.path.join(work, "spec.json"), "--out", data],
                         ["-c", _TRACED, checkout, *train("traced")],
                         ["-c", _UNTRACED, *train("untraced")]):
                proc = subprocess.run([sys.executable, *args], env=env,
                                      capture_output=True, text=True)
                if args[0] == "-c":
                    print(proc.stdout, end="", flush=True)
                if proc.returncode != 0:
                    print(proc.stderr, end="", file=sys.stderr)
                    return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
