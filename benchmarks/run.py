"""Benchmark of the xsit CLI: training, evaluation and explanation.

    python3 benchmarks/run.py --workload bench-train --seed 1 --seconds 30 \
        --trace 0

runs one workload in this process and prints, as the last line of
standard output, one JSON object with `correct`, `attempted`, `failed`
and `metrics` (the end-to-end metrics, or with `--trace 1` the per-layer
metrics). Without `--workload` it runs every workload, each in its own
process, and prints one line per workload. See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

# One BLAS thread: on the 2-CPU reference machine it trains faster than
# two and its timings spread less. Set before numpy is imported.
BLAS_THREADS = "1"
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("bench-train", "paper-scale")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if args.workload is None:
        rc = 0
        for name in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 name, "--seed", str(args.seed), "--seconds",
                 str(args.seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.splitlines()
            print(json.dumps({"workload": name,
                              "result": json.loads(lines[-1])
                              if proc.returncode == 0 and lines else None}))
            rc = rc or proc.returncode
        return rc

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "xsit", "cli.py")):
        print(f"error: the program is not at {src}/xsit", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads

    os.makedirs(OUT, exist_ok=True)
    result = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), OUT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
