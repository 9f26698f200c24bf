"""Time one attention node of a checkout at the shapes its runs use.

    python3 tools/attnprobe.py <checkout>

prints, for each of four shapes, the minimum forward and backward time in
ms of one float32 `Tensor.attention` node, over a fixed number of calls,
in process CPU time. q, k, v and the output gradient are [B, h, S, dh]
views of [B, S, h, dh] arrays, as the encoder passes them. Training
shapes (`train`) run on the tape with a keep mask that drops at 0.1, and
their backward is the node's own closure called with a fixed gradient.
Inference shapes (`infer`) run off the tape, without a mask, as `eval`
and `explain` do, and have no backward.
The shapes are the paper's (ico6 mesh, ico2 patches, 2 hemispheres, 6
heads of 8: [4, 6, 640, 8] at batch 4 and [1, 6, 640, 8]) and the
acceptance suite's BENCH shape ([16, 6, 80, 8] at batch 16 both ways).
The probe runs in a subprocess with `<checkout>/src` on PYTHONPATH and
one BLAS thread. The tracer of `benchmarks/spans.py` does not see
attention, so this is where its per-layer times come from.

    python3 tools/attnprobe.py ../parent > a.txt
    python3 tools/attnprobe.py . > b.txt
    diff a.txt b.txt
"""

from __future__ import annotations

import os
import subprocess
import sys

from bytecheck import checkout_env

# argv: name, shape, dropout rate (0: off the tape, no mask), calls
SHAPES = [("paper-train", (4, 6, 640, 8), 0.1, 15),
          ("paper-infer", (1, 6, 640, 8), 0.0, 40),
          ("bench-train", (16, 6, 80, 8), 0.1, 40),
          ("bench-infer", (16, 6, 80, 8), 0.0, 80)]

_PROBE = """
import sys, time
import numpy as np
from xsit.tensor import Tensor

name, p, calls = sys.argv[1], float(sys.argv[3]), int(sys.argv[4])
shape = tuple(int(n) for n in sys.argv[2].split(","))
rng = np.random.default_rng(0)
train = p > 0


def heads_first(a):  # [B, S, h, dh] -> the encoder's [B, h, S, dh] view
    return np.transpose(a, (0, 2, 1, 3))


leaf = (shape[0], shape[2], shape[1], shape[3])
q, k, v = (Tensor(heads_first(rng.uniform(-2, 2, leaf).astype(np.float32)),
                  requires_grad=train) for _ in range(3))
keep = rng.random(shape[:-1] + shape[-2:-1]) >= p if train else None
g = heads_first(rng.uniform(-1, 1, leaf).astype(np.float32))
fwd, bwd = [], []
for _ in range(calls):
    start = time.process_time()
    out = q.attention(k, v, keep, p)
    fwd.append(time.process_time() - start)
    if train:
        start = time.process_time()
        out.node.backward(g)
        bwd.append(time.process_time() - start)
        for t in (q, k, v):
            t.node.grad = None
    del out
back = f"{min(bwd) * 1e3:8.2f}" if bwd else "       -"
print(f"{name:12s} {str(list(shape)):16s} p={p:<4} calls={calls:<3d} "
      f"fwd_ms={min(fwd) * 1e3:8.2f} bwd_ms={back}")
"""


def main(argv: list) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    env = checkout_env(os.path.abspath(argv[0]), "1")
    for name, shape, p, calls in SHAPES:
        proc = subprocess.run(
            [sys.executable, "-c", _PROBE, name, ",".join(map(str, shape)),
             str(p), str(calls)], env=env, capture_output=True, text=True)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
