"""The benchmark's workloads, driven through `xsit.cli.main` in-process.

A run sets up, then repeats whole rounds of CLI commands until at least
`MIN_ROUNDS` rounds and `seconds` have passed, with more set-ups before
every round (their median is `setup_s`); it checks the outputs of the
last round and reports the end-to-end metrics. A traced run sets up
once, runs one untraced round, then adds one set-up and one round with
spans around the program's functions; it reports the per-layer metrics
of those, and the tracing overhead against the untraced set-up and
round.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

import checks
import reference
import spans
from xsit import cli, encoder, explain, psp, surface, synth, tensor, train

MODULES = {"surface": surface, "synth": synth, "tensor": tensor,
           "encoder": encoder, "psp": psp, "train": train,
           "explain": explain}

# Set-ups run in batches of at least SETUP_SECONDS (and at least one
# set-up), one batch before every round, so that `setup_s` samples the
# machine's speed across the run as the rounds do.
SETUP_SECONDS = 0.5
# Every metric is taken over at least two rounds, so that its commands
# lie in different parts of the run: the machine's speed drifts over tens
# of seconds, and one command samples only its own stretch of it.
MIN_ROUNDS = 2

# The acceptance suite's BENCH shape: ico4 mesh, ico1 patches, one
# hemisphere (80 tokens of 45 vertices), 200/50/50 subjects.
BENCH = dict(mesh_order=4, patch_order=1, hemispheres=1, channels=3,
             lesion_patches=[3, 11, 19, 27, 35, 43, 51, 59], delta=3.0,
             noise_sigma=1.0, counts={"train": 200, "val": 50, "test": 50},
             positive_fraction=0.5)
# The paper's setting: ico6 mesh, ico2 patches, two hemispheres (640
# tokens of 153 vertices), with a few subjects.
PAPER = dict(BENCH, mesh_order=6, patch_order=2, hemispheres=2,
             counts={"train": 4, "val": 2, "test": 1})


@dataclass(frozen=True)
class Workload:
    spec: dict
    train: tuple          # --set overrides of the round's `xsit train`
    eval_splits: tuple
    explain_splits: tuple  # `explain --mode individual` over each split
    group: bool           # run `explain --mode group` on the test split
    prototypes: bool      # run `explain --mode prototypes`
    singles: int          # single-subject explain requests per round
    planted: bool         # gradient and planted-label accuracy checks


WORKLOADS = {
    "bench-train": Workload(
        spec=BENCH, train=("train.epochs=5",),
        eval_splits=("train", "val", "test"), explain_splits=("val", "test"),
        group=True, prototypes=True, singles=4, planted=True),
    # the test split holds one subject, so its `explain` is also the
    # round's single-subject request
    "paper-scale": Workload(
        spec=PAPER, train=("train.epochs=1", "train.batch_size=4"),
        eval_splits=("test",), explain_splits=("test",), group=False,
        prototypes=False, singles=0, planted=False),
}


@dataclass
class Op:
    kind: str
    seconds: float
    subjects: int
    rc: int
    stdout: str


class Runner:
    """Runs CLI commands in-process and times each one from outside, in
    CPU time of the process."""

    def __init__(self):
        self.ops = []

    def cli(self, kind: str, subjects: int, *argv) -> Op:
        buf = io.StringIO()
        start = time.process_time()
        with contextlib.redirect_stdout(buf):
            rc = cli.main([str(a) for a in argv])
        op = Op(kind, time.process_time() - start, subjects, rc,
                buf.getvalue())
        self.ops.append(op)
        if rc != 0:
            print(f"{kind}: {' '.join(map(str, argv))} exited {rc}",
                  file=sys.stderr)
        return op


def _overrides(sets) -> list:
    return [a for s in sets for a in ("--set", s)]


def _epochs(sets) -> int:
    return int(next(s.split("=")[1] for s in sets
                    if s.startswith("train.epochs=")))


def _split_ids(data: str) -> dict:
    with open(os.path.join(data, "manifest.json")) as f:
        subjects = json.load(f)["subjects"]
    out = {"train": [], "val": [], "test": []}
    for s in subjects:
        out[s["split"]].append(s["id"])
    return out


def setup(run: Runner, spec_path: str, d: str) -> float:
    """`gen-data` into `d`; returns its CPU time."""
    start = time.process_time()
    run.cli("gen-data", 0, "gen-data", "--spec", spec_path, "--out",
            f"{d}/data")
    return time.process_time() - start


def one_round(w: Workload, run: Runner, d: str, singles: list) -> float:
    """One round of timed commands on the set-up in `d`; returns its CPU
    time."""
    start = time.process_time()
    data, ckpt, out = f"{d}/data", f"{d}/model/model.xck", f"{d}/out"
    n = w.spec["counts"]
    run.cli("train", _epochs(w.train) * n["train"], "train", "--data", data,
            "--out", f"{d}/model", *_overrides(w.train))
    evals = [("eval", n[s], "eval", "--checkpoint", ckpt, "--data", data,
              "--split", s) for s in w.eval_splits]
    explains = [("explain", n[s], "explain", "--checkpoint", ckpt, "--data",
                 data, "--mode", "individual", "--split", s, "--out",
                 f"{out}/individual") for s in w.explain_splits]
    # evals and explains alternate, so that each kind spans the read phase
    reads = [cmd for pair in itertools.zip_longest(evals, explains)
             for cmd in pair if cmd is not None]
    if w.group:
        reads.append(("group", n["test"], "explain", "--checkpoint", ckpt,
                      "--data", data, "--mode", "group", "--out",
                      f"{out}/group"))
    if w.prototypes:
        reads.append(("prototypes", 0, "explain", "--checkpoint", ckpt,
                      "--data", data, "--mode", "prototypes", "--out",
                      f"{out}/prototypes"))
    # single-subject requests follow each command in turn, so that their
    # median samples the whole round rather than one burst of it
    for cmd, chunk in zip(reads, np.array_split(singles, len(reads))):
        run.cli(*cmd)
        for sid in chunk:
            run.cli("one", 1, "explain", "--checkpoint", ckpt, "--data",
                    data, "--mode", "individual", "--subject", sid, "--out",
                    f"{out}/one")
    return time.process_time() - start


def model_files(d: str) -> list:
    return [f"{d}/model/{n}" for n in ("model.xck",
                                        "model.xck.provenance.json",
                                        "metrics.csv")]


def data_digest(d: str) -> str:
    return checks.file_digest(sorted(os.path.join(f"{d}/data", n)
                                     for n in os.listdir(f"{d}/data")))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 work: str) -> dict:
    w = WORKLOADS[name]
    spec = dict(w.spec, seed=seed)
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w") as f:
        f.write(synth.SynthSpec(**spec).to_json())
    run = Runner()

    setup_times, digests = [], []

    def set_up(keep: bool) -> str:
        d = os.path.join(work, f"setup{len(setup_times)}")
        setup_times.append(setup(run, spec_path, d))
        digests.append(data_digest(d))
        if not keep:
            shutil.rmtree(d)
        return d

    def set_up_batch(first: int):
        while sum(setup_times[first:]) < SETUP_SECONDS:
            set_up(keep=False)

    # the rounds run on the first set-up; a traced run reports no set-up
    # time, and its one set-up is the reference for the tracing overhead
    d = set_up(keep=True)
    test_ids = _split_ids(f"{d}/data")["test"]
    rng = np.random.default_rng(seed)
    singles = [test_ids[i] for i in
               rng.choice(len(test_ids), w.singles, replace=False)]

    # a traced run times one untraced round, its reference for the
    # tracing overhead
    min_rounds = 1 if trace else MIN_ROUNDS
    round_ops, round_times, round_digests = [], [], []
    begin = time.perf_counter()
    while len(round_times) < min_rounds or (
            not trace and time.perf_counter() - begin < seconds):
        if not trace:  # the first batch includes the rounds' set-up
            set_up_batch(len(setup_times) if round_times else 0)
        first = len(run.ops)
        round_times.append(one_round(w, run, d, singles))
        round_ops.append(run.ops[first:])
        round_digests.append(checks.file_digest(model_files(d)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall = time.perf_counter() - begin

    checked = round_ops[-1]
    tracer = None
    if trace:
        tracer = spans.Tracer()
        restore = spans.instrument(tracer, MODULES)
        try:
            d = os.path.join(work, "traced")
            traced = setup(run, spec_path, d)
            first = len(run.ops)
            traced += one_round(w, run, d, singles)
        finally:
            restore()
        tracer.write(os.path.join(work, "spans.jsonl.gz"))
        checked = run.ops[first:]
        digests.append(data_digest(d))
        round_digests.append(checks.file_digest(model_files(d)))

    failures = []
    t_check = time.perf_counter()

    def check(fn, *args):
        try:
            fn(*args)
        except checks.CheckError as e:
            failures.append(str(e))
        except Exception:  # a crash in a check is a failed check
            failures.append(traceback.format_exc())

    check(checks.expect, len(set(digests)) == 1,
          "set-ups of the same seed differ in their files")
    check(checks.expect, len(set(round_digests)) <= 1,
          "rounds of the same seed wrote different model.xck, provenance "
          "or metrics.csv")
    check(check_outputs, w, spec, d, checked, singles)
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"set-ups {sum(setup_times):.1f} s, {len(round_times)} round(s) "
          f"{sum(round_times):.1f} s cpu / {wall:.1f} s wall, checks "
          f"{time.perf_counter() - t_check:.1f} s",
          file=sys.stderr)

    failed = sum(op.rc != 0 for op in run.ops)
    result = {"correct": not failures and failed == 0,
              "attempted": len(run.ops), "failed": failed}
    if tracer is None:
        result["metrics"] = end_to_end(round_ops, setup_times, peak_rss_mb)
    else:
        untraced = statistics.median(setup_times) + statistics.median(
            round_times)
        m = spans.layer_metrics(tracer)
        m["trace.overhead_pct"] = (100.0 * (traced / untraced - 1.0), "%")
        m["trace.spans"] = (len(tracer.spans), "count")
        result["metrics"] = {k: {"value": v, "unit": u}
                             for k, (v, u) in m.items()}
    return result


def end_to_end(round_ops: list, setup_times: list,
               peak_rss_mb: float) -> dict:
    """Throughputs are subjects over time summed over all rounds, so each
    averages the machine's speed over the whole run; `explain_one_p50_s`
    is the median over every individual-mode explain request of one
    subject (a `--subject` request, or a split of one subject)."""
    ops = [op for r in round_ops for op in r if op.rc == 0]

    def rate(kind):
        sel = [op for op in ops if op.kind == kind]
        return sum(op.subjects for op in sel) / sum(op.seconds for op in sel) \
            if sel else 0.0

    m = {
        "setup_s": (statistics.median(setup_times), "s"),
        "train_samples_per_s": (rate("train"), "samples/s"),
        "eval_samples_per_s": (rate("eval"), "samples/s"),
        "explain_samples_per_s": (rate("explain"), "samples/s"),
        "explain_one_p50_s": (statistics.median(
            [op.seconds for op in ops if op.kind in ("explain", "one")
             and op.subjects == 1] or [0.0]), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def check_outputs(w: Workload, spec: dict, d: str, ops: list,
                  singles: list) -> None:
    """All output checks on the last round, against the float64
    reference, the raw subject files and the planted labels."""
    data, out = f"{d}/data", f"{d}/out"
    ckpt = f"{d}/model/model.xck"
    pvi = surface.build_partition(spec["mesh_order"],
                                  spec["patch_order"]).patch_vertex_indices
    checks.partition_invariants(pvi, spec["mesh_order"], spec["patch_order"])
    ref = reference.Reference(ckpt, pvi)
    with open(ckpt + ".provenance.json") as f:
        provenance = json.load(f)
    labels = checks.planted_labels(spec)
    ids = _split_ids(data)
    h, v_total = spec["hemispheres"], (
        10 * 4 ** spec["mesh_order"] + 2) * spec["hemispheres"]

    def raw(sid):
        return reference.read_subject(f"{data}/{sid}.f32", v_total,
                                      spec["channels"])

    w_ref = ref.weights()
    acts = {}
    for split in set(w.eval_splits) | set(w.explain_splits):
        for sid, a in zip(ids[split], ref.activations([raw(s) for s in
                                                        ids[split]])):
            acts[sid] = a

    reports = [json.loads(op.stdout.splitlines()[-1])
               for op in ops if op.kind == "eval"]
    checks.expect(len(reports) == len(w.eval_splits), "missing eval output")
    for rep in reports:
        sids = ids[rep["split"]]
        checks.check_eval(rep, np.array([acts[s].sum() for s in sids]),
                          np.array([labels[s] for s in sids]))

    for sid in (s for split in w.explain_splits for s in ids[split]):
        stem = f"{out}/individual/activation_{sid}"
        values = checks.check_patch_csv(stem + ".csv", acts[sid], w_ref,
                                        provenance)
        checks.check_surface(stem, checks.vertex_mean(values, pvi, h), h,
                             spec["mesh_order"])
    for sid in singles:
        stem = f"activation_{sid}"
        for name in [stem + ".csv"] + checks.ply_paths(stem, h):
            checks.expect(
                checks.file_digest([f"{out}/one/{name}"])
                == checks.file_digest([f"{out}/individual/{name}"]),
                f"single-subject output {name} differs from the split run")

    if w.group:
        keep = [acts[s] for s in ids["test"]
                if labels[s] == 1 and acts[s].sum() >= 0.5]
        values, _, _ = checks.read_csv(f"{out}/group/group_mean_activation"
                                       ".csv")
        err = np.max(np.abs(values - np.mean(keep, axis=0)))
        checks.expect(err <= checks.ACT_TOL,
                      f"group mean map off by {err:.2e}")
        checks.check_surface(f"{out}/group/group_mean_activation",
                             checks.vertex_mean(values, pvi, h), h,
                             spec["mesh_order"])

    # active prototypes are real patches: bit-equal to a fresh encoding of
    # their source subject (the program's encoder on the checkpoint's
    # float32 weights, batched as in the final projection), and equal to
    # the reference embedding within tolerance
    meta = ref.meta
    enc_cfg = encoder.EncoderConfig(
        **meta["encoder"], seq_len=pvi.shape[0] * h, patch_size=pvi.shape[1],
        channels=spec["channels"])
    params = {k: tensor.Tensor(a.astype(np.float32))
              for k, a in ref.params.items() if not k.startswith("psp.")}
    part = surface.PatchPartition(spec["mesh_order"], spec["patch_order"],
                                  pvi)
    _, splits = surface.load_dataset(os.path.join(data, "manifest.json"))
    positives = sorted((surface.normalize(s, meta["stats"], meta["channels"])
                        for s in splits["train"] if s.label == 1),
                       key=lambda s: s.subject_id)
    emb = psp.encode_samples(positives, params, enc_cfg, part, h)
    order = [s.subject_id for s in positives]
    active = np.nonzero(w_ref > 0)[0]
    sources = sorted({provenance[i][0] for i in active})
    ref_emb = dict(zip(sources, ref.embed([raw(s) for s in sources])))
    xi = ref.params["psp.xi"]
    for i in active:
        src = provenance[i][0]
        checks.expect(xi[i].astype(np.float32).tobytes()
                      == emb[order.index(src), i].tobytes(),
                      f"prototype {i} is not bit-equal to patch {i} of "
                      f"{src}")
        err = np.max(np.abs(xi[i] - ref_emb[src][i]))
        checks.expect(err <= checks.EMB_TOL,
                      f"prototype {i} off the reference embedding of {src} "
                      f"by {err:.2e}")
    if w.prototypes:
        expected = np.zeros(v_total)
        count = np.zeros(v_total)
        n, v = pvi.shape[0], v_total // h
        for i in active:
            idx = pvi[i % n] + (i // n) * v
            expected[idx] += raw(provenance[i][0])[idx, 0]
            count[idx] += 1
        with np.errstate(invalid="ignore"):
            expected = np.where(count > 0, expected / np.maximum(count, 1),
                                np.nan)
        checks.check_surface(f"{out}/prototypes/prototype_"
                             f"{meta['channels'][0]}", expected, h,
                             spec["mesh_order"])

    if w.planted:
        eval_bacc = [r["bacc"] for r in reports if r["split"] == "test"][0]
        bacc = checks.balanced_accuracy(
            np.array([acts[s].sum() for s in ids["test"]]),
            np.array([labels[s] for s in ids["test"]]))
        checks.expect(min(eval_bacc, bacc) >= 0.95,
                      f"test Bacc {eval_bacc:.3f} (reference {bacc:.3f}) "
                      "< 0.95 against the planted labels")
        gradient_check(ref, enc_cfg, spec, ids, labels, raw)


def gradient_check(ref, enc_cfg, spec, ids, labels, raw) -> None:
    """The program's float64 autodiff gradient of the class-weighted loss on
    one batch of 16 training subjects against central differences of the
    reference loss, on one coordinate of each of nine parameters (of the
    prototypes and scaler logits, an active one)."""
    rng = np.random.default_rng(spec["seed"])
    batch = sorted(rng.choice(ids["train"], 16, replace=False))
    patches = np.stack([ref.patches(raw(s)) for s in batch])
    y = np.array([labels[s] for s in batch], dtype=np.float64)
    n1 = sum(labels[s] for s in ids["train"])
    total = len(ids["train"])
    cw = (total / (2.0 * (total - n1)), total / (2.0 * n1))

    params = {k: tensor.Tensor(v.copy(), requires_grad=True,
                               dtype=np.float64)
              for k, v in ref.params.items()}
    enc_params = {k: t for k, t in params.items() if not k.startswith("psp.")}
    emb = encoder.encode(tensor.Tensor(patches, dtype=np.float64),
                         enc_params, enc_cfg, training=False)
    p = psp.class_probability(emb, psp.PrototypeBank(params["psp.xi"]),
                              psp.SparseScaler(params["psp.logits"]),
                              ref.rectify)
    loss = train.weighted_bce(p, y, cw)
    loss.backward()
    arrays = {k: t.data.copy() for k, t in params.items()}
    got = ref.loss(arrays, patches, y, cw)
    checks.expect(abs(loss.item() - got) <= 1e-12 * max(1.0, abs(got)),
                  f"float64 loss {loss.item()!r} vs reference {got!r}")

    last = f"block{ref.depth - 1}."
    coords = [(name, int(rng.integers(arrays[name].size))) for name in
              ("patch_proj.w", "pos_emb", "block0.attn.wq", "block0.norm1.g",
               last + "attn.wo", last + "mlp.w2", "final_norm.g")]
    active = np.nonzero(ref.weights() > 0)[0]
    xi = arrays["psp.xi"]
    live = [(i, j) for i in active for j in np.nonzero(xi[i] > 0)[0]]
    i, j = live[rng.integers(len(live))]
    coords += [("psp.xi", int(i * xi.shape[1] + j)),
               ("psp.logits", int(rng.choice(active)))]
    grads = {k: t.grad for k, t in params.items()}
    checks.fd_gradient(lambda a: ref.loss(a, patches, y, cw), arrays, grads,
                       coords)


def run(name: str, seed: int, seconds: float, trace: bool,
        out_root: str) -> dict:
    """Run one workload in a fresh work directory under `out_root`; the
    work directory is removed afterwards, except a traced run's spans."""
    work = os.path.join(out_root, f"{name}-seed{seed}-trace{int(trace)}-"
                                  f"{os.getpid()}")
    os.makedirs(work)
    try:
        return run_workload(name, seed, seconds, trace, work)
    finally:
        for entry in os.listdir(work):
            path = os.path.join(work, entry)
            if os.path.isdir(path):
                shutil.rmtree(path)
            elif not entry.startswith("spans"):
                os.remove(path)
