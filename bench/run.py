"""EFA-Net benchmark: one workload per run, through efanet's public Python API.

    python3 bench/run.py --workload train-64 --seed 1 --seconds 20 --trace 0

Workloads (see README.md for their make-up and the metric map):
  train-64  train.train() on synthetic 64x64 blobs, batch 8, float32
  eval-64   train.evaluate() on 64x64 synthetic images
  eval-352  train.evaluate() on 352x352 synthetic images (the paper's test size)

The run builds its inputs from --seed, sets them up several times, checks the
program's outputs, times whole rounds of the workload for --seconds, and
prints one JSON line last: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1.  It must run from a checkout
that holds the efanet sources under src/.
"""

from __future__ import annotations

import os

# Single-threaded BLAS and evaluation, set before numpy is first imported.
os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                  EFANET_THREADS="1")

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
RESULTS_DIR = ROOT / ".bench_results"

SETUP_FIRST = 3            # set-ups before the first round, and
SETUP_PER_ROUND = 2        # after every round; setup_s is their median
TRAIN_IMAGES = 40          # 32 train + 8 held out, 64x64
TRAIN_EPOCHS = 2           # one round = one train() call = 2 x 4 steps
EVAL_IMAGES = {64: 32, 352: 8}   # images per evaluate() round
CHECK_IMAGES = 2           # fixed subset recomputed from pixel counts
COVER_IMAGES = 24          # traced eval runs: 3-step train() on 64x64 blobs
GRAD_SEED = 9              # fixed input of the finite-difference check
GRAD_PICKS = 8             # parameters it compares

END_TO_END = {"setup_s": "s", "images_per_s": "images/s", "op_ms": "ms",
              "peak_rss_mib": "MiB"}


class Run:
    """Counters, timings and check results of one benchmark run."""

    def __init__(self, seed, seconds, tracer, work):
        self.seed, self.seconds, self.tracer, self.work = seed, seconds, tracer, work
        self.peak_call = None      # the call engine.traced_peak_mib is taken in
        self.setup_s = []
        self.round_s = []
        self.round_images = []
        self.attempted = 0
        self.failed = 0
        self.errors = []           # failed output checks
        self.crashes = []          # tracebacks of failed rounds

    def phase(self, name):
        self.tracer.set_phase(name)

    def set_up(self, fn, times):
        """`times` timed set-ups fn(run, directory), each in a fresh
        directory; returns the first one's inputs.  Set-ups are spread over
        the run, between the rounds, so that setup_s samples the same
        stretch of time as the rounds do."""
        inputs = []
        for _ in range(times):
            data = self.work / f"setup{len(self.setup_s)}"
            t0 = time.perf_counter()
            inputs.append(fn(self, data))
            self.setup_s.append(time.perf_counter() - t0)
        return inputs[0]

    def check(self, fn, *args):
        """Run one output check outside the timed part; record a failure."""
        phase, self.tracer.phase = self.tracer.phase, None
        try:
            return fn(*args)
        except checks.CheckError as exc:
            self.errors.append(f"{fn.__name__}: {exc}")
        finally:
            self.tracer.phase = phase

    def timed_round(self, fn, ops, images):
        """One round: a whole call of the program; failed calls count all
        their operations as failed."""
        self.attempted += ops
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception:  # the round's operations failed; keep measuring
            self.failed += ops
            self.crashes.append(traceback.format_exc(limit=3))
            out = None
        self.round_s.append(time.perf_counter() - t0)
        self.round_images.append(0 if out is None else images)
        return out

    def rounds_left(self):
        return not self.round_s or sum(self.round_s) < self.seconds


# -- set-up ------------------------------------------------------------------


def train_config(manifest, out_dir, seed, epochs, max_steps=2000):
    from efanet.config import RunConfig
    cfg = RunConfig()
    cfg.train.manifest = str(manifest)
    cfg.train.out_dir = str(out_dir)
    cfg.train.seed = seed
    cfg.train.multiscale = False   # fixed input size: constant work per step
    cfg.optim.epochs = epochs
    cfg.optim.max_steps = max_steps
    cfg.optim.checkpoint_interval = 1
    return cfg


def setup_train(run, data):
    from efanet import pipeline
    return pipeline.synth_blob_dataset(TRAIN_IMAGES, 64, run.seed, data)


def setup_eval(run, data, size):
    from efanet import checkpoint, pipeline
    from efanet.config import RunConfig
    from efanet.model import EFANet
    manifest = pipeline.synth_blob_dataset(EVAL_IMAGES[size], size, run.seed,
                                           data, train_fraction=0.0)
    cfg = RunConfig()
    cfg.train.seed = run.seed
    path = data / "model.efac"
    checkpoint.save_checkpoint(path, EFANet(cfg.model, seed=run.seed,
                                            dtype=cfg.np_dtype()), cfg)
    model, cfg, _, _ = checkpoint.load_checkpoint(path)
    return manifest, model, cfg


# -- workloads ---------------------------------------------------------------


def gradient_check(run):
    """d total_loss / d theta of a small float64 model on one 64x64 blob
    against central differences, for GRAD_PICKS parameters.  At 64x64 the
    deepest level is 2x2, so its training-mode batch norm passes gradient."""
    import numpy as np
    from efanet import pipeline
    from efanet.backbone import BackboneConfig
    from efanet.engine import Tensor, backward
    from efanet.model import EFANet, ModelConfig, total_loss
    backbone = BackboneConfig(stem_channels=4, channels_per_level=(4, 6, 8, 10, 12))
    net = EFANet(ModelConfig(common_width=8, backbone=backbone), seed=GRAD_SEED)
    net.train()
    rng = np.random.default_rng(GRAD_SEED)
    sample = pipeline.synth_sample(rng, 64, "grad")
    x = Tensor(sample.image[None])

    def loss():
        return total_loss(net(x), sample.mask[None], sample.edge[None],
                          net.config).total

    net.zero_grad()
    backward(loss())
    params = list(net.named_parameters())
    picks = checks.gradient_picks(params, rng, GRAD_PICKS)
    run.check(checks.check_gradient, loss, params, picks)


def train_64(run):
    from efanet import checkpoint
    from efanet import train as T
    run.phase("work")
    manifest = run.set_up(setup_train, SETUP_FIRST)
    run.phase(None)
    gradient_check(run)
    warm = train_config(manifest, run.work / "warmup", run.seed, 1, max_steps=2)
    T.train(warm)

    cfg = train_config(manifest, run.work / "run", run.seed, TRAIN_EPOCHS)
    steps = TRAIN_EPOCHS * (TRAIN_IMAGES * 4 // 5) // cfg.optim.batch_size
    batch = cfg.optim.batch_size
    final = None
    while run.rounds_left():
        run.phase("work")
        out = run.timed_round(lambda: T.train(cfg), steps, steps * batch)
        run.set_up(setup_train, SETUP_PER_ROUND)
        run.phase(None)
        if out is None:
            continue
        final = out[0]
        log = (Path(cfg.train.out_dir) / "train_log.tsv").read_text()
        run.check(checks.check_train_log, log, steps, cfg.model.beta_edge)
        run.check(checks.check_checkpoint_step,
                  checkpoint.load_checkpoint(final)[2], steps)

    run.peak_call = "train.train"
    if run.tracer.full and final is not None:
        # coverage: score the trained model on the held-out split
        run.phase("cover")
        model, cfg, _, _ = checkpoint.load_checkpoint(final)
        T.evaluate(model, cfg, manifest)
        run.phase("memory")
        T.train(warm)
        run.phase(None)


def eval_workload(run, size):
    from efanet import dataio, pipeline
    from efanet import train as T
    run.phase("work")
    setup = functools.partial(setup_eval, size=size)
    manifest, model, cfg = run.set_up(setup, SETUP_FIRST)
    run.phase(None)
    records = dataio.read_manifest(manifest)
    ids = [r[0] for r in records]
    subset = run.work / "subset.tsv"
    dataio.write_manifest(subset, records[:CHECK_IMAGES])

    # the fixed subset: Dice, IoU and E-mean recomputed from pixel counts,
    # and the ground truth scored against itself
    model.eval()   # as evaluate() runs it
    expected = []
    for rec in records[:CHECK_IMAGES]:
        sample = pipeline.load_sample(rec, cfg.aug.edge_dilation_radius)
        prob = T.predict_probability(model, sample.image, cfg.aug.target_size,
                                     cfg.np_dtype())
        expected.append((rec[0], prob, sample.mask[0]))

    def check_subset(report):
        by_id = {r.id: r for r in report.records}
        for sid, prob, gt in expected:
            if sid in by_id:   # a missing record fails check_report
                run.check(checks.check_counts, by_id[sid], prob, gt,
                          cfg.eval.threshold)

    report, curves = T.evaluate(model, cfg, subset)
    run.check(checks.check_report, report, ids[:CHECK_IMAGES])
    run.check(checks.check_recall_curve, curves)
    check_subset(report)
    oracle, _ = T.evaluate(model, cfg, subset, oracle_mode=True)
    run.check(checks.check_report, oracle, ids[:CHECK_IMAGES])
    run.check(checks.check_oracle, oracle)

    while run.rounds_left():
        run.phase("work")
        out = run.timed_round(lambda: T.evaluate(model, cfg, manifest),
                              len(ids), len(ids))
        run.set_up(setup, SETUP_PER_ROUND)
        run.phase(None)
        if out is None:
            continue
        report, curves = out
        run.check(checks.check_report, report, ids)
        run.check(checks.check_recall_curve, curves)
        check_subset(report)

    run.peak_call = "train.evaluate"
    if run.tracer.full:
        # coverage: a short training run on 64x64 blobs
        run.phase("cover")
        data = run.work / "cover"
        cover = pipeline.synth_blob_dataset(COVER_IMAGES, 64, run.seed, data,
                                            train_fraction=1.0)
        T.train(train_config(cover, data / "run", run.seed, 1))
        run.phase("memory")
        T.evaluate(model, cfg, manifest)
        T.train(train_config(cover, data / "memory", run.seed, 1, max_steps=2))
        run.phase(None)


WORKLOADS = {
    "train-64": train_64,
    "eval-64": lambda run: eval_workload(run, 64),
    "eval-352": lambda run: eval_workload(run, 352),
}


# -- metrics -----------------------------------------------------------------


def end_to_end(run):
    phase = "work"
    ops = (tracing.step_intervals(run.tracer.spans, phase)
           or [[ms] for ms in tracing.image_intervals(run.tracer.spans, phase)])
    return {
        "setup_s": statistics.median(run.setup_s),
        "images_per_s": statistics.median(
            n / s for n, s in zip(run.round_images, run.round_s)),
        "op_ms": statistics.median(row[0] for row in ops),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(run):
    """Time metrics come from the workload's own spans where it exercises the
    layer, else from the coverage pass; memory metrics from the memory pass."""
    from efanet import analyze
    from efanet.model import ModelConfig
    spans = run.tracer.spans
    res = next(s[tracing.INFO][1] for s in spans if s[0] == "model.forward")
    flops = tracing.scope_flops(analyze.analyze_model(ModelConfig(), res))
    phases = {p: tracing.phase_metrics(spans, p, flops, run.peak_call)
              for p in ("work", "cover", tracing.MEMORY)}
    merged = {}
    for k, v in phases["work"].items():
        if k.endswith("_mib"):
            merged[k] = phases[tracing.MEMORY][k]
        else:
            merged[k] = v if v is not None else phases["cover"][k]
    missing = [k for k, v in merged.items() if v is None]
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {missing}")
    self_report(run, phases)
    return merged


def self_report(run, phases):
    """Cross-checks of the traced run, printed to stderr (see README)."""
    spans = run.tracer.spans
    lines = []
    for p in ("work", "cover"):
        m = phases[p]
        steps = tracing.step_intervals(spans, p)
        if steps:
            step_ms = sum(row[0] for row in steps) / len(steps)
            parts = sum(m[f"train.step.{k}_ms"] for k in
                        ("data", "forward", "loss", "backward", "optimizer"))
            scopes = sum(m[f"scope.{g}.fwd_ms"] for g in tracing.SCOPES)
            lines.append(f"{p}: train.step.* sum {parts:.1f} ms / mean step "
                         f"{step_ms:.1f} ms = {parts / step_ms:.3f}; scope "
                         f"fwd sum {scopes:.1f} ms / train.step.forward_ms "
                         f"{m['train.step.forward_ms']:.1f} = "
                         f"{scopes / m['train.step.forward_ms']:.3f}")
        evals = [s for s in spans if s[0] == "train.evaluate" and s[1] == p]
        if evals:
            images = sum(1 for s in spans if s[0] == "metrics.evaluate_pair"
                         and s[1] == p)
            per_image = sum(s[3] - s[2] for s in evals) / 1e6 / images
            metric_ms = m["metrics.evaluate_pair_ms"] + m["metrics.pr_curves_ms"]
            lines.append(f"{p}: per image {per_image:.1f} ms: metrics.* "
                         f"{metric_ms / per_image:.1%}, predict_probability "
                         f"{m['train.predict_probability_ms'] / per_image:.1%}")
    e2e = end_to_end(run)
    lines.append(f"work: traced images_per_s {e2e['images_per_s']:.4f}, "
                 f"op_ms {e2e['op_ms']:.2f}")
    for line in lines:
        print(f"bench: {line}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "efanet" / "__init__.py").is_file():
        print(f"bench: no efanet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import efanet.train  # noqa: F401  (loads every module the tracer wraps)
    if Path(efanet.__file__).resolve().parent != SRC / "efanet":
        print(f"bench: imported efanet from {efanet.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    run = Run(args.seed, args.seconds, tracing.Tracer(full=bool(args.trace)), work)
    run.tracer.install()
    try:
        WORKLOADS[args.workload](run)
    finally:
        run.tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()   # only when no other run is using it
        except OSError:
            pass

    if args.trace:
        values = per_layer(run)
        units = {k: ("count" if k.endswith("per_step") else
                     "GFLOP/s" if k.endswith("gflops") else
                     "MiB" if k.endswith("mib") else "ms") for k in values}
        RESULTS_DIR.mkdir(exist_ok=True)
        out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-spans.json"
        with open(out, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "phase", "start_ns", "end_ns", "parent",
                                  "info", "mem_start", "mem_end"],
                       "spans": run.tracer.spans}, f, separators=(",", ":"))
    else:
        values = end_to_end(run)
        units = END_TO_END
    for err in run.crashes + run.errors:
        print(f"bench: FAILED {err}", file=sys.stderr)
    correct = not run.errors
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0 if correct and not run.failed else 1


if __name__ == "__main__":
    sys.exit(main())
