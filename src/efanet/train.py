"""Training, evaluation, and prediction drivers used by the CLI."""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import dataio, metrics, pipeline
from .checkpoint import save_checkpoint
from .config import RunConfig
from .engine import Adam, Tensor, _sigmoid, no_grad
from .model import EFANet, total_loss


class NumericFailure(RuntimeError):
    """Raised on a NaN/Inf loss or prediction; carries the last-good path."""

    def __init__(self, message, last_checkpoint=None):
        super().__init__(message)
        self.last_checkpoint = last_checkpoint


# The loss terms of LossBreakdown.values(), as train_log.tsv names them
LOSS_TERMS = ("seg1", "seg2", "seg3", "seg4", "edge")


def _round_to_32(x):
    return max(32, int(round(x / 32.0)) * 32)


def _batch_tensors(batch, dtype):
    """Stack (image, mask, edge) triples into an image Tensor and two arrays."""
    images, masks, edges = zip(*batch)
    return Tensor(np.stack(images).astype(dtype)), np.stack(masks), np.stack(edges)


def load_split(manifest_path, split, radius=1):
    records = dataio.read_manifest(manifest_path)
    wanted = [r for r in records if r[3] == split]
    return [pipeline.load_sample(r, radius) for r in wanted]


def train(cfg: RunConfig):
    """Run the full training loop; returns the final checkpoint path.

    Per batch: pick one of the configured scale ratios, resize, augment,
    forward, loss, Adam step.  Loss lines go to <out_dir>/train_log.tsv.
    """
    cfg.validate()
    if not cfg.train.manifest:
        raise ValueError("train: no dataset manifest configured")
    samples = load_split(cfg.train.manifest, "train",
                         cfg.aug.edge_dilation_radius)
    channels = cfg.model.backbone.input_channels
    for s in samples:
        if s.image.shape[0] != channels:
            raise ValueError(f"train: record {s.id} has {s.image.shape[0]} "
                             f"image channels, backbone.input_channels = {channels}")
    if len(samples) < cfg.optim.batch_size:
        raise ValueError(f"train: {len(samples)} 'train' records in "
                         f"{cfg.train.manifest}, fewer than optim.batch_size "
                         f"= {cfg.optim.batch_size}")
    out_dir = cfg.train.out_dir
    os.makedirs(out_dir, exist_ok=True)

    dtype = cfg.np_dtype()
    model = EFANet(cfg.model, seed=cfg.train.seed, dtype=dtype)
    model.train()
    opt = Adam(model.parameters(), lr=cfg.optim.lr, beta1=cfg.optim.beta1,
               beta2=cfg.optim.beta2, eps=cfg.optim.eps)

    rng = np.random.default_rng(cfg.train.seed)
    log_path = os.path.join(out_dir, "train_log.tsv")
    final_path = os.path.join(out_dir, "final.efac")
    last_ckpt = None
    step = 0
    start = time.time()
    ratios = cfg.aug.scale_ratios if cfg.train.multiscale else (1.0,)

    def _step(batch):
        """Forward, loss, finite check, backward and Adam on one batch of
        (image, mask, edge) triples; returns the loss values, so the step's
        tensors are freed before the next batch is drawn."""
        image, mask, edge = _batch_tensors(batch, dtype)
        loss = total_loss(model(image), mask, edge, cfg.model)
        seg_vals, edge_val, total_val = loss.values()
        if not np.isfinite(total_val):
            bad = [k for k, v in zip(LOSS_TERMS, [*seg_vals, edge_val])
                   if not np.isfinite(v)]
            raise NumericFailure(f"non-finite loss at step {step} "
                                 f"({', '.join(bad or ['total'])})",
                                 last_ckpt)
        loss.total.backward()
        opt.step()
        return seg_vals, edge_val, total_val

    with open(log_path, "w", encoding="utf-8") as log:
        log.write("\t".join(["step", "epoch", *LOSS_TERMS, "total"]) + "\n")
        for epoch in range(cfg.optim.epochs):
            if step >= cfg.optim.max_steps:
                break
            order = rng.permutation(len(samples))
            bs = cfg.optim.batch_size
            for lo in range(0, len(order) - bs + 1, bs):
                if step >= cfg.optim.max_steps:
                    break
                idx = order[lo:lo + bs]
                ratio = float(ratios[rng.integers(0, len(ratios))])
                size = _round_to_32(cfg.aug.target_size * ratio)
                batch = []
                for i in idx:
                    image, mask = pipeline.rescale(samples[i].image,
                                                   samples[i].mask, size)
                    batch.append(pipeline.augment(image, mask, rng, cfg.aug))
                seg_vals, edge_val, total_val = _step(batch)
                step += 1
                line = (f"{step}\t{epoch}\t" +
                        "\t".join(f"{v:.6f}" for v in seg_vals) +
                        f"\t{edge_val:.6f}\t{total_val:.6f}")
                log.write(line + "\n")
            opt.lr *= cfg.optim.lr_decay
            if (epoch + 1) % cfg.optim.checkpoint_interval == 0:
                path = os.path.join(out_dir, f"epoch{epoch + 1:04d}.efac")
                save_checkpoint(path, model, cfg, step=step)
                last_ckpt = path

    save_checkpoint(final_path, model, cfg, step=step)
    elapsed = time.time() - start
    return final_path, step, elapsed


def predict_probability(model, image, target_size, dtype=np.float32):
    """Sigmoid of the finest side output, resized back to the input size;
    raises NumericFailure if any logit is NaN or infinite."""
    c, h, w = image.shape
    resized = pipeline.resize_image(image, target_size, target_size)
    with no_grad():
        out = model(Tensor(resized[None].astype(dtype)))
        logits = out.side_logits[0].data[0, 0]
    if not np.isfinite(logits).all():
        raise NumericFailure("non-finite prediction")
    prob = _sigmoid(logits.astype(np.float64))
    if (h, w) != prob.shape:
        prob = pipeline.resize_image(prob, h, w)
    return prob


def evaluate(model, cfg: RunConfig, manifest_path, split="test",
             oracle_mode=False, workers=None):
    """Evaluate on one manifest split; returns (MetricReport, CurveSet).

    Each image's maps are dropped once it is scored: only its metric record
    and its precision/recall curves are kept, in record order."""
    cfg.validate()
    model.eval()
    records = dataio.read_manifest(manifest_path)
    wanted = [r for r in records if r[3] == split]
    if not wanted:
        raise ValueError(f"no '{split}' records in {manifest_path}")
    if workers is None:
        raw = os.environ.get("EFANET_THREADS", "1")
        if not raw.strip().isdecimal() or int(raw) < 1:
            raise ValueError(f"EFANET_THREADS must be an integer >= 1, "
                             f"got {raw!r}")
        workers = int(raw)

    def run_one(record):
        sid = record[0]
        image, mask = pipeline.read_pair(record)
        gt = mask[0]
        if oracle_mode:
            prob = gt.astype(np.float64)
        else:
            try:
                prob = predict_probability(model, image, cfg.aug.target_size,
                                           cfg.np_dtype())
            except NumericFailure as exc:
                raise NumericFailure(f"record {sid}: {exc}") from None
        rec = metrics.evaluate_pair(prob, gt, sid, cfg.eval.threshold)
        return rec, metrics.pr_curves([(prob, gt)])

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_one, wanted))
    else:
        results = [run_one(r) for r in wanted]

    report = metrics.MetricReport(records=[r for r, _ in results],
                                  threshold=cfg.eval.threshold)
    curves = metrics.mean_curves([curve for _, curve in results])
    return report, curves


def write_eval_outputs(out_dir, report, curves):
    os.makedirs(out_dir, exist_ok=True)
    metrics.write_report_tsv(os.path.join(out_dir, "report.tsv"), report)
    metrics.write_curves_tsv(os.path.join(out_dir, "curves.tsv"), curves)
    metrics.write_bucket_tsv(os.path.join(out_dir, "buckets.tsv"),
                             metrics.scale_bucket_report(report.records))
