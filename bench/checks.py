"""Output checks for the benchmark workloads.

Each check compares what efanet produced with an independent computation or
a property the output must have, and raises CheckError on a mismatch.  None
compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import math

import numpy as np

LOSS_COLUMNS = ("step", "epoch", "seg1", "seg2", "seg3", "seg4", "edge", "total")
METRIC_FIELDS = ("dice", "iou", "s_alpha", "f_w", "e_mean")
THRESHOLDS = np.arange(256) / 255.0   # the 256 binarization levels of E-mean
EPS = 1e-8                            # the E-measure's stabilizer


class CheckError(AssertionError):
    """An output of the program is wrong."""


def check_train_log(text, steps, beta_edge, window=3):
    """The loss log of one train() call that made `steps` steps.

    One line per step, numbered 1..steps; every loss finite; `total` equal to
    seg1+..+seg4 + beta_edge*edge within the log's 6-decimal rounding (plus a
    few float32 ulps of the total); the mean total of the last `window` steps
    below that of the first `window` steps.
    """
    lines = text.splitlines()
    if not lines or tuple(lines[0].split("\t")) != LOSS_COLUMNS:
        raise CheckError(f"loss log header is {lines[:1]!r}")
    rows = [line.split("\t") for line in lines[1:]]
    if len(rows) != steps:
        raise CheckError(f"loss log has {len(rows)} lines for {steps} steps")
    totals = []
    for want, row in enumerate(rows, 1):
        if len(row) != len(LOSS_COLUMNS) or row[0] != str(want):
            raise CheckError(f"loss log line {want} is {row!r}")
        try:
            seg = [float(v) for v in row[2:6]]
            edge, total = float(row[6]), float(row[7])
        except ValueError:
            raise CheckError(f"unreadable loss at step {want}: {row!r}") from None
        if not all(math.isfinite(v) for v in seg + [edge, total]):
            raise CheckError(f"non-finite loss at step {want}: {row!r}")
        rebuilt = sum(seg) + beta_edge * edge
        tol = 0.5e-6 * (len(seg) + abs(beta_edge) + 1) + 4 * 2.0 ** -23 * abs(total)
        if abs(total - rebuilt) > tol:
            raise CheckError(f"step {want}: total {total} != seg sum + "
                             f"{beta_edge}*edge = {rebuilt:.7f}")
        totals.append(total)
    k = min(window, steps // 2)
    if k and not np.mean(totals[-k:]) < np.mean(totals[:k]):
        raise CheckError(f"loss did not fall: first {k} steps mean "
                         f"{np.mean(totals[:k]):.6f}, last {k} mean "
                         f"{np.mean(totals[-k:]):.6f}")


def check_checkpoint_step(stored_step, steps):
    if stored_step != steps:
        raise CheckError(f"final checkpoint holds step {stored_step}, "
                         f"the run made {steps} steps")


def check_report(report, ids):
    """One record per image id, every metric finite and in [0,1]."""
    got = [r.id for r in report.records]
    if sorted(got) != sorted(ids):
        raise CheckError(f"report has {len(got)} records for {len(ids)} "
                         f"images (missing {sorted(set(ids) - set(got))[:3]})")
    for r in report.records:
        for name in METRIC_FIELDS:
            v = getattr(r, name)
            if not (math.isfinite(v) and 0.0 <= v <= 1.0):
                raise CheckError(f"{r.id}: {name} = {v} outside [0,1]")


def check_recall_curve(curves):
    """Mean recall cannot rise as the threshold rises."""
    if not np.all(np.diff(curves.thresholds) > 0):
        raise CheckError("curve thresholds are not increasing")
    rises = np.nonzero(np.diff(curves.recall) > 0)[0]
    if rises.size:
        i = int(rises[0])
        raise CheckError(f"recall rises from {curves.recall[i]} to "
                         f"{curves.recall[i + 1]} at threshold "
                         f"{curves.thresholds[i + 1]:.4f}")


def check_oracle(report):
    """Scoring the ground truth against itself gives mDice = mIoU = 1."""
    agg = report.aggregate()
    if agg["mDice"] != 1.0 or agg["mIoU"] != 1.0:
        raise CheckError(f"oracle evaluation gave mDice {agg['mDice']}, "
                         f"mIoU {agg['mIoU']}")


def counts_metrics(prob, gt, threshold):
    """Dice, IoU and the 256-level mean enhanced-alignment measure of a
    probability map, computed only from pixel counts.

    A binarized map and a binary ground truth put every pixel in one of four
    (prediction, truth) classes, and every pixel of a class has the same
    enhanced-alignment value, so each score is a count-weighted sum of four
    values.  Counts at all 256 levels come from one sort per class.
    """
    p = np.asarray(prob, dtype=np.float64).reshape(-1)
    g = np.asarray(gt).reshape(-1) == 1
    n, ng = p.size, int(g.sum())

    b = p >= threshold
    inter, nb = int((b & g).sum()), int(b.sum())
    dice = 1.0 if nb + ng == 0 else 2.0 * inter / (nb + ng)
    iou = 1.0 if nb + ng - inter == 0 else inter / (nb + ng - inter)

    fg, bg = np.sort(p[g]), np.sort(p[~g])
    tp = fg.size - np.searchsorted(fg, THRESHOLDS, side="right")   # p > tau
    fp = bg.size - np.searchsorted(bg, THRESHOLDS, side="right")
    scores = []
    for n11, n10 in zip(tp.tolist(), fp.tolist()):
        npred = n11 + n10
        if ng == 0:
            total = n - npred
        elif ng == n:
            total = npred
        else:
            mf, mg = npred / n, ng / n
            total = 0.0
            for count, bv, gv in ((n11, 1, 1), (n10, 1, 0), (ng - n11, 0, 1),
                                  (n - npred - ng + n11, 0, 0)):
                fm, gm = bv - mf, gv - mg
                align = 2.0 * gm * fm / (gm * gm + fm * fm + EPS)
                total += count * (align + 1.0) ** 2 / 4.0
        scores.append(total / (n - 1 + EPS))
    e_mean = float(np.clip(np.mean(scores), 0.0, 1.0))
    return dice, iou, e_mean


def check_counts(record, prob, gt, threshold, tol=1e-9):
    """The report's Dice, IoU and E-mean match the count-based recomputation."""
    want = dict(zip(("dice", "iou", "e_mean"),
                    counts_metrics(prob, gt, threshold)))
    for name, value in want.items():
        got = getattr(record, name)
        if not abs(got - value) <= tol:
            raise CheckError(f"{record.id}: report {name} {got!r}, recomputed "
                             f"from pixel counts {value!r}")


def gradient_picks(params, rng, n, floor=1e-3):
    """n (param index, flat element index) pairs, drawn from the elements
    whose backward gradient is at least `floor` in size, each from a different
    parameter, so that every pick has a gradient worth comparing."""
    eligible = [j for j, (_, p) in enumerate(params)
                if p.grad is not None and np.abs(p.grad).max() >= floor]
    picks = []
    for j in rng.choice(eligible, size=n, replace=False):
        big = np.flatnonzero(np.abs(params[j][1].grad.reshape(-1)) >= floor)
        picks.append((int(j), int(rng.choice(big))))
    return picks


def check_gradient(loss_fn, params, picks, h=1e-8, tol=1e-3):
    """engine.backward's gradient of loss_fn() against central differences.

    `params` are (name, Tensor) pairs of a float64 model with gradients
    already filled by one backward pass; `picks` are (param index, flat
    element index) pairs, chosen with gradient_picks.  The error is relative
    to the larger of the two derivatives.  The step is small because the
    model has thousands of ReLUs: a step of 1e-5 moves some of them across
    their kink and leaves a difference error of a few percent, while at 1e-8
    the float64 rounding of the loss stays far below `tol` for gradients
    above gradient_picks' floor.  Returns the worst relative error.
    """
    worst = 0.0
    for j, i in picks:
        name, p = params[j]
        flat = p.data.reshape(-1)
        orig = flat[i]
        flat[i] = orig + h
        hi = float(loss_fn().data)
        flat[i] = orig - h
        lo = float(loss_fn().data)
        flat[i] = orig
        num = (hi - lo) / (2 * h)
        ana = float(p.grad.reshape(-1)[i])
        err = abs(num - ana) / max(abs(num), abs(ana), 1e-12)
        if not err < tol:
            raise CheckError(f"d total_loss / d {name}[{i}]: backward {ana!r}, "
                             f"finite difference {num!r}")
        worst = max(worst, err)
    return worst
