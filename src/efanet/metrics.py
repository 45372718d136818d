"""Segmentation evaluation metrics: Dice/IoU, structure measure, weighted
F-measure, mean enhanced-alignment measure, PR/F curves, and the per-scale
bucket report.

All functions take a finite prediction map P in [0,1] and a binary ground
truth G as 2-D numpy arrays (leading singleton channel axes are squeezed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pipeline import polyp_scale_ratio

_EPS = 1e-8

CURVE_THRESHOLDS = np.arange(256) / 255.0
CURVE_F_BETA_SQ = 0.3      # curve F-measure convention (Achanta et al., 2009)
WEIGHTED_F_BETA_SQ = 1.0   # weighted F-measure convention
S_ALPHA = 0.5              # S-measure object/region balance (Fan et al., 2017)
DEFAULT_BINARIZE_THRESHOLD = 0.5


class EmptyGroundTruthError(ValueError):
    """Raised where a metric is undefined for an empty ground truth."""


def _prep(pred, gt):
    p = np.asarray(pred, dtype=np.float64)
    g = np.asarray(gt)
    while p.ndim > 2 and p.shape[0] == 1:
        p = p[0]
    while g.ndim > 2 and g.shape[0] == 1:
        g = g[0]
    if p.shape != g.shape:
        raise ValueError(f"prediction shape {p.shape} != ground truth {g.shape}")
    if not np.isfinite(p).all():
        raise ValueError(f"{(~np.isfinite(p)).sum()} non-finite "
                         f"prediction value(s)")
    if g.dtype != bool:
        if not np.all((g == 0) | (g == 1)):
            raise ValueError("ground truth must be binary")
        g = g.astype(bool)
    return p, g


def dice_iou(pred, gt, threshold=DEFAULT_BINARIZE_THRESHOLD):
    """Dice and IoU of the thresholded prediction; (1,1) when both empty."""
    p, g = _prep(pred, gt)
    b = p >= threshold
    inter = float(np.logical_and(b, g).sum())
    nb, ng = float(b.sum()), float(g.sum())
    union = nb + ng - inter
    dice = 1.0 if (nb + ng) == 0 else 2.0 * inter / (nb + ng)
    iou = 1.0 if union == 0 else inter / union
    return dice, iou


# -- structure measure -------------------------------------------------------


def _s_object_part(vals):
    if not vals.size:
        return 0.0
    x = vals.mean()
    sigma = vals.std()
    return 2.0 * x / (x * x + 1.0 + sigma + _EPS)


def _ssim_block(pred, gt):
    n = pred.size
    if n == 0:
        return 1.0
    if n == 1:
        return 1.0 if float(pred.reshape(())) == float(gt.reshape(())) else 0.0
    x, y = pred.mean(), gt.mean()
    sx = ((pred - x) ** 2).sum() / (n - 1)
    sy = ((gt - y) ** 2).sum() / (n - 1)
    sxy = ((pred - x) * (gt - y)).sum() / (n - 1)
    alpha = 4.0 * x * y * sxy
    beta = (x * x + y * y) * (sx + sy)
    if alpha != 0:
        return alpha / (beta + _EPS)
    if beta == 0:
        return 1.0
    return 0.0


def _gt_centroid(gt):
    rows, cols = np.nonzero(gt)
    return int(np.round(rows.mean())) + 1, int(np.round(cols.mean())) + 1


def _s_region(pred, gt):
    h, w = gt.shape
    cy, cx = _gt_centroid(gt)
    area = h * w
    # area-proportional quadrant weights about the foreground centroid
    w1 = (cy * cx) / area
    w2 = (cy * (w - cx)) / area
    w3 = ((h - cy) * cx) / area
    w4 = 1.0 - w1 - w2 - w3
    q1 = _ssim_block(pred[:cy, :cx], gt[:cy, :cx].astype(np.float64))
    q2 = _ssim_block(pred[:cy, cx:], gt[:cy, cx:].astype(np.float64))
    q3 = _ssim_block(pred[cy:, :cx], gt[cy:, :cx].astype(np.float64))
    q4 = _ssim_block(pred[cy:, cx:], gt[cy:, cx:].astype(np.float64))
    return w1 * q1 + w2 * q2 + w3 * q3 + w4 * q4


def s_measure(pred, gt):
    """Structure measure: S_ALPHA * object + (1-S_ALPHA) * region similarity;
    mean-based fallback for all-background / all-foreground G."""
    p, g = _prep(pred, gt)
    y = g.mean()
    if y == 0:
        return float(np.clip(1.0 - p.mean(), 0.0, 1.0))
    if y == 1:
        return float(np.clip(p.mean(), 0.0, 1.0))
    o_fg = _s_object_part(p[g])
    o_bg = _s_object_part(1.0 - p[~g])
    s_obj = y * o_fg + (1.0 - y) * o_bg
    s_reg = _s_region(p, g)
    return float(np.clip(S_ALPHA * s_obj + (1.0 - S_ALPHA) * s_reg, 0.0, 1.0))


# -- weighted F-measure ------------------------------------------------------


def _gauss_kernel(size=7, sigma=5.0):
    """The normalised 1-D Gaussian; the 2-D smoothing kernel is its outer
    product, so smoothing is one pass along each axis."""
    half = size // 2
    g = np.exp(-np.arange(-half, half + 1) ** 2 / (2.0 * sigma * sigma))
    return g / g.sum()


def weighted_fmeasure(pred, gt):
    """Weighted F-measure with distance-aware error weighting.

    False positives far from the object are discounted via an exponential
    penalty on the distance transform; errors inside the background borrow
    the error of their nearest foreground pixel before Gaussian smoothing.
    """
    from scipy import ndimage  # imported here: training never loads it
    p, g = _prep(pred, gt)
    if not g.any():
        raise EmptyGroundTruthError("weighted F-measure undefined for empty G")
    # the nearest foreground pixel; its distance as scipy computes it, from
    # the integer offsets
    idx = ndimage.distance_transform_edt(~g, return_distances=False,
                                         return_indices=True)
    dy = idx[0] - np.arange(g.shape[0], dtype=idx.dtype)[:, None]
    dx = idx[1] - np.arange(g.shape[1], dtype=idx.dtype)
    dy *= dy
    dy += dx * dx
    dst = np.sqrt(dy, dtype=np.float64)
    err = np.abs(p - g)
    # only G pixels read the smoothed error, and the kernel reaches `half`
    # pixels, so it is computed on G's bounding box grown by `half`
    k = _gauss_kernel()
    half = k.size // 2
    rows, cols = np.nonzero(g.any(axis=1))[0], np.nonzero(g.any(axis=0))[0]
    box = (slice(max(rows[0] - half, 0), rows[-1] + half + 1),
           slice(max(cols[0] - half, 0), cols[-1] + half + 1))
    # the nearest foreground pixel of a G pixel is the pixel itself
    err_t = err[idx[0][box], idx[1][box]]
    # replicate borders: a constant error field must be a smoothing fixed
    # point, so an all-wrong prediction gets weighted recall exactly 0
    smoothed = ndimage.correlate1d(
        ndimage.correlate1d(err_t, k, axis=0, mode="nearest"),
        k, axis=1, mode="nearest")
    np.copyto(err[box], smoothed, where=g[box] & (smoothed < err[box]))
    # the weight 2 - exp(log(0.5) / 5 * dst), built in dst's buffer; dst is
    # 0 on G, so G's weight is exactly 1
    dst *= np.log(0.5) / 5.0
    ew = np.subtract(2.0, np.exp(dst, out=dst), out=dst)
    ew *= err
    ng = g.sum()
    ew_fg = ew[g].sum()
    tp_w = ng - ew_fg
    fp_w = ew.sum() - ew_fg
    recall = 1.0 - ew_fg / ng
    precision = tp_w / (tp_w + fp_w + _EPS)
    f = ((1.0 + WEIGHTED_F_BETA_SQ) * precision * recall /
         (WEIGHTED_F_BETA_SQ * precision + recall + _EPS))
    return float(np.clip(f, 0.0, 1.0))


# -- enhanced-alignment measure and curves -----------------------------------


def _counts_above(p, g, side):
    """G's foreground and background pixel counts above each curve threshold
    (side="right": P > tau, "left": P >= tau).  The four (prediction, truth)
    classes score alike pixel for pixel, so counts give both sweeps exactly."""
    counts = []
    for vals in (p[g], p[~g]):
        vals.sort()
        counts.append(vals.size - np.searchsorted(vals, CURVE_THRESHOLDS,
                                                  side=side))
    return counts


def e_measure_mean(pred, gt):
    """Mean over 256 binarization thresholds of the enhanced-alignment
    measure (strict > binarization, so an exact binary map only misses the
    top threshold)."""
    p, g = _prep(pred, gt)
    n, ng = p.size, int(g.sum())
    tp, fp = _counts_above(p, g, "right")
    npred = tp + fp
    if 0 < ng < n:
        # rows: the (1, 1), (1, 0), (0, 1), (0, 0) (prediction, truth) classes
        counts = np.stack([tp, fp, ng - tp, n - npred - ng + tp])
        fm = np.array([[1], [1], [0], [0]]) - npred / n
        gm = np.array([[1], [0], [1], [0]]) - ng / n
        align = 2.0 * gm * fm / (gm * gm + fm * fm + _EPS)
        total = (counts * ((align + 1.0) ** 2 / 4.0)).sum(axis=0)
    else:
        total = npred if ng else n - npred
    return float(np.clip(np.mean(total / (n - 1 + _EPS)), 0.0, 1.0))


@dataclass
class CurveSet:
    thresholds: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    fmeasure: np.ndarray


def _mean_curve_set(precisions, recalls):
    """Mean per-image precision and recall rows, summed in the given order;
    F (beta^2 = CURVE_F_BETA_SQ) from the means."""
    precision = sum(precisions) / len(precisions)
    recall = sum(recalls) / len(recalls)
    f = ((1.0 + CURVE_F_BETA_SQ) * precision * recall /
         np.maximum(CURVE_F_BETA_SQ * precision + recall, _EPS))
    return CurveSet(CURVE_THRESHOLDS.copy(), precision, recall, f)


def pr_curves(samples):
    """Dataset-mean precision/recall of P >= tau over 256 thresholds; F from
    the means.  Precision of an empty prediction is defined as 1."""
    if not samples:
        raise ValueError("pr_curves: empty sample list")
    precisions, recalls = [], []
    for pred, gt in samples:
        p, g = _prep(pred, gt)
        tp, fp = _counts_above(p, g, "left")
        nb = tp + fp
        precisions.append(np.where(nb == 0, 1.0, tp / np.maximum(nb, 1)))
        recalls.append(tp / g.sum() if g.any() else np.ones(nb.size))
    return _mean_curve_set(precisions, recalls)


def mean_curves(curve_sets):
    """The mean of per-image curves, ``pr_curves([(pred, gt)])`` each, in
    the given order.  Bit-identical to ``pr_curves`` over all the pairs, but
    needs only each image's 256-threshold curves, not its maps."""
    if not curve_sets:
        raise ValueError("mean_curves: empty curve list")
    return _mean_curve_set([c.precision for c in curve_sets],
                           [c.recall for c in curve_sets])


# -- report ------------------------------------------------------------------


@dataclass
class ImageRecord:
    id: str
    dice: float
    iou: float
    s_alpha: float
    f_w: float
    e_mean: float
    scale_ratio: float
    bucket: str


@dataclass
class MetricReport:
    records: list = field(default_factory=list)
    threshold: float = DEFAULT_BINARIZE_THRESHOLD

    def aggregate(self):
        if not self.records:
            return {}
        defined_f_w = [r.f_w for r in self.records if not np.isnan(r.f_w)]
        return {
            "mDice": float(np.mean([r.dice for r in self.records])),
            "mIoU": float(np.mean([r.iou for r in self.records])),
            "S_alpha": float(np.mean([r.s_alpha for r in self.records])),
            "F_w": float(np.mean(defined_f_w)) if defined_f_w else np.nan,
            "E_mean": float(np.mean([r.e_mean for r in self.records])),
            "count": len(self.records),
        }


def evaluate_pair(pred, gt, sample_id="", threshold=DEFAULT_BINARIZE_THRESHOLD):
    """All five metrics for one (prediction, ground truth) pair."""
    p, g = _prep(pred, gt)
    dice, iou = dice_iou(p, g, threshold)
    s = s_measure(p, g)
    try:
        fw = weighted_fmeasure(p, g)
    except EmptyGroundTruthError:
        fw = float("nan")
    em = e_measure_mean(p, g)
    ratio, bucket = polyp_scale_ratio(g)
    return ImageRecord(sample_id, dice, iou, s, fw, em, ratio, bucket)


def scale_bucket_report(records):
    """Mean dice/iou/s_alpha and population share per scale bucket."""
    out = {}
    total = len(records)
    for bucket in ("small", "medium", "large"):
        rs = [r for r in records if r.bucket == bucket]
        if rs:
            out[bucket] = {
                "count": len(rs),
                "share": len(rs) / total if total else 0.0,
                "mDice": float(np.mean([r.dice for r in rs])),
                "mIoU": float(np.mean([r.iou for r in rs])),
                "S_alpha": float(np.mean([r.s_alpha for r in rs])),
            }
        else:
            out[bucket] = {"count": 0, "share": 0.0,
                           "mDice": None, "mIoU": None, "S_alpha": None}
    return out


# -- serialization -----------------------------------------------------------


def write_report_tsv(path, report: MetricReport):
    agg = report.aggregate()
    with open(path, "w", encoding="utf-8") as f:
        f.write("# binarization_threshold\t%g\n" % report.threshold)
        f.write("# empty_prediction_precision\t1\n")
        f.write("id\tdice\tiou\ts_alpha\tf_w\te_mean\tscale_ratio\tbucket\n")
        for r in report.records:
            f.write(f"{r.id}\t{r.dice:.6f}\t{r.iou:.6f}\t{r.s_alpha:.6f}\t"
                    f"{r.f_w:.6f}\t{r.e_mean:.6f}\t{r.scale_ratio:.6f}\t"
                    f"{r.bucket}\n")
        if agg:
            f.write(f"AGGREGATE\t{agg['mDice']:.6f}\t{agg['mIoU']:.6f}\t"
                    f"{agg['S_alpha']:.6f}\t{agg['F_w']:.6f}\t"
                    f"{agg['E_mean']:.6f}\t-\t-\n")


def write_curves_tsv(path, curves: CurveSet):
    with open(path, "w", encoding="utf-8") as f:
        f.write("# f_beta_sq\t%g\n" % CURVE_F_BETA_SQ)
        f.write("threshold\tprecision\trecall\tfmeasure\n")
        for t, p, r, fm in zip(curves.thresholds, curves.precision,
                               curves.recall, curves.fmeasure):
            f.write(f"{t:.6f}\t{p:.6f}\t{r:.6f}\t{fm:.6f}\n")


def write_bucket_tsv(path, buckets):
    with open(path, "w", encoding="utf-8") as f:
        f.write("bucket\tcount\tshare\tmDice\tmIoU\tS_alpha\n")
        for name, row in buckets.items():
            def fmt(v):
                return "-" if v is None else f"{v:.6f}"
            f.write(f"{name}\t{row['count']}\t{row['share']:.6f}\t"
                    f"{fmt(row['mDice'])}\t{fmt(row['mIoU'])}\t"
                    f"{fmt(row['S_alpha'])}\n")
