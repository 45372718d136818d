"""Reference definitions the metrics in `efanet.metrics` must agree with.

`efanet.metrics` computes the mean enhanced-alignment measure and the PR
curves from per-class pixel counts; here they are the direct definitions:
one binarised map per threshold, scored pixel by pixel.  It computes the
weighted F-measure with a separable Gaussian over whole maps; here it is the
2-D kernel with every step restricted to the region it concerns.
"""

import numpy as np
from scipy import ndimage

from efanet.metrics import _EPS, CURVE_F_BETA_SQ, CURVE_THRESHOLDS, \
    WEIGHTED_F_BETA_SQ, CurveSet, EmptyGroundTruthError, _prep


def _e_measure_binary(bin_pred, gt):
    """Enhanced-alignment measure of one binary map (Fan et al., IJCAI 2018)."""
    h, w = gt.shape
    if not gt.any():
        enhanced = 1.0 - bin_pred
    elif gt.all():
        enhanced = bin_pred.astype(np.float64)
    else:
        fm = bin_pred - bin_pred.mean()
        gm = gt - gt.mean()
        align = 2.0 * gm * fm / (gm * gm + fm * fm + _EPS)
        enhanced = (align + 1.0) ** 2 / 4.0
    return float(enhanced.sum() / (h * w - 1 + _EPS))


def e_measure_mean(pred, gt):
    """Mean over the 256 curve thresholds of `_e_measure_binary(P > tau)`."""
    p, g = _prep(pred, gt)
    gf = g.astype(np.float64)
    scores = []
    for tau in CURVE_THRESHOLDS:
        scores.append(_e_measure_binary((p > tau).astype(np.float64), gf))
    return float(np.clip(np.mean(scores), 0.0, 1.0))


def pr_curves(samples, f_beta_sq=CURVE_F_BETA_SQ):
    """Dataset-mean precision/recall of `P >= tau`; precision of an empty
    prediction is 1."""
    n_thr = CURVE_THRESHOLDS.size
    precisions = np.zeros(n_thr)
    recalls = np.zeros(n_thr)
    for pred, gt in samples:
        p, g = _prep(pred, gt)
        ng = float(g.sum())
        for i, tau in enumerate(CURVE_THRESHOLDS):
            b = p >= tau
            nb = float(b.sum())
            tp = float(np.logical_and(b, g).sum())
            precisions[i] += 1.0 if nb == 0 else tp / nb
            recalls[i] += 1.0 if ng == 0 else tp / ng
    precisions /= len(samples)
    recalls /= len(samples)
    f = ((1.0 + f_beta_sq) * precisions * recalls /
         np.maximum(f_beta_sq * precisions + recalls, _EPS))
    return CurveSet(CURVE_THRESHOLDS.copy(), precisions, recalls, f)


def _gauss_kernel(size=7, sigma=5.0):
    half = size // 2
    g = np.exp(-np.arange(-half, half + 1) ** 2 / (2.0 * sigma * sigma))
    k = np.outer(g, g)
    return k / k.sum()


def weighted_fmeasure(pred, gt, beta_sq=WEIGHTED_F_BETA_SQ):
    """Weighted F-measure with distance-aware error weighting.

    False positives far from the object are discounted via an exponential
    penalty on the distance transform; errors inside the background borrow
    the error of their nearest foreground pixel before Gaussian smoothing.
    """
    p, g = _prep(pred, gt)
    if not g.any():
        raise EmptyGroundTruthError("weighted F-measure undefined for empty G")
    dst, idx = ndimage.distance_transform_edt(~g, return_indices=True)
    err = np.abs(p - g)
    err_t = err.copy()
    err_t[~g] = err[idx[0][~g], idx[1][~g]]
    # replicate borders: a constant error field must be a smoothing fixed
    # point, so an all-wrong prediction gets weighted recall exactly 0
    smoothed = ndimage.correlate(err_t, _gauss_kernel(), mode="nearest")
    min_err = np.where(g & (smoothed < err), smoothed, err)
    weight = np.ones_like(p)
    weight[~g] = 2.0 - np.exp(np.log(0.5) / 5.0 * dst[~g])
    ew = min_err * weight
    tp_w = g.sum() - ew[g].sum()
    fp_w = ew[~g].sum()
    recall = 1.0 - ew[g].mean()
    precision = tp_w / (tp_w + fp_w + _EPS)
    f = ((1.0 + beta_sq) * precision * recall /
         (beta_sq * precision + recall + _EPS))
    return float(np.clip(f, 0.0, 1.0))
