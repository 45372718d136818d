"""Per-pixel reference definitions of the threshold-swept metrics.

`efanet.metrics` computes the mean enhanced-alignment measure and the PR
curves from per-class pixel counts; these are the direct definitions they
must agree with: one binarised map per threshold, scored pixel by pixel.
"""

import numpy as np

from efanet.metrics import _EPS, CURVE_F_BETA_SQ, CURVE_THRESHOLDS, \
    CurveSet, _prep


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
    return CurveSet(CURVE_THRESHOLDS.copy(), precisions, recalls, f, f_beta_sq)
