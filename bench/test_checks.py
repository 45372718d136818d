"""Self-tests of the benchmark's output checks: each must pass a correct
output and reject a deliberately wrong one.

    python3 -m pytest -q bench/test_checks.py
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from efanet import metrics  # noqa: E402
from efanet.backbone import BackboneConfig  # noqa: E402
from efanet.engine import Tensor, backward  # noqa: E402
from efanet.model import EFANet, ModelConfig, total_loss  # noqa: E402


def pair(seed=0, size=32):
    rng = np.random.default_rng(seed)
    gt = np.zeros((size, size))
    gt[8:20, 6:22] = 1.0
    prob = np.clip(0.6 * gt + rng.uniform(0.0, 0.5, gt.shape), 0.0, 1.0)
    return prob, gt


def loss_log(totals=(9.5, 9.4, 9.2, 9.0, 8.9, 8.7), beta=5.0):
    lines = ["\t".join(checks.LOSS_COLUMNS)]
    for step, total in enumerate(totals, 1):
        seg = np.float32([total / 8] * 4)
        edge = np.float32((total - seg.sum()) / beta)
        tot = np.float32(seg.sum() + np.float32(beta) * edge)
        lines.append(f"{step}\t0\t" + "\t".join(f"{v:.6f}" for v in seg)
                     + f"\t{edge:.6f}\t{tot:.6f}")
    return "\n".join(lines) + "\n"


# -- pixel-count recomputation ----------------------------------------------


@pytest.mark.parametrize("case", ["random", "empty_gt", "full_gt", "binary"])
def test_counts_match_the_metrics_module(case):
    prob, gt = pair(3)
    if case == "empty_gt":
        gt = np.zeros_like(gt)
    elif case == "full_gt":
        gt = np.ones_like(gt)
    elif case == "binary":
        prob = gt.copy()
    dice, iou, e_mean = checks.counts_metrics(prob, gt, 0.5)
    want_dice, want_iou = metrics.dice_iou(prob, gt, 0.5)
    assert abs(dice - want_dice) <= 1e-12 and abs(iou - want_iou) <= 1e-12
    assert abs(e_mean - metrics.e_measure_mean(prob, gt)) <= 1e-12


def test_counts_check_rejects_dice_off_by_one_pixel():
    prob, gt = pair()
    record = metrics.evaluate_pair(prob, gt, "x", 0.5)
    checks.check_counts(record, prob, gt, 0.5)
    b = prob >= 0.5
    inter, nb, ng = (b & (gt == 1)).sum(), b.sum(), gt.sum()
    with pytest.raises(checks.CheckError, match="dice"):
        checks.check_counts(replace(record, dice=2.0 * (inter + 1) / (nb + ng)),
                            prob, gt, 0.5)
    with pytest.raises(checks.CheckError, match="iou"):
        checks.check_counts(replace(record, iou=(inter - 1) / (nb + ng - inter + 1)),
                            prob, gt, 0.5)


def test_counts_check_rejects_e_mean_off_by_one_pixel():
    prob, gt = pair()
    moved = prob.copy()
    moved[0, 0] = 1.0 - moved[0, 0]      # one background pixel changes side
    record = metrics.evaluate_pair(prob, gt, "x", 0.5)
    with pytest.raises(checks.CheckError, match="e_mean"):
        checks.check_counts(replace(record, e_mean=metrics.e_measure_mean(
            moved, gt)), prob, gt, 0.5)


# -- loss log -------------------------------------------------------------------


def test_train_log_accepts_a_consistent_falling_log():
    checks.check_train_log(loss_log(), 6, 5.0)


def test_train_log_rejects_nan():
    lines = loss_log().splitlines()
    cols = lines[5].split("\t")
    cols[6] = "nan"
    lines[5] = "\t".join(cols)
    with pytest.raises(checks.CheckError, match="non-finite"):
        checks.check_train_log("\n".join(lines), 6, 5.0)


def test_train_log_rejects_missing_step():
    lines = loss_log().splitlines()
    with pytest.raises(checks.CheckError, match="lines for 6 steps"):
        checks.check_train_log("\n".join(lines[:3] + lines[4:]), 6, 5.0)
    renumbered = [lines[0]] + [ln for ln in lines[1:] if not ln.startswith("3\t")]
    renumbered.append(renumbered[-1].replace("6\t", "7\t", 1))
    with pytest.raises(checks.CheckError, match="line 3"):
        checks.check_train_log("\n".join(renumbered), 6, 5.0)


def test_train_log_rejects_a_total_that_is_not_the_sum():
    lines = loss_log().splitlines()
    cols = lines[2].split("\t")
    cols[-1] = f"{float(cols[-1]) + 1e-4:.6f}"
    lines[2] = "\t".join(cols)
    with pytest.raises(checks.CheckError, match="total"):
        checks.check_train_log("\n".join(lines), 6, 5.0)


def test_train_log_rejects_a_loss_that_does_not_fall():
    with pytest.raises(checks.CheckError, match="did not fall"):
        checks.check_train_log(loss_log(totals=(9.0, 9.1, 9.2, 9.3, 9.4, 9.5)),
                               6, 5.0)


def test_checkpoint_step_must_match():
    checks.check_checkpoint_step(8, 8)
    with pytest.raises(checks.CheckError):
        checks.check_checkpoint_step(7, 8)


# -- evaluation report ------------------------------------------------------------


def test_recall_curve_rejects_a_rise():
    prob, gt = pair()
    curves = metrics.pr_curves([(prob, gt), pair(1)])
    checks.check_recall_curve(curves)
    curves.recall[100] = curves.recall[99] + 1e-6
    with pytest.raises(checks.CheckError, match="recall rises"):
        checks.check_recall_curve(curves)


def test_report_rejects_fewer_records_than_images():
    records = [metrics.evaluate_pair(*pair(i), f"id{i}") for i in range(3)]
    report = metrics.MetricReport(records=records)
    checks.check_report(report, ["id0", "id1", "id2"])
    with pytest.raises(checks.CheckError, match="2 records for 3 images"):
        checks.check_report(metrics.MetricReport(records=records[:2]),
                            ["id0", "id1", "id2"])


def test_report_rejects_a_metric_outside_unit_interval():
    records = [replace(metrics.evaluate_pair(*pair(), "id0"), s_alpha=1.5)]
    with pytest.raises(checks.CheckError, match="s_alpha"):
        checks.check_report(metrics.MetricReport(records=records), ["id0"])


def test_oracle_rejects_imperfect_scores():
    _, gt = pair()
    checks.check_oracle(metrics.MetricReport(
        records=[metrics.evaluate_pair(gt, gt, "id0")]))
    one_off = gt.copy()
    one_off[0, 0] = 1.0
    with pytest.raises(checks.CheckError, match="mDice"):
        checks.check_oracle(metrics.MetricReport(
            records=[metrics.evaluate_pair(one_off, gt, "id0")]))


# -- gradient ---------------------------------------------------------------------


def test_gradient_check_rejects_a_gradient_one_percent_off():
    backbone = BackboneConfig(stem_channels=4, channels_per_level=(4, 6, 8, 10, 12))
    net = EFANet(ModelConfig(common_width=8, backbone=backbone), seed=9)
    net.train()
    prob, gt = pair()
    x = Tensor(prob[None, None])
    mask = gt[None, None]

    def loss():
        return total_loss(net(x), mask, np.zeros_like(mask), net.config).total

    backward(loss())
    params = list(net.named_parameters())
    picks = checks.gradient_picks(params, np.random.default_rng(0), 3)
    checks.check_gradient(loss, params, picks)
    j = picks[0][0]
    params[j][1].grad = params[j][1].grad * 1.01
    with pytest.raises(checks.CheckError, match=params[j][0]):
        checks.check_gradient(loss, params, picks)


def test_gradient_picks_skip_small_gradients():
    params = [("zero", Tensor(np.zeros(4))), ("big", Tensor(np.zeros(4)))]
    params[0][1].grad = np.full(4, 1e-6)
    params[1][1].grad = np.array([0.0, 0.5, 1e-6, -0.2])
    picks = checks.gradient_picks(params, np.random.default_rng(0), 1)
    assert picks[0][0] == 1 and picks[0][1] in (1, 3)
