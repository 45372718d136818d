import dataclasses

import numpy as np
import pytest
from scipy import ndimage

import metric_oracle
from efanet import metrics
from efanet.metrics import (CURVE_THRESHOLDS, EmptyGroundTruthError,
                            ImageRecord, MetricReport, dice_iou,
                            e_measure_mean, evaluate_pair, mean_curves,
                            pr_curves, s_measure, scale_bucket_report,
                            weighted_fmeasure)


def half_ones(size=16):
    g = np.zeros((size, size))
    g[:, : size // 2] = 1.0
    return g


class TestDiceIou:
    def test_identity(self):
        g = half_ones()
        assert dice_iou(g, g) == (1.0, 1.0)

    def test_disjoint(self):
        g = np.zeros((8, 8))
        g[:4] = 1.0
        p = np.zeros((8, 8))
        p[4:] = 1.0
        assert dice_iou(p, g) == (0.0, 0.0)

    def test_counted_example(self):
        # |B| = |G| = 100, overlap 50 -> dice 0.5, iou 1/3
        g = np.zeros((20, 20))
        g[:, :5] = 1.0                    # cols 0..4, 100 px
        p = np.zeros((20, 20))
        p[:10, :5] = 1.0                  # overlap 50
        p[:10, 5:10] = 1.0                # 50 more outside G
        dice, iou = dice_iou(p, g)
        np.testing.assert_allclose(dice, 0.5)
        np.testing.assert_allclose(iou, 1.0 / 3.0)

    def test_both_empty(self):
        z = np.zeros((4, 4))
        assert dice_iou(z, z) == (1.0, 1.0)

    def test_counting_oracle_1000_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            p = rng.random((8, 8))
            g = (rng.random((8, 8)) < 0.4).astype(np.float64)
            b = p >= 0.5
            inter = np.sum(b & (g == 1))
            nb, ng = b.sum(), g.sum()
            want_dice = 1.0 if nb + ng == 0 else 2 * inter / (nb + ng)
            union = nb + ng - inter
            want_iou = 1.0 if union == 0 else inter / union
            dice, iou = dice_iou(p, g)
            assert dice == want_dice and iou == want_iou

    def test_monotone_degradation(self):
        rng = np.random.default_rng(1)
        g = (rng.random((8, 8)) < 0.5).astype(np.float64)
        p = g.copy()
        prev_dice, prev_iou = 1.0, 1.0
        order = rng.permutation(64)
        for i in order[:30]:
            p.reshape(-1)[i] = 1.0 - p.reshape(-1)[i]  # make one pixel wrong
            dice, iou = dice_iou(p, g)
            assert dice <= prev_dice + 1e-12
            assert iou <= prev_iou + 1e-12
            prev_dice, prev_iou = dice, iou

    def test_joint_permutation_invariance(self):
        rng = np.random.default_rng(2)
        p = rng.random((6, 6))
        g = (rng.random((6, 6)) < 0.5).astype(np.float64)
        perm = rng.permutation(36)
        p2 = p.reshape(-1)[perm].reshape(6, 6)
        g2 = g.reshape(-1)[perm].reshape(6, 6)
        assert dice_iou(p, g) == dice_iou(p2, g2)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            dice_iou(np.zeros((4, 4)), np.zeros((5, 5)))


class TestSMeasure:
    def test_self_identity(self):
        g = half_ones()
        assert abs(s_measure(g, g) - 1.0) < 1e-6

    def test_inversion_is_poor(self):
        g = half_ones()
        assert s_measure(1.0 - g, g) <= 0.25

    def test_constant_is_in_between(self):
        g = half_ones()
        mid = s_measure(np.full(g.shape, g.mean()), g)
        assert s_measure(1.0 - g, g) < mid < 1.0

    def test_empty_gt_fallback(self):
        g = np.zeros((8, 8))
        np.testing.assert_allclose(s_measure(np.full((8, 8), 0.2), g), 0.8)

    def test_full_gt_fallback(self):
        g = np.ones((8, 8))
        np.testing.assert_allclose(s_measure(np.full((8, 8), 0.7), g), 0.7)


def whole_map_weighted_fmeasure(pred, gt):
    """`weighted_fmeasure` as it was before its crop: scipy's distances, and
    the nearest-foreground gather and both Gaussian passes over the whole
    map, not only around G."""
    p, g = metrics._prep(pred, gt)
    dst, idx = ndimage.distance_transform_edt(~g, return_indices=True)
    err = np.abs(p - g)
    k = metrics._gauss_kernel()
    smoothed = ndimage.correlate1d(
        ndimage.correlate1d(err[idx[0], idx[1]], k, axis=0, mode="nearest"),
        k, axis=1, mode="nearest")
    min_err = np.where(g & (smoothed < err), smoothed, err)
    ew = min_err * (2.0 - np.exp(np.log(0.5) / 5.0 * dst))
    ng = g.sum()
    ew_fg = ew[g].sum()
    tp_w = ng - ew_fg
    precision = tp_w / (tp_w + ew.sum() - ew_fg + metrics._EPS)
    recall = 1.0 - ew_fg / ng
    f = ((1.0 + metrics.WEIGHTED_F_BETA_SQ) * precision * recall /
         (metrics.WEIGHTED_F_BETA_SQ * precision + recall + metrics._EPS))
    return float(np.clip(f, 0.0, 1.0))


def weighted_f_case(name, shape=(40, 37)):
    """A ground truth that touches the image border, or of one pixel."""
    g = np.zeros(shape)
    if name == "corner":
        g[:5, :4] = 1.0
    elif name == "edges":
        g[-2:, 6:30] = 1.0
        g[10:20, -1] = 1.0
    elif name == "full-width":
        g[12:15, :] = 1.0
    elif name == "pixel":
        g[17, 23] = 1.0
    elif name == "corner-pixel":
        g[-1, 0] = 1.0
    return g


class TestWeightedF:
    @pytest.mark.parametrize("kind", ["random", "smoothed", "all-wrong"])
    @pytest.mark.parametrize("name", ["corner", "edges", "full-width",
                                      "pixel", "corner-pixel"])
    def test_crop_is_bitwise(self, name, kind):
        """Gathering and smoothing only on G's grown bounding box, and the
        distances from the integer offsets, give the whole-map bits."""
        g = weighted_f_case(name)
        rng = np.random.default_rng(7)
        p = {"random": rng.random(g.shape),
             "smoothed": ndimage.gaussian_filter(g, 2.0),
             "all-wrong": 1.0 - g}[kind]
        assert weighted_fmeasure(p, g) == whole_map_weighted_fmeasure(p, g)

    def test_self_identity(self):
        g = half_ones()
        assert abs(weighted_fmeasure(g, g) - 1.0) < 1e-6

    def test_zero_prediction(self):
        g = half_ones()
        assert weighted_fmeasure(np.zeros(g.shape), g) < 1e-6

    def test_far_false_positives_score_lower(self):
        g = np.zeros((16, 16))
        g[6:10, 6:10] = 1.0
        near = g.copy()
        near[6:10, 10:12] = 1.0           # 8 false positives touching G
        far = g.copy()
        far[0:4, 14:16] = 1.0             # 8 false positives in the corner
        assert weighted_fmeasure(far, g) < weighted_fmeasure(near, g)

    def test_empty_gt_rejected(self):
        with pytest.raises(EmptyGroundTruthError):
            weighted_fmeasure(np.zeros((4, 4)), np.zeros((4, 4)))

    @pytest.mark.parametrize("kind", ["random", "quantised", "all-wrong",
                                      "smoothed"])
    @pytest.mark.parametrize("shape", [(8, 8), (16, 16), (7, 13), (64, 64),
                                       (352, 352)])
    def test_matches_oracle(self, shape, kind):
        """The separable, whole-map computation gives the oracle's measure
        (the 2-D kernel, each step restricted to its region)."""
        rng = np.random.default_rng(sum(shape))
        noise = ndimage.gaussian_filter(rng.random(shape), 2.0)
        g = (noise > np.quantile(noise, 0.7)).astype(np.float64)
        p = {"random": rng.random(shape),
             "quantised": rng.integers(0, 256, shape) / 255.0,
             "all-wrong": 1.0 - g,
             "smoothed": ndimage.gaussian_filter(g, 1.5)}[kind]
        got = weighted_fmeasure(p, g)
        assert abs(got - metric_oracle.weighted_fmeasure(p, g)) <= 1e-12
        if kind == "all-wrong":
            assert got == 0.0


class TestEMeasure:
    def test_exact_map(self):
        g = half_ones()
        assert e_measure_mean(g, g) >= 0.996

    def test_inversion_is_poor(self):
        g = half_ones()
        assert e_measure_mean(1.0 - g, g) <= 0.25

    def test_constant_half_has_two_regimes(self):
        g = half_ones(8)
        p = np.full(g.shape, 0.5)
        maps = {tuple((p > tau).astype(int).reshape(-1))
                for tau in CURVE_THRESHOLDS}
        assert len(maps) == 2  # binarization collapses to two maps
        score = metric_oracle._e_measure_binary
        low = [score((p > tau).astype(np.float64), g)
               for tau in CURVE_THRESHOLDS if tau < 0.5]
        high = [score((p > tau).astype(np.float64), g)
                for tau in CURVE_THRESHOLDS if tau >= 0.5]
        assert len(set(low)) == 1 and len(set(high)) == 1

    def test_range(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = rng.random((8, 8))
            g = (rng.random((8, 8)) < 0.5).astype(np.float64)
            assert 0.0 <= e_measure_mean(p, g) <= 1.0


def _oracle_cases():
    """(prediction, ground truth) pairs covering the count path's edges."""
    rng = np.random.default_rng(6)
    cases = []
    for shape in [(16, 16), (1, 1), (1, 9), (9, 1), (7, 13), (64, 48)]:
        def truth(fill):
            return (rng.random(shape) < fill).astype(np.float64)
        maps = {"random": rng.random(shape),
                # on the thresholds themselves, where > and >= part ways
                "quantised": rng.integers(0, 256, shape) / 255.0,
                "constant": np.full(shape, 0.5),
                "zeros": np.zeros(shape),
                "ones": np.ones(shape)}
        for name, p in maps.items():
            for gname, g in (("mixed", truth(0.4)), ("empty", truth(0.0)),
                             ("full", truth(1.1))):
                cases.append((f"{shape}-{name}-{gname}", p, g))
    return cases


ORACLE_CASES = _oracle_cases()


class TestCountsMatchOracle:
    """The count-based sweeps agree with the per-pixel definitions."""

    @pytest.mark.parametrize("case", ORACLE_CASES, ids=lambda c: c[0])
    def test_e_measure_mean(self, case):
        _, p, g = case
        assert abs(e_measure_mean(p, g) -
                   metric_oracle.e_measure_mean(p, g)) <= 1e-12

    @pytest.mark.parametrize("case", ORACLE_CASES, ids=lambda c: c[0])
    def test_pr_curves_single_sample(self, case):
        _, p, g = case
        self._assert_equal_curves([(p, g)])

    def test_pr_curves_multi_sample(self):
        self._assert_equal_curves([(p, g) for _, p, g in ORACLE_CASES])

    def test_mean_curves_bit_identical_to_pr_curves(self):
        samples = [(p, g) for _, p, g in ORACLE_CASES]
        got = mean_curves([pr_curves([pair]) for pair in samples])
        want = pr_curves(samples)
        for name in ("thresholds", "precision", "recall", "fmeasure"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), \
                name
        with pytest.raises(ValueError, match="empty"):
            mean_curves([])

    def _assert_equal_curves(self, samples):
        got = pr_curves(samples)
        want = metric_oracle.pr_curves(samples)
        for name in ("thresholds", "precision", "recall", "fmeasure"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), \
                name


class TestNonFinitePrediction:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected_with_count(self, bad):
        p = np.full((8, 8), 0.3)
        p[2, 5] = bad
        g = half_ones(8)
        for fn in (dice_iou, s_measure, weighted_fmeasure, e_measure_mean,
                   evaluate_pair):
            with pytest.raises(ValueError, match="1 non-finite"):
                fn(p, g)
        with pytest.raises(ValueError, match="1 non-finite"):
            pr_curves([(g, g), (p, g)])


class TestGroundTruthInput:
    @pytest.mark.parametrize("case", ORACLE_CASES, ids=lambda c: c[0])
    def test_bool_gt_scores_as_float_gt(self, case):
        _, p, g = case
        np.testing.assert_equal(
            dataclasses.astuple(evaluate_pair(p, g.astype(bool), "x")),
            dataclasses.astuple(evaluate_pair(p, g, "x")))

    @pytest.mark.parametrize("bad", [0.5, 2.0, -1.0, np.nan])
    def test_non_binary_float_gt_rejected(self, bad):
        p = np.full((8, 8), 0.3)
        g = half_ones(8)
        g[3, 1] = bad
        for fn in (dice_iou, s_measure, weighted_fmeasure, e_measure_mean,
                   evaluate_pair):
            with pytest.raises(ValueError, match="binary"):
                fn(p, g)
        with pytest.raises(ValueError, match="binary"):
            pr_curves([(p, g)])


class TestRangeProperty:
    def test_all_metrics_in_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = rng.random((12, 12))
            g = (rng.random((12, 12)) < rng.uniform(0.1, 0.9)).astype(float)
            dice, iou = dice_iou(p, g)
            vals = [dice, iou, s_measure(p, g), e_measure_mean(p, g)]
            if g.any():
                vals.append(weighted_fmeasure(p, g))
            assert all(0.0 <= v <= 1.0 for v in vals)


class TestCurves:
    def test_exact_maps(self):
        g = half_ones()
        curves = pr_curves([(g, g), (g, g)])
        # any positive threshold keeps the exact match; at threshold 0 the
        # whole frame is predicted, so only recall stays 1 there
        positive = curves.thresholds > 0
        assert np.all(curves.precision[positive] == 1.0)
        assert np.all(curves.recall == 1.0)

    def test_threshold_zero_recall_one(self):
        rng = np.random.default_rng(5)
        p = rng.random((8, 8))
        g = (rng.random((8, 8)) < 0.5).astype(np.float64)
        curves = pr_curves([(p, g)])
        assert curves.recall[0] == 1.0

    def test_two_by_two_example(self):
        p = np.array([[1.0, 0.0], [0.0, 0.0]])
        g = np.array([[1.0, 1.0], [0.0, 0.0]])
        curves = pr_curves([(p, g)])
        i = int(np.argmin(np.abs(curves.thresholds - 0.5)))
        assert curves.precision[i] == 1.0
        assert curves.recall[i] == 0.5

    def test_empty_prediction_precision_is_one(self):
        g = half_ones(4)
        curves = pr_curves([(np.zeros(g.shape), g)])
        assert curves.precision[-1] == 1.0  # nothing above the top threshold

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            pr_curves([])


class TestReport:
    def _record(self, rid, dice, bucket):
        return ImageRecord(rid, dice, dice, dice, dice, dice, 0.1, bucket)

    def test_single_bucket_no_nan(self):
        out = scale_bucket_report([self._record("a", 1.0, "medium")])
        assert out["medium"]["count"] == 1
        assert out["small"]["count"] == 0
        assert out["small"]["mDice"] is None
        assert out["large"]["share"] == 0.0

    def test_two_bucket_means(self):
        records = [self._record("a", 1.0, "small"),
                   self._record("b", 0.5, "large")]
        out = scale_bucket_report(records)
        assert out["small"]["mDice"] == 1.0
        assert out["large"]["mDice"] == 0.5
        report = MetricReport(records=records)
        np.testing.assert_allclose(report.aggregate()["mDice"], 0.75)

    def test_counts_sum_to_total(self):
        records = [self._record(str(i), 0.9, b)
                   for i, b in enumerate(["small", "medium", "medium",
                                          "large", "medium"])]
        out = scale_bucket_report(records)
        assert sum(row["count"] for row in out.values()) == len(records)

    def test_evaluate_pair_empty_gt(self):
        rec = evaluate_pair(np.zeros((8, 8)), np.zeros((8, 8)), "z")
        assert rec.dice == 1.0
        assert np.isnan(rec.f_w)
        assert rec.bucket == "small"

    def test_f_w_mean_skips_empty_ground_truth(self):
        full = evaluate_pair(half_ones(8), half_ones(8), "full")
        empty = evaluate_pair(np.zeros((8, 8)), np.zeros((8, 8)), "empty")
        agg = MetricReport(records=[full, empty]).aggregate()
        assert agg["mDice"] == 1.0
        assert agg["F_w"] == full.f_w
        assert np.isnan(empty.f_w)          # the per-image row is unchanged

    def test_f_w_nan_when_no_ground_truth_has_foreground(self):
        empty = evaluate_pair(np.zeros((8, 8)), np.zeros((8, 8)), "empty")
        agg = MetricReport(records=[empty, empty]).aggregate()
        assert np.isnan(agg["F_w"])

    def test_tsv_outputs(self, tmp_path):
        g = half_ones(8)
        rec = evaluate_pair(g, g, "one")
        report = MetricReport(records=[rec])
        curves = pr_curves([(g, g)])
        metrics.write_report_tsv(tmp_path / "r.tsv", report)
        metrics.write_curves_tsv(tmp_path / "c.tsv", curves)
        metrics.write_bucket_tsv(tmp_path / "b.tsv",
                                 scale_bucket_report(report.records))
        lines = (tmp_path / "c.tsv").read_text().splitlines()
        assert len(lines) == 2 + 256  # comment + header + one row per threshold
        assert (tmp_path / "r.tsv").read_text().splitlines()[-1].startswith(
            "AGGREGATE")
        assert len((tmp_path / "b.tsv").read_text().splitlines()) == 4
