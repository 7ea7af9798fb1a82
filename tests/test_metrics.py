"""Confusion tallies, scalar metrics, curves, mAP/AUROC, mask matching."""

import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest

from segens.augment import mirror
from segens.ensemble import fuse_and, fuse_max, train_metalearner
from segens.errors import NumericError, ShapeMismatchError
from segens.imageio import (store_feature_stack, store_gray, store_mask,
                            store_probmap)
from segens.losses import mean_absolute_error
from segens.metrics import (ConfusionCounts, Curve, auroc, confusion,
                            default_threshold_grid, dice_from_iou,
                            evaluate_pairs, map11, pr_roc_curves,
                            scalar_metrics, undefined_metrics, write_curve_csv)
from segens.morpho import boundary_soft_labels, dilate
from segens.ndtensor import ConvKernel, conv2d_forward


def brute_force_confusion(pred, gt):
    tp = fp = fn = tn = 0
    for y in range(pred.shape[0]):
        for x in range(pred.shape[1]):
            p, g = bool(pred[y, x]), bool(gt[y, x])
            tp += p and g
            fp += p and not g
            fn += (not p) and g
            tn += (not p) and (not g)
    return ConfusionCounts(tp, fp, fn, tn)


class TestConfusion:
    def test_all_one_agreement(self):
        m = np.ones((2, 2), np.uint8)
        c = confusion(m, m)
        assert (c.tp, c.fp, c.fn, c.tn) == (4, 0, 0, 0)

    def test_all_false_positive(self):
        pred = np.ones((2, 2), np.uint8)
        gt = np.zeros((2, 2), np.uint8)
        c = confusion(pred, gt)
        assert (c.tp, c.fp, c.fn, c.tn) == (0, 4, 0, 0)

    def test_random_matches_per_pixel_oracle(self):
        rng = np.random.default_rng(50)
        for _ in range(5):
            pred = (rng.random((16, 16)) > 0.5).astype(np.uint8)
            gt = (rng.random((16, 16)) > 0.5).astype(np.uint8)
            assert confusion(pred, gt) == brute_force_confusion(pred, gt)

    def test_counts_partition_all_pixels(self):
        rng = np.random.default_rng(51)
        pred = (rng.random((9, 9)) > 0.3).astype(np.uint8)
        gt = (rng.random((9, 9)) > 0.7).astype(np.uint8)
        counts = confusion(pred, gt)
        assert counts.tp + counts.fp + counts.fn + counts.tn == 81

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            confusion(np.zeros((2, 2), np.uint8), np.zeros((3, 3), np.uint8))

    @pytest.mark.parametrize("bad", [2, 0.5, -1, np.nan])
    def test_non_binary_values_rejected(self, bad):
        gt = np.eye(3)
        gt[2, 0] = bad
        with pytest.raises(ValueError, match="gt must contain only 0/1"):
            confusion(np.eye(3, dtype=np.uint8), gt)

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64, np.float32])
    def test_binary_values_of_any_dtype_accepted(self, dtype):
        m = np.eye(3, dtype=dtype)
        assert confusion(m, m) == ConfusionCounts(3, 0, 0, 6)


class TestScalarMetrics:
    def test_hand_case(self):
        m = scalar_metrics(ConfusionCounts(tp=2, fp=1, fn=1, tn=10))
        assert m["iou"] == 0.5
        assert m["dice"] == pytest.approx(2 / 3)
        assert m["precision"] == pytest.approx(2 / 3)
        assert m["recall"] == pytest.approx(2 / 3)

    def test_perfect(self):
        m = scalar_metrics(ConfusionCounts(tp=5, fp=0, fn=0, tn=5))
        assert all(v == 1.0 for v in m.values())

    def test_zero_over_zero_convention(self):
        c = ConfusionCounts(tp=0, fp=0, fn=0, tn=4)
        m = scalar_metrics(c)
        assert all(v == 0.0 for v in m.values())
        assert set(undefined_metrics(c)) == {"iou", "dice", "precision", "recall"}

    # each zero denominator, with the report's zero_division list, in the
    # report's metric order
    @pytest.mark.parametrize("pred, gt, want", [
        ([0, 0], [0, 0], ["iou", "dice", "precision", "recall"]),
        ([0, 0], [0, 1], ["precision"]),
        ([1, 0], [0, 0], ["recall"]),
        ([1, 0], [1, 0], [])])
    def test_undefined_metrics_in_report_order(self, pred, gt, want):
        gt = np.array([gt], np.uint8)
        assert undefined_metrics(confusion(np.array([pred], np.uint8), gt)) == want
        report, _ = evaluate_pairs([np.array([pred], np.float64)], [gt])
        assert report.zero_division == want
        names = ["iou", "dice", "precision", "recall"]
        assert list(report.to_dict())[:4] == list(report.macro) == names
        assert list(report.per_image[0])[1:5] == names

    def test_published_pair(self):
        m = scalar_metrics(ConfusionCounts(tp=3896, fp=3052, fn=3052, tn=0))
        assert abs(m["iou"] - 0.3896) < 1e-4
        assert abs(dice_from_iou(m["iou"]) - m["dice"]) < 1e-12


class TestDiceFromIou:
    def test_endpoints(self):
        assert dice_from_iou(0.0) == 0.0
        assert dice_from_iou(1.0) == 1.0

    @pytest.mark.parametrize("iou,dice", [(0.4028, 0.5743), (0.3599, 0.5293),
                                          (0.3896, 0.5608)])
    def test_reported_pairs(self, iou, dice):
        assert abs(dice_from_iou(iou) - dice) < 1.5e-4

    def test_identity_with_counts(self):
        rng = np.random.default_rng(52)
        for _ in range(200):
            tp, fp, fn = (int(v) for v in rng.integers(0, 500, 3))
            if tp + fp + fn == 0:
                continue
            c = ConfusionCounts(tp, fp, fn, 0)
            m = scalar_metrics(c)
            assert abs(dice_from_iou(m["iou"]) - m["dice"]) < 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            dice_from_iou(1.2)


def curve_oracle(preds, gts, thresholds):
    """Per-threshold brute force: binarize, tally, divide."""
    rows = []
    for t in thresholds:
        tp = fp = fn = tn = 0
        for p, g in zip(preds, gts):
            binar = (np.asarray(p, np.float64) >= t)
            gb = np.asarray(g).astype(bool)
            tp += int((binar & gb).sum())
            fp += int((binar & ~gb).sum())
            fn += int((~binar & gb).sum())
            tn += int((~binar & ~gb).sum())
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        fpr = fp / (fp + tn) if fp + tn else 0.0
        rows.append((t, precision, recall, recall, fpr))
    return rows


class TestCurves:
    def test_perfect_predictor(self):
        rng = np.random.default_rng(53)
        gts = [(rng.random((8, 8)) > 0.5).astype(np.uint8) for _ in range(3)]
        preds = [g.astype(np.float32) for g in gts]
        curve = pr_roc_curves(preds, gts)
        on = curve.thresholds > 0
        assert (curve.precision[on] == 1.0).all()
        assert (curve.recall[on] == 1.0).all()
        assert map11(curve) == 1.0
        assert auroc(curve) == 1.0

    def test_constant_half_probability(self):
        gt = np.zeros((4, 4), np.uint8)
        gt[:2] = 1  # half foreground
        pred = np.full((4, 4), 0.5, np.float32)
        curve = pr_roc_curves([pred], [gt])
        low = curve.thresholds <= 0.5
        assert (curve.recall[low] == 1.0).all()
        assert np.allclose(curve.precision[low], 0.5)
        hi = curve.thresholds > 0.5
        assert (curve.recall[hi] == 0.0).all()

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(54)
        preds = [rng.random((6, 6)).astype(np.float32) for _ in range(3)]
        gts = [(rng.random((6, 6)) > 0.5).astype(np.uint8) for _ in range(3)]
        curve = pr_roc_curves(preds, gts)
        want = curve_oracle(preds, gts, curve.thresholds)
        for i, (t, precision, recall, tpr, fpr) in enumerate(want):
            assert curve.thresholds[i] == t
            assert curve.precision[i] == precision
            assert curve.recall[i] == recall
            assert curve.tpr[i] == tpr
            assert curve.fpr[i] == fpr

    def test_recall_monotone_and_thresholds_decreasing(self):
        rng = np.random.default_rng(55)
        preds = [rng.random((10, 10)).astype(np.float32)]
        gts = [(rng.random((10, 10)) > 0.4).astype(np.uint8)]
        curve = pr_roc_curves(preds, gts)
        assert (np.diff(curve.thresholds) < 0).all()
        assert (np.diff(curve.recall) >= 0).all()

    @pytest.mark.parametrize("bad, error", [(np.nan, NumericError),
                                            (np.inf, NumericError),
                                            (1.7, ValueError)])
    def test_invalid_prediction_rejected(self, bad, error):
        preds = [np.full((2, 2), 0.25), np.full((2, 2), 0.75)]
        preds[1][1, 0] = bad
        gts = [np.eye(2, dtype=np.uint8)] * 2
        with pytest.raises(error, match="prediction 1"):
            pr_roc_curves(preds, gts)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            pr_roc_curves([], [])

    def test_csv_header_and_shape(self, tmp_path):
        rng = np.random.default_rng(56)
        curve = pr_roc_curves([rng.random((4, 4))],
                              [(rng.random((4, 4)) > 0.5).astype(np.uint8)])
        path = tmp_path / "curve.csv"
        write_curve_csv(curve, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "threshold,precision,recall,tpr,fpr"
        assert len(lines) == 1 + curve.thresholds.size


class TestMap11:
    def test_three_point_hand_case(self):
        curve = Curve(thresholds=np.array([0.9, 0.5, 0.1]),
                      precision=np.array([1.0, 0.5, 0.4]),
                      recall=np.array([0.2, 0.6, 1.0]),
                      tpr=np.array([0.2, 0.6, 1.0]),
                      fpr=np.array([0.0, 0.2, 0.5]))
        assert map11(curve) == 0.6

    def test_never_predicting_foreground(self):
        gt = np.ones((4, 4), np.uint8)
        pred = np.zeros((4, 4), np.float32)
        curve = pr_roc_curves([pred], [gt])
        # only the t=0 point reaches recall 1 (precision 1 there: all fg);
        # at every t>0 nothing is predicted, precision 0 at recall 0
        assert map11(curve) == 1.0  # degenerate all-foreground gt
        gt2 = np.zeros((4, 4), np.uint8)
        gt2[0, 0] = 1
        curve2 = pr_roc_curves([np.zeros((4, 4), np.float32)], [gt2])
        # p@recall0 is interpolated from the t=0 point (precision 1/16)
        assert map11(curve2) == pytest.approx((1 / 16) * 11 / 11)

    def test_bounded(self):
        rng = np.random.default_rng(57)
        preds = [rng.random((8, 8))]
        gts = [(rng.random((8, 8)) > 0.5).astype(np.uint8)]
        curve = pr_roc_curves(preds, gts)
        assert 0.0 <= map11(curve) <= 1.0
        assert 0.0 <= auroc(curve) <= 1.0

    def test_monotone_in_precision(self):
        rng = np.random.default_rng(63)
        for _ in range(20):
            precision = np.sort(rng.random(5))[::-1].copy()
            recall = np.sort(rng.random(5))
            curve = Curve(thresholds=np.linspace(1.0, 0.0, 5),
                          precision=precision, recall=recall,
                          tpr=recall, fpr=np.sort(rng.random(5)))
            base = map11(curve)
            bumped = precision.copy()
            k = int(rng.integers(5))
            bumped[k] = min(1.0, bumped[k] + 0.2)
            curve2 = Curve(thresholds=np.linspace(1.0, 0.0, 5),
                           precision=bumped, recall=recall,
                           tpr=recall, fpr=curve.fpr)
            assert map11(curve2) >= base


class TestMaskLevelMatch:
    """The report's whole-mask outcome per image and its tally."""

    @staticmethod
    def _match(pred, gt):
        report, _ = evaluate_pairs([np.asarray(pred, np.float64)], [gt])
        tally = dict(report.mask_level)
        assert tally.pop("iou_threshold") == 0.5
        return report.per_image[0]["mask_match"], ConfusionCounts(**tally)

    def test_identical_nonempty_is_tp(self):
        m = np.zeros((4, 4), np.uint8)
        m[1:3, 1:3] = 1
        assert self._match(m, m) == ("TP", ConfusionCounts(1, 0, 0, 0))

    def test_empty_prediction_is_fn(self):
        gt = np.ones((3, 3), np.uint8)
        assert self._match(np.zeros((3, 3), np.uint8), gt) == \
            ("FN", ConfusionCounts(0, 0, 1, 0))

    def test_empty_gt_is_fp(self):
        pred = np.ones((3, 3), np.uint8)
        assert self._match(pred, np.zeros((3, 3), np.uint8)) == \
            ("FP", ConfusionCounts(0, 1, 0, 0))

    def test_both_empty_is_tn(self):
        z = np.zeros((3, 3), np.uint8)
        assert self._match(z, z) == ("TN", ConfusionCounts(0, 0, 0, 1))

    def test_iou_exactly_half_is_not_tp(self):
        gt = np.zeros((4, 4), np.uint8)
        gt[0, 0] = gt[0, 1] = 1
        pred = np.zeros((4, 4), np.uint8)
        pred[0, 0] = 1  # intersection 1, union 2 -> IoU exactly 0.5
        assert self._match(pred, gt) == ("FP+FN", ConfusionCounts(0, 1, 1, 0))

    def test_above_threshold_is_tp(self):
        gt = np.zeros((4, 4), np.uint8)
        gt[0:2, 0:2] = 1
        pred = gt.copy()
        pred[0, 0] = 0  # IoU 3/4
        assert self._match(pred, gt) == ("TP", ConfusionCounts(1, 0, 0, 0))

    def test_agrees_with_classification_from_confusion(self):
        rng = np.random.default_rng(236)
        preds, gts, labels = [], [], []
        half = 0
        for _ in range(2000):
            shape = tuple(rng.integers(1, 4, 2))
            pred = (rng.random(shape) < rng.random()).astype(np.uint8)
            gt = (rng.random(shape) < rng.random()).astype(np.uint8)
            c = confusion(pred, gt)
            union = c.tp + c.fp + c.fn
            if union == 0:
                want = "TN"
            elif c.tp + c.fn == 0:
                want = "FP"
            elif c.tp + c.fp == 0:
                want = "FN"
            elif 2 * c.tp > union:
                want = "TP"
            else:
                want = "FP+FN"
            half += c.tp > 0 and 2 * c.tp == union
            preds.append(pred.astype(np.float64))
            gts.append(gt)
            labels.append(want)
        report, _ = evaluate_pairs(preds, gts)
        assert [r["mask_match"] for r in report.per_image] == labels
        assert report.mask_level == {
            "tp": labels.count("TP"), "fp": labels.count("FP") + labels.count("FP+FN"),
            "fn": labels.count("FN") + labels.count("FP+FN"), "tn": labels.count("TN"),
            "iou_threshold": 0.5}
        assert len(set(labels)) == 5 and half > 0


class TestEvaluatePairs:
    def _fixture(self, n=4, seed=58):
        rng = np.random.default_rng(seed)
        gts = [(rng.random((12, 12)) > 0.6).astype(np.uint8) for _ in range(n)]
        preds = [np.clip(g + rng.normal(0, 0.3, g.shape), 0, 1).astype(np.float32)
                 for g in gts]
        return preds, gts

    def test_perfect_prediction_reports_dice_one(self):
        rng = np.random.default_rng(59)
        gts = [(rng.random((8, 8)) > 0.5).astype(np.uint8) for _ in range(3)]
        preds = [g.astype(np.float32) for g in gts]
        report, _ = evaluate_pairs(preds, gts)
        assert report.dice == 1.0
        assert report.iou == 1.0

    def test_report_json_bytes_pinned(self):
        # to_dict takes the keys from the fields, in field order; the pinned
        # bytes are the report over the default 101-point grid
        preds = [np.array([[0.9, 0.2], [0.6, 0.4]]),
                 np.array([[0.1, 0.7], [0.3, 0.8]]), np.zeros((2, 2))]
        gts = [np.array([[1, 0], [1, 0]]), np.array([[0, 1], [1, 1]]),
               np.zeros((2, 2), np.uint8)]
        report, _ = evaluate_pairs(preds, gts)
        assert list(report.to_dict()) == [
            "iou", "dice", "precision", "recall", "map11", "auroc", "ci",
            "threshold", "image_count", "counts", "macro", "mask_level",
            "map11_rule", "zero_division", "per_image"]
        assert list(report.to_dict()["counts"]) == ["tp", "fp", "fn", "tn"]
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == (
            "1de8e05c594bd6f2dc1db3542bb1bf821fcc82b0d03ac8df9e188daba68eb555")

    def test_report_contract_keys(self):
        preds, gts = self._fixture()
        report, _ = evaluate_pairs(preds, gts)
        d = json.loads(report.to_json())
        for key in ("iou", "dice", "precision", "recall", "map11", "auroc", "ci"):
            assert key in d
        assert d["ci"]["wald"]["method"] == "wald"
        assert d["ci"]["clopper_pearson"]["method"] == "clopper-pearson"
        assert d["image_count"] == 4
        assert len(d["per_image"]) == 4
        # round trips through JSON cleanly
        assert json.loads(json.dumps(d)) == d

    def test_aggregate_matches_pooled_counts(self):
        preds, gts = self._fixture()
        report, _ = evaluate_pairs(preds, gts, threshold=0.5)
        pooled = ConfusionCounts(0, 0, 0, 0)
        for p, g in zip(preds, gts):
            pooled = pooled + confusion((np.asarray(p) >= 0.5).astype(np.uint8), g)
        assert report.counts == pooled
        assert report.iou == scalar_metrics(pooled)["iou"]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("grid_threshold", [0.0, 0.3, 0.5, 1.0])
    def test_counts_agree_with_own_curve(self, dtype, grid_threshold):
        # many pixels sit on a grid threshold, in float32 a neighbour of it
        rng = np.random.default_rng(60)
        gts = [(rng.random((16, 16)) > 0.6).astype(np.uint8) for _ in range(5)]
        preds = [(rng.integers(0, 101, g.shape) / 100).astype(dtype) for g in gts]
        thresholds = default_threshold_grid()[::-1]  # the curve's order
        i = int(np.argmin(np.abs(thresholds - grid_threshold)))
        report, curve = evaluate_pairs(preds, gts, threshold=thresholds[i])
        c = report.counts
        assert np.rint(curve.recall[i] * (c.tp + c.fn)) == c.tp
        assert np.rint(curve.fpr[i] * (c.fp + c.tn)) == c.fp
        alone = pr_roc_curves(preds, gts)
        for name in ("thresholds", "precision", "recall", "tpr", "fpr"):
            assert np.array_equal(getattr(alone, name), getattr(curve, name))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_prediction_is_numeric_error(self, bad):
        preds, gts = self._fixture(3)
        preds[2][4, 5] = bad
        with pytest.raises(NumericError, match="prediction 2"):
            evaluate_pairs(preds, gts)

    @pytest.mark.parametrize("bad", [1.7, -0.01])
    def test_out_of_range_prediction_is_value_error(self, bad):
        preds, gts = self._fixture(3)
        preds[1][0, 0] = bad
        with pytest.raises(ValueError, match=r"prediction 1 .*\[0, 1\]"):
            evaluate_pairs(preds, gts)

    def test_threshold_grid_is_101_points(self):
        assert default_threshold_grid().size == 101
        preds, gts = self._fixture(2)
        _, curve = evaluate_pairs(preds, gts)
        assert curve.thresholds.size == 101


class TestStoredDtype:
    """A float32 map is scored in float32, against cuts rounded exactly."""

    THRESHOLDS = [0.0, 0.2, 0.3, 0.7, 1 / 3, 0.999, 1.0]

    @staticmethod
    def _edge_maps(thresholds, seed=61, n=3, size=32):
        # every pixel is float32(t) or one of its float32 neighbours
        f = np.float32(thresholds)
        values = np.unique(np.concatenate(
            [np.nextafter(f, np.float32(0)), f, np.nextafter(f, np.float32(1))]))
        rng = np.random.default_rng(seed)
        preds = [rng.choice(values, (size, size)) for _ in range(n)]
        gts = [(rng.random((size, size)) > 0.5).astype(np.uint8) for _ in range(n)]
        return preds, gts

    def test_thresholds_round_both_ways(self):
        # the cases the cut must handle: float32(t) below t and above t
        grid = default_threshold_grid()
        for ts in (grid, np.array(self.THRESHOLDS)):
            f = np.float32(ts).astype(np.float64)
            assert (f < ts).any() and (f > ts).any()

    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_float32_scores_equal_float64_scores(self, threshold):
        # the maps hold the neighbours of the default grid's cuts, for the
        # curves, and of the threshold's, for the hard counts
        preds, gts = self._edge_maps(np.append(default_threshold_grid(), threshold))
        assert all(p.dtype == np.float32 for p in preds)
        wide = [p.astype(np.float64) for p in preds]
        got, got_curve = evaluate_pairs(preds, gts, threshold=threshold)
        want, want_curve = evaluate_pairs(wide, gts, threshold=threshold)
        assert got.to_dict() == want.to_dict()
        curve = pr_roc_curves(preds, gts)
        for name in ("thresholds", "precision", "recall", "tpr", "fpr"):
            assert np.array_equal(getattr(got_curve, name), getattr(want_curve, name))
            assert np.array_equal(getattr(curve, name), getattr(want_curve, name))
        oracle = curve_oracle(preds, gts, want_curve.thresholds)
        assert [r[1:] for r in oracle] == list(zip(
            want_curve.precision, want_curve.recall, want_curve.tpr, want_curve.fpr))

    def test_float32_maps_are_not_widened(self):
        # a float64 copy of one 256x256 map is 512 KB, and its foreground
        # and background copies another 512 KB
        rng = np.random.default_rng(62)
        gts = [(rng.random((256, 256)) > 0.6).astype(np.uint8) for _ in range(3)]
        preds = [rng.random((256, 256), dtype=np.float32) for _ in range(3)]
        tracemalloc.start()
        try:
            evaluate_pairs(preds, gts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"peak {peak / 1024:.0f} KB"


class TestStreaming:
    """Both entry points read any pair of iterables once, image by image."""

    @staticmethod
    def _maps(n, seed=60, size=12):
        rng = np.random.default_rng(seed)
        for _ in range(n):
            gt = (rng.random((size, size)) > 0.6).astype(np.uint8)
            yield (np.clip(gt + rng.normal(0, 0.3, gt.shape), 0, 1)
                   .astype(np.float32), gt)

    def _generators(self, n_pred, n_gt, size=12):
        return ((p for p, _ in self._maps(n_pred, size=size)),
                (g for _, g in self._maps(n_gt, size=size)))

    def test_generator_input_matches_list_input(self):
        preds, gts = map(list, zip(*self._maps(6)))
        want, want_curve = evaluate_pairs(preds, gts, threshold=0.4)
        got, got_curve = evaluate_pairs(*self._generators(6, 6), threshold=0.4)
        assert got.to_dict() == want.to_dict()
        curve = pr_roc_curves(*self._generators(6, 6))
        for name in ("thresholds", "precision", "recall", "tpr", "fpr"):
            assert np.array_equal(getattr(got_curve, name), getattr(want_curve, name))
            assert np.array_equal(getattr(curve, name), getattr(want_curve, name))

    @pytest.mark.parametrize("fn", [evaluate_pairs, pr_roc_curves])
    def test_empty_generators_rejected(self, fn):
        with pytest.raises(ValueError, match="at least one"):
            fn(*self._generators(0, 0))

    @pytest.mark.parametrize("fn", [evaluate_pairs, pr_roc_curves])
    @pytest.mark.parametrize("n_pred, n_gt, longer", [
        (3, 2, "predictions"), (2, 3, "ground truths"),
        (1, 0, "predictions"), (0, 1, "ground truths")])
    def test_unequal_length_generators_rejected(self, fn, n_pred, n_gt, longer):
        with pytest.raises(ValueError, match=f"more {longer} than"):
            fn(*self._generators(n_pred, n_gt))

    def test_memory_does_not_grow_with_image_count(self):
        def peak(n):
            tracemalloc.start()
            try:
                evaluate_pairs(*self._generators(n, n, size=64))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(10), peak(200)
        # holding every pixel would need about 20x the 10-image peak
        assert large < 4 * small, (small, large)


class TestOneCheckPerContract:
    """Each array contract has one check in ``metrics``: every entry point
    that takes the array raises the same exception class and message."""

    MASK_ENTRY_POINTS = {
        "confusion": lambda m, tmp: confusion(m, m),
        "store_mask": lambda m, tmp: store_mask(m, tmp / "m.pgm"),
        "boundary_soft_labels": lambda m, tmp: boundary_soft_labels(m),
    }
    MAP_ENTRY_POINTS = {
        "evaluate_pairs": lambda p, tmp: evaluate_pairs(
            [p], [np.eye(3, dtype=np.uint8)]),
        "fuse_max": lambda p, tmp: fuse_max([np.zeros((3, 3)), p]),
        "store_probmap": lambda p, tmp: store_probmap(p, tmp / "p.pgm"),
    }
    IMAGE_ENTRY_POINTS = {
        "store_gray": lambda a, tmp: store_gray(a, tmp / "g.pgm"),
        "dilate": lambda a, tmp: dilate(a),
        "mean_absolute_error": lambda a, tmp: mean_absolute_error(a, a),
        "mirror": lambda a, tmp: mirror(a, a),
        "fuse_and": lambda a, tmp: fuse_and([a, a]),
        **MASK_ENTRY_POINTS,
    }

    STACK_ENTRY_POINTS = {
        "train_metalearner": lambda s, tmp: train_metalearner(
            [(s, np.zeros((3, 3), np.uint8))]),
        "store_feature_stack": lambda s, tmp: store_feature_stack(
            s, tmp / "s.fst"),
        "conv2d_forward": lambda s, tmp: conv2d_forward(
            s, ConvKernel(np.zeros((1, 1, 3, 3)), np.zeros(1))),
    }

    @staticmethod
    def _raises(call, bad, tmp_path, error, message):
        with pytest.raises(error, match=message) as exc:
            call(bad, tmp_path)
        assert type(exc.value) is error
        assert not any(tmp_path.iterdir())  # nothing written

    @pytest.mark.parametrize("entry", MASK_ENTRY_POINTS)
    @pytest.mark.parametrize("bad", [2, 0.5, np.nan])
    def test_non_binary_mask(self, entry, bad, tmp_path):
        mask = np.eye(3)
        mask[2, 0] = bad
        self._raises(self.MASK_ENTRY_POINTS[entry], mask, tmp_path,
                     ValueError, "must contain only 0/1")

    @pytest.mark.parametrize("entry", IMAGE_ENTRY_POINTS)
    def test_three_dimensional_array(self, entry, tmp_path):
        self._raises(self.IMAGE_ENTRY_POINTS[entry],
                     np.zeros((2, 3, 3), np.uint8), tmp_path,
                     ShapeMismatchError, "must be 2-D")

    @pytest.mark.parametrize("entry", MAP_ENTRY_POINTS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.7, -0.01])
    def test_invalid_probability_map(self, entry, bad, tmp_path):
        probmap = np.full((3, 3), 0.5)
        probmap[1, 1] = bad
        if np.isfinite(bad):
            error, message = ValueError, r"outside \[0, 1\]"
        else:
            error, message = NumericError, "non-finite"
        self._raises(self.MAP_ENTRY_POINTS[entry], probmap, tmp_path,
                     error, message)

    @pytest.mark.parametrize("entry", STACK_ENTRY_POINTS)
    @pytest.mark.parametrize("shape", [(3, 3), (1, 1, 3, 3)])
    def test_not_channels_height_width(self, entry, shape, tmp_path):
        message = ("must be (channels, height, width), "
                   f"got shape {shape}")
        self._raises(self.STACK_ENTRY_POINTS[entry],
                     np.zeros(shape, np.float32), tmp_path,
                     ShapeMismatchError, re.escape(message))
