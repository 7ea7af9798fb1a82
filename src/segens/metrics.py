"""Pixel-level evaluation metrics, curves, and report assembly.

Scalar metrics derive from hard confusion counts:

    IoU = TP / (TP + FP + FN)          Dice = 2 TP / (2 TP + FP + FN)
    Precision = TP / (TP + FP)         Recall = TP / (TP + FN)

0/0 cases return 0 by convention and are flagged in the report.
Curves pool pixels across the whole image set (micro-averaging); at each
threshold t the prediction is binarized as p >= t. A float32 map is
compared in float32, against the least float32 at or above t, so every
count equals the one its float64 copy would give. The 11-point mAP is
the mean over recall levels {0.0, 0.1, ..., 1.0} of the interpolated
precision (the best precision among curve points whose recall reaches
the level), and AUROC is the trapezoid over (FPR, TPR).

The report's ``mask_level`` block tallies whole masks: each thresholded
prediction is matched against its ground truth at IoU 0.5 (strict
inequality), and the block records that 0.5 as ``iou_threshold``. Both
empty is a TN, an unmatched prediction an FP, an unmatched ground truth
an FN, an overlap above 0.5 a TP, and any other overlap one FP plus one
FN. Each image's outcome is its per-image ``mask_match``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import stats
from .errors import (as_binary, check_int, check_probabilities, check_range,
                     check_shape)

_METRIC_NAMES = ("iou", "dice", "precision", "recall")


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        for name in ("tp", "fp", "fn", "tn"):
            check_int(getattr(self, name), name, 0)

    @property
    def total(self):
        return self.tp + self.fp + self.fn + self.tn

    def __add__(self, other):
        return ConfusionCounts(self.tp + other.tp, self.fp + other.fp,
                               self.fn + other.fn, self.tn + other.tn)

    def to_dict(self):
        return {"tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn}


def confusion(pred, gt):
    """Exact pixel tallies of a predicted mask against the ground truth."""
    p = as_binary(pred, "pred")
    g = as_binary(gt, "gt")
    check_shape(p.shape, "pred", g.shape, "gt")
    return _counts(p, g)


def _counts(pb, gb):
    """Confusion tallies of two bool arrays of one shape."""
    tp = int(np.count_nonzero(pb & gb))
    n_pred, n_gt = int(np.count_nonzero(pb)), int(np.count_nonzero(gb))
    return ConfusionCounts(tp, n_pred - tp, n_gt - tp,
                           pb.size - n_pred - n_gt + tp)


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def scalar_metrics(counts):
    return {
        "iou": _ratio(counts.tp, counts.tp + counts.fp + counts.fn),
        "dice": _ratio(2 * counts.tp, 2 * counts.tp + counts.fp + counts.fn),
        "precision": _ratio(counts.tp, counts.tp + counts.fp),
        "recall": _ratio(counts.tp, counts.tp + counts.fn),
    }


def undefined_metrics(counts):
    """Names of metrics whose denominator is zero for these counts."""
    out = []
    if counts.tp + counts.fp + counts.fn == 0:
        out.extend(["iou", "dice"])
    if counts.tp + counts.fp == 0:
        out.append("precision")
    if counts.tp + counts.fn == 0:
        out.append("recall")
    return out


def dice_from_iou(iou):
    """Dice = 2 IoU / (1 + IoU), the exact algebraic companion of IoU."""
    check_range(iou, "IoU", 0, 1)
    return 2.0 * iou / (1.0 + iou)


# ---------------------------------------------------------------------------
# Pooled curves

@dataclass(frozen=True)
class Curve:
    """Pooled PR/ROC points ordered by strictly decreasing threshold."""

    thresholds: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    tpr: np.ndarray
    fpr: np.ndarray

    def __post_init__(self):
        arrays = {}
        for name in ("thresholds", "precision", "recall", "tpr", "fpr"):
            arrays[name] = np.asarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, arrays[name])
        n = arrays["thresholds"].size
        if any(a.size != n for a in arrays.values()) or n == 0:
            raise ValueError("curve arrays must be non-empty and equal length")
        if not (np.diff(arrays["thresholds"]) < 0).all():
            raise ValueError("thresholds must be strictly decreasing")
        if (np.diff(arrays["recall"]) < 0).any():
            raise ValueError("recall must be non-decreasing as threshold drops")


def default_threshold_grid():
    return np.linspace(0.0, 1.0, 101)


_END = object()
_SCORED = (np.dtype(np.float32), np.dtype(np.float64))


def _at_least(t, dtype):
    """The least value of ``dtype`` at or above each float64 ``t``.

    For ``p`` of that dtype, ``p >= _at_least(t, p.dtype)`` equals the
    float64 ``p >= t`` exactly, with no float64 copy of ``p``: the cast
    rounds to a neighbour of ``t``, and where that is the one below,
    ``nextafter`` steps to the one above.
    """
    t = np.asarray(t, dtype=np.float64)
    cut = t.astype(dtype)
    return np.where(cut < t, np.nextafter(cut, np.inf), cut)


def _checked_pairs(predictions, ground_truths):
    """Yield each input pair, checked once, as (prediction, bool mask),
    reading both iterables in step. A float32 or float64 prediction keeps
    its dtype, which callers compare against ``_at_least`` cuts so that
    counts equal the float64 counts; any other dtype becomes float64.
    ValueError when either runs out first or both are empty."""
    gts = iter(ground_truths)
    count = 0
    for idx, p in enumerate(predictions):
        g = next(gts, _END)
        if g is _END:
            raise ValueError(f"more predictions than the {idx} ground truths")
        p = np.asarray(p)
        if p.dtype not in _SCORED:
            p = p.astype(np.float64)
        check_probabilities(p, f"prediction {idx}")
        gb = as_binary(g, f"ground truth {idx}")
        check_shape(p.shape, f"prediction {idx}", gb.shape, f"ground truth {idx}")
        yield p, gb
        count += 1
    if next(gts, _END) is not _END:
        raise ValueError(f"more ground truths than the {count} predictions")
    if count == 0:
        raise ValueError("need at least one prediction/ground-truth pair")


def _pooled_curve(pairs):
    """Pooled curve of checked pairs over the default grid. A pooled count
    of pixels with p >= t is the sum of per-image counts, so summing each
    image's integer tp/fp per threshold is exact and holds one image at a
    time."""
    grid = default_threshold_grid()[::-1]  # strictly decreasing
    cuts = {dt: _at_least(grid, dt) for dt in _SCORED}

    tp = fp = n_fg = n_bg = 0
    for p, gb in pairs:
        fg, bg = p[gb], p[~gb]  # fresh copies, so they sort in place
        fg.sort()
        bg.sort()
        cut = cuts[p.dtype]
        tp = tp + fg.size - np.searchsorted(fg, cut, side="left")
        fp = fp + bg.size - np.searchsorted(bg, cut, side="left")
        n_fg += fg.size
        n_bg += bg.size
    precision = np.array([_ratio(t, t + f) for t, f in zip(tp, fp)])
    recall = np.array([_ratio(t, n_fg) for t in tp])
    fpr = np.array([_ratio(f, n_bg) for f in fp])
    return Curve(thresholds=grid, precision=precision, recall=recall,
                 tpr=recall.copy(), fpr=fpr)


def pr_roc_curves(predictions, ground_truths):
    """Pool pixels over the image set and sweep the 101 thresholds of
    ``default_threshold_grid``.

    ``predictions`` and ``ground_truths`` are iterables (lists or
    generators) read once, in step, one pair at a time, so memory holds
    one image plus the threshold grid whatever the image count.
    """
    return _pooled_curve(_checked_pairs(predictions, ground_truths))


def write_curve_csv(curve, path):
    lines = ["threshold,precision,recall,tpr,fpr"]
    for i in range(curve.thresholds.size):
        lines.append(f"{curve.thresholds[i]:.6g},{curve.precision[i]:.10g},"
                     f"{curve.recall[i]:.10g},{curve.tpr[i]:.10g},"
                     f"{curve.fpr[i]:.10g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def auroc(curve):
    """Trapezoidal area under (FPR, TPR); points arrive FPR-ascending."""
    return float(np.trapezoid(curve.tpr, curve.fpr))


def map11(curve):
    """Mean interpolated precision over the 11 canonical recall levels."""
    picks = []
    for i in range(11):
        level = i / 10.0
        hit = curve.recall >= level - 1e-12
        picks.append(float(curve.precision[hit].max()) if hit.any() else 0.0)
    return math.fsum(picks) / 11.0


_MATCH_IOU = 0.5
_MATCH_TALLIES = {"TP": ConfusionCounts(1, 0, 0, 0), "FP": ConfusionCounts(0, 1, 0, 0),
                  "FN": ConfusionCounts(0, 0, 1, 0), "TN": ConfusionCounts(0, 0, 0, 1),
                  "FP+FN": ConfusionCounts(0, 1, 1, 0)}


def _match_label(c):
    """The whole-mask outcome from the pixel tallies of the pair: the
    intersection is tp and the union tp + fp + fn."""
    if c.tp + c.fp == 0:
        return "FN" if c.fn else "TN"
    if c.tp + c.fn == 0:
        return "FP"
    return "TP" if c.tp / (c.tp + c.fp + c.fn) > _MATCH_IOU else "FP+FN"


# ---------------------------------------------------------------------------
# Report assembly

@dataclass
class MetricReport:
    """Aggregate and per-image metrics for a set of probability maps."""

    iou: float
    dice: float
    precision: float
    recall: float
    map11: float
    auroc: float
    ci: dict
    threshold: float
    image_count: int
    counts: ConfusionCounts
    macro: dict
    mask_level: dict
    map11_rule: str = "pixel-pooled-curve"
    zero_division: list = field(default_factory=list)
    per_image: list = field(default_factory=list)

    def to_dict(self):
        # the field order is the key order; shallow, because asdict's deep
        # copy of the per-image rows made a 400-image eval ~8% slower
        return dict(vars(self), counts=self.counts.to_dict())

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)


def evaluate_pairs(predictions, ground_truths, threshold=0.5, ci_n=None):
    """Full evaluation of probability maps against hard masks.

    ``predictions`` and ``ground_truths`` are iterables (lists or
    generators) read once, in step: each pair is checked, tallied into
    the pooled curve and the confusion counts, and dropped before the
    next is read, so memory holds one image plus the threshold grid and
    the per-image rows. The first defective pair in input order raises.
    Aggregate scalars come from pooled pixel counts at ``threshold``;
    per-image (macro) means are reported alongside. Confidence intervals
    for the aggregate Dice treat it as a proportion over ``ci_n`` trials
    (default: the image count) and carry both Wald and Clopper-Pearson
    variants with method tags.
    """
    check_range(threshold, "threshold", 0, 1)
    if ci_n is not None:
        ci_n = check_int(ci_n, "ci_n", 1)

    counts = []
    cuts = {dt: _at_least(threshold, dt) for dt in _SCORED}

    def with_hard_counts(pairs):
        for p, gb in pairs:
            counts.append(_counts(p >= cuts[p.dtype], gb))
            yield p, gb

    curve = _pooled_curve(
        with_hard_counts(_checked_pairs(predictions, ground_truths)))
    per_image = []
    pooled = ConfusionCounts(0, 0, 0, 0)
    match_tally = ConfusionCounts(0, 0, 0, 0)
    for idx, c in enumerate(counts):
        pooled = pooled + c
        label = _match_label(c)
        match_tally = match_tally + _MATCH_TALLIES[label]
        row = {"index": idx}
        row.update(scalar_metrics(c))
        row.update(c.to_dict())
        row["mask_match"] = label
        per_image.append(row)

    aggregate = scalar_metrics(pooled)
    n = ci_n if ci_n is not None else len(per_image)
    wald = stats.wald_ci(aggregate["dice"], n)
    cp = stats.clopper_pearson_ci(aggregate["dice"] * n, n)
    macro = {name: math.fsum(r[name] for r in per_image) / len(per_image)
             for name in _METRIC_NAMES}
    return MetricReport(
        iou=aggregate["iou"],
        dice=aggregate["dice"],
        precision=aggregate["precision"],
        recall=aggregate["recall"],
        map11=map11(curve),
        auroc=auroc(curve),
        ci={"n": n, "wald": wald.to_dict(), "clopper_pearson": cp.to_dict()},
        threshold=float(threshold),
        image_count=len(per_image),
        counts=pooled,
        macro=macro,
        mask_level={**match_tally.to_dict(),
                    "iou_threshold": _MATCH_IOU},
        zero_division=undefined_metrics(pooled),
        per_image=per_image,
    ), curve
