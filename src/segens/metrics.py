"""Pixel-level evaluation metrics, curves, and report assembly.

Scalar metrics derive from hard confusion counts:

    IoU = TP / (TP + FP + FN)          Dice = 2 TP / (2 TP + FP + FN)
    Precision = TP / (TP + FP)         Recall = TP / (TP + FN)

0/0 cases return 0 by convention and are flagged in the report.
Curves pool pixels across the whole image set (micro-averaging); at each
threshold t the prediction is binarized as p >= t. The 11-point mAP is
the mean over recall levels {0.0, 0.1, ..., 1.0} of the interpolated
precision (the best precision among curve points whose recall reaches
the level), and AUROC is the trapezoid over (FPR, TPR).

``mask_level_match`` classifies a whole predicted mask against its
ground truth at an IoU threshold (default 0.5, strict inequality): both
empty is a TN, an unmatched prediction an FP, an unmatched ground truth
an FN, and an overlapping pair below the threshold counts as one FP plus
one FN.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import stats
from .errors import NumericError, ShapeMismatchError

_METRIC_NAMES = ("iou", "dice", "precision", "recall")


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self):
        return self.tp + self.fp + self.fn + self.tn

    def __add__(self, other):
        return ConfusionCounts(self.tp + other.tp, self.fp + other.fp,
                               self.fn + other.fn, self.tn + other.tn)

    def to_dict(self):
        return {"tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn}


def require_2d(x, name):
    """``x`` as an array; ShapeMismatchError unless it is 2-D."""
    arr = np.asarray(x)
    if arr.ndim != 2:
        raise ShapeMismatchError(f"{name} must be 2-D, got shape {arr.shape}")
    return arr


def require_chw(x, name):
    """``x`` as an array; ShapeMismatchError unless it is 3-D (C, H, W)."""
    arr = np.asarray(x)
    if arr.ndim != 3:
        raise ShapeMismatchError(
            f"{name} must be (channels, height, width), got shape {arr.shape}")
    return arr


def as_binary(x, name):
    """A 2-D mask of any dtype as bool. ShapeMismatchError unless it is
    2-D, ValueError unless every value is 0 or 1."""
    arr = require_2d(x, name)
    mask = arr.astype(bool)
    if not np.array_equal(arr, mask):  # equal only where every value is 0 or 1
        raise ValueError(f"{name} must contain only 0/1 values (each pixel 0 or 1)")
    return mask


def check_probabilities(p, name):
    """Raise unless every value of ``p`` is a finite number in [0, 1].

    Non-finite values raise NumericError, finite ones outside [0, 1]
    ValueError. min and max propagate NaN, so they cover both checks.
    """
    lo, hi = float(np.min(p)), float(np.max(p))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NumericError(f"{name} contains non-finite values")
    if lo < 0.0 or hi > 1.0:
        raise ValueError(f"{name} has values outside [0, 1]")


def confusion(pred, gt):
    """Exact pixel tallies of a predicted mask against the ground truth."""
    p = as_binary(pred, "pred")
    g = as_binary(gt, "gt")
    if p.shape != g.shape:
        raise ShapeMismatchError(f"pred shape {p.shape} != gt shape {g.shape}")
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
    if not 0.0 <= iou <= 1.0:
        raise ValueError(f"IoU must be in [0, 1], got {iou}")
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


def _checked_pairs(predictions, ground_truths):
    """Yield each input pair, checked once, as (float64 prediction, bool
    mask), reading both iterables in step. ValueError when either runs
    out first or both are empty."""
    gts = iter(ground_truths)
    count = 0
    for idx, p in enumerate(predictions):
        g = next(gts, _END)
        if g is _END:
            raise ValueError(f"more predictions than the {idx} ground truths")
        p = np.asarray(p, dtype=np.float64)
        check_probabilities(p, f"prediction {idx}")
        gb = as_binary(g, f"ground truth {idx}")
        if p.shape != gb.shape:
            raise ShapeMismatchError(
                f"image {idx}: prediction shape {p.shape} != mask shape {gb.shape}")
        yield p, gb
        count += 1
    if next(gts, _END) is not _END:
        raise ValueError(f"more ground truths than the {count} predictions")
    if count == 0:
        raise ValueError("need at least one prediction/ground-truth pair")


def _pooled_curve(pairs, thresholds):
    """Pooled curve of checked pairs. A pooled count of pixels with p >= t
    is the sum of per-image counts, so summing each image's integer tp/fp
    per threshold is exact and holds one image at a time."""
    if thresholds is None:
        grid = default_threshold_grid()
    else:
        grid = np.asarray(thresholds, dtype=np.float64)
        if grid.size == 0 or grid.min() < 0.0 or grid.max() > 1.0:
            raise ValueError("thresholds must be a non-empty subset of [0, 1]")
        grid = np.unique(grid)
    grid = grid[::-1]  # strictly decreasing

    tp = fp = n_fg = n_bg = 0
    for p, gb in pairs:
        fg, bg = p[gb], p[~gb]  # fresh copies, so they sort in place
        fg.sort()
        bg.sort()
        tp = tp + fg.size - np.searchsorted(fg, grid, side="left")
        fp = fp + bg.size - np.searchsorted(bg, grid, side="left")
        n_fg += fg.size
        n_bg += bg.size
    precision = np.array([_ratio(t, t + f) for t, f in zip(tp, fp)])
    recall = np.array([_ratio(t, n_fg) for t in tp])
    fpr = np.array([_ratio(f, n_bg) for f in fp])
    return Curve(thresholds=grid, precision=precision, recall=recall,
                 tpr=recall.copy(), fpr=fpr)


def pr_roc_curves(predictions, ground_truths, thresholds=None):
    """Pool pixels over the image set and sweep binarization thresholds.

    ``predictions`` and ``ground_truths`` are iterables (lists or
    generators) read once, in step, one pair at a time, so memory holds
    one image plus the threshold grid whatever the image count.
    """
    return _pooled_curve(_checked_pairs(predictions, ground_truths), thresholds)


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


def mask_level_match(pred, gt, iou_threshold=0.5):
    """Whole-mask outcome at an IoU threshold, as a one-mask tally.

    The below-threshold overlap case yields fp=1 and fn=1, which is why
    the result is a ConfusionCounts rather than a single label.
    """
    return _match_counts(confusion(pred, gt), iou_threshold)


def _match_counts(c, iou_threshold):
    """``mask_level_match`` from the pixel tallies of the pair: the
    intersection is tp and the union tp + fp + fn."""
    p_any, g_any = c.tp + c.fp > 0, c.tp + c.fn > 0
    if not p_any and not g_any:
        return ConfusionCounts(0, 0, 0, 1)
    if p_any and not g_any:
        return ConfusionCounts(0, 1, 0, 0)
    if not p_any and g_any:
        return ConfusionCounts(0, 0, 1, 0)
    if c.tp / (c.tp + c.fp + c.fn) > iou_threshold:
        return ConfusionCounts(1, 0, 0, 0)
    return ConfusionCounts(0, 1, 1, 0)


def _match_label(counts):
    if counts.tp:
        return "TP"
    if counts.fp and counts.fn:
        return "FP+FN"
    if counts.fp:
        return "FP"
    if counts.fn:
        return "FN"
    return "TN"


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
    zero_division: list
    per_image: list
    map11_rule: str = "pixel-pooled-curve"

    def to_dict(self):
        return {
            "iou": self.iou,
            "dice": self.dice,
            "precision": self.precision,
            "recall": self.recall,
            "map11": self.map11,
            "auroc": self.auroc,
            "ci": self.ci,
            "threshold": self.threshold,
            "image_count": self.image_count,
            "counts": self.counts.to_dict(),
            "macro": self.macro,
            "mask_level": self.mask_level,
            "map11_rule": self.map11_rule,
            "zero_division": self.zero_division,
            "per_image": self.per_image,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)


def evaluate_pairs(predictions, ground_truths, threshold=0.5, ci_n=None,
                   curve_thresholds=None, iou_match_threshold=0.5):
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
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")

    counts = []

    def with_hard_counts(pairs):
        for p, gb in pairs:
            counts.append(_counts(p >= threshold, gb))
            yield p, gb

    curve = _pooled_curve(
        with_hard_counts(_checked_pairs(predictions, ground_truths)),
        curve_thresholds)
    per_image = []
    pooled = ConfusionCounts(0, 0, 0, 0)
    match_tally = ConfusionCounts(0, 0, 0, 0)
    for idx, c in enumerate(counts):
        pooled = pooled + c
        m = _match_counts(c, iou_match_threshold)
        match_tally = match_tally + m
        row = {"index": idx}
        row.update(scalar_metrics(c))
        row.update(c.to_dict())
        row["mask_match"] = _match_label(m)
        per_image.append(row)

    aggregate = scalar_metrics(pooled)
    n = int(ci_n) if ci_n is not None else len(per_image)
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
                    "iou_threshold": float(iou_match_threshold)},
        zero_division=undefined_metrics(pooled),
        per_image=per_image,
    ), curve
