"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Two sub-checks are unattainable with the published numbers/formulas and
are isolated as strict expected-failures with the measured evidence
printed, so the discrepancy stays visible without masking regressions:

* criterion 1: the ResNet-34 bone-suppressed row prints IoU 0.3280 with
  Dice 0.4640, but dice_from_iou(0.3280) = 0.4940; the Dice value is
  self-consistent with its printed CI, so the IoU figure is the outlier.
* criterion 9: the p-value approximation exp(-0.717 z - 0.416 z^2)
  sits 0.0126 above the exact two-sided tail at z = 0.5, outside the
  0.01 bound it meets at every other pinned z.
"""

import math
from statistics import NormalDist

import numpy as np
import pytest

from segens import ensemble, imageio, losses, metrics, morpho, stats
from segens.ndtensor import (ConvKernel, conv2d_backward, conv2d_forward,
                             relu_forward_backward, sigmoid_forward_backward)

from _oracles import finite_diff_grad


def report(number, label, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {status}: {label}{suffix}")
    assert passed, f"criterion {number} failed: {label}{suffix}"


# (IoU, Dice, CI lower, CI upper) as published; 10 constituent-model rows
# and 12 ensemble rows, n = 33 test images behind every interval.
REPORTED_ROWS = [
    ("ResNet-34 original",        0.3599, 0.5293, 0.3589, 0.6997),
    ("ResNet-34 bone-suppressed", 0.3280, 0.4640, 0.2938, 0.6342),
    ("Inception-V3 original",     0.3896, 0.5608, 0.3914, 0.7302),
    ("Inception-V3 bone-supp.",   0.2525, 0.4032, 0.2358, 0.5706),
    ("DenseNet-121 original",     0.2996, 0.4611, 0.2910, 0.6312),
    ("DenseNet-121 bone-supp.",   0.2892, 0.4486, 0.2789, 0.6183),
    ("EfficientNet-B0 original",  0.3453, 0.5134, 0.3428, 0.6840),
    ("EfficientNet-B0 bone-supp.",0.3381, 0.5053, 0.3347, 0.6759),
    ("SE-ResNext-50 original",    0.3201, 0.4850, 0.3144, 0.6556),
    ("SE-ResNext-50 bone-supp.",  0.2962, 0.4570, 0.2870, 0.6270),
    ("top-3 stacking",            0.4028, 0.5743, 0.4055, 0.7431),
    ("top-3 bitwise-AND",         0.3829, 0.5538, 0.3841, 0.7235),
    ("top-3 bitwise-OR",          0.3558, 0.5249, 0.3545, 0.6953),
    ("top-3 bitwise-MAX",         0.3343, 0.5011, 0.3305, 0.6717),
    ("top-4 stacking",            0.3962, 0.5675, 0.3984, 0.7366),
    ("top-4 bitwise-AND",         0.3534, 0.5222, 0.3517, 0.6927),
    ("top-4 bitwise-OR",          0.3088, 0.4718, 0.3014, 0.6422),
    ("top-4 bitwise-MAX",         0.2971, 0.4581, 0.2881, 0.6281),
    ("top-5 stacking",            0.3974, 0.5687, 0.3997, 0.7377),
    ("top-5 bitwise-AND",         0.3534, 0.5222, 0.3517, 0.6927),
    ("top-5 bitwise-OR",          0.3088, 0.4718, 0.3014, 0.6422),
    ("top-5 bitwise-MAX",         0.2744, 0.4306, 0.2616, 0.5996),
]
INCONSISTENT_ROW = "ResNet-34 bone-suppressed"


def test_criterion_1_table_arithmetic():
    worst = 0.0
    for name, iou, dice, _, _ in REPORTED_ROWS:
        if name == INCONSISTENT_ROW:
            continue
        worst = max(worst, abs(metrics.dice_from_iou(iou) - dice))
    report(1, "dice_from_iou reproduces the published Dice columns "
              "(21 of 22 rows; the inconsistent row is checked separately)",
           worst < 1.5e-4, f"worst gap {worst:.2e}")


@pytest.mark.xfail(strict=True,
                   reason="published row prints IoU 0.3280 against Dice "
                          "0.4640; the Dice/CI pair is self-consistent, so "
                          "the IoU figure is a typo (implies 0.3021)")
def test_criterion_1_inconsistent_published_row():
    row = next(r for r in REPORTED_ROWS if r[0] == INCONSISTENT_ROW)
    _, iou, dice, _, _ = row
    gap = abs(metrics.dice_from_iou(iou) - dice)
    report(1, f"dice_from_iou on the {INCONSISTENT_ROW} row as printed",
           gap < 1.5e-4, f"gap {gap:.2e}")


def test_criterion_2_ci_reproduction():
    worst = 0.0
    for _, _, dice, lo, hi in REPORTED_ROWS:
        iv = stats.wald_ci(dice, 33)
        worst = max(worst, abs(iv.lower - lo), abs(iv.upper - hi))
    report(2, "wald_ci(dice, n=33) reproduces all 22 published CI pairs",
           worst < 1.5e-4, f"worst endpoint gap {worst:.2e}")


def test_criterion_3_substitution_note():
    # the published segmentation scores need trained backbones and the
    # restricted clinical images; criteria 4-9 are the substituted
    # property-based gate, so this criterion only documents the swap
    report(3, "headline scores substituted by property criteria 4-9 "
              "(no trained backbones or clinical data at desk scale)", True)


def _rel_err(analytic, fd, floor=1e-8):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), floor)
    return float((np.abs(analytic - fd) / denom).max())


def test_criterion_4_gradient_suite():
    rng = np.random.default_rng(1234)
    worst = {"conv-input": 0.0, "conv-weights": 0.0, "conv-bias": 0.0,
             "sigmoid": 0.0, "relu": 0.0, "ft": 0.0, "ft-bu": 0.0}

    for _ in range(50):
        in_ch = int(rng.integers(1, 3))
        out_ch = int(rng.integers(1, 3))
        x = rng.standard_normal((in_ch, 4, 4))
        kernel = ConvKernel(rng.standard_normal((out_ch, in_ch, 3, 3)),
                            rng.standard_normal(out_ch))
        g_up = rng.standard_normal((out_ch, 4, 4))
        gi, gw, gb = conv2d_backward(x, kernel, g_up)
        fd = finite_diff_grad(
            lambda v: float((conv2d_forward(v, kernel) * g_up).sum()),
            x, step=1e-3)
        worst["conv-input"] = max(worst["conv-input"], _rel_err(gi, fd))
        fd = finite_diff_grad(
            lambda v: float(
                (conv2d_forward(x, ConvKernel(v, kernel.bias)) * g_up).sum()),
            kernel.weights, step=1e-3)
        worst["conv-weights"] = max(worst["conv-weights"], _rel_err(gw, fd))
        fd = finite_diff_grad(
            lambda v: float(
                (conv2d_forward(x, ConvKernel(kernel.weights, v)) * g_up).sum()),
            kernel.bias, step=1e-3)
        worst["conv-bias"] = max(worst["conv-bias"], _rel_err(gb, fd))

    for _ in range(50):
        x = rng.standard_normal(8) * 2.0
        _, d = sigmoid_forward_backward(x)
        fd = finite_diff_grad(
            lambda v: float(sigmoid_forward_backward(v)[0].sum()), x, step=1e-4)
        worst["sigmoid"] = max(worst["sigmoid"], _rel_err(d, fd))
        xr = np.where(np.abs(x) < 0.05, 0.5, x)  # stay off the kink
        _, mask = relu_forward_backward(xr)
        fd = finite_diff_grad(
            lambda v: float(relu_forward_backward(v)[0].sum()), xr, step=1e-4)
        worst["relu"] = max(worst["relu"], _rel_err(mask, fd))

    cfg = losses.TverskyConfig()
    for _ in range(50):
        t = rng.random((4, 4))
        p = rng.uniform(0.05, 0.95, (4, 4))
        _, grad = losses.focal_tversky_loss(t, p, cfg)
        fd = finite_diff_grad(
            lambda v: losses.focal_tversky_loss(t, v, cfg)[0], p, step=1e-5)
        worst["ft"] = max(worst["ft"], _rel_err(grad, fd))
        mask = (rng.random((4, 4)) > 0.6).astype(np.uint8)
        _, grad = losses.ft_bu_loss(mask, p)
        fd = finite_diff_grad(
            lambda v: losses.ft_bu_loss(mask, v)[0], p, step=1e-5)
        worst["ft-bu"] = max(worst["ft-bu"], _rel_err(grad, fd))

    layer_worst = max(worst.values())
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    report(4, "analytic gradients match 64-bit central differences at "
              "rel err < 1e-4 on 50 instances per op",
           layer_worst < 1e-4, detail)

    # end-to-end: all five layers through the FT+BU loss, float64 copies,
    # 20 random parameter coordinates (step 1e-5 keeps the check off the
    # ReLU kinks that pollute larger steps)
    gt = (rng.random((6, 6)) < 0.3).astype(np.uint8)
    stack = np.stack([gt.astype(np.float64),
                      rng.random((6, 6)), rng.random((6, 6))])
    arrays = [a.astype(np.float64) for a in
              ensemble.build_metalearner(3, seed=9).parameter_arrays()]
    params = ensemble.MetaLearnerParams.from_arrays(arrays, seed=9)
    soft = morpho.boundary_soft_labels(gt).astype(np.float64)
    _, _, grads = ensemble._loss_and_grads(params, stack, soft, cfg)

    def loss_at(arrs):
        p = ensemble.MetaLearnerParams.from_arrays(arrs, seed=9)
        return ensemble._loss_and_grads(p, stack, soft, cfg)[0]

    h = 1e-5
    end_worst = 0.0
    for _ in range(20):
        li = int(rng.integers(len(arrays)))
        idx = tuple(int(rng.integers(s)) for s in arrays[li].shape)
        hi = [a.copy() for a in arrays]
        hi[li][idx] += h
        lo = [a.copy() for a in arrays]
        lo[li][idx] -= h
        fd = (loss_at(hi) - loss_at(lo)) / (2 * h)
        end_worst = max(end_worst, _rel_err(np.float64(grads[li][idx]),
                                            np.float64(fd)))
    report(4, "end-to-end meta-learner gradient matches finite differences "
              "at 20 random coordinates (rel err < 1e-3)",
           end_worst < 1e-3, f"worst {end_worst:.1e}")


def test_criterion_5_loss_identities():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        t = rng.random((7, 7))
        p = rng.random((7, 7))
        worst = max(worst, abs(losses.tversky_index(t, p, 0.5)
                               - losses.dice_soft(t, p)))
    identity_ok = True
    cfg = morpho.BoundaryUncertaintyConfig(interior_label=1.0,
                                           exterior_label=0.0)
    for _ in range(100):
        mask = (rng.random((9, 9)) > 0.5).astype(np.uint8)
        soft = morpho.boundary_soft_labels(mask, cfg)
        identity_ok = identity_ok and np.array_equal(soft,
                                                     mask.astype(np.float32))
    mixed_ok = all(
        losses.mixed_loss(a, a, losses.MixedLossConfig(scales=2)) == 0.0
        for a in (rng.random((24, 24)) for _ in range(5)))
    report(5, "tversky(0.5) == dice within 1e-9; hard-label soft transform "
              "is the identity; mixed_loss(a,a) == 0",
           worst <= 1e-9 and identity_ok and mixed_ok,
           f"worst tversky-dice gap {worst:.1e}")


def test_criterion_6_morphology_oracle():
    # all 65,536 4x4 masks at once: tile them on a zero canvas with a
    # 2-pixel gap, which reproduces the out-of-bounds-is-background rule
    # per tile, and compare against an independent sliding-window oracle
    codes = np.arange(65536, dtype=np.uint32)
    bits = ((codes[:, None] >> np.arange(16)) & 1).astype(np.uint8)
    masks = bits.reshape(65536, 4, 4)

    side = 256  # 256 x 256 tiles of 6x6 pixels
    canvas = np.zeros((side * 6, side * 6), np.uint8)
    for row in range(side):
        canvas[row * 6 + 1:row * 6 + 5, 1::6] = 0  # keep layout explicit
    tiles = masks.reshape(side, side, 4, 4)
    for r in range(side):
        for c in range(side):
            canvas[r * 6 + 1:r * 6 + 5, c * 6 + 1:c * 6 + 5] = tiles[r, c]

    dil = np.asarray(morpho.dilate(canvas))
    ero = np.asarray(morpho.erode(canvas))

    padded = np.zeros((65536, 6, 6), np.uint8)
    padded[:, 1:5, 1:5] = masks
    win = np.lib.stride_tricks.sliding_window_view(padded, (3, 3), axis=(1, 2))
    oracle_dil = win.max(axis=(3, 4))
    oracle_ero = win.min(axis=(3, 4))

    dil_ok = ero_ok = True
    for r in range(side):
        for c in range(side):
            i = r * side + c
            if not np.array_equal(dil[r * 6 + 1:r * 6 + 5,
                                      c * 6 + 1:c * 6 + 5],
                                  oracle_dil[i]):
                dil_ok = False
            if not np.array_equal(ero[r * 6 + 1:r * 6 + 5,
                                      c * 6 + 1:c * 6 + 5],
                                  oracle_ero[i]):
                ero_ok = False
    # spot-check the tiling equivalence against direct per-mask calls
    rng = np.random.default_rng(6)
    for i in rng.integers(0, 65536, 200):
        m = masks[i]
        dil_ok = dil_ok and np.array_equal(np.asarray(morpho.dilate(m)),
                                           oracle_dil[i])
        ero_ok = ero_ok and np.array_equal(np.asarray(morpho.erode(m)),
                                           oracle_ero[i])
    report(6, "flat 3x3 dilation/erosion match the exhaustive neighborhood "
              "max/min on all 65,536 4x4 masks", dil_ok and ero_ok)

    ext_ok = mono_ok = True
    for _ in range(1000):
        m = (rng.random((32, 32)) > 0.5).astype(np.uint8)
        d = np.asarray(morpho.dilate(m)).astype(bool)
        e = np.asarray(morpho.erode(m)).astype(bool)
        mb = m.astype(bool)
        ext_ok = ext_ok and (mb | d == d).all() and (e & mb == e).all()
        bigger = (mb | (rng.random((32, 32)) > 0.7)).astype(np.uint8)
        mono_ok = mono_ok and \
            (d <= np.asarray(morpho.dilate(bigger)).astype(bool)).all() and \
            (e <= np.asarray(morpho.erode(bigger)).astype(bool)).all()
    report(6, "extensivity/anti-extensivity and monotonicity on 1,000 "
              "random 32x32 masks", ext_ok and mono_ok)


def test_criterion_7_fusion_algebra():
    codes = np.arange(512)
    bits = ((codes[:, None] >> np.arange(9)) & 1).astype(np.uint8)
    masks = bits.reshape(512, 3, 3)
    # Fusion is pixelwise, so two 1536x1536 mosaics carry every ordered
    # pair at once: block (i, j) of a is mask i, block (i, j) of b mask j.
    a = np.broadcast_to(masks[:, None], (512, 512, 3, 3))
    b = np.broadcast_to(masks[None, :], (512, 512, 3, 3))
    a, b = (m.transpose(0, 2, 1, 3).reshape(1536, 1536) for m in (a, b))
    block_codes = [m.reshape(512, 3, 512, 3).transpose(0, 2, 1, 3)
                   .reshape(512, 512, 9) @ (1 << np.arange(9)) for m in (a, b)]
    assert (block_codes[0] == codes[:, None]).all()
    assert (block_codes[1] == codes[None, :]).all()
    fused_and = ensemble.fuse_and([a, b]).astype(bool)
    fused_or = ensemble.fuse_or([a, b]).astype(bool)
    ab, bb = a.astype(bool), b.astype(bool)
    ok = bool((fused_and <= ab).all() and (fused_and <= bb).all()
              and (ab <= fused_or).all() and (bb <= fused_or).all())
    report(7, "fuse_and <= inputs <= fuse_or on all 262,144 pairs of "
              "3x3 masks", ok)

    rng = np.random.default_rng(7)
    commute_ok = True
    for _ in range(1000):
        k = int(rng.integers(2, 5))
        maps = [rng.random((6, 6)).astype(np.float32) for _ in range(k)]
        t = float(rng.random())
        _, fused_mask = ensemble.fuse_max(maps, binarize_threshold=t)
        want = ensemble.fuse_or([ensemble.binarize(m, t) for m in maps])
        commute_ok = commute_ok and np.array_equal(fused_mask, want)
    report(7, "binarize(fuse_max) == fuse_or(binarized inputs) on 1,000 "
              "random map sets at matched thresholds", commute_ok)


def _capacity_fixture(seed=0, n=8, size=32):
    """Sparse elliptical lesions; channel 1 is the ground truth, the other
    channels are noisy copies like constituent-model probability maps."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        gt = np.zeros((size, size), np.uint8)
        for _ in range(int(rng.integers(1, 3))):
            cy, cx = rng.integers(6, size - 6, 2)
            ry, rx = rng.integers(3, 7, 2)
            yy, xx = np.ogrid[:size, :size]
            gt[((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0] = 1
        noisy1 = np.clip(gt * 0.8 + rng.normal(0, 0.15, gt.shape), 0, 1)
        noisy2 = np.clip(gt * 0.6 + rng.normal(0, 0.25, gt.shape), 0, 1)
        pairs.append((np.stack([gt.astype(np.float32),
                                noisy1.astype(np.float32),
                                noisy2.astype(np.float32)]), gt))
    return pairs


def test_criterion_8_metalearner_capacity():
    pairs = _capacity_fixture(seed=0)
    batch_size = 2
    steps_per_epoch = math.ceil(len(pairs) / batch_size)
    hyper = ensemble.HyperParams(learning_rate=1e-3,
                                 epochs=500 // steps_per_epoch,
                                 batch_size=batch_size, seed=0,
                                 dice_target=0.9)
    params, run = ensemble.train_metalearner(pairs, hyper=hyper)
    steps = len(run.train_loss) * steps_per_epoch
    final_dice = run.train_dice[-1]
    decrease = run.train_loss[0] - run.train_loss[-1]

    # recompute the train Dice from fresh forward passes of the returned
    # parameters rather than trusting the monitored value
    dices = []
    for stack, gt in pairs:
        pred = ensemble.predict_metalearner(params, stack)
        c = metrics.confusion((pred >= 0.5).astype(np.uint8), gt)
        dices.append(metrics.scalar_metrics(c)["dice"])
    fresh_dice = sum(dices) / len(dices)

    _, rerun = ensemble.train_metalearner(pairs, hyper=hyper)
    reproducible = (run.train_loss == rerun.train_loss
                    and run.train_dice == rerun.train_dice)

    report(8, "meta-learner reaches train Dice > 0.9 within 500 steps at "
              "lr 1e-3, seed 0, with positive total loss decrease",
           steps <= 500 and final_dice > 0.9 and fresh_dice > 0.9
           and decrease > 0.0,
           f"{steps} steps, monitored dice {final_dice:.3f}, fresh dice "
           f"{fresh_dice:.3f}, loss drop {decrease:.3f}")
    report(8, "training run is bit-reproducible under the fixed seed",
           reproducible)


def test_criterion_9_statistics():
    cp_ok = True
    worst_cp = 0.0
    for n in (5, 10, 33):
        top = stats.clopper_pearson_ci(n, n)
        bottom = stats.clopper_pearson_ci(0, n)
        worst_cp = max(worst_cp,
                       abs(top.lower - 0.025 ** (1.0 / n)),
                       abs(bottom.upper - (1.0 - 0.025 ** (1.0 / n))))
        cp_ok = cp_ok and top.upper == 1.0 and bottom.lower == 0.0
    report(9, "Clopper-Pearson endpoints match the k=0 and k=n closed "
              "forms for n in {5, 10, 33}",
           cp_ok and worst_cp < 1e-6, f"worst gap {worst_cp:.1e}")

    worst_p = 0.0
    for z in (1.0, 1.96, 2.0, 3.0):
        se = 0.05
        p = stats.p_from_ci(z * se, -1.96 * se, 1.96 * se)
        exact = 2.0 * (1.0 - NormalDist().cdf(z))
        worst_p = max(worst_p, abs(p - exact))
    report(9, "p_from_ci within 0.01 of the exact two-sided tail for "
              "z in {1, 1.96, 2, 3} (z = 0.5 checked separately)",
           worst_p < 0.01, f"worst gap {worst_p:.4f}")

    curve = metrics.Curve(thresholds=np.array([0.9, 0.5, 0.1]),
                          precision=np.array([1.0, 0.5, 0.4]),
                          recall=np.array([0.2, 0.6, 1.0]),
                          tpr=np.array([0.2, 0.6, 1.0]),
                          fpr=np.array([0.0, 0.2, 0.5]))
    value = metrics.map11(curve)
    report(9, "11-point mAP hand case returns 0.6 exactly",
           value == 0.6, f"got {value!r}")


@pytest.mark.xfail(strict=True,
                   reason="exp(-0.717z - 0.416z^2) sits 0.0126 above the "
                          "exact two-sided tail at z = 0.5; the formula "
                          "is accurate to 0.01 only for z >= ~0.7")
def test_criterion_9_p_value_gap_at_half_z():
    se = 0.05
    p = stats.p_from_ci(0.5 * se, -1.96 * se, 1.96 * se)
    exact = 2.0 * (1.0 - NormalDist().cdf(0.5))
    report(9, "p_from_ci within 0.01 of the exact tail at z = 0.5",
           abs(p - exact) < 0.01, f"gap {abs(p - exact):.4f}")


def test_criterion_10_curve_oracle():
    rng = np.random.default_rng(10)
    gts = [(rng.random((16, 16)) > 0.55).astype(np.uint8) for _ in range(5)]
    preds = [np.clip(g + rng.normal(0, 0.4, g.shape), 0, 1).astype(np.float32)
             for g in gts]
    curve = metrics.pr_roc_curves(preds, gts)
    assert curve.thresholds.size == 101

    exact = True
    for i, t in enumerate(curve.thresholds):
        tp = fp = fn = tn = 0
        for p, g in zip(preds, gts):
            binar = np.asarray(p, np.float64) >= t
            gb = g.astype(bool)
            tp += int((binar & gb).sum())
            fp += int((binar & ~gb).sum())
            fn += int((~binar & gb).sum())
            tn += int((~binar & ~gb).sum())
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        fpr = fp / (fp + tn) if fp + tn else 0.0
        if not (curve.precision[i] == precision and curve.recall[i] == recall
                and curve.tpr[i] == recall and curve.fpr[i] == fpr):
            exact = False
    report(10, "pooled PR/ROC points equal per-threshold brute-force "
               "confusion at all 101 default thresholds, exactly", exact)
