"""Loss values against hand evaluation, gradients against finite differences,
and MS-SSIM against a direct per-window oracle."""

import math

import numpy as np
import pytest

from segens.errors import ShapeMismatchError
from segens.losses import (TverskyConfig, dice_soft, focal_tversky_loss,
                           ft_bu_loss, mean_absolute_error, mixed_loss, msssim,
                           tversky_index)
from segens.metrics import confusion, dice_from_iou, scalar_metrics
from segens.morpho import boundary_soft_labels

from _oracles import finite_diff_grad


class TestOverlapScores:
    def test_perfect_prediction(self):
        p = np.array([1.0, 0.0, 1.0])
        assert dice_soft(p, p) == 1.0
        assert tversky_index(p, p, 0.7) == 1.0

    def test_disjoint_hard_masks(self):
        t = np.array([1.0, 1.0, 0.0, 0.0])
        p = np.array([0.0, 0.0, 1.0, 1.0])
        smooth = 1e-6  # the stabilizer
        # TP = 0, FN = FP = 2: Dice's denominator is (FN + FP) / 2
        assert math.isclose(dice_soft(t, p), smooth / (2 + smooth))

    def test_dice_direct_case(self):
        t = np.array([1.0, 0.0])
        p = np.array([0.8, 0.2])
        assert abs(dice_soft(t, p) - 0.8) < 1e-5

    def test_dice_iou_relation_on_hard_masks(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            t = (rng.random(40) > 0.5).astype(float)
            p = (rng.random(40) > 0.5).astype(float)
            if not (t.any() or p.any()):
                continue
            iou = scalar_metrics(confusion(t[None], p[None]))["iou"]
            # the 1e-6 stabilizer moves a ratio whose denominator is at
            # least 1/2 by under 2e-6
            assert abs(dice_soft(t, p) - dice_from_iou(iou)) < 2e-6

    def test_tversky_direct_case(self):
        t = np.array([1.0, 0.0])
        p = np.array([0.8, 0.2])
        expected = 0.8 / (0.8 + 0.7 * 0.2 + 0.3 * 0.2)
        assert abs(tversky_index(t, p, 0.7) - expected) < 1e-5

    def test_tversky_half_is_dice_exactly(self):
        rng = np.random.default_rng(32)
        for _ in range( 100):
            t = rng.random((6, 6))
            p = rng.random((6, 6))
            assert abs(tversky_index(t, p, 0.5) - dice_soft(t, p)) <= 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            dice_soft(np.zeros(3), np.zeros(4))


class TestFocalTversky:
    def test_zero_loss_at_perfect_overlap(self):
        t = np.array([1.0, 0.0, 1.0])
        loss, grad = focal_tversky_loss(t, t)
        assert loss == 0.0
        assert not grad.any()

    def test_power_of_known_index(self):
        # TI = 0.8 at fn_weight 0.7 -> loss = 0.2 ** 0.75
        t = np.array([1.0, 0.0])
        p = np.array([0.8, 0.2])
        loss, _ = focal_tversky_loss(t, p)
        assert abs(loss - 0.2 ** 0.75) < 1e-6

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(33)
        cfg = TverskyConfig()
        for _ in range(25):
            t = rng.random((4, 4))
            p = rng.uniform(0.05, 0.95, (4, 4))
            _, grad = focal_tversky_loss(t, p, cfg)
            fd = finite_diff_grad(lambda v: focal_tversky_loss(t, v, cfg)[0],
                                  p, step=1e-5)
            denom = np.maximum(np.abs(fd), 1e-8)
            assert (np.abs(grad - fd) / denom).max() < 1e-4

    def test_lowering_true_foreground_raises_loss(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            t = (rng.random((5, 5)) > 0.5).astype(float)
            if not t.any():
                continue
            p = rng.uniform(0.1, 0.9, (5, 5))
            _, grad = focal_tversky_loss(t, p)
            # gradient on true-foreground pixels never points upward
            assert (grad[t == 1.0] <= 1e-15).all()


class TestFtBu:
    def test_degenerate_labels_match_plain_ft(self):
        # focal Tversky against the default soft labels, which an empty
        # mask, having no boundary rings, leaves hard
        rng = np.random.default_rng(35)
        masks = [(rng.random((8, 8)) > 0.5).astype(np.uint8) for _ in range(10)]
        for mask, soft in ([(m, boundary_soft_labels(m)) for m in masks]
                           + [(np.zeros((8, 8), np.uint8), np.zeros((8, 8)))]):
            p = rng.uniform(0.05, 0.95, (8, 8))
            got_loss, got_grad = ft_bu_loss(mask, p)
            want_loss, want_grad = focal_tversky_loss(soft, p)
            assert got_loss == want_loss
            assert np.array_equal(got_grad, want_grad)

    def test_loss_floor_at_soft_label_prediction(self):
        # predicting the soft labels themselves gives TI = sum(t^2)/sum(t),
        # which is < 1 whenever genuinely soft values exist, so the loss
        # floor is positive
        mask = np.zeros((8, 8), np.uint8)
        mask[2:6, 2:6] = 1
        soft = boundary_soft_labels(mask).astype(np.float64)
        loss, _ = ft_bu_loss(mask, soft)
        smooth = 1e-6
        ti = ((soft * soft).sum() + smooth) / (soft.sum() + smooth)
        assert abs(loss - (1.0 - ti) ** 0.75) < 1e-12

    def test_square_case_matches_composed_reference(self):
        # independent route: build the soft labels by set algebra, then
        # evaluate the Tversky ratio and focal power by hand
        mask = np.zeros((8, 8), np.uint8)
        mask[2:6, 2:6] = 1
        p = np.full((8, 8), 0.5)
        soft = np.zeros((8, 8), np.float32)
        soft[2:6, 2:6] = 1.0
        inner = np.zeros((8, 8), bool)
        inner[2:6, 2:6] = True
        inner[3:5, 3:5] = False
        soft[inner] = 0.9
        outer = np.zeros((8, 8), bool)
        outer[1:7, 1:7] = True
        outer[2:6, 2:6] = False
        soft[outer] = 0.1
        soft = soft.astype(np.float64)
        smooth = 1e-6
        tp = float((soft * p).sum())
        fn = float((soft * (1 - p)).sum())
        fp = float(((1 - soft) * p).sum())
        ti = (tp + smooth) / (tp + 0.7 * fn + 0.3 * fp + smooth)
        expected = (1 - ti) ** 0.75
        got, _ = ft_bu_loss(mask, p)
        assert abs(got - expected) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(36)
        for _ in range(10):
            mask = (rng.random((6, 6)) > 0.5).astype(np.uint8)
            p = rng.uniform(0.05, 0.95, (6, 6))
            _, grad = ft_bu_loss(mask, p)
            fd = finite_diff_grad(lambda v: ft_bu_loss(mask, v)[0], p, step=1e-5)
            denom = np.maximum(np.abs(fd), 1e-8)
            assert (np.abs(grad - fd) / denom).max() < 1e-4


def ssim_windowed_oracle(a, b, window_size=11, sigma=1.5):
    """Direct per-window SSIM: loops over window positions, weighted
    moments straight from the formula."""
    coords = np.arange(window_size) - (window_size - 1) / 2
    g1 = np.exp(-coords ** 2 / (2 * sigma ** 2))
    g2 = np.outer(g1, g1)
    g2 /= g2.sum()
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    h, w = a.shape
    lum, cs = [], []
    for y in range(h - window_size + 1):
        for x in range(w - window_size + 1):
            wa = a[y:y + window_size, x:x + window_size]
            wb = b[y:y + window_size, x:x + window_size]
            mu1 = float((wa * g2).sum())
            mu2 = float((wb * g2).sum())
            v1 = float((wa * wa * g2).sum()) - mu1 * mu1
            v2 = float((wb * wb * g2).sum()) - mu2 * mu2
            cov = float((wa * wb * g2).sum()) - mu1 * mu2
            lum.append((2 * mu1 * mu2 + c1) / (mu1 ** 2 + mu2 ** 2 + c1))
            cs.append((2 * cov + c2) / (v1 + v2 + c2))
    return np.mean(lum), np.mean(cs)


def msssim_oracle(a, b, scales, window_size=11, sigma=1.5):
    weights = [0.0448, 0.2856, 0.3001, 0.2363, 0.1333][:scales]
    weights = [w / sum(weights) for w in weights] if scales < 5 else weights
    val = 1.0
    x, y = a.astype(np.float64), b.astype(np.float64)
    for level in range(scales):
        lum, cs = ssim_windowed_oracle(x, y, window_size, sigma)
        if level == scales - 1:
            # full SSIM mean at the last scale
            val *= max(_last_scale_mean(x, y, window_size, sigma), 0.0) ** weights[level]
        else:
            val *= max(cs, 0.0) ** weights[level]
            hh, ww = (x.shape[0] // 2) * 2, (x.shape[1] // 2) * 2
            x = x[:hh, :ww].reshape(hh // 2, 2, ww // 2, 2).mean(axis=(1, 3))
            y = y[:hh, :ww].reshape(hh // 2, 2, ww // 2, 2).mean(axis=(1, 3))
    return val


def _last_scale_mean(a, b, window_size, sigma):
    coords = np.arange(window_size) - (window_size - 1) / 2
    g1 = np.exp(-coords ** 2 / (2 * sigma ** 2))
    g2 = np.outer(g1, g1)
    g2 /= g2.sum()
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    h, w = a.shape
    vals = []
    for y in range(h - window_size + 1):
        for x in range(w - window_size + 1):
            wa = a[y:y + window_size, x:x + window_size]
            wb = b[y:y + window_size, x:x + window_size]
            mu1 = float((wa * g2).sum())
            mu2 = float((wb * g2).sum())
            v1 = float((wa * wa * g2).sum()) - mu1 * mu1
            v2 = float((wb * wb * g2).sum()) - mu2 * mu2
            cov = float((wa * wb * g2).sum()) - mu1 * mu2
            lum = (2 * mu1 * mu2 + c1) / (mu1 ** 2 + mu2 ** 2 + c1)
            cs = (2 * cov + c2) / (v1 + v2 + c2)
            vals.append(lum * cs)
    return float(np.mean(vals))


# the least side that five scales of an 11x11 window fit: 11 * 2 ** 4
_SIDE = 176


class TestMsSsimAndMixed:
    def test_identical_images(self):
        rng = np.random.default_rng(37)
        a = rng.random((_SIDE, _SIDE))
        assert msssim(a, a) == 1.0
        assert mixed_loss(a, a) == 0.0

    def test_constant_zero_vs_one(self):
        a = np.zeros((_SIDE, _SIDE))
        b = np.ones((_SIDE, _SIDE))
        assert mean_absolute_error(a, b) == 1.0
        got = msssim(a, b)
        want = msssim_oracle(a, b, scales=5)
        assert abs(got - want) < 1e-10
        assert math.isclose(mixed_loss(a, b),
                            0.84 * (1 - got) + 0.16 * 1.0, rel_tol=1e-12)

    def test_matches_windowed_oracle_on_random_images(self):
        # odd sides, so each 2x2 mean pool drops a row and a column
        rng = np.random.default_rng(39)
        a = rng.random((_SIDE + 3, _SIDE + 1))
        b = np.clip(a + rng.normal(0, 0.1, a.shape), 0, 1)
        got = msssim(a, b)
        want = msssim_oracle(a, b, scales=5)
        assert abs(got - want) < 1e-10

    def test_two_scale_oracle(self):
        # structure at two scales: a shared 16x16-block pattern under
        # independent pixel noise, so the fine scales score lower than
        # the coarse ones and every scale term stays in (0, 1)
        rng = np.random.default_rng(40)
        coarse = np.kron(rng.random((11, 11)), np.ones((16, 16)))
        a = 0.7 * coarse + 0.3 * rng.random(coarse.shape)
        b = 0.7 * coarse + 0.3 * rng.random(coarse.shape)
        got = msssim(a, b)
        assert 0.0 < got < 1.0
        assert abs(got - msssim_oracle(a, b, scales=5)) < 1e-10

    def test_symmetry(self):
        rng = np.random.default_rng(41)
        a = rng.random((_SIDE, _SIDE))
        b = rng.random((_SIDE, _SIDE))
        assert msssim(a, b) == msssim(b, a)

    def test_range(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            a = rng.random((_SIDE, _SIDE))
            b = rng.random((_SIDE, _SIDE))
            v = msssim(a, b)
            assert 0.0 <= v <= 1.0

    def test_too_small_image_names_minimum(self):
        for shape in (64, 64), (_SIDE - 1, 300), (300, _SIDE - 1):
            a = np.zeros(shape)
            with pytest.raises(ValueError, match="176x176"):
                msssim(a, a)

    def test_uint8_inputs_rescaled(self):
        rng = np.random.default_rng(43)
        a8 = rng.integers(0, 256, (_SIDE, _SIDE), dtype=np.uint8)
        assert msssim(a8, a8) == 1.0
        assert msssim(a8, 255 - a8) == msssim(a8 / 255.0, (255 - a8) / 255.0)
        assert math.isclose(
            mean_absolute_error(a8, np.zeros((_SIDE, _SIDE), np.uint8)),
            float(a8.astype(np.float64).mean()) / 255.0, rel_tol=1e-12)

    def test_mixed_loss_zero_on_any_self_pair(self):
        rng = np.random.default_rng(44)
        for _ in range(5):
            a = rng.random((_SIDE, _SIDE))
            assert mixed_loss(a, a) == 0.0
