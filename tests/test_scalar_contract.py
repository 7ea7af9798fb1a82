"""One check per scalar contract: ``errors.check_range`` for real numbers,
``errors.check_int`` for integers, and every numeric library parameter
that goes through them."""

import math
import re

import numpy as np
import pytest

from segens import (augment, ensemble, imageio, losses, metrics, morpho,
                    ndtensor, stats)
from segens.cli import main
from segens.errors import check_int, check_range

NON_FINITE = [math.nan, math.inf, -math.inf]


class TestCheckRange:
    def test_returns_the_value(self):
        assert check_range(0.5, "x", 0, 1) == 0.5
        assert check_range(-3, "x") == -3

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_rejected_even_unbounded(self, value):
        with pytest.raises(ValueError, match=r"^x must be in \(-inf, inf\), got"):
            check_range(value, "x")

    def test_closed_bounds_accept_their_ends(self):
        assert check_range(0, "x", 0, 1) == 0
        assert check_range(1, "x", 0, 1) == 1

    @pytest.mark.parametrize("value, lo_open, hi_open, message", [
        (0, True, False, r"x must be in (0, 1], got 0"),
        (1, False, True, r"x must be in [0, 1), got 1"),
        (2, True, True, r"x must be in (0, 1), got 2"),
        (-1, False, False, r"x must be in [0, 1], got -1"),
    ])
    def test_message_names_the_range(self, value, lo_open, hi_open, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_range(value, "x", 0, 1, lo_open=lo_open, hi_open=hi_open)

    def test_infinite_bound_is_shown_open(self):
        with pytest.raises(ValueError, match=re.escape("x must be in [0, inf), got -1")):
            check_range(-1, "x", 0)

    def test_int_past_float_range_is_compared_exactly(self):
        # math.isfinite would raise OverflowError, which exits with a traceback
        assert check_range(10**400, "x", 0) == 10**400
        with pytest.raises(ValueError, match=r"^x must be in \[0, 1\], got 1000"):
            check_range(10**400, "x", 0, 1)


class TestCheckInt:
    def test_returns_a_python_int(self):
        got = check_int(np.int64(3), "x", 1)
        assert got == 3 and type(got) is int
        assert check_int(0, "x", 0, 0) == 0

    @pytest.mark.parametrize("value", [2.0, 2.5, math.nan, math.inf,
                                       np.float64(2.0), "2", None])
    def test_non_integers_rejected(self, value):
        with pytest.raises(ValueError, match=r"^x must be an integer, got "):
            check_int(value, "x")

    @pytest.mark.parametrize("value, message", [
        (0, "x must be in [1, 5], got 0"), (6, "x must be in [1, 5], got 6")])
    def test_out_of_range_names_the_range(self, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_int(value, "x", 1, 5)


_G = np.array([[0, 1], [1, 1]], np.uint8)
_Z = np.zeros((2, 2), np.uint8)

# (site, call taking the value, name the message gives)
SITES = [
    ("binarize", lambda v: ensemble.binarize(_G, v), "threshold"),
    ("HyperParams.learning_rate",
     lambda v: ensemble.HyperParams(learning_rate=v), "learning_rate"),
    ("HyperParams.plateau_factor",
     lambda v: ensemble.HyperParams(plateau_factor=v), "plateau_factor"),
    ("HyperParams.dice_target",
     lambda v: ensemble.HyperParams(dice_target=v), "dice_target"),
    ("dice_from_iou", metrics.dice_from_iou, "IoU"),
    ("evaluate_pairs.threshold",
     lambda v: metrics.evaluate_pairs([_G], [_G], threshold=v), "threshold"),
    ("TverskyConfig.fn_weight",
     lambda v: losses.TverskyConfig(fn_weight=v), "fn_weight"),
    ("TverskyConfig.focal_exponent",
     lambda v: losses.TverskyConfig(focal_exponent=v), "focal_exponent"),
    ("TverskyConfig.smooth", lambda v: losses.TverskyConfig(smooth=v), "smooth"),
    ("tversky_index",
     lambda v: losses.tversky_index(_G, _G, fn_weight=v), "fn_weight"),
    # NaN returned NaN; so did dice_soft, which goes through it
    ("tversky_index.smooth",
     lambda v: losses.tversky_index(_G, _G, smooth=v), "smooth"),
    ("AdamState.fresh",
     lambda v: ndtensor.AdamState.fresh([np.zeros(2)], v), "learning_rate"),
    ("AugmentConfig.rotation_degrees[0]",
     lambda v: augment.AugmentConfig(rotation_degrees=(v, 10.0)),
     r"rotation_degrees\[0\]"),
    ("AugmentConfig.rotation_degrees[1]",
     lambda v: augment.AugmentConfig(rotation_degrees=(5.0, v)),
     r"rotation_degrees\[1\]"),
    ("AugmentConfig.zoom_factors[0]",
     lambda v: augment.AugmentConfig(zoom_factors=(v, 1.4)), r"zoom_factors\[0\]"),
    ("AugmentConfig.zoom_factors[1]",
     lambda v: augment.AugmentConfig(zoom_factors=(0.8, v)), r"zoom_factors\[1\]"),
    ("AugmentConfig.mirror_probability",
     lambda v: augment.AugmentConfig(mirror_probability=v), "mirror_probability"),
    ("rotate", lambda v: augment.rotate(_G, _G, v), "angle_degrees"),
    ("zoom", lambda v: augment.zoom(_G, _G, v), "factor"),
    ("wald_ci.p_hat", lambda v: stats.wald_ci(v, 10), "proportion"),
    ("wald_ci.n", lambda v: stats.wald_ci(0.5, v), "n"),
    ("wald_ci.level", lambda v: stats.wald_ci(0.5, 10, level=v), "level"),
    ("clopper_pearson_ci.successes",
     lambda v: stats.clopper_pearson_ci(v, 10), "successes"),
    ("clopper_pearson_ci.n", lambda v: stats.clopper_pearson_ci(5, v), "n"),
    ("clopper_pearson_ci.level",
     lambda v: stats.clopper_pearson_ci(5, 10, level=v), "level"),
    ("regularized_incomplete_beta.x",
     lambda v: stats.regularized_incomplete_beta(v, 2.0, 3.0), "x"),
    ("regularized_incomplete_beta.a",
     lambda v: stats.regularized_incomplete_beta(0.5, v, 3.0), "a"),
    ("regularized_incomplete_beta.b",
     lambda v: stats.regularized_incomplete_beta(0.5, 2.0, v), "b"),
    ("beta_quantile", lambda v: stats.beta_quantile(v, 2.0, 3.0), "q"),
    ("p_from_ci.estimate", lambda v: stats.p_from_ci(v, -0.1, 0.1), "estimate"),
    ("p_from_ci.upper", lambda v: stats.p_from_ci(0.0, -0.1, v), "interval width"),
]


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("call, name", [s[1:] for s in SITES],
                         ids=[s[0] for s in SITES])
def test_non_finite_parameter_rejected(call, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be in "):
        call(value)


@pytest.mark.parametrize("call, name, value", [
    (lambda v: ensemble.HyperParams(dice_target=v), "dice_target", 1.5),
    (lambda v: ensemble.HyperParams(plateau_factor=v), "plateau_factor", 0.0),
    (lambda v: augment.AugmentConfig(rotation_degrees=(10.0, v)),
     r"rotation_degrees\[1\]", 5.0),
    (lambda v: metrics.evaluate_pairs([_G], [_G], ci_n=v), "ci_n", 0),
    # on empty masks 0 divided 0 by 0: a ZeroDivisionError traceback
    (lambda v: losses.tversky_index(_Z, _Z, smooth=v), "smooth", 0.0),
    (lambda v: losses.dice_soft(_G, _G, smooth=v), "smooth", -1e-6),
    (lambda v: ndtensor.AdamState.fresh([np.zeros(2)], v), "learning_rate",
     -1e-3),
], ids=["dice-target-above-1", "plateau-factor-0", "rotation-reversed",
        "ci-n-0", "tversky-smooth-0", "dice-soft-negative-smooth",
        "adam-negative-learning-rate"])
def test_out_of_range_parameter_rejected(call, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be in "):
        call(value)


def test_closed_ends_stay_accepted():
    ensemble.HyperParams(learning_rate=0.0, dice_target=0.0, plateau_factor=1.0)
    ndtensor.AdamState.fresh([np.zeros(2)], 0.0)
    ensemble.HyperParams(dice_target=1.0)
    augment.AugmentConfig(rotation_degrees=(0.0, 0.0), zoom_factors=(1.0, 1.0),
                          mirror_probability=1.0)
    losses.TverskyConfig(fn_weight=0.0)


# 2.7 was truncated to a CI over 2 trials; NaN raised int()'s message
@pytest.mark.parametrize("value", [2.7, math.nan])
def test_ci_n_must_be_an_integer(value):
    with pytest.raises(ValueError, match=r"^ci_n must be an integer, got "):
        metrics.evaluate_pairs([_G], [_G], ci_n=value)


def test_integer_ci_n_accepted():
    report, _ = metrics.evaluate_pairs([_G], [_G], ci_n=np.int64(3))
    assert report.ci["n"] == 3


# (site, call taking the value, name the message gives, least valid value)
INT_SITES = [
    ("HyperParams.epochs", lambda v: ensemble.HyperParams(epochs=v), "epochs", 0),
    ("HyperParams.batch_size",
     lambda v: ensemble.HyperParams(batch_size=v), "batch_size", 1),
    ("HyperParams.seed", lambda v: ensemble.HyperParams(seed=v), "seed", 0),
    ("HyperParams.plateau_patience",
     lambda v: ensemble.HyperParams(plateau_patience=v), "plateau_patience", 1),
    ("build_metalearner", lambda v: ensemble.build_metalearner(v), "in_channels", 1),
    ("AugmentConfig.count", lambda v: augment.AugmentConfig(count=v), "count", 0),
    ("AugmentConfig.seed", lambda v: augment.AugmentConfig(seed=v), "seed", 0),
    ("BoundaryUncertaintyConfig.iterations",
     lambda v: morpho.BoundaryUncertaintyConfig(iterations=v), "iterations", 1),
    ("dilate", lambda v: morpho.dilate(_G, iterations=v), "iterations", 1),
    ("erode", lambda v: morpho.erode(_G, iterations=v), "iterations", 1),
    ("MixedLossConfig.scales", lambda v: losses.MixedLossConfig(scales=v),
     "scales", 1),
    ("evaluate_pairs.ci_n",
     lambda v: metrics.evaluate_pairs([_G], [_G], ci_n=v), "ci_n", 1),
]


# Each of these floats used to be accepted: 2.5 epochs reached range() as
# a TypeError traceback; NaN patience never halved the rate.
@pytest.mark.parametrize("value", [2.5, math.nan, 3.0])
@pytest.mark.parametrize("call, name", [s[1:3] for s in INT_SITES],
                         ids=[s[0] for s in INT_SITES])
def test_non_integer_parameter_rejected(call, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        call(value)


@pytest.mark.parametrize("call, name, least", [s[1:] for s in INT_SITES],
                         ids=[s[0] for s in INT_SITES])
def test_integer_below_its_range_rejected(call, name, least):
    with pytest.raises(ValueError, match=f"^{name} must be in \\[{least}, "):
        call(least - 1)


def test_integer_above_its_range_rejected():
    with pytest.raises(ValueError, match=r"^scales must be in \[1, 5\], got 6"):
        losses.MixedLossConfig(scales=6)


def test_least_integers_accepted():
    ensemble.HyperParams(epochs=0, batch_size=1, seed=0, plateau_patience=1)
    augment.AugmentConfig(count=0, seed=0)
    morpho.BoundaryUncertaintyConfig(iterations=1)
    losses.MixedLossConfig(scales=1)


def _stack_manifest(tmp_path):
    imageio.store_mask(_G, tmp_path / "gt.pgm")
    imageio.store_feature_stack(np.ones((1, 2, 2), np.float32), tmp_path / "s.fst")
    path = tmp_path / "m.tsv"
    imageio.write_manifest([imageio.ManifestRecord(
        "train", "i.pgm", str(tmp_path / "gt.pgm"), (),
        (str(tmp_path / "s.fst"),))], path)
    return path


@pytest.mark.parametrize("command", ["augment", "stack train"])
def test_negative_seed_exits_one_before_any_work(tmp_path, capsys, monkeypatch,
                                                 command):
    # it used to create --outdir, or decode every sample, and then exit 1
    # with numpy's "expected non-negative integer", which names no parameter
    decoded = []
    monkeypatch.setattr(imageio, "load_gray", lambda p: decoded.append(p))
    monkeypatch.setattr(imageio, "load_feature_stack", lambda p: decoded.append(p))
    manifest = _stack_manifest(tmp_path)
    out = tmp_path / "out"
    argv = (["augment", "--manifest", str(manifest), "--outdir", str(out),
             "--out-manifest", str(tmp_path / "aug.tsv")]
            if command == "augment" else
            ["stack", "train", "--manifest", str(manifest),
             "--params", str(out / "params.json")])
    assert main(argv + ["--seed", "-1"]) == 1
    assert "seed must be in [0, inf), got -1" in capsys.readouterr().err
    assert not out.exists() and decoded == []
