"""One check for the shape-agreement contract: ``errors.check_shape``, and
every entry point whose arrays must agree in shape goes through it, with
the one message form ``<a> shape A != <b> shape B``. An array with a
0-length dim is rejected by the rank check or the probability check in
``errors``, before anything is written."""

import re

import numpy as np
import pytest

from segens import augment, cli, ensemble, imageio, losses, metrics, ndtensor
from segens.errors import ShapeMismatchError, check_shape

_A = np.zeros((2, 2), np.uint8)  # the first operand: shape (2, 2)
_B = np.zeros((2, 3), np.uint8)  # the one that disagrees: shape (2, 3)


class TestCheckShape:
    def test_equal_shapes_pass(self):
        assert check_shape((2, 3), "x", (2, 3), "y") is None
        assert check_shape((), "x", (), "y") is None

    def test_message_names_both_operands(self):
        with pytest.raises(ShapeMismatchError,
                           match=r"^x shape \(2, 3\) != y shape \(3, 2\)$"):
            check_shape((2, 3), "x", (3, 2), "y")


def _augment_source(tmp_path):
    image, mask = tmp_path / "i.pgm", tmp_path / "m.pgm"
    imageio.store_gray(np.zeros((4, 4), np.uint8), image)
    imageio.store_mask(np.zeros((5, 5), np.uint8), mask)
    augment.augment_dataset([imageio.ManifestRecord("train", str(image), str(mask))],
                            augment.AugmentConfig(count=1), tmp_path / "aug")


def _record_stack(tmp_path):
    parts = [tmp_path / "a.fst", tmp_path / "b.fst"]
    imageio.store_feature_stack(np.zeros((2, 4, 4), np.float32), parts[0])
    imageio.store_feature_stack(np.zeros((1, 5, 5), np.float32), parts[1])
    cli._record_stack(imageio.ManifestRecord(
        "train", "img.pgm", "gt.pgm", (), tuple(map(str, parts))))


def _adam_step(_):
    params = [np.zeros(2)]
    ndtensor.adam_step(params, [np.zeros(3)],
                       ndtensor.AdamState.fresh(params, 1e-3))


def _conv2d_backward(_):
    kernel = ndtensor.ConvKernel(np.zeros((1, 1, 3, 3)), np.zeros(1))
    ndtensor.conv2d_backward(np.zeros((1, 2, 2)), kernel, np.zeros((1, 2, 3)))


# (entry point, call taking a scratch directory, the message)
SITES = [
    ("mirror", lambda _: augment.mirror(_A, _B),
     "image shape (2, 2) != mask shape (2, 3)"),
    ("rotate", lambda _: augment.rotate(_A, _B, 5.0),
     "image shape (2, 2) != mask shape (2, 3)"),
    ("zoom", lambda _: augment.zoom(_A, _B, 1.2),
     "image shape (2, 2) != mask shape (2, 3)"),
    ("augment_dataset", _augment_source,
     "image {0}/i.pgm shape (4, 4) != mask {0}/m.pgm shape (5, 5)"),
    ("cli._record_stack", _record_stack,
     "record 'img.pgm' stacked input 1 shape (5, 5) != stacked input 0 "
     "shape (4, 4)"),
    ("fuse_and", lambda _: ensemble.fuse_and([_A, _B]),
     "mask 1 shape (2, 3) != mask 0 shape (2, 2)"),
    ("fuse_or", lambda _: ensemble.fuse_or([_A, _A, _B]),
     "mask 2 shape (2, 3) != mask 0 shape (2, 2)"),
    ("fuse_max", lambda _: ensemble.fuse_max([_A, _B]),
     "mask 1 shape (2, 3) != mask 0 shape (2, 2)"),
    ("train_metalearner",
     lambda _: ensemble.train_metalearner(
         [(np.zeros((1, 2, 2), np.float32), _B)],
         hyper=ensemble.HyperParams(epochs=1)),
     "train sample 0 mask shape (2, 3) != its stack's spatial shape (2, 2)"),
    ("tversky_index", lambda _: losses.tversky_index(_A, _B),
     "target shape (2, 2) != prediction shape (2, 3)"),
    ("dice_soft", lambda _: losses.dice_soft(_A, _B),
     "target shape (2, 2) != prediction shape (2, 3)"),
    ("focal_tversky_loss", lambda _: losses.focal_tversky_loss(_A, _B),
     "target shape (2, 2) != prediction shape (2, 3)"),
    ("mean_absolute_error", lambda _: losses.mean_absolute_error(_A, _B),
     "a shape (2, 2) != b shape (2, 3)"),
    ("msssim", lambda _: losses.msssim(_A, _B),
     "a shape (2, 2) != b shape (2, 3)"),
    ("mixed_loss", lambda _: losses.mixed_loss(_A, _B),
     "a shape (2, 2) != b shape (2, 3)"),
    ("confusion", lambda _: metrics.confusion(_A, _B),
     "pred shape (2, 2) != gt shape (2, 3)"),
    ("pr_roc_curves", lambda _: metrics.pr_roc_curves([_A, _A], [_A, _B]),
     "prediction 1 shape (2, 2) != ground truth 1 shape (2, 3)"),
    ("evaluate_pairs", lambda _: metrics.evaluate_pairs([_A], [_B]),
     "prediction 0 shape (2, 2) != ground truth 0 shape (2, 3)"),
    ("ConvKernel.bias",
     lambda _: ndtensor.ConvKernel(np.zeros((1, 1, 3, 3)), np.zeros(2)),
     "bias shape (2,) != weights' out-channel shape (1,)"),
    ("conv2d_backward", _conv2d_backward,
     "grad_out shape (1, 2, 3) != output shape (1, 2, 2)"),
    ("adam_step", _adam_step, "grad 0 shape (3,) != parameter 0 shape (2,)"),
]


@pytest.mark.parametrize("call, message", [s[1:] for s in SITES],
                         ids=[s[0] for s in SITES])
def test_disagreeing_shapes_rejected(call, message, tmp_path):
    with pytest.raises(ShapeMismatchError,
                       match=f"^{re.escape(message.format(tmp_path))}$"):
        call(tmp_path)


_EMPTY = np.zeros((0, 3), np.uint8)

# (entry point, call taking a scratch directory, the message)
EMPTY_SITES = [
    ("store_gray PGM", lambda d: imageio.store_gray(_EMPTY, d / "e.pgm"),
     "image has an empty spatial dim, shape (0, 3)"),
    ("store_gray PNG", lambda d: imageio.store_gray(_EMPTY.T, d / "e.png"),
     "image has an empty spatial dim, shape (3, 0)"),
    ("store_feature_stack",
     lambda d: imageio.store_feature_stack(np.zeros((1, 0, 3), np.float32),
                                           d / "e.fst"),
     "feature stack has an empty spatial dim, shape (1, 0, 3)"),
    ("store_feature_stack channels",
     lambda d: imageio.store_feature_stack(np.zeros((0, 2, 2), np.float32),
                                           d / "e.fst"),
     "feature stack has an empty channel dim, shape (0, 2, 2)"),
    ("store_probmap", lambda d: imageio.store_probmap(_EMPTY, d / "e.pgm"),
     "probability map is empty, shape (0, 3)"),
    ("mean_absolute_error", lambda _: losses.mean_absolute_error(_EMPTY, _EMPTY),
     "a has an empty spatial dim, shape (0, 3)"),
    # scored a perfect 1.0, 1.0 and loss 0.0
    ("tversky_index", lambda _: losses.tversky_index(_EMPTY, _EMPTY),
     "target is empty, shape (0, 3)"),
    ("dice_soft", lambda _: losses.dice_soft(_EMPTY, _EMPTY),
     "target is empty, shape (0, 3)"),
    ("focal_tversky_loss", lambda _: losses.focal_tversky_loss(_EMPTY, _EMPTY),
     "target is empty, shape (0, 3)"),
    ("evaluate_pairs", lambda _: metrics.evaluate_pairs([_EMPTY], [_EMPTY]),
     "prediction 0 is empty, shape (0, 3)"),
    ("pr_roc_curves",
     lambda _: metrics.pr_roc_curves([_A, _EMPTY], [_A, _EMPTY]),
     "prediction 1 is empty, shape (0, 3)"),
]


@pytest.mark.parametrize("call, message", [s[1:] for s in EMPTY_SITES],
                         ids=[s[0] for s in EMPTY_SITES])
def test_empty_arrays_rejected(call, message, tmp_path):
    with pytest.raises(ShapeMismatchError, match=f"^{re.escape(message)}$"):
        call(tmp_path)
    assert not any(tmp_path.iterdir()), "a file was written"
