"""Mask fusion and the trainable fully-convolutional stacking meta-learner.

Bitwise fusion semantics: AND and OR operate on already-binarized
constituent masks (a pixel is on iff every / at least one input pixel is
on), while MAX operates on the raw probabilities before any
thresholding and returns both the pointwise-maximum map and its
binarization. Keeping MAX on probabilities is what makes it a distinct
method from OR; on binarized inputs the two coincide.

The stacking meta-learner is a fixed five-layer fully-convolutional
network over a channel-concatenated feature stack: 256, 128, 64 and 32
filters of 3x3 with ReLU, then a single 1x1 filter with sigmoid, all
same-padded so the output keeps the input's spatial dims. Constituent
models are frozen and appear only through their exported maps; only the
meta-learner trains, by mini-batch Adam on the focal Tversky loss
against boundary-uncertainty soft labels. Training is bit-reproducible
under a fixed seed: sample order, initialization, and gradient
reduction order are all deterministic.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import (DecodeError, NumericError, ShapeMismatchError,
                     check_int, check_probabilities, check_range, check_shape,
                     require_2d, require_chw)
from .imageio import load_feature_stack, store_feature_stack
from .losses import TverskyConfig, focal_tversky_loss
from .metrics import _at_least, confusion, scalar_metrics, undefined_metrics
from .morpho import BoundaryUncertaintyConfig, boundary_soft_labels
from .ndtensor import (AdamState, ConvKernel, _backward, _check_channels,
                       _correlate, _out_dtype, _param_grads, adam_step,
                       sigmoid_forward_backward)
from .ndtensor import conv2d_forward  # noqa: F401 (perfbench wraps it here)

_FILTERS = (256, 128, 64, 32, 1)
_KERNEL_SIZES = (3, 3, 3, 3, 1)


# ---------------------------------------------------------------------------
# Bitwise fusion

def _image_list(masks):
    out = []
    for idx, m in enumerate(masks):
        arr = require_2d(m, f"mask {idx}")
        if out:
            check_shape(arr.shape, f"mask {idx}", out[0].shape, "mask 0")
        out.append(arr)
    if len(out) < 2:
        raise ValueError(f"fusion needs at least 2 inputs, got {len(out)}")
    return out


def fuse_and(masks):
    """Pixel on iff every input pixel is on (> 0)."""
    return np.logical_and.reduce([m > 0 for m in _image_list(masks)]).astype(np.uint8)


def fuse_or(masks):
    """Pixel on iff at least one input pixel is on (> 0)."""
    return np.logical_or.reduce([m > 0 for m in _image_list(masks)]).astype(np.uint8)


def binarize(probmap, threshold=0.5):
    """Hard mask from a probability map: foreground where p >= threshold,
    the same cut in any float dtype as in float64 (and as in ``metrics``)."""
    check_range(threshold, "threshold", 0, 1)
    p = np.asarray(probmap)
    cut = _at_least(threshold, p.dtype) if p.dtype.kind == "f" else threshold
    return (p >= cut).astype(np.uint8)


def fuse_max(probmaps, binarize_threshold=0.5):
    """Pointwise maximum of probability maps, plus its binarization."""
    maps = _image_list(probmaps)
    for idx, m in enumerate(maps):
        check_probabilities(m, f"probability map {idx}")
    fused = np.max(np.stack([m.astype(np.float32) for m in maps]), axis=0)
    return fused, binarize(fused, binarize_threshold)


# ---------------------------------------------------------------------------
# Meta-learner definition

@dataclass(frozen=True)
class MetaLearnerParams:
    """The five ConvKernels of the stacking network, first to last."""

    layers: tuple
    seed: int = 0

    def __post_init__(self):
        layers = tuple(self.layers)
        if len(layers) != len(_FILTERS):
            raise ShapeMismatchError(
                f"expected {len(_FILTERS)} layers, got {len(layers)}")
        prev = layers[0].in_channels
        for i, (layer, filters, ksize) in enumerate(
                zip(layers, _FILTERS, _KERNEL_SIZES)):
            if layer.out_channels != filters:
                raise ShapeMismatchError(
                    f"layer {i} must have {filters} filters, "
                    f"got {layer.out_channels}")
            if layer.kernel_size != (ksize, ksize):
                raise ShapeMismatchError(
                    f"layer {i} kernel must be {ksize}x{ksize}, "
                    f"got {layer.kernel_size}")
            if layer.in_channels != prev:
                raise ShapeMismatchError(
                    f"layer {i} expects {layer.in_channels} input channels "
                    f"but the previous layer emits {prev}")
            prev = layer.out_channels
        object.__setattr__(self, "layers", layers)

    @property
    def in_channels(self):
        return self.layers[0].in_channels

    def parameter_arrays(self):
        """Flat parameter list (w0, b0, w1, b1, ...) for the optimizer."""
        return [a for k in self.layers for a in (k.weights, k.bias)]

    @classmethod
    def from_arrays(cls, arrays, seed=0):
        layers = tuple(ConvKernel(arrays[2 * i], arrays[2 * i + 1])
                       for i in range(len(_FILTERS)))
        return cls(layers=layers, seed=seed)


def build_metalearner(in_channels, seed=0):
    """He fan-in initialization for the ReLU stack, a smaller fan-in
    scale for the sigmoid head, zero biases."""
    check_int(in_channels, "in_channels", 1)
    rng = np.random.default_rng(seed)
    layers = []
    c_in = in_channels
    for i, (c_out, k) in enumerate(zip(_FILTERS, _KERNEL_SIZES)):
        fan_in = c_in * k * k
        scale = math.sqrt(2.0 / fan_in) if i < len(_FILTERS) - 1 else \
            math.sqrt(1.0 / fan_in)
        weights = (rng.standard_normal((c_out, c_in, k, k)) * scale).astype(
            np.float32)
        layers.append(ConvKernel(weights, np.zeros(c_out, dtype=np.float32)))
        c_in = c_out
    return MetaLearnerParams(layers=tuple(layers), seed=seed)


def _forward(params, stack, inputs=None):
    """[output], or [output, sigmoid derivative] if ``inputs`` is given.

    The layers are chained as streams of row bands and the sigmoid runs
    per band, so no whole hidden activation exists unless ``inputs`` is
    given: then each layer writes its bands into a whole array, and each
    layer's whole input is appended to ``inputs`` for backward (whose ReLU
    mask is next input > 0)."""
    x = _check_channels(stack, params.layers[0])
    h = x.shape[1]
    bands = [(0, h, x)]
    for i, layer in enumerate(params.layers):
        out = None
        if inputs is not None:
            inputs.append(x)
            out = x = np.empty((layer.out_channels,) + x.shape[1:],
                               _out_dtype(x, layer.weights, layer.bias))
        bands = _correlate(bands, h, layer.weights, layer.bias, out)
        if i < len(params.layers) - 1:
            bands = ((r0, r1, np.maximum(rows, 0, out=rows))
                     for r0, r1, rows in bands)
    keep = 1 if inputs is None else 2
    parts = zip(*(sigmoid_forward_backward(rows)[:keep]
                  for _, _, rows in bands))
    return [np.concatenate(p, axis=1) for p in parts]


def predict_metalearner(params, stack):
    """Forward pass; returns an (H, W) probability map strictly in (0, 1)."""
    [out] = _forward(params, stack)
    return out[0].astype(np.float32, copy=False)


def _loss_and_grads(params, stack, soft_target, tversky):
    """Loss plus gradients for every parameter array.

    Backward runs the forward's stream in reverse: the head's upstream
    gradient is one band, and each layer turns its upstream gradient's
    row bands into its input gradient's, ReLU-masked per band, summing
    its parameter gradients from the same bands on the way."""
    inputs = []
    out, deriv = _forward(params, stack, inputs)
    loss, dpred = focal_tversky_loss(soft_target, out[0], tversky)
    grads = [[] for _ in params.layers]
    # gradients ride in float64 end to end; only parameters and
    # activations are stored in 32-bit
    bands = [(0, out.shape[1], dpred[None, :, :] * deriv)]
    del dpred, deriv
    for i in range(len(params.layers) - 1, 0, -1):
        bands = _relu_masked(
            _backward(bands, inputs[i], params.layers[i].weights, grads[i]),
            inputs[i])
    # layer 0 skips its input gradient: nothing reads the stack's; the
    # empty deque drains the stream without holding a band
    deque(_param_grads(bands, inputs[0], params.layers[0].weights, grads[0]),
          maxlen=0)
    return loss, out[0], [a for layer in grads for a in layer]


def _relu_masked(bands, y):
    """Gradient bands times the mask ``y > 0`` of the ReLU whose output
    is ``y``, in place."""
    for r0, r1, rows in bands:
        rows *= y[:, r0:r1] > 0
        yield r0, r1, rows
        del rows  # not held while the next band is computed


# ---------------------------------------------------------------------------
# Training

@dataclass(frozen=True)
class HyperParams:
    learning_rate: float = 1e-3
    epochs: int = 20
    batch_size: int = 4
    seed: int = 0
    plateau_patience: int = 5
    plateau_factor: float = 0.5
    dice_target: float = None

    def __post_init__(self):
        check_range(self.learning_rate, "learning_rate", 0)
        check_range(self.plateau_factor, "plateau_factor", 0, 1, lo_open=True)
        if self.dice_target is not None:
            check_range(self.dice_target, "dice_target", 0, 1)
        check_int(self.epochs, "epochs", 0)
        check_int(self.batch_size, "batch_size", 1)
        check_int(self.seed, "seed", 0)
        check_int(self.plateau_patience, "plateau_patience", 1)


@dataclass
class TrainRun:
    """Per-epoch loss history and the best-checkpoint bookkeeping."""

    hyper: HyperParams
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    train_dice: list = field(default_factory=list)
    best_epoch: int = -1
    input_channels: int = 0
    input_mode: str = "feature-stacks"

    def to_dict(self):
        return asdict(self)

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)


def _hard_dice(prediction, gt_mask):
    # both masks empty scores 1.0, not metrics' 0/0 -> 0, so that a
    # dice_target can be met on empty samples
    c = confusion(binarize(prediction), gt_mask)
    return 1.0 if "dice" in undefined_metrics(c) else scalar_metrics(c)["dice"]


def _prepare_pairs(pairs, boundary, what, channels):
    """Each (stack, mask) sample checked once, against the model's input
    ``channels``, as a (stack, mask, soft labels) triple."""
    out = []
    for idx, (stack, gt) in enumerate(pairs):
        arr = require_chw(np.asarray(stack, dtype=np.float32),
                          f"{what} sample {idx}: stack")
        if arr.shape[0] != channels:
            raise ShapeMismatchError(
                f"{what} sample {idx} has {arr.shape[0]} channels but the model "
                f"expects {channels}")
        gt = np.asarray(gt)
        check_shape(gt.shape, f"{what} sample {idx} mask",
                    arr.shape[1:], "its stack's spatial")
        out.append((arr, gt, boundary_soft_labels(gt, boundary).astype(np.float32)))
    return out


def train_metalearner(train_pairs, val_pairs=(), hyper=HyperParams(),
                      tversky=TverskyConfig(),
                      boundary=BoundaryUncertaintyConfig()):
    """Mini-batch Adam descent on the focal Tversky + soft-boundary loss.

    ``train_pairs`` and ``val_pairs`` are sequences of (stack, gt_mask).
    The model starts as build_metalearner(train sample 0's channels, seed).
    Returns (params at the best monitored loss, TrainRun). The monitored
    loss is the validation loss when a validation set is given, else the
    train loss. The learning rate halves after ``plateau_patience``
    epochs without improvement, and training stops early once the
    monitored train Dice exceeds ``dice_target`` (when set).
    """
    train_pairs = list(train_pairs)
    if not train_pairs:
        raise ValueError("training set is empty")
    channels = require_chw(train_pairs[0][0], "train sample 0: stack").shape[0]
    train = _prepare_pairs(train_pairs, boundary, "train", channels)
    val = _prepare_pairs(val_pairs, boundary, "validation", channels)
    params = build_metalearner(channels, hyper.seed)
    arrays = params.parameter_arrays()
    state = AdamState.fresh(arrays, hyper.learning_rate)
    shuffle_rng = np.random.default_rng((hyper.seed, 1))

    run = TrainRun(hyper=hyper, input_channels=params.in_channels)
    best_loss = math.inf
    # no copies: adam_step returns new arrays and writes none in place
    best_arrays = arrays
    stale = 0
    n = len(train)
    current = params  # rebuilt from ``arrays`` after each step
    for epoch in range(hyper.epochs):
        order = shuffle_rng.permutation(n)
        sample_losses = []
        sample_dices = []
        for batch_no, start in enumerate(range(0, n, hyper.batch_size)):
            batch = order[start:start + hyper.batch_size]
            acc = [np.zeros(a.shape, dtype=np.float64) for a in arrays]
            for idx in batch:
                stack, gt, soft = train[idx]
                loss, pred, grads = _loss_and_grads(current, stack, soft, tversky)
                if not math.isfinite(loss):
                    raise NumericError(
                        f"non-finite loss at epoch {epoch}, batch {batch_no}, "
                        f"sample {idx}")
                sample_losses.append(loss)
                sample_dices.append(_hard_dice(pred, gt))
                for a, g in zip(acc, grads):
                    a += g
                del grads  # not alive through the next sample's backward
            for a in acc:
                a *= 1.0 / len(batch)
            arrays, state = adam_step(arrays, acc, state)
            current = MetaLearnerParams.from_arrays(arrays, seed=params.seed)
        run.train_loss.append(math.fsum(sample_losses) / n)
        run.train_dice.append(math.fsum(sample_dices) / n)
        if val:
            v_losses = [
                focal_tversky_loss(vs, predict_metalearner(current, vstack),
                                   tversky)[0]
                for vstack, _, vs in val]
            run.val_loss.append(math.fsum(v_losses) / len(v_losses))
            monitored = run.val_loss[-1]
        else:
            monitored = run.train_loss[-1]
        if monitored < best_loss:
            best_loss = monitored
            best_arrays = arrays
            run.best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= hyper.plateau_patience:
                state = replace(
                    state, learning_rate=state.learning_rate * hyper.plateau_factor)
                stale = 0
        if hyper.dice_target is not None and run.train_dice[-1] > hyper.dice_target:
            break
    return MetaLearnerParams.from_arrays(best_arrays, seed=params.seed), run


# ---------------------------------------------------------------------------
# Serialization: JSON header plus one FST container per layer tensor

def save_metalearner(params, path, hyper=None):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # the header goes first and comes back last, so a save that fails
    # midway leaves no model that loads, never one mixing two saves
    path.unlink(missing_ok=True)
    layers = []
    for i, layer in enumerate(params.layers):
        o, c, kh, kw = layer.weights.shape
        wname = f"{path.name}.layer{i}.weights.fst"
        bname = f"{path.name}.layer{i}.bias.fst"
        store_feature_stack(layer.weights.reshape(o, c * kh, kw),
                            path.parent / wname)
        store_feature_stack(layer.bias.reshape(o, 1, 1), path.parent / bname)
        layers.append({"out_channels": o, "in_channels": c,
                       "kernel_h": kh, "kernel_w": kw,
                       "weights_file": wname, "bias_file": bname})
    meta = {
        "format": "stack-metalearner-v1",
        "in_channels": params.in_channels,
        "seed": params.seed,
        "hyper": asdict(hyper) if hyper is not None else None,
        "layers": layers,
    }
    path.write_text(json.dumps(meta, indent=2) + "\n")


def load_metalearner(path):
    """Load a "stack-metalearner-v1" model; a malformed one raises DecodeError."""
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8")
        meta = json.loads(text)
    except UnicodeDecodeError as exc:
        raise DecodeError(f"unparseable meta-learner header: {exc}",
                          offset=exc.start, path=path) from None
    except json.JSONDecodeError as exc:  # pos counts characters, offset bytes
        raise DecodeError(f"unparseable meta-learner header: {exc}",
                          offset=len(text[:exc.pos].encode()), path=path) from None
    except ValueError as exc:  # an integer past Python's digit limit
        raise DecodeError(f"unparseable meta-learner header: {exc}",
                          path=path) from None
    if not (isinstance(meta, dict) and meta.get("format") == "stack-metalearner-v1"):
        raise DecodeError("not a stack-metalearner-v1 header object", path=path)
    seed = meta.get("seed", 0)
    if type(seed) is not int:
        raise DecodeError(f"header seed must be an integer, got {seed!r}",
                          path=path)
    layers = meta.get("layers")
    if not (isinstance(layers, list) and len(layers) == len(_FILTERS)):
        raise DecodeError(f"header must list {len(_FILTERS)} layers", path=path)
    root = path.parent.resolve()
    arrays = []
    for i, spec in enumerate(layers):
        spec = spec if isinstance(spec, dict) else {}
        o, c, kh, kw = dims = [spec.get(k) for k in (
            "out_channels", "in_channels", "kernel_h", "kernel_w")]
        files = [spec.get("weights_file"), spec.get("bias_file")]
        if not (all(type(d) is int and d > 0 for d in dims) and all(
                isinstance(f, str) and "\0" not in f
                and (root / f).resolve().is_relative_to(root) for f in files)):
            raise DecodeError(f"layer {i} needs four integer dims > 0 and two "
                              "tensor files inside the model's directory",
                              path=path)
        w, b = (load_feature_stack(root / f) for f in files)
        if w.shape != (o, c * kh, kw) or b.shape != (o, 1, 1):
            raise DecodeError(
                f"layer {i} header says {o}x{c}x{kh}x{kw}, but its files hold "
                f"weights {w.shape} and bias {b.shape}", path=path)
        arrays += [w.reshape(o, c, kh, kw), b.reshape(o)]
    try:
        return MetaLearnerParams.from_arrays(arrays, seed=seed)
    except ValueError as exc:  # consistent files, but not this network
        raise DecodeError(f"not the meta-learner's architecture: {exc}",
                          path=path) from None
