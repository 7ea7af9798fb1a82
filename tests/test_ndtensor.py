"""Tests for the dense-tensor kernel: conv2d, activations, Adam, FD oracle."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from segens import ndtensor
from segens.ensemble import build_metalearner, predict_metalearner
from segens.errors import NumericError, ShapeMismatchError
from segens.ndtensor import (AdamState, ConvKernel, adam_step, conv2d_backward,
                             conv2d_forward, sigmoid_forward_backward)

from _oracles import conv2d_backward_whole, finite_diff_grad


def conv_reference(x, weights, bias, grad_out=None):
    """Forward, grad-input and grad-weights by per-pixel window sums.

    Independent of the module: each output pixel visits its own
    zero-padded kh x kw window and only the input-channel axis is
    vectorized, with no matrix product and no unfolding. The gradients
    are those of ``(out * grad_out).sum()``; without ``grad_out`` they
    are zero.
    """
    x = np.asarray(x, np.float64)
    w = np.asarray(weights, np.float64)
    out_ch, _, kh, kw = w.shape
    _, h, wd = x.shape
    g = np.zeros((out_ch, h, wd)) if grad_out is None else grad_out
    ph, pw = kh // 2, kw // 2
    out = np.zeros((out_ch, h, wd))
    gi = np.zeros_like(x)
    gw = np.zeros_like(w)
    for o in range(out_ch):
        for y in range(h):
            for z in range(wd):
                acc = float(bias[o])
                for i in range(kh):
                    for j in range(kw):
                        yy, zz = y + i - ph, z + j - pw
                        if 0 <= yy < h and 0 <= zz < wd:
                            acc += float((w[o, :, i, j] * x[:, yy, zz]).sum())
                            gw[o, :, i, j] += float(g[o, y, z]) * x[:, yy, zz]
                            gi[:, yy, zz] += float(g[o, y, z]) * w[o, :, i, j]
                out[o, y, z] = acc
    return out, gi, gw


def random_instance(rng, in_ch=None, out_ch=None, k=3, h=4, w=4, dtype=np.float32):
    in_ch = in_ch or int(rng.integers(1, 4))
    out_ch = out_ch or int(rng.integers(1, 4))
    x = rng.standard_normal((in_ch, h, w)).astype(dtype)
    weights = rng.standard_normal((out_ch, in_ch, k, k)).astype(dtype)
    bias = rng.standard_normal(out_ch).astype(dtype)
    return x, ConvKernel(weights, bias)


class TestConvForward:
    def test_identity_kernel_is_identity(self):
        w = np.zeros((1, 1, 3, 3), np.float32)
        w[0, 0, 1, 1] = 1.0
        kernel = ConvKernel(w, np.zeros(1, np.float32))
        x = np.arange(9, dtype=np.float32).reshape(1, 3, 3)
        assert np.array_equal(conv2d_forward(x, kernel), x)

    def test_1x1_kernel_is_affine(self):
        kernel = ConvKernel(np.full((1, 1, 1, 1), 2.0, np.float32),
                            np.array([0.5], np.float32))
        x = np.arange(12, dtype=np.float32).reshape(1, 3, 4)
        assert np.allclose(conv2d_forward(x, kernel), 2 * x + 0.5)

    def test_all_ones_kernel_window_sums(self):
        kernel = ConvKernel(np.ones((1, 1, 3, 3), np.float32),
                            np.zeros(1, np.float32))
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]], np.float32)
        expected, _, _ = conv_reference(x, kernel.weights, kernel.bias)
        # every 3x3 window covers the whole 2x2 image under zero padding
        assert np.array_equal(expected, np.full((1, 2, 2), 10.0))
        assert np.allclose(conv2d_forward(x, kernel), expected)

    def test_matches_reference_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            x, kernel = random_instance(rng)
            got = conv2d_forward(x, kernel)
            want, _, _ = conv_reference(x, kernel.weights, kernel.bias)
            assert np.allclose(got, want, rtol=1e-5, atol=1e-6)

    def test_linear_in_input_and_weights(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            x, kernel = random_instance(rng)
            y = rng.standard_normal(x.shape).astype(np.float32)
            k0 = ConvKernel(kernel.weights, np.zeros_like(kernel.bias))
            lhs = conv2d_forward(1.5 * x + 0.25 * y, k0)
            rhs = 1.5 * conv2d_forward(x, k0) + 0.25 * conv2d_forward(y, k0)
            assert np.allclose(lhs, rhs, rtol=1e-5, atol=1e-5)
            k2 = ConvKernel(2.0 * kernel.weights, np.zeros_like(kernel.bias))
            assert np.allclose(conv2d_forward(x, k2), 2.0 * conv2d_forward(x, k0),
                               rtol=1e-5, atol=1e-5)

    def test_channel_mismatch_names_both_counts(self):
        x = np.zeros((2, 3, 3), np.float32)
        kernel = ConvKernel(np.zeros((1, 3, 3, 3), np.float32),
                            np.zeros(1, np.float32))
        with pytest.raises(ShapeMismatchError, match="2 channels.*expects 3"):
            conv2d_forward(x, kernel)

    @pytest.mark.parametrize("h, w", [(0, 5), (5, 0), (0, 0)])
    def test_empty_spatial_dim_rejected(self, h, w):
        # a zero height divided by a band count of 0 (ZeroDivisionError)
        kernel = ConvKernel(np.zeros((2, 3, 3, 3), np.float32),
                            np.zeros(2, np.float32))
        with pytest.raises(ShapeMismatchError, match="empty spatial dim"):
            conv2d_forward(np.zeros((3, h, w), np.float32), kernel)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            ConvKernel(np.zeros((1, 1, 2, 2), np.float32), np.zeros(1, np.float32))

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast")
    def test_float32_overflow_raises(self):
        # 1e40 is finite in the float64 accumulator but inf in float32
        kernel = ConvKernel(np.full((1, 1, 1, 1), 1e20, np.float32),
                            np.zeros(1, np.float32))
        with pytest.raises(NumericError, match="non-finite"):
            conv2d_forward(np.full((1, 2, 2), 1e20, np.float32), kernel)

    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(3)
        x, kernel = random_instance(rng, in_ch=3, out_ch=2, h=8, w=8)
        a = conv2d_forward(x, kernel)
        b = conv2d_forward(x, kernel)
        assert a.tobytes() == b.tobytes()


class TestConvBackward:
    def test_zero_upstream_gradient(self):
        rng = np.random.default_rng(0)
        x, kernel = random_instance(rng, in_ch=2, out_ch=2)
        gi, gw, gb = conv2d_backward(x, kernel, np.zeros((2, 4, 4), np.float32))
        assert not gi.any() and not gw.any() and not gb.any()

    def test_1x1_kernel_scalar_chain_rule(self):
        w = np.full((1, 1, 1, 1), 1.75, np.float32)
        kernel = ConvKernel(w, np.zeros(1, np.float32))
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 4, 4)).astype(np.float32)
        g = rng.standard_normal((1, 4, 4)).astype(np.float32)
        gi, gw, gb = conv2d_backward(x, kernel, g)
        assert np.allclose(gi, 1.75 * g, rtol=1e-6)
        assert np.isclose(gw[0, 0, 0, 0], float((x * g).sum()), rtol=1e-5)
        assert np.isclose(gb[0], float(g.sum()), rtol=1e-5)

    def test_grad_out_shape_checked(self):
        rng = np.random.default_rng(2)
        x, kernel = random_instance(rng, in_ch=1, out_ch=2)
        with pytest.raises(ShapeMismatchError):
            conv2d_backward(x, kernel, np.zeros((2, 5, 5), np.float32))

    @pytest.mark.parametrize("h, w", [(0, 5), (5, 0), (0, 0)])
    def test_empty_spatial_dim_rejected(self, h, w):
        kernel = ConvKernel(np.zeros((2, 3, 3, 3), np.float32),
                            np.zeros(2, np.float32))
        with pytest.raises(ShapeMismatchError, match="empty spatial dim"):
            conv2d_backward(np.zeros((3, h, w), np.float32), kernel,
                            np.zeros((2, h, w), np.float32))

    # (x, weights, grad_out): every gradient overflows float32, then
    # only the weight gradient, then only the bias gradient
    @pytest.mark.filterwarnings("ignore:overflow encountered in cast")
    @pytest.mark.parametrize("x, w, g", [(1e20, 1e20, 1e20), (1e20, 1.0, 1e20),
                                         (1e-30, 1e-30, 3e38)])
    def test_float32_overflow_raises(self, x, w, g):
        kernel = ConvKernel(np.full((1, 1, 1, 1), w, np.float32),
                            np.zeros(1, np.float32))
        with pytest.raises(NumericError, match="non-finite"):
            conv2d_backward(np.full((1, 2, 2), x, np.float32), kernel,
                            np.full((1, 2, 2), g, np.float32))

    @pytest.mark.parametrize("target", ["input", "weights", "bias"])
    def test_finite_difference_check(self, target):
        # 32-bit storage inputs, 64-bit differencing, rel err < 1e-3
        rng = np.random.default_rng(42)
        for _ in range(20):
            x, kernel = random_instance(rng)
            g_up = rng.standard_normal((kernel.out_channels, 4, 4)).astype(np.float32)
            gi, gw, gb = conv2d_backward(x, kernel, g_up)
            if target == "input":
                analytic = gi

                def f(v):
                    return float((conv2d_forward(v, kernel) * g_up).sum())

                fd = finite_diff_grad(f, x, step=1e-3)
            elif target == "weights":
                analytic = gw

                def f(v):
                    return float((conv2d_forward(
                        x, ConvKernel(v, kernel.bias)) * g_up).sum())

                fd = finite_diff_grad(f, kernel.weights, step=1e-3)
            else:
                analytic = gb

                def f(v):
                    return float((conv2d_forward(
                        x, ConvKernel(kernel.weights, v)) * g_up).sum())

                fd = finite_diff_grad(f, kernel.bias, step=1e-3)
            denom = np.maximum(np.abs(fd), 1e-4)
            assert (np.abs(analytic - fd) / denom).max() < 1e-3


# (in_ch, out_ch, k, h, w): few-channel cases stack every tap into one
# GEMM, many-channel cases run one GEMM per tap; inputs are non-square
WINDOW_CASES = [(3, 4, 3, 5, 7), (7, 2, 3, 6, 3), (8, 2, 3, 3, 6),
                (32, 3, 3, 4, 6), (40, 2, 1, 3, 5), (80, 2, 1, 5, 2)]


class TestConvAgainstWindowReference:
    def test_cases_cover_both_gemm_groupings(self):
        stacked = {c * k * k <= ndtensor._STACKED_MAX_K
                   for c, _, k, _, _ in WINDOW_CASES}
        assert stacked == {True, False}

    # gradients are float64 when any operand is, float32 when all are
    @pytest.mark.parametrize("dtype, g_dtype", [
        pytest.param(np.float32, np.float64, id="float32"),
        pytest.param(np.float64, np.float64, id="float64"),
        pytest.param(np.float32, np.float32, id="float32-grad_out_float32")])
    @pytest.mark.parametrize("case", WINDOW_CASES)
    def test_forward_and_gradients(self, case, dtype, g_dtype):
        in_ch, out_ch, k, h, w = case
        rng = np.random.default_rng(in_ch * 100 + k)
        x, kernel = random_instance(rng, in_ch, out_ch, k, h, w, dtype)
        g = rng.standard_normal((out_ch, h, w)).astype(g_dtype)
        want_y, want_gi, want_gw = conv_reference(x, kernel.weights, kernel.bias, g)
        y = conv2d_forward(x, kernel)
        gi, gw, gb = conv2d_backward(x, kernel, g)
        assert y.dtype == dtype
        assert gi.dtype == gw.dtype == gb.dtype == np.result_type(dtype, g_dtype)
        tol = 1e-6 if dtype == np.float32 else 1e-12
        assert np.allclose(y, want_y, rtol=tol, atol=tol)
        tol = 1e-6 if gi.dtype == np.float32 else 1e-12
        assert np.allclose(gi, want_gi, rtol=tol, atol=tol)
        assert np.allclose(gw, want_gw, rtol=tol, atol=tol)
        assert np.allclose(gb, g.sum(axis=(1, 2), dtype=np.float64),
                           rtol=tol, atol=tol)

    def test_layer1_memory_stays_below_unfolded_columns(self):
        # the meta-learner's second layer at 128x128: an unfolded column
        # matrix alone would take 9*C*H*W float64 values (302 MB)
        rng = np.random.default_rng(9)
        in_ch, out_ch, h, w = 256, 128, 128, 128
        x = rng.standard_normal((in_ch, h, w), dtype=np.float32)
        kernel = ConvKernel(
            rng.standard_normal((out_ch, in_ch, 3, 3), dtype=np.float32) * 0.02,
            np.zeros(out_ch, np.float32))
        g = rng.standard_normal((out_ch, h, w), dtype=np.float32)
        bound = 9 * in_ch * h * w * 8 // 2
        for step in (lambda: conv2d_forward(x, kernel),
                     lambda: conv2d_backward(x, kernel, g)):
            tracemalloc.start()
            try:
                step()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, f"peak {peak / 2**20:.0f} MB"


# (in_ch, out_ch, k, h, w, output rows per band): several bands
# with halos at both ends and unequal heights (7 rows as 1+2+2+2), one
# row per band, a single-row image, and 1x1 kernels; both GEMM groupings
BAND_CASES = [(3, 4, 3, 7, 5, 2), (32, 3, 3, 6, 4, 1), (7, 2, 3, 9, 3, 4),
              (5, 2, 3, 1, 6, 1), (40, 2, 1, 5, 3, 2), (80, 2, 1, 5, 2, 3)]

_PREDICT_CHILD = """
import hashlib, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from segens.ensemble import build_metalearner, predict_metalearner
stack = np.random.default_rng(4).random((3, 96, 96)).astype(np.float32)
out = predict_metalearner(build_metalearner(3, seed=2), stack)
print(hashlib.sha256(out.tobytes()).hexdigest())
"""


class TestBandedForward:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", BAND_CASES)
    def test_bands_match_reference_and_one_band(self, case, dtype, monkeypatch):
        in_ch, out_ch, k, h, w, rows = case
        rng = np.random.default_rng(in_ch * 10 + h)
        x, kernel = random_instance(rng, in_ch, out_ch, k, h, w, dtype)
        one_band = conv2d_forward(x, kernel)
        stride = w + 2 * (k // 2)
        # a band's padded input, accumulator and product buffer
        monkeypatch.setattr(ndtensor, "_BAND_BYTES",
                            8 * (in_ch + 2 * out_ch) * stride * rows)
        bands = []
        row_bands = ndtensor._row_bands

        def spy(*args):
            for band in row_bands(*args):
                bands.append((len(band[2]), band[:2]))  # channels, rows
                yield band

        monkeypatch.setattr(ndtensor, "_row_bands", spy)
        y = conv2d_forward(x, kernel)
        assert len(bands) == -(-h // rows)
        want, _, _ = conv_reference(x, kernel.weights, kernel.bias)
        tol = 1e-6 if dtype == np.float32 else 1e-12
        assert y.dtype == dtype
        assert np.allclose(y, want, rtol=tol, atol=tol)
        if dtype == np.float32:
            assert y.tobytes() == one_band.tobytes()
        # the weight gradient reads the input on the forward's bands;
        # grad_out's bands, of out_ch channels, interleave with them
        forward_bands = list(bands)
        bands.clear()
        g = rng.standard_normal((out_ch, h, w)).astype(dtype)
        _, _, want_gw = conv_reference(x, kernel.weights, kernel.bias, g)
        _, gw, gb = conv2d_backward(x, kernel, g)
        assert [b for b in bands if b[0] == in_ch] == forward_bands
        assert gw.dtype == gb.dtype == dtype
        assert np.allclose(gw, want_gw, rtol=tol, atol=tol)
        assert np.allclose(gb, g.sum(axis=(1, 2), dtype=np.float64),
                           rtol=tol, atol=tol)

    def test_weight_gradient_memory_is_banded(self):
        # layer 1 (256 -> 128, 3x3) at 256x256 with a float64 upstream
        # gradient, as in a training step: the whole-image padded input and
        # upstream gradient took 199 MB. A float32 one took 79 MB while the
        # bias gradient summed a float64 copy of it.
        rng = np.random.default_rng(6)
        x = rng.random((256, 256, 256), dtype=np.float32)
        kernel = ConvKernel(np.zeros((128, 256, 3, 3), np.float32),
                            np.zeros(128, np.float32))
        g = rng.standard_normal((128, 256, 256))
        for g in (g, g.astype(np.float32)):
            tracemalloc.start()
            try:
                for _ in ndtensor._param_grads([(0, 256, g)], x,
                                               kernel.weights, []):
                    pass
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 40 * 2**20, f"{g.dtype}: peak {peak / 2**20:.0f} MB"

    def test_forward_holds_one_band_input(self):
        # layer 1 (256 -> 128, 3x3) at 256x256: the 32 MB output, 7.6 MB of
        # accumulator and product buffers and one 8.6 MB band input; 58 MB
        # while the previous band stayed alive as the next was built
        x = np.random.default_rng(7).random((256, 256, 256), dtype=np.float32)
        kernel = ConvKernel(np.zeros((128, 256, 3, 3), np.float32),
                            np.zeros(128, np.float32))
        tracemalloc.start()
        try:
            conv2d_forward(x, kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 54 * 2**20, f"peak {peak / 2**20:.1f} MB"

    @staticmethod
    def predict_peak(params, stack):
        tracemalloc.start()
        try:
            out = predict_metalearner(params, stack)
            return tracemalloc.get_traced_memory()[1], out.nbytes
        finally:
            tracemalloc.stop()

    def test_predict_memory_is_banded(self):
        # one 256x256 map streamed through all five layers a row band at a
        # time traces 14.1 MB; 38.6 MB while bands were sized by their
        # output channels alone, so the 1x1 head's one band held the whole
        # image; each layer's whole float32 output traced 115 MB, and the
        # whole-image float64 buffers of each layer 485 MB
        params = build_metalearner(3, seed=0)
        stack = np.random.default_rng(1).random((3, 256, 256),
                                                dtype=np.float32)
        peak, _ = self.predict_peak(params, stack)
        assert peak < 15 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_predict_memory_grows_by_the_map_alone(self, monkeypatch):
        # bands of 2, 2, 4, 8 and 32 rows, layer by layer, at either height,
        # so an image 8x taller adds only its output map; while the head's
        # band was sized by its one output channel, it held all of layer
        # 3's output and a float64 copy of it: 6 MB more here
        monkeypatch.setattr(ndtensor, "_BAND_BYTES", 8 * 515 * 34 * 2)
        params = build_metalearner(3, seed=0)
        rng = np.random.default_rng(2)
        short, _ = self.predict_peak(
            params, rng.random((3, 128, 32), dtype=np.float32))
        tall, map_bytes = self.predict_peak(
            params, rng.random((3, 1024, 32), dtype=np.float32))
        assert tall - short <= map_bytes, (short, tall)

    def test_predicted_map_independent_of_blas_threads(self):
        src = str(Path(ndtensor.__file__).resolve().parents[1])
        digests = []
        for threads in (None, "1"):
            env = dict(os.environ)
            if threads:
                env["OPENBLAS_NUM_THREADS"] = threads
            done = subprocess.run([sys.executable, "-c", _PREDICT_CHILD, src],
                                  env=env, capture_output=True, text=True,
                                  check=True, timeout=300)
            digests.append(done.stdout.strip())
        assert len(digests[0]) == 64 and digests[0] == digests[1]


# (in_ch, out_ch, k, h, w): heights of 1, 2 and 37 rows, 3x3 and 1x1
# kernels, one stacked GEMM and a GEMM per tap on either side of backward
STREAM_CASES = [(3, 4, 3, 1, 7), (9, 8, 3, 2, 5), (10, 12, 3, 37, 29),
                (40, 2, 1, 37, 13), (80, 3, 1, 2, 9)]
STREAM_DTYPES = [pytest.param(np.float32, np.float64, id="float32"),
                 pytest.param(np.float64, np.float64, id="float64"),
                 pytest.param(np.float32, np.float32, id="grad_out_float32")]


def streamed_backward(x, weights, g):
    """ndtensor._backward fed grad_out one row at a time: the input
    gradient put together from its bands, then the weight and bias
    gradients."""
    h, grads = x.shape[1], []
    bands = ((r, r + 1, g[:, r:r + 1]) for r in range(h))
    out = list(ndtensor._backward(bands, x, weights, grads))
    assert [b[:2] for b in out] == [(r, r + 1) for r in range(h)]
    return (np.concatenate([b[2] for b in out], axis=1), *grads)


def assert_same_bytes(got, want):
    for a, b, name in zip(got, want, ("input", "weights", "bias")):
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


class TestStreamedBackward:
    # every gradient, bit for bit, as the whole-array backward gave it

    @pytest.mark.parametrize("dtype, g_dtype", STREAM_DTYPES)
    @pytest.mark.parametrize("case", STREAM_CASES)
    def test_one_row_bands_match_whole_arrays(self, case, dtype, g_dtype,
                                             monkeypatch):
        in_ch, out_ch, k, h, w = case
        rng = np.random.default_rng(in_ch * 7 + h)
        x, kernel = random_instance(rng, in_ch, out_ch, k, h, w, dtype)
        g = rng.standard_normal((out_ch, h, w)).astype(g_dtype)
        want = conv2d_backward_whole(x, kernel.weights, g)
        assert_same_bytes(conv2d_backward(x, kernel, g), want)
        # one-row bands throughout; the oracle's weight-gradient bands too
        monkeypatch.setattr(ndtensor, "_BAND_BYTES", 1)
        want = conv2d_backward_whole(x, kernel.weights, g)
        assert_same_bytes(streamed_backward(x, kernel.weights, g), want)

    @pytest.mark.parametrize("g_dtype", [np.float64, np.float32])
    def test_one_row_bands_at_256(self, g_dtype, monkeypatch):
        # 256 one-row grad_out bands, each filling one row sum per channel
        # of the bias gradient, and 256 one-row weight-gradient GEMMs
        rng = np.random.default_rng(11)
        x, kernel = random_instance(rng, 3, 8, 3, 256, 256)
        g = rng.standard_normal((8, 256, 256)).astype(g_dtype)
        monkeypatch.setattr(ndtensor, "_BAND_BYTES", 1)
        assert_same_bytes(streamed_backward(x, kernel.weights, g),
                          conv2d_backward_whole(x, kernel.weights, g))

    @pytest.mark.parametrize("g_dtype", [np.float64, np.float32])
    def test_bias_gradient_is_accurate_at_256(self, g_dtype):
        # the bias gradient adds row sums, not one sum over the channel;
        # it stays within a few ulps of the channel's sum of |values|
        rng = np.random.default_rng(14)
        x, kernel = random_instance(rng, 3, 8, 3, 256, 256, np.float64)
        g = rng.standard_normal((8, 256, 256)).astype(g_dtype)
        gb = conv2d_backward(x, kernel, g)[2]
        flat = g.reshape(8, -1)
        want = flat.sum(axis=1, dtype=np.float64)
        ulp = np.spacing(np.abs(flat).sum(axis=1, dtype=np.float64))
        assert gb.dtype == np.float64
        assert (np.abs(gb - want) <= 4 * ulp).all(), (gb - want) / ulp

    def test_layer0_sums_layer1_input_gradient_stream(self, monkeypatch):
        # training hands layer 0 the bands of layer 1's input gradient, so
        # its bias gradient is never a sum over one whole array
        rng = np.random.default_rng(12)
        x0, k0 = random_instance(rng, 3, 256, 3, 37, 29)
        x1, k1 = random_instance(rng, 256, 16, 3, 37, 29)
        g1 = rng.standard_normal((16, 37, 29))
        # layer 1's input gradient comes in 3-row bands, layer 0's weight
        # gradient sums 4-row bands and layer 1's 7-row bands
        monkeypatch.setattr(ndtensor, "_BAND_BYTES", 8 * 31 * 515 * 4)
        grads1, grads0 = [], []
        for _ in ndtensor._param_grads(
                ndtensor._backward([(0, 37, g1)], x1, k1.weights, grads1),
                x0, k0.weights, grads0):
            pass
        g0, *want = conv2d_backward_whole(x1, k1.weights, g1)
        want += conv2d_backward_whole(x0, k0.weights, g0)[1:]
        for got, ref in zip(grads1 + grads0, want):
            assert got.dtype == ref.dtype
            assert got.tobytes() == ref.tobytes()


class TestActivations:
    def test_relu_values(self):
        # the meta-learner applies ReLU in place and backward takes the
        # mask as output > 0, which must equal input > 0 at and near 0
        z = np.array([-1.0, -0.0, 0.0, 1e-30, 2.0], np.float32)
        y = z.copy()
        np.maximum(y, 0, out=y)
        assert y.tolist() == [0.0, 0.0, 0.0, z[3], 2.0]
        assert (y > 0).tolist() == (z > 0).tolist() == [False] * 3 + [True] * 2
        g = np.array([-3.0, -3.0, 3.0, 3.0, 3.0])
        assert np.signbit(g * (y > 0)).tolist() == [True, True, False, False, False]

    def test_sigmoid_symmetry_point(self):
        y, d = sigmoid_forward_backward(np.array([0.0]))
        assert y[0] == 0.5 and d[0] == 0.25

    def test_sigmoid_finite_difference(self):
        for v in (-2.0, 0.3, 5.0):
            x = np.array([v], np.float64)
            _, d = sigmoid_forward_backward(x)
            fd = finite_diff_grad(lambda a: float(sigmoid_forward_backward(a)[0][0]),
                                  x, step=1e-5)
            assert abs(d[0] - fd[0]) / abs(fd[0]) < 1e-5

    def test_relu_finite_difference_away_from_kink(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.standard_normal(6)
            x = np.where(np.abs(x) < 0.05, 0.5, x)  # keep FD off the kink
            mask = np.maximum(x, 0) > 0
            fd = finite_diff_grad(
                lambda a: float(np.maximum(a, 0).sum()), x, step=1e-4)
            assert np.allclose(mask, fd, atol=1e-7)

    def test_sigmoid_extreme_inputs_finite(self):
        y, d = sigmoid_forward_backward(np.array([-800.0, 800.0]))
        assert np.isfinite(y).all() and np.isfinite(d).all()
        assert y[0] == 0.0 and y[1] == 1.0


class TestAdam:
    def test_zero_gradient_leaves_params_fixed(self):
        p = [np.array([1.0, -2.0], np.float32)]
        state = AdamState.fresh(p, learning_rate=0.1)
        for t in range(1, 6):
            p, state = adam_step(p, [np.zeros(2)], state)
            assert state.t == t
            assert p[0].tolist() == [1.0, -2.0]

    @pytest.mark.parametrize("g", [1e-4, 0.5, 100.0])
    def test_first_step_size_is_learning_rate(self, g):
        lr = 1e-3
        p = [np.array([0.0], np.float64)]
        state = AdamState.fresh(p, learning_rate=lr)
        newp, state = adam_step(p, [np.array([g])], state)
        step = abs(newp[0][0])
        assert math.isclose(step, lr * g / (g + ndtensor._EPSILON),
                            rel_tol=1e-12)
        assert math.isclose(step, lr, rel_tol=1e-3)

    def test_constant_gradient_descends_monotonically(self):
        p = [np.array([1.0], np.float64)]
        state = AdamState.fresh(p, learning_rate=1e-2)
        prev = p[0][0]
        for _ in range(2):
            p, state = adam_step(p, [np.array([3.0])], state)
            assert p[0][0] < prev
            prev = p[0][0]

    def test_non_finite_gradient_names_parameter(self):
        p = [np.zeros(2), np.zeros(3)]
        state = AdamState.fresh(p, learning_rate=1e-3)
        bad = np.array([0.0, np.nan, 0.0])
        with pytest.raises(NumericError, match="parameter 1"):
            adam_step(p, [np.zeros(2), bad], state)

    def test_preserves_param_dtype(self):
        p = [np.ones(3, np.float32)]
        state = AdamState.fresh(p, learning_rate=1e-2)
        newp, _ = adam_step(p, [np.ones(3)], state)
        assert newp[0].dtype == np.float32


class TestFiniteDiff:
    def test_quadratic(self):
        g = finite_diff_grad(lambda x: float(x) ** 2, 3.0, step=1e-4)
        assert abs(float(g) - 6.0) < 1e-6

    def test_constant_function(self):
        g = finite_diff_grad(lambda x: 7.5, np.ones(4), step=1e-4)
        assert not g.any()

    def test_non_finite_function_raises(self):
        with pytest.raises(NumericError):
            finite_diff_grad(lambda x: float("nan"), np.ones(2))
