"""Fusion algebra, meta-learner construction, training, and serialization."""

import tracemalloc

import numpy as np
import pytest

from segens import ensemble, ndtensor
from segens.ensemble import (_FILTERS, HyperParams, MetaLearnerParams,
                             binarize, build_metalearner, fuse_and, fuse_max,
                             fuse_or, load_metalearner, predict_metalearner,
                             save_metalearner, train_metalearner)
from segens.errors import DecodeError, NumericError, ShapeMismatchError
from segens.losses import TverskyConfig
from segens.metrics import evaluate_pairs
from segens.ndtensor import (ConvKernel, conv2d_forward,
                             sigmoid_forward_backward)

from _oracles import loss_and_grads_local_cache


@pytest.fixture
def rng():
    return np.random.default_rng(70)


@pytest.fixture(scope="module")
def step_peak():
    """The tracemalloc peak of one training step at size x size, taken
    once per size."""
    peaks = {}

    def peak(size):
        if size not in peaks:
            params = build_metalearner(3, seed=0)
            rng = np.random.default_rng(size)
            stack = rng.random((3, size, size), dtype=np.float32)
            soft = rng.random((size, size), dtype=np.float32)
            tracemalloc.start()
            try:
                ensemble._loss_and_grads(params, stack, soft, TverskyConfig())
                peaks[size] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        return peaks[size]

    return peak


def random_masks(rng, k=3, shape=(4, 4)):
    return [(rng.random(shape) > 0.5).astype(np.uint8) for _ in range(k)]


class TestFusion:
    def test_identical_masks_fixed_point(self, rng):
        m = random_masks(rng, 1)[0]
        assert np.array_equal(fuse_and([m, m, m]), m)
        assert np.array_equal(fuse_or([m, m, m]), m)

    def test_disjoint_and_complementary(self):
        a = np.array([[1, 0], [0, 0]], np.uint8)
        b = np.array([[0, 1], [1, 1]], np.uint8)
        assert not fuse_and([a, b]).any()
        assert fuse_or([a, b]).all()

    def test_and_is_pointwise_minimum(self, rng):
        for _ in range(10):
            masks = random_masks(rng)
            want = np.minimum.reduce([m.astype(np.uint8) for m in masks])
            assert np.array_equal(fuse_and(masks), want)

    def test_or_is_pointwise_maximum(self, rng):
        for _ in range(10):
            masks = random_masks(rng)
            want = np.maximum.reduce([m.astype(np.uint8) for m in masks])
            assert np.array_equal(fuse_or(masks), want)

    def test_and_within_inputs_within_or(self, rng):
        for _ in range(20):
            masks = random_masks(rng, k=4)
            a = fuse_and(masks).astype(bool)
            o = fuse_or(masks).astype(bool)
            for m in masks:
                mb = m.astype(bool)
                assert (a <= mb).all() and (mb <= o).all()

    def test_permutation_invariance(self, rng):
        masks = random_masks(rng, k=3)
        assert np.array_equal(fuse_and(masks), fuse_and(masks[::-1]))
        assert np.array_equal(fuse_or(masks), fuse_or(masks[::-1]))

    def test_needs_two_inputs(self, rng):
        with pytest.raises(ValueError, match="at least 2"):
            fuse_and(random_masks(rng, 1))

    def test_dim_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            fuse_or([np.zeros((2, 2), np.uint8), np.zeros((3, 3), np.uint8)])

    def test_max_identical_maps(self, rng):
        p = rng.random((4, 4)).astype(np.float32)
        fused, mask = fuse_max([p, p])
        assert np.array_equal(fused, p)
        assert np.array_equal(mask, binarize(p, 0.5))

    def test_max_constant_maps(self):
        lo = np.full((3, 3), 0.3, np.float32)
        hi = np.full((3, 3), 0.6, np.float32)
        fused, mask = fuse_max([lo, hi])
        assert (fused == np.float32(0.6)).all()
        assert mask.all()

    def test_max_dominates_inputs_and_commutes_with_threshold(self, rng):
        for _ in range(20):
            maps = [rng.random((5, 5)).astype(np.float32) for _ in range(3)]
            t = float(rng.random())
            fused, mask = fuse_max(maps, binarize_threshold=t)
            for m in maps:
                assert (fused >= m).all()
            assert np.array_equal(mask, fuse_or([binarize(m, t) for m in maps]))

    def test_binarize_cuts_where_eval_does(self):
        # float32(0.7) is just below 0.7, so eval counts it as background
        p = np.full((2, 2), np.float32(0.7))
        report, _ = evaluate_pairs([p], [np.ones((2, 2), np.uint8)], threshold=0.7)
        assert report.counts.fn == 4
        assert not binarize(p, 0.7).any()
        assert not fuse_max([p, p], binarize_threshold=0.7)[1].any()
        assert binarize(np.nextafter(p, np.float32(1)), 0.7).all()

    @pytest.mark.parametrize("dtype", [np.float16, np.float32])
    def test_binarize_agrees_with_float64(self, dtype):
        ts = np.linspace(0.0, 1.0, 101)
        f = ts.astype(dtype)
        m = np.concatenate([np.nextafter(f, dtype(0)), f,
                            np.nextafter(f, dtype(1))]).reshape(3, -1)
        for t in ts.tolist():  # Python floats, which numpy rounds to m's dtype
            assert np.array_equal(binarize(m, t), binarize(m.astype(np.float64), t))

    def test_max_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            fuse_max([np.full((2, 2), 1.5), np.zeros((2, 2))])

    @pytest.mark.parametrize("threshold", [1.5, np.nan])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        p = np.full((2, 2), 0.5, np.float32)
        with pytest.raises(ValueError, match=r"threshold must be in \[0, 1\]"):
            binarize(p, threshold)
        with pytest.raises(ValueError, match=r"threshold must be in \[0, 1\]"):
            fuse_max([p, p], binarize_threshold=threshold)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_max_rejects_non_finite(self, bad):
        m = np.full((2, 2), 0.5)
        m[1, 0] = bad
        with pytest.raises(NumericError, match="probability map 1"):
            fuse_max([np.zeros((2, 2)), m])


class TestBuild:
    def test_parameter_count_for_three_channels(self):
        params = build_metalearner(3, seed=0)
        assert sum(a.size for a in params.parameter_arrays()) == 394_497
        per_layer = [k.weights.size + k.bias.size for k in params.layers]
        assert per_layer == [7_168, 295_040, 73_792, 18_464, 33]

    def test_same_seed_identical(self):
        a = build_metalearner(3, seed=5)
        b = build_metalearner(3, seed=5)
        for ka, kb in zip(a.layers, b.layers):
            assert np.array_equal(ka.weights, kb.weights)
            assert np.array_equal(ka.bias, kb.bias)

    def test_forward_shape_and_open_interval(self, rng):
        params = build_metalearner(3, seed=1)
        out = predict_metalearner(params, rng.random((3, 8, 8)).astype(np.float32))
        assert out.shape == (8, 8)
        assert (out > 0.0).all() and (out < 1.0).all()

    def test_layer_chain_validated(self):
        params = build_metalearner(2, seed=0)
        bad = list(params.layers)
        bad[2] = ConvKernel(np.zeros((64, 999, 3, 3), np.float32),
                            np.zeros(64, np.float32))
        with pytest.raises(ShapeMismatchError):
            MetaLearnerParams(tuple(bad))

    def test_in_channels_validated(self):
        with pytest.raises(ValueError):
            build_metalearner(0)


class TestPredict:
    def test_zero_weights_give_half_everywhere(self):
        params = build_metalearner(2, seed=0)
        zeroed = MetaLearnerParams.from_arrays(
            [np.zeros_like(a) for a in params.parameter_arrays()])
        out = predict_metalearner(zeroed, np.random.default_rng(0)
                                  .random((2, 5, 5)).astype(np.float32))
        assert (out == 0.5).all()

    def test_channel_mismatch(self, rng):
        params = build_metalearner(3, seed=0)
        with pytest.raises(ShapeMismatchError, match="expects 3"):
            predict_metalearner(params, rng.random((2, 4, 4)).astype(np.float32))

    def test_matches_hand_rolled_forward(self, rng):
        # independent route: per-pixel window dot products, no im2col
        params = build_metalearner(2, seed=3)
        stack = rng.random((2, 3, 3)).astype(np.float32)

        def naive_conv(x, kernel):
            o_ch, i_ch, kh, kw = kernel.weights.shape
            _, h, w = x.shape
            ph, pw = kh // 2, kw // 2
            pad = np.zeros((i_ch, h + 2 * ph, w + 2 * pw))
            pad[:, ph:ph + h, pw:pw + w] = x
            out = np.zeros((o_ch, h, w))
            for o in range(o_ch):
                for y in range(h):
                    for z in range(w):
                        win = pad[:, y:y + kh, z:z + kw]
                        out[o, y, z] = float(
                            (kernel.weights[o].astype(np.float64) * win).sum()
                        ) + kernel.bias[o]
            return out

        h = stack.astype(np.float64)
        for i, layer in enumerate(params.layers):
            z = naive_conv(h, layer)
            h = np.maximum(z, 0) if i < 4 else 1.0 / (1.0 + np.exp(-z))
        got = predict_metalearner(params, stack)
        assert np.allclose(got, h[0], atol=1e-5)

    @staticmethod
    def layer_at_a_time(params, stack):
        """Each layer's whole output, then its ReLU, then the sigmoid."""
        h = stack
        for i, layer in enumerate(params.layers):
            h = conv2d_forward(h, layer)
            if i < len(params.layers) - 1:
                np.maximum(h, 0, out=h)
        return sigmoid_forward_backward(h)[0][0].astype(np.float32)

    def test_streamed_bands_match_layer_at_a_time(self, rng, monkeypatch):
        # a budget of three 3x3 layer-1 rows (256 input and 2 * 128 output
        # channels): 301, 201, 101, 51 and 13 bands of unequal heights,
        # whose edges do not line up from layer to layer
        h, w = 601, 20
        params = build_metalearner(3, seed=5)
        stack = rng.random((3, h, w), dtype=np.float32)
        monkeypatch.setattr(ndtensor, "_BAND_BYTES", 8 * 512 * (w + 2) * 3)
        edges = {}
        band_edges = ndtensor._band_edges

        def spy(rows, stride, channels):
            edges[channels] = list(band_edges(rows, stride, channels))
            return iter(edges[channels])

        monkeypatch.setattr(ndtensor, "_band_edges", spy)
        got = predict_metalearner(params, stack)
        # each layer's input channels plus twice its output channels
        assert sorted(edges) == [34, 128, 256, 512, 515]
        assert [len(edges[c]) for c in (515, 512, 256, 128, 34)] == [
            301, 201, 101, 51, 13]
        for channels, e in edges.items():
            assert len({r1 - r0 for r0, r1 in e}) == 2, channels
        assert got.tobytes() == self.layer_at_a_time(params, stack).tobytes()

    @pytest.mark.parametrize("shape", [(3, 1, 7), (3, 1, 1), (3, 37, 29)])
    def test_streamed_forward_matches_layer_at_a_time(self, rng, shape):
        params = build_metalearner(3, seed=6)
        stack = rng.random(shape, dtype=np.float32)
        got = predict_metalearner(params, stack)
        assert got.tobytes() == self.layer_at_a_time(params, stack).tobytes()

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast")
    def test_middle_layer_overflow_raises(self, rng, monkeypatch):
        # layer 2's float64 sums pass float32's range, in its first band
        params = build_metalearner(3, seed=0)
        layers = list(params.layers)
        layers[2] = ConvKernel(np.full_like(layers[2].weights, 1e37),
                               layers[2].bias)
        params = MetaLearnerParams(tuple(layers))
        monkeypatch.setattr(ndtensor, "_BAND_BYTES", 8 * 256 * 18 * 2)
        with pytest.raises(NumericError, match="non-finite") as err:
            predict_metalearner(params, rng.random((3, 16, 16),
                                                   dtype=np.float32))
        raised_in = err.traceback[-1].frame.f_locals
        assert (raised_in["out_ch"], raised_in["r0"]) == (64, 0)


def overfit_fixture(seed=0, n=8, size=32):
    """Sparse blob masks; side channels are noisy copies of the mask,
    like constituent-model probability maps."""
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


class TestTraining:
    def _tiny_pairs(self, seed=0, n=4, size=8, channels=2):
        rng = np.random.default_rng(seed)
        pairs = []
        for _ in range(n):
            gt = (rng.random((size, size)) < 0.25).astype(np.uint8)
            stack = np.stack([gt.astype(np.float32)]
                             + [rng.random((size, size)).astype(np.float32)
                                for _ in range(channels - 1)])
            pairs.append((stack, gt))
        return pairs

    def test_zero_learning_rate_freezes_parameters(self):
        pairs = self._tiny_pairs()
        hyper = HyperParams(learning_rate=0.0, epochs=3, batch_size=2, seed=0)
        init = build_metalearner(2, seed=0)
        params, run = train_metalearner(pairs, hyper=hyper)
        for ka, kb in zip(params.layers, init.layers):
            assert np.array_equal(ka.weights, kb.weights)
            assert np.array_equal(ka.bias, kb.bias)
        assert len(set(run.train_loss)) == 1

    def test_zero_epochs_returns_init(self):
        pairs = self._tiny_pairs()
        init = build_metalearner(2, seed=4)
        params, run = train_metalearner(pairs,
                                        hyper=HyperParams(epochs=0, seed=4))
        assert run.train_loss == [] and run.best_epoch == -1
        for ka, kb in zip(params.layers, init.layers):
            assert np.array_equal(ka.weights, kb.weights)

    def test_same_seed_bit_identical_history(self):
        pairs = self._tiny_pairs()
        hyper = HyperParams(learning_rate=1e-3, epochs=3, batch_size=2, seed=0)
        _, run_a = train_metalearner(pairs, hyper=hyper)
        _, run_b = train_metalearner(pairs, hyper=hyper)
        assert run_a.train_loss == run_b.train_loss
        assert run_a.train_dice == run_b.train_dice

    def test_loss_decreases_on_small_fixture(self):
        pairs = self._tiny_pairs()
        hyper = HyperParams(learning_rate=1e-3, epochs=8, batch_size=4, seed=0)
        _, run = train_metalearner(pairs, hyper=hyper)
        assert run.train_loss[-1] < run.train_loss[0]

    def test_full_batch_descent_is_non_increasing_at_small_rate(self):
        pairs = overfit_fixture(seed=2, n=4, size=16)
        hyper = HyperParams(learning_rate=1e-4, epochs=6, batch_size=4, seed=0)
        _, run = train_metalearner(pairs, hyper=hyper)
        diffs = np.diff(run.train_loss)
        assert (diffs <= 1e-5).all()

    def test_validation_tracking_picks_best_epoch(self):
        pairs = self._tiny_pairs()
        val = self._tiny_pairs(seed=9, n=2)
        hyper = HyperParams(learning_rate=1e-3, epochs=5, batch_size=2, seed=1)
        _, run = train_metalearner(pairs, val, hyper=hyper)
        assert len(run.val_loss) == 5
        assert run.best_epoch == int(np.argmin(run.val_loss))

    def test_channel_drift_rejected(self):
        pairs = self._tiny_pairs()
        bad = pairs + [(np.zeros((3, 8, 8), np.float32),
                        np.zeros((8, 8), np.uint8))]
        with pytest.raises(ShapeMismatchError, match="channels"):
            train_metalearner(bad, hyper=HyperParams(epochs=1))

    def test_validation_channels_checked_against_the_model(self):
        pairs = self._tiny_pairs()
        val = self._tiny_pairs(seed=9, n=2, channels=3)
        with pytest.raises(ShapeMismatchError,
                           match="validation sample 0 has 3 channels but the "
                                 "model expects 2"):
            train_metalearner(pairs, val, hyper=HyperParams(epochs=1))

    def test_first_failing_sample_sets_the_error(self):
        # sample 2's mask does not fit its stack, but sample 1 already
        # disagrees with sample 0's channel count, and is checked first
        pairs = self._tiny_pairs()
        pairs[1] = (np.zeros((3, 8, 8), np.float32), pairs[1][1])
        pairs[2] = (pairs[2][0], np.zeros((3, 3), np.uint8))
        with pytest.raises(ShapeMismatchError,
                           match="train sample 1 has 3 channels but the "
                                 "model expects 2"):
            train_metalearner(pairs, hyper=HyperParams(epochs=1))

    def test_plateau_halves_the_rate_every_patience_epochs(self, monkeypatch):
        # a constant loss never improves after epoch 0, so with patience 2
        # the rate halves after epochs 2 and 4
        def flat(params, stack, soft, tversky):
            grads = [np.zeros(a.shape) for a in params.parameter_arrays()]
            return 0.5, np.zeros(stack.shape[1:], np.float32), grads

        rates = []
        real_step = ensemble.adam_step

        def spy(arrays, grads, state):
            rates.append(state.learning_rate)
            return real_step(arrays, grads, state)

        monkeypatch.setattr(ensemble, "_loss_and_grads", flat)
        monkeypatch.setattr(ensemble, "adam_step", spy)
        lr = 1e-3
        hyper = HyperParams(learning_rate=lr, epochs=6, batch_size=1,
                            plateau_patience=2, plateau_factor=0.5)
        train_metalearner(self._tiny_pairs(n=1), hyper=hyper)
        assert rates == [lr, lr, lr, lr / 2, lr / 2, lr / 4]

    def test_model_rebuilt_once_per_step(self, monkeypatch):
        # one build after each of the 2 x 2 Adam steps, one for the result;
        # none at an epoch's start, where the last step's model is current
        calls = []
        real = ensemble.MetaLearnerParams.from_arrays

        def spy(cls, arrays, seed=0):
            calls.append(seed)
            return real(arrays, seed=seed)

        monkeypatch.setattr(ensemble.MetaLearnerParams, "from_arrays",
                            classmethod(spy))
        train_metalearner(self._tiny_pairs(n=4),
                          hyper=HyperParams(epochs=2, batch_size=2))
        assert len(calls) == 5

    def test_empty_train_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train_metalearner([], hyper=HyperParams(epochs=1))

    def test_dice_target_stops_early(self):
        pairs = overfit_fixture(seed=0, size=16)
        hyper = HyperParams(learning_rate=1e-3, epochs=60, batch_size=2, seed=0,
                            dice_target=0.9)
        _, run = train_metalearner(pairs, hyper=hyper)
        assert len(run.train_loss) < 60
        assert run.train_dice[-1] > 0.9

    def test_derived_relu_mask_matches_stored_mask(self, monkeypatch):
        # backward takes each ReLU mask as (next layer's input > 0); the
        # loss and every gradient must equal, bit for bit, those of a
        # forward that stores (z > 0) per layer
        pairs = overfit_fixture(seed=5, n=2, size=32)
        real = ensemble._loss_and_grads
        seen = []

        def both(params, stack, soft, tversky):
            loss, pred, grads = real(params, stack, soft, tversky)
            want = loss_and_grads_local_cache(params, stack, soft, tversky)
            assert loss == want[0]
            assert pred.tobytes() == want[1].tobytes()
            for got, ref in zip(grads, want[2]):
                assert got.dtype == ref.dtype
                assert got.tobytes() == ref.tobytes()
            seen.append(loss)
            return loss, pred, grads

        monkeypatch.setattr(ensemble, "_loss_and_grads", both)
        train_metalearner(pairs, hyper=HyperParams(epochs=1, batch_size=1,
                                                   seed=0))
        assert len(seen) == 2

    def test_training_step_memory(self, step_peak):
        # one 128x128 step streams backward in row bands: 50.4 MB, the
        # 30.2 MB of cached layer inputs and the band buffers; whole-image
        # float64 input gradients traced 85 MB, and before them the
        # whole-image scatter buffers near 216 MB
        peak = step_peak(128)
        assert peak < 51 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_training_step_memory_256(self, step_peak):
        # one step at the paper's 256x256: 139.8 MB, of which 120.75 MB
        # are cached layer inputs; 320 MB with whole-image float64 input
        # gradients, 513 MB with whole-image weight-gradient buffers
        peak = step_peak(256)
        assert peak < 142 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_training_step_memory_grows_by_cached_inputs(self, step_peak):
        # the band buffers do not grow with the image: from 128x128 to
        # 256x256 the peak grows by no more than the float32 inputs that
        # forward caches for backward (the stack and 480 channels)
        cached = sum((3, *_FILTERS[:-1])) * 4 * (256 ** 2 - 128 ** 2)
        assert cached == (120.75 - 30.1875) * 2**20
        grown = step_peak(256) - step_peak(128)
        assert grown <= cached, f"grew {grown / 2**20:.1f} MB"

    def test_both_empty_sample_scores_dice_one(self, monkeypatch):
        init = build_metalearner(2, seed=0)
        head = init.layers[-1]
        # a zero head with a strongly negative bias predicts empty masks
        layers = init.layers[:-1] + (
            ConvKernel(np.zeros_like(head.weights), np.full(1, -20.0, np.float32)),)
        monkeypatch.setattr(ensemble, "build_metalearner",
                            lambda channels, seed: MetaLearnerParams(layers))
        stack = np.random.default_rng(3).random((2, 8, 8)).astype(np.float32)
        _, run = train_metalearner(
            [(stack, np.zeros((8, 8), np.uint8))],
            hyper=HyperParams(epochs=1, batch_size=1, seed=0))
        assert run.train_dice == [1.0]


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        params = build_metalearner(3, seed=2)
        path = tmp_path / "params.json"
        save_metalearner(params, path, hyper=HyperParams(epochs=7))
        back = load_metalearner(path)
        assert back.in_channels == 3
        for ka, kb in zip(params.layers, back.layers):
            assert ka.weights.tobytes() == kb.weights.tobytes()
            assert ka.bias.tobytes() == kb.bias.tobytes()

    @pytest.mark.parametrize("header, offset", [
        ('{"format": "\u00e9", x}'.encode(), 17),  # character 16: e-acute is 2 bytes
        (b'{"format": "\xff"}', 12),  # not UTF-8
        (b'{"format": ', 11)])  # truncated
    def test_unparseable_header_reports_byte_offset(self, tmp_path, header, offset):
        path = tmp_path / "p.json"
        path.write_bytes(header)
        with pytest.raises(DecodeError, match="unparseable") as e:
            load_metalearner(path)
        assert e.value.offset == offset

    def test_overlong_integer_header_is_decode_error(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"seed": ' + "9" * 5000 + "}")
        with pytest.raises(DecodeError, match="unparseable"):
            load_metalearner(path)

    def test_prediction_survives_round_trip(self, tmp_path, rng):
        params = build_metalearner(2, seed=8)
        stack = rng.random((2, 6, 6)).astype(np.float32)
        path = tmp_path / "p.json"
        save_metalearner(params, path)
        assert np.array_equal(predict_metalearner(params, stack),
                              predict_metalearner(load_metalearner(path), stack))
