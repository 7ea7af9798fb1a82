"""Morphology against exhaustive neighborhood oracles, plus soft labels."""

import numpy as np
import pytest

from segens.morpho import (BoundaryUncertaintyConfig, boundary_soft_labels,
                           dilate, erode)


def neighborhood_oracle(mask, op):
    """Per-pixel max/min over the 3x3 neighborhood, out-of-bounds = 0.

    Plain loops over the morphology definition, independent of the
    shift-and-reduce implementation under test.
    """
    h, w = mask.shape
    out = np.zeros((h, w), dtype=np.float64)
    for y in range(h):
        for x in range(w):
            samples = []
            for i in (-1, 0, 1):
                for j in (-1, 0, 1):
                    if op == "dilate":
                        yy, xx = y - i, x - j
                    else:
                        yy, xx = y + i, x + j
                    samples.append(mask[yy, xx] if 0 <= yy < h and 0 <= xx < w
                                   else 0.0)
            out[y, x] = max(samples) if op == "dilate" else min(samples)
    return out


class TestDilate:
    def test_single_pixel_grows_to_block(self):
        m = np.zeros((5, 5), np.uint8)
        m[2, 2] = 1
        out = dilate(m)
        expected = np.zeros((5, 5), np.uint8)
        expected[1:4, 1:4] = 1
        assert np.array_equal(out, expected)

    def test_all_zero_stays_zero(self):
        assert not dilate(np.zeros((6, 6), np.uint8)).any()

    def test_l_pentomino_matches_oracle(self):
        m = np.zeros((8, 8), np.uint8)
        m[2:6, 3] = 1
        m[5, 4] = 1
        got = dilate(m)
        want = neighborhood_oracle(m.astype(float), "dilate") > 0
        assert np.array_equal(got.astype(bool), want)

    def test_iterations_compose(self):
        m = np.zeros((9, 9), np.uint8)
        m[4, 4] = 1
        assert np.array_equal(dilate(m, iterations=2), dilate(dilate(m)))


class TestErode:
    def test_block_shrinks_to_center(self):
        m = np.zeros((5, 5), np.uint8)
        m[1:4, 1:4] = 1
        out = erode(m)
        expected = np.zeros((5, 5), np.uint8)
        expected[2, 2] = 1
        assert np.array_equal(out, expected)

    def test_all_ones_loses_border(self):
        m = np.ones((6, 7), np.uint8)
        out = erode(m)
        expected = np.zeros((6, 7), np.uint8)
        expected[1:-1, 1:-1] = 1
        assert np.array_equal(out, expected)

    def test_closing_is_extensive_off_the_border(self):
        # with background padding, border-touching foreground can be lost
        # by the closing; one pixel of margin restores the classic property
        rng = np.random.default_rng(17)
        for _ in range(25):
            m = np.zeros((12, 12), np.uint8)
            m[1:-1, 1:-1] = (rng.random((10, 10)) > 0.6).astype(np.uint8)
            closed = erode(dilate(m))
            assert (closed.astype(bool) | m.astype(bool) == closed.astype(bool)).all()


class TestGrayscale:
    # the ids name the full (flat 3x3) element dilate and erode use
    @pytest.mark.parametrize("iterations, dtype", [
        pytest.param(i, d, id=f"{i}-full-{np.dtype(d).name}")
        for i in (1, 2, 3) for d in (bool, np.uint8, np.float32)])
    def test_bytes_match_oracle(self, iterations, dtype):
        rng = np.random.default_rng(4)
        img = (rng.random((7, 6)) > 0.6 if dtype is bool
               else rng.integers(0, 256, (7, 6))).astype(dtype)
        for op, fn in (("dilate", dilate), ("erode", erode)):
            want = img.astype(np.float64)
            for _ in range(iterations):
                want = neighborhood_oracle(want, op)
            got = fn(img, iterations)
            # uint8 and bool keep their dtype, any other becomes float64
            want = want.astype(np.float64 if dtype is np.float32 else dtype)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


class TestProperties:
    def test_extensive_and_anti_extensive(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            m = (rng.random((10, 10)) > 0.5).astype(np.uint8)
            d = dilate(m).astype(bool)
            e = erode(m).astype(bool)
            mb = m.astype(bool)
            assert (mb | d == d).all()    # dilation grows
            assert (e & mb == e).all()    # erosion shrinks

    def test_monotonicity(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            small = (rng.random((9, 9)) > 0.7).astype(np.uint8)
            grow = (rng.random((9, 9)) > 0.5).astype(np.uint8)
            big = (small | grow).astype(np.uint8)
            ds, db = dilate(small).astype(bool), dilate(big).astype(bool)
            es, eb = erode(small).astype(bool), erode(big).astype(bool)
            assert (ds | db == db).all()
            assert (es | eb == eb).all()

    def test_exhaustive_3x3_masks_vs_oracle(self):
        for code in range(512):
            bits = [(code >> k) & 1 for k in range(9)]
            m = np.array(bits, np.uint8).reshape(3, 3)
            assert np.array_equal(
                dilate(m).astype(bool),
                neighborhood_oracle(m.astype(float), "dilate") > 0)
            assert np.array_equal(
                erode(m).astype(bool),
                neighborhood_oracle(m.astype(float), "erode") > 0)


class TestBoundarySoftLabels:
    def test_degenerate_labels_recover_hard_mask(self):
        rng = np.random.default_rng(14)
        cfg = BoundaryUncertaintyConfig(interior_label=1.0, exterior_label=0.0)
        for _ in range(20):
            m = (rng.random((11, 11)) > 0.5).astype(np.uint8)
            out = boundary_soft_labels(m, cfg)
            assert np.array_equal(out, m.astype(np.float32))

    def test_all_zero_mask(self):
        out = boundary_soft_labels(np.zeros((6, 6), np.uint8))
        assert not out.any()

    def test_centered_square_rings(self):
        m = np.zeros((8, 8), np.uint8)
        m[2:6, 2:6] = 1
        out = boundary_soft_labels(m)
        # build the rings from the two morphology ops directly
        grown = dilate(m).astype(bool)
        kept = erode(m).astype(bool)
        mb = m.astype(bool)
        expected = np.zeros((8, 8), np.float32)
        expected[mb] = 1.0
        expected[mb & ~kept] = 0.9
        expected[grown & ~mb] = 0.1
        assert np.allclose(out, expected)
        # explicit geometry: 2x2 core stays 1, square edge 0.9, halo 0.1
        assert (out[3:5, 3:5] == 1.0).all()
        assert out[2, 2] == np.float32(0.9)
        assert out[1, 1] == np.float32(0.1)
        assert out[0, 0] == 0.0

    def test_values_restricted_to_label_set(self):
        rng = np.random.default_rng(21)
        cfg = BoundaryUncertaintyConfig(interior_label=0.85, exterior_label=0.2)
        for _ in range(20):
            m = (rng.random((10, 10)) > 0.5).astype(np.uint8)
            out = boundary_soft_labels(m, cfg)
            allowed = {0.0, np.float32(0.2), np.float32(0.85), 1.0}
            assert set(np.unique(out)) <= allowed

    def test_background_never_exceeds_foreground(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            m = (rng.random((9, 9)) > 0.5).astype(np.uint8)
            out = boundary_soft_labels(m)
            fg = out[m.astype(bool)]
            bg = out[~m.astype(bool)]
            if fg.size and bg.size:
                assert bg.max() <= fg.min()

    def test_wider_rings_with_more_iterations(self):
        m = np.zeros((12, 12), np.uint8)
        m[3:9, 3:9] = 1
        cfg = BoundaryUncertaintyConfig(iterations=2)
        out = boundary_soft_labels(m, cfg)
        assert (out[5:7, 5:7] == 1.0).all()          # deep interior survives
        assert (out[3:5, 3:9] == np.float32(0.9)).all()  # two-pixel inner ring
        assert out[1, 5] == np.float32(0.1)          # two-pixel outer ring

    def test_label_ordering_enforced(self):
        with pytest.raises(ValueError, match="exterior <= interior"):
            BoundaryUncertaintyConfig(interior_label=0.1, exterior_label=0.9)

    def test_non_binary_mask_rejected(self):
        with pytest.raises(ValueError, match="0 or 1"):
            boundary_soft_labels(np.full((3, 3), 2, np.uint8))
