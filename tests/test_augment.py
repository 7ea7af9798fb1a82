"""Affine transforms, sampled parameter ranges, and dataset generation."""

import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from segens import augment, imageio
from segens.augment import (AugmentConfig, augment_dataset, mirror, rotate,
                            sample_transform, zoom)
from segens.cli import main
from segens.errors import ShapeMismatchError
from segens.imageio import (ManifestRecord, load_gray, load_mask, store_gray,
                            store_mask, write_manifest)


@pytest.fixture
def pair():
    rng = np.random.default_rng(60)
    img = rng.integers(0, 256, (16, 16), dtype=np.uint8)
    mask = (rng.random((16, 16)) > 0.5).astype(np.uint8)
    return img, mask


class TestMirror:
    def test_involution(self, pair):
        img, mask = pair
        i2, m2 = mirror(*mirror(img, mask))
        assert np.array_equal(i2, img) and np.array_equal(m2, mask)

    def test_symmetric_image_unchanged(self):
        img = np.array([[1, 2, 1], [3, 4, 3]], np.uint8)
        mask = np.array([[0, 1, 0], [1, 0, 1]], np.uint8)
        i2, m2 = mirror(img, mask)
        assert np.array_equal(i2, img) and np.array_equal(m2, mask)

    def test_row_reverses(self):
        img = np.array([[10, 20, 30]], np.uint8)
        mask = np.array([[1, 0, 0]], np.uint8)
        i2, m2 = mirror(img, mask)
        assert i2.tolist() == [[30, 20, 10]]
        assert m2.tolist() == [[0, 0, 1]]

    def test_dim_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            mirror(np.zeros((2, 2), np.uint8), np.zeros((3, 3), np.uint8))


class TestRotate:
    def test_zero_angle_identity(self, pair):
        img, mask = pair
        i2, m2 = rotate(img, mask, 0.0)
        assert np.array_equal(i2, img) and np.array_equal(m2, mask)

    def test_full_turn_mask_identity(self, pair):
        img, mask = pair
        _, m2 = rotate(img, mask, 360.0)
        assert np.array_equal(m2, mask)

    def test_center_pixel_is_fixed_point(self):
        img = np.zeros((9, 9), np.uint8)
        mask = np.zeros((9, 9), np.uint8)
        mask[4, 4] = 1
        img[4, 4] = 200
        for angle in (7.3, -9.9, 45.0, 180.0):
            _, m2 = rotate(img, mask, angle)
            assert m2[4, 4] == 1
            assert m2.sum() == 1

    def test_quarter_turn_moves_mass(self):
        mask = np.zeros((8, 8), np.uint8)
        mask[1, 4] = 1
        img = mask * 255
        _, m2 = rotate(img, mask, 90.0)
        assert m2.sum() == 1
        assert m2[1, 4] == 0  # moved off its original spot

    def test_mask_stays_binary(self, pair):
        img, mask = pair
        for angle in (-10, 5.5, 33.3):
            _, m2 = rotate(img, mask, angle)
            assert set(np.unique(m2)) <= {0, 1}

    def test_memory_is_chunked(self):
        # a 256x256 pair: whole-grid float64 and int64 sampler temporaries
        # peaked at 11 MB
        rng = np.random.default_rng(63)
        img = rng.integers(0, 256, (256, 256), dtype=np.uint8)
        mask = (rng.random((256, 256)) > 0.5).astype(np.uint8)
        tracemalloc.start()
        try:
            rotate(img, mask, 7.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_non_finite_angle_rejected(self, pair):
        with pytest.raises(ValueError):
            rotate(*pair, float("nan"))


class TestZoom:
    def test_unit_factor_identity(self, pair):
        img, mask = pair
        i2, m2 = zoom(img, mask, 1.0)
        assert np.array_equal(i2, img) and np.array_equal(m2, mask)

    def test_zoom_in_fills_frame(self):
        # foreground occupying the central half fills the image at 2x
        mask = np.zeros((8, 8), np.uint8)
        mask[2:6, 2:6] = 1
        img = mask * 100
        _, m2 = zoom(img, mask, 2.0)
        assert m2.all()

    def test_zoom_out_shrinks_to_central_half(self):
        mask = np.ones((8, 8), np.uint8)
        img = np.full((8, 8), 80, np.uint8)
        i2, m2 = zoom(img, mask, 0.5)
        # coordinate map: output pixel centers (r+0.5) map to source
        # (r+0.5-4)/0.5+4, in bounds exactly for r in 2..5
        expected = np.zeros((8, 8), np.uint8)
        expected[2:6, 2:6] = 1
        assert np.array_equal(m2, expected)
        assert (i2[m2 == 0] == 0).all()

    def test_non_positive_factor_rejected(self, pair):
        with pytest.raises(ValueError):
            zoom(*pair, 0.0)

    def test_factor_with_overflowing_inverse_rejected(self, pair):
        # 1 / 1e-320 is inf, which made every coordinate infinite
        with pytest.raises(ValueError, match="1/factor"):
            zoom(*pair, 1e-320)

    def test_factor_with_overflowing_coordinates_rejected(self):
        # 1 / 1e-307 is finite, but times a 256-pixel offset it is not:
        # numpy warned of the overflow before the coordinates were checked
        img = np.zeros((256, 256), np.uint8)
        with pytest.raises(ValueError, match="1/factor"):
            zoom(img, img, 1e-307)

    def test_samples_through_a_column_and_a_row_vector(self, monkeypatch):
        shapes = []

        def spy(arr, sy, sx, mode):
            shapes.append((np.shape(sy), np.shape(sx)))
            return imageio.sample(arr, sy, sx, mode)

        monkeypatch.setattr(augment, "sample", spy)
        img = np.zeros((5, 7), np.uint8)
        zoom(img, img, 1.3)
        assert shapes == [((5, 1), (1, 7))] * 2

    def test_memory_below_rotation(self):
        # 256x256: zoom peaks at 1.1 MB, rotate at 2.5 MB, and at 2.6 MB
        # each while zoom built full coordinate grids
        rng = np.random.default_rng(64)
        img = rng.integers(0, 256, (256, 256), dtype=np.uint8)
        mask = (rng.random((256, 256)) > 0.5).astype(np.uint8)
        tracemalloc.start()
        try:
            zoom(img, mask, 1.17)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_mask_stays_binary(self, pair):
        img, mask = pair
        for f in (0.8, 1.15, 1.4):
            _, m2 = zoom(img, mask, f)
            assert set(np.unique(m2)) <= {0, 1}


class TestSampling:
    def test_ranges_over_many_draws(self):
        config = AugmentConfig(seed=5)
        angles = []
        zooms = []
        mirrors = 0
        for k in range(10_000):
            _, mirrored, angle, factor = sample_transform(config, k, 7)
            angles.append(abs(angle))
            zooms.append(factor)
            mirrors += mirrored
        assert 5.0 <= min(angles) and max(angles) <= 10.0
        assert 0.8 <= min(zooms) and max(zooms) <= 1.4
        assert 0.45 < mirrors / 10_000 < 0.55

    def test_both_rotation_signs_appear(self):
        config = AugmentConfig(seed=6)
        signs = {np.sign(sample_transform(config, k, 3)[2]) for k in range(200)}
        assert signs == {-1.0, 1.0}

    def test_deterministic_per_index(self):
        config = AugmentConfig(seed=8)
        assert sample_transform(config, 42, 5) == sample_transform(config, 42, 5)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AugmentConfig(zoom_factors=(0.0, 1.0))
        with pytest.raises(ValueError):
            AugmentConfig(mirror_probability=1.5)
        with pytest.raises(ValueError):
            AugmentConfig(rotation_degrees=(10.0, 5.0))


def _seed_dataset(tmp_path, n=3, size=12, ext="pgm"):
    rng = np.random.default_rng(61)
    records = []
    for i in range(n):
        img = rng.integers(0, 256, (size, size), dtype=np.uint8)
        mask = (rng.random((size, size)) > 0.5).astype(np.uint8)
        ipath = tmp_path / f"img{i}.{ext}"
        mpath = tmp_path / f"mask{i}.{ext}"
        store_gray(img, ipath)
        store_mask(mask, mpath)
        records.append(ManifestRecord("train", str(ipath), str(mpath)))
    return records


class TestAugmentDataset:
    def test_count_zero_changes_nothing(self, tmp_path):
        records = _seed_dataset(tmp_path)
        out = augment_dataset(records, AugmentConfig(count=0), tmp_path / "aug")
        assert out == records
        assert not (tmp_path / "aug").exists()

    def test_train_split_grows_by_count(self, tmp_path):
        records = _seed_dataset(tmp_path)
        config = AugmentConfig(count=25, seed=3)
        out = augment_dataset(records, config, tmp_path / "aug")
        assert len(out) == len(records) + 25
        assert sum(r.split == "train" for r in out) == \
            sum(r.split == "train" for r in records) + 25

    def test_outputs_are_valid_binary_masks(self, tmp_path):
        records = _seed_dataset(tmp_path)
        out = augment_dataset(records, AugmentConfig(count=10, seed=4),
                              tmp_path / "aug")
        for rec in out[len(records):]:
            mask = load_mask(rec.gtmask)
            assert set(np.unique(mask)) <= {0, 1}
            assert load_gray(rec.image).shape == mask.shape

    def test_same_seed_reproduces_bytes(self, tmp_path):
        records = _seed_dataset(tmp_path)
        config = AugmentConfig(count=8, seed=9)
        out_a = augment_dataset(records, config, tmp_path / "a")
        out_b = augment_dataset(records, config, tmp_path / "b")
        for ra, rb in zip(out_a[len(records):], out_b[len(records):]):
            assert Path(ra.image).read_bytes() == Path(rb.image).read_bytes()
            assert Path(ra.gtmask).read_bytes() == Path(rb.gtmask).read_bytes()

    def test_no_train_records_rejected(self, tmp_path):
        records = [ManifestRecord("test", "a.pgm", "b.pgm")]
        with pytest.raises(ValueError, match="train"):
            augment_dataset(records, AugmentConfig(count=1), tmp_path / "aug")

    def test_two_thousand_extra_samples(self, tmp_path):
        # tiny 8x8 sources keep the full-size generation cheap
        rng = np.random.default_rng(62)
        records = []
        for i in range(2):
            img = rng.integers(0, 256, (8, 8), dtype=np.uint8)
            mask = (rng.random((8, 8)) > 0.5).astype(np.uint8)
            ipath = tmp_path / f"s{i}.pgm"
            mpath = tmp_path / f"sm{i}.pgm"
            store_gray(img, ipath)
            store_mask(mask, mpath)
            records.append(ManifestRecord("train", str(ipath), str(mpath)))
        out = augment_dataset(records, AugmentConfig(count=2000, seed=1),
                              tmp_path / "aug2k")
        train = [r for r in out if r.split == "train"]
        assert len(train) == 2 + 2000

    def test_each_source_decoded_once(self, tmp_path, monkeypatch):
        records = _seed_dataset(tmp_path, n=4, ext="png")
        config = AugmentConfig(count=12, seed=3)
        drawn = {sample_transform(config, k, 4)[0] for k in range(12)}
        assert len(drawn) < 12  # sources repeat, so decoding per output would show
        calls = []

        def counting_load_gray(path, _load=imageio.load_gray):
            calls.append(path)
            return _load(path)

        # augment loads images by its own binding, masks through load_mask
        monkeypatch.setattr(augment, "load_gray", counting_load_gray)
        monkeypatch.setattr(imageio, "load_gray", counting_load_gray)
        augment_dataset(records, config, tmp_path / "aug", image_format="png")
        assert len(calls) == 2 * len(drawn)
        assert len(set(calls)) == len(calls)

    def test_outputs_match_per_output_reference(self, tmp_path):
        records = _seed_dataset(tmp_path, n=3, size=20, ext="png")
        config = AugmentConfig(count=9, seed=11)
        out = augment_dataset(records, config, tmp_path / "aug", image_format="png")
        added = out[len(records):]
        for k, rec in enumerate(added):
            assert rec.image.endswith(f"aug{k:05d}_image.png")
            assert rec.gtmask.endswith(f"aug{k:05d}_mask.png")
            src, mirrored, angle, factor = sample_transform(config, k, 3)
            img = load_gray(records[src].image)
            msk = load_mask(records[src].gtmask)
            if mirrored:
                img, msk = mirror(img, msk)
            img, msk = zoom(*rotate(img, msk, angle), factor)
            store_gray(img, tmp_path / "ref_image.png")
            store_mask(msk, tmp_path / "ref_mask.png")
            assert Path(rec.image).read_bytes() == \
                (tmp_path / "ref_image.png").read_bytes()
            assert Path(rec.gtmask).read_bytes() == \
                (tmp_path / "ref_mask.png").read_bytes()


# sha256 of each output of augment_dataset(AugmentConfig(count=6, seed=5))
# over _seed_dataset(n=3, size=48): PGM file bytes, decoded PNG rasters (so
# the zlib build does not matter). Seed 5 draws every source, both mirror
# states, both rotation signs and zooms on both sides of 1.
PINNED_OUTPUTS = {
    "aug00000_image.pgm": "3737948fd4b5bb1775b2b5daef07d81d4f262239d12edeecf0a263717ebea6cd",
    "aug00000_mask.pgm": "63fe8da39fa9985bf898a2331f565bd2179f1d7bf65aa841ead8c840f43653df",
    "aug00001_image.pgm": "3f6a645090aa72357cd1b82a99bfd150a972fa9a5c7aec68adab8bc6b14ef745",
    "aug00001_mask.pgm": "440f5e36700723193f1d2a1bcbc81c44b2092a7d0c536086202c76bd6eadc4fa",
    "aug00002_image.pgm": "be137d6a40ecafa314b7dc85e55bf9ccf248ffbca6b5a964185f23870eff3881",
    "aug00002_mask.pgm": "a5d9eab6d672497dfbe99e223432ef901d25a5101396685ae40abda7f11ed3ce",
    "aug00003_image.pgm": "0d0132f8be281554897d24fb6afd1eae2f8eea97277d3e28adab7dd1152eb9d9",
    "aug00003_mask.pgm": "a1126da60b5c5c35a6b6afcee97ee0795a6c4278b5dd6c2d46c171aea871ef03",
    "aug00004_image.pgm": "107ff4e46da115643824a45f7eadf1024667b7ea6ffc38086162e122c7965cb1",
    "aug00004_mask.pgm": "62a81264a61cb1081bbf0f5421e1efe673a15797d51c22059b26e2782d75f4d5",
    "aug00005_image.pgm": "44cf5aee032d560ef93752a97b6e2c6f39e0fc72a33f8db84e91136d78493278",
    "aug00005_mask.pgm": "2eadf437ba039a594f12236c9c30ee1ad237dbfcc17f31380098342c3c6e1557",
    "aug00000_image.png": "5e68b086bb171f845160651978eeda7b28e809f8060d24aa55b938ebb5b30eb7",
    "aug00000_mask.png": "b3a63bb3e2ef49c047e8287a7d99f5650c87f395582b95d1bb14582607412c0c",
    "aug00001_image.png": "77104f5a326f0b999923a147a42ce4d6add44bfc2e867554a64345c0fc7803bb",
    "aug00001_mask.png": "a1bdc72e8f5fbb0bf2cd62b0cf686457b7d0b496408b4ab70ffcd30e0830d4f1",
    "aug00002_image.png": "e70d12705777242dd4cc245544dfe82f98c3cd0bee5922faafb0762b4aa50790",
    "aug00002_mask.png": "5a6cf20b845009e1fc19afbdbb4a9bc2d56f561dec5c159a6c2a900b0b2525e2",
    "aug00003_image.png": "024d15a230c06d63e8a32af1e00aab10543859568449e9f0ac32b7a0f1187ba2",
    "aug00003_mask.png": "ebf5c31bb54ba3c09224f73562d58f8596ea580c18547ce4a46438139d1acff6",
    "aug00004_image.png": "597ef9cef89b5124c2e39001e40becc62eb0ee018b38f7b429fdab6d64d93df1",
    "aug00004_mask.png": "96c32c8ee6656b105dc110aed972a501b1a2f8fde4f53086e26905b4a17ddee7",
    "aug00005_image.png": "d425f682dcfb0282153f67e0ffb5f4877203e2a88e1c4b5577990f39d1e16bd6",
    "aug00005_mask.png": "d806078e2c49b48f5070a2f6715af3c297c39b8b4edd23921ea55a6a3b5d9b04",
}


@pytest.mark.parametrize("fmt", ["pgm", "png"])
def test_outputs_match_pinned_hashes(tmp_path, fmt):
    records = _seed_dataset(tmp_path, n=3, size=48, ext=fmt)
    augment_dataset(records, AugmentConfig(count=6, seed=5), tmp_path / "aug",
                    image_format=fmt)
    got = {}
    for path in sorted((tmp_path / "aug").iterdir()):
        data = path.read_bytes() if fmt == "pgm" else load_gray(path).tobytes()
        got[path.name] = hashlib.sha256(data).hexdigest()
    want = {k: v for k, v in PINNED_OUTPUTS.items() if k.endswith(fmt)}
    assert got.keys() == want.keys()
    moved = [name for name in want if got[name] != want[name]]
    assert not moved, f"outputs changed: {moved}"


class TestDefectiveSources:
    @pytest.mark.parametrize("first, code", [("undecodable", 2),
                                             ("shape mismatch", 3)])
    def test_source_first_used_by_output_index_sets_exit_code(
            self, tmp_path, first, code):
        # Sources 1 and 2 are defective and the outputs use source 2 first,
        # so its defect sets the exit code, as in output-index order, though
        # source 1 comes first in the manifest.
        records = _seed_dataset(tmp_path, n=3)
        second = "shape mismatch" if first == "undecodable" else "undecodable"
        defective = {first: records[2], second: records[1]}
        Path(defective["undecodable"].image).write_bytes(b"NOTANIMAGE")
        store_mask(np.zeros((5, 5), np.uint8), defective["shape mismatch"].gtmask)
        count = 6

        def first_use(seed):
            srcs = [sample_transform(AugmentConfig(count=count, seed=seed), k, 3)[0]
                    for k in range(count)]
            return [s for s in dict.fromkeys(srcs) if s != 0]

        seed = next(s for s in range(100) if first_use(s) == [2, 1])
        write_manifest(records, tmp_path / "in.tsv")
        assert main(["augment", "--manifest", str(tmp_path / "in.tsv"),
                     "--outdir", str(tmp_path / "aug"),
                     "--out-manifest", str(tmp_path / "out.tsv"),
                     "--count", str(count), "--seed", str(seed)]) == code
        assert not (tmp_path / "out.tsv").exists()

    def test_undecodable_first_source_leaves_no_outdir(self, tmp_path):
        # --outdir was created before the first source was decoded
        records = _seed_dataset(tmp_path, n=1)
        Path(records[0].image).write_bytes(b"NOTANIMAGE")
        write_manifest(records, tmp_path / "in.tsv")
        assert main(["augment", "--manifest", str(tmp_path / "in.tsv"),
                     "--outdir", str(tmp_path / "aug"),
                     "--out-manifest", str(tmp_path / "out.tsv"),
                     "--count", "3"]) == 2
        assert not (tmp_path / "aug").exists()
