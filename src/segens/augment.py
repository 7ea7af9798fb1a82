"""Offline affine augmentation of image/mask pairs.

Each generated sample applies, in order: an optional horizontal mirror,
a rotation about the image center, and a center zoom. Both go through
``imageio.sample``: the image bilinearly and the mask with
nearest-neighbor (so masks stay strictly binary). Samples falling
outside the source take value 0, so zoom factors below 1 pad the exposed
border with 0. Coordinates use half-pixel centers.

Generation is deterministic and order-independent: the RNG stream for
output k is derived from (seed, k), so the same seed always reproduces
the same augmented files byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path

import numpy as np

from .errors import ShapeMismatchError, check_int, check_range
from .imageio import (ManifestRecord, load_gray, load_mask, sample, store_gray,
                      store_mask)
from .metrics import require_2d


@dataclass(frozen=True)
class AugmentConfig:
    rotation_degrees: tuple = (5.0, 10.0)
    zoom_factors: tuple = (0.8, 1.4)
    mirror_probability: float = 0.5
    count: int = 2000
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.rotation_degrees
        check_range(lo, "rotation_degrees[0]", 0)
        check_range(hi, "rotation_degrees[1]", lo)
        zlo, zhi = self.zoom_factors
        check_range(zlo, "zoom_factors[0]", 0, lo_open=True)
        check_range(zhi, "zoom_factors[1]", zlo)
        check_range(self.mirror_probability, "mirror_probability", 0, 1)
        check_int(self.count, "count", 0)
        check_int(self.seed, "seed", 0)


def _check_pair(image, mask):
    img = require_2d(image, "image")
    msk = require_2d(mask, "mask")
    if img.shape != msk.shape:
        raise ShapeMismatchError(
            f"image shape {img.shape} != mask shape {msk.shape}")
    return img, msk


def mirror(image, mask):
    """Horizontal flip applied identically to both; exact involution."""
    img, msk = _check_pair(image, mask)
    return img[:, ::-1].copy(), msk[:, ::-1].copy()


def _resample_pair(image, mask, inv):
    """Apply the inverse map ``inv`` about the center: it takes the output
    pixel centers' offsets, a column and a row vector, to source offsets."""
    h, w = image.shape
    cy, cx = h / 2.0, w / 2.0
    sy, sx = inv((np.arange(h) + 0.5 - cy)[:, None],
                 (np.arange(w) + 0.5 - cx)[None, :])
    sy, sx = sy + cy, sx + cx
    return (sample(image, sy, sx, "bilinear"),
            sample(mask, sy, sx, "nearest"))


def rotate(image, mask, angle_degrees):
    """Rotate both arrays about the image center by the same angle."""
    img, msk = _check_pair(image, mask)
    a = math.radians(check_range(angle_degrees, "angle_degrees"))
    c, s = math.cos(a), math.sin(a)
    return _resample_pair(img, msk, lambda y, x: (c * y - s * x, s * y + c * x))


def zoom(image, mask, factor):
    """Scale about the center: factor > 1 magnifies (crops), factor < 1
    shrinks the content into the middle and zero-pads the border."""
    img, msk = _check_pair(image, mask)
    inv = 1.0 / check_range(factor, "factor", 0, lo_open=True)
    # bounds every source offset; a Python float overflows with no warning
    check_range(inv * max(img.shape), "1/factor times the image size")
    return _resample_pair(img, msk, lambda y, x: (inv * y, inv * x))


def sample_transform(config, index, source_count):
    """Draw the transform chain for output ``index`` from its own RNG
    stream (seed, index). Returns (source_idx, mirrored, angle, factor)."""
    rng = np.random.default_rng((config.seed, index))
    src = int(rng.integers(source_count))
    mirrored = bool(rng.random() < config.mirror_probability)
    angle = float(rng.uniform(*config.rotation_degrees))
    if rng.random() < 0.5:
        angle = -angle
    factor = float(rng.uniform(*config.zoom_factors))
    return src, mirrored, angle, factor


def augment_dataset(records, config, output_dir, image_format="pgm"):
    """Generate ``config.count`` augmented pairs from the train split.

    Writes image/mask files under ``output_dir`` and returns the input
    records plus one new train record per generated pair, in output
    order. Each source pair is decoded once. ``output_dir`` is created at
    the first write, so a run that fails before it, or writes nothing,
    leaves no directory.
    """
    if image_format not in ("pgm", "png"):
        raise ValueError(f"image_format must be 'pgm' or 'png', got {image_format}")
    records = list(records)
    train = [r for r in records if r.split == "train"]
    if not train:
        raise ValueError("manifest has no train records to augment")
    out_dir = Path(output_dir)
    ext = "." + image_format
    draws = [sample_transform(config, k, len(train)) for k in range(config.count)]
    # Group the outputs by source, groups in order of first use, so the
    # defective source met first is the one output-index order meets first.
    rank = {src: i for i, src in enumerate(dict.fromkeys(d[0] for d in draws))}
    order = sorted(range(config.count), key=lambda k: rank[draws[k][0]])
    added = [None] * config.count
    for src_idx, group in groupby(order, key=lambda k: draws[k][0]):
        rec = train[src_idx]
        src_img = load_gray(rec.image)
        src_msk = load_mask(rec.gtmask)
        if src_img.shape != src_msk.shape:
            raise ShapeMismatchError(f"{rec.image}: image shape {src_img.shape} "
                                     f"!= mask shape {src_msk.shape}")
        for k in group:
            _, mirrored, angle, factor = draws[k]
            img, msk = (mirror(src_img, src_msk) if mirrored
                        else (src_img, src_msk))
            img, msk = rotate(img, msk, angle)
            img, msk = zoom(img, msk, factor)
            img_path = out_dir / f"aug{k:05d}_image{ext}"
            msk_path = out_dir / f"aug{k:05d}_mask{ext}"
            out_dir.mkdir(parents=True, exist_ok=True)
            store_gray(img, img_path)
            store_mask(msk, msk_path)
            added[k] = ManifestRecord(split="train", image=str(img_path),
                                      gtmask=str(msk_path))
    return records + added
