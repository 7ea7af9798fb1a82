"""A seeded hostile-input corpus for the decoders.

Each valid file is truncated at every byte offset and has every byte
flipped twice: its top bit, and a nonzero mask drawn from a seeded RNG.
Every case must decode, or raise ``DecodeError`` or ``OSError``; the
CLI maps both to exit 2. Any other exception (``struct.error``,
``IndexError``, ``KeyError``, a ``ValueError`` that exits 1, ...) is a
defect.
"""

import random

import numpy as np
import pytest

from segens import ensemble, imageio
from segens.errors import DecodeError

SEED = 2024


def _mutants(data, seed=SEED):
    rng = random.Random(seed)
    for n in range(len(data)):
        yield f"truncated to {n} bytes", data[:n]
    for i in range(len(data)):
        for mask in (0x80, rng.randrange(1, 256)):
            flipped = bytearray(data)
            flipped[i] ^= mask
            yield f"byte {i} xor {mask:#04x}", bytes(flipped)


def _defects(path, load):
    """Write each mutant of ``path`` over it and load it; returns the
    cases that end in an exception other than DecodeError or OSError."""
    original = path.read_bytes()
    bad = []
    for case, data in _mutants(original):
        path.write_bytes(data)
        try:
            load(path)
        except (DecodeError, OSError):
            pass
        except Exception as exc:  # any other type is the defect
            bad.append(f"{case}: {type(exc).__name__}: {exc}")
    path.write_bytes(original)
    return bad


@pytest.fixture
def image():
    rng = np.random.default_rng(5)
    return rng.integers(0, 256, (6, 7), dtype=np.uint8)


@pytest.mark.parametrize("suffix", [".png", ".pgm"])
def test_image_corpus(tmp_path, image, suffix):
    path = tmp_path / f"image{suffix}"
    imageio.store_gray(image, path)
    assert _defects(path, imageio.load_gray) == []


def test_feature_stack_corpus(tmp_path):
    path = tmp_path / "stack.fst"
    stack = np.random.default_rng(6).random((2, 3, 4), dtype=np.float32)
    imageio.store_feature_stack(stack, path)
    assert _defects(path, imageio.load_feature_stack) == []


def test_model_header_corpus(tmp_path):
    # half of the flips set a byte's top bit, which makes the header
    # invalid UTF-8: that used to raise UnicodeDecodeError, a ValueError
    # that `stack predict` reported as invalid input (exit 1)
    path = tmp_path / "params.json"
    ensemble.save_metalearner(ensemble.build_metalearner(1, seed=0), path,
                              hyper=ensemble.HyperParams())
    assert _defects(path, ensemble.load_metalearner) == []
