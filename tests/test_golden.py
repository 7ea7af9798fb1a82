"""Golden outputs: every CLI workflow's files, hashed against
``tests/golden_outputs.json``.

Seeded 48x48 inputs are built in a temporary working directory and each
workflow runs through ``cli.main`` with relative paths, so the sidecar
JSON holds the same strings wherever the test runs. ``augment`` outputs
are pinned by ``test_augment.py::test_outputs_match_pinned_hashes``.

Rewriting the golden file is a change of test data, made only by a change
that means to move outputs. To rewrite it, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from segens import imageio
from segens.cli import main

GOLDEN = Path(__file__).with_name("golden_outputs.json")
SIZE = 48


def _versions():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _write_inputs(rng):
    """Five records of 48x48 masks, three probability maps and a
    3-channel feature stack each; 3 train, 1 validation, 1 test."""
    yy, xx = np.mgrid[:SIZE, :SIZE]
    records = []
    for i, split in enumerate(("train", "train", "train", "validation", "test")):
        cy, cx = rng.integers(12, SIZE - 12, 2)
        radius = rng.uniform(5, 10)
        gt = ((yy - cy) ** 2 + (xx - cx) ** 2 < radius ** 2).astype(np.uint8)
        imageio.store_mask(gt, f"gt{i}.pgm")
        preds = []
        for j in range(3):
            noisy = np.clip(gt + rng.normal(0, 0.3, gt.shape), 0, 1)
            preds.append(f"pred{i}_{j}.pgm")
            imageio.store_probmap(noisy.astype(np.float32), preds[-1])
        stack = np.stack([imageio.load_probmap(p) for p in preds])
        imageio.store_feature_stack(stack, f"stack{i}.fst")
        records.append(imageio.ManifestRecord(split, f"img{i}.png", f"gt{i}.pgm",
                                              tuple(preds), (f"stack{i}.fst",)))
    imageio.write_manifest(records, "m.tsv")
    return records


def _run(argv, stdout_name=None):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, f"{' '.join(argv)} exited {code}"
    if stdout_name is not None:
        Path(stdout_name).write_text(out.getvalue())


def golden_hashes():
    """Run every workflow in the current directory; sha256 of each output."""
    records = _write_inputs(np.random.default_rng(2022))
    inputs = set(os.listdir("."))
    preds = [r.preds[0] for r in records]
    gts = [r.gtmask for r in records]
    _run(["eval", "--pred", *preds, "--gt", *gts,
          "--report", "eval.json", "--curves", "curves.csv"])
    for method in ("and", "or", "max"):
        _run(["fuse", "--method", method, "--inputs", *records[0].preds,
              "--out", f"fuse_{method}.pgm"]
             + (["--out-prob", "fuse_max_prob.pgm"] if method == "max" else []))
    _run(["stack", "train", "--manifest", "m.tsv", "--params", "model/params.json",
          "--epochs", "3", "--batch-size", "2"])
    _run(["stack", "predict", "--manifest", "m.tsv",
          "--params", "model/params.json", "--outdir", "maps"])
    _run(["ci", "--dice", "0.8", "--n", "33"], "ci_wald.txt")
    _run(["ci", "--dice", "0.8", "--n", "33", "--method", "cp"], "ci_cp.txt")
    _run(["bu-preview", "--mask", gts[0], "--out", "soft.pgm", "--iterations", "2"])
    return {str(p): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(".").rglob("*"))
            if p.is_file() and p.parts[0] not in inputs}


def test_cli_outputs_match_golden_hashes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = golden_hashes()
    golden = json.loads(GOLDEN.read_text())
    want = golden["sha256"]
    moved = sorted(name for name in want.keys() | got.keys()
                   if want.get(name) != got.get(name))
    assert not moved, (f"outputs moved: {moved}; recorded with "
                       f"{golden['versions']}, run with {_versions()}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        hashes = golden_hashes()
    GOLDEN.write_text(json.dumps({"versions": _versions(), "sha256": hashes},
                                 indent=2) + "\n")
    print(f"wrote {len(hashes)} hashes to {GOLDEN}")
