"""End-to-end CLI runs against library-level oracles, plus the exit-code
contract."""

import argparse
import ast
import inspect
import json
import math
import os
import re
import subprocess
import sys
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from segens import augment, cli, ensemble, imageio, metrics, stats
from segens.cli import _build_parser, main
from segens.errors import NumericError
from segens.losses import TverskyConfig
from segens.morpho import BoundaryUncertaintyConfig


@pytest.fixture
def rng():
    return np.random.default_rng(80)


def make_eval_fixture(tmp_path, rng, n=5, size=16):
    pred_paths, gt_paths = [], []
    for i in range(n):
        gt = (rng.random((size, size)) > 0.6).astype(np.uint8)
        pred = np.clip(gt + rng.normal(0, 0.35, gt.shape), 0, 1).astype(np.float32)
        gp = tmp_path / f"gt{i}.pgm"
        pp = tmp_path / f"pred{i}.pgm"
        imageio.store_mask(gt, gp)
        imageio.store_probmap(pred, pp)
        gt_paths.append(str(gp))
        pred_paths.append(str(pp))
    return pred_paths, gt_paths


class TestEval:
    def test_perfect_prediction_reports_dice_one(self, tmp_path, rng):
        gt = (rng.random((8, 8)) > 0.5).astype(np.uint8)
        gp, pp = tmp_path / "gt.pgm", tmp_path / "pred.pgm"
        imageio.store_mask(gt, gp)
        imageio.store_probmap(gt.astype(np.float32), pp)
        report = tmp_path / "report.json"
        code = main(["eval", "--pred", str(pp), str(pp), "--gt", str(gp), str(gp),
                     "--report", str(report)])
        assert code == 0
        data = json.loads(report.read_text())
        assert data["dice"] == 1.0

    def test_report_keys_and_curves(self, tmp_path, rng):
        preds, gts = make_eval_fixture(tmp_path, rng)
        report = tmp_path / "r.json"
        curves = tmp_path / "c.csv"
        code = main(["eval", "--pred", *preds, "--gt", *gts,
                     "--report", str(report), "--curves", str(curves)])
        assert code == 0
        data = json.loads(report.read_text())
        for key in ("iou", "dice", "precision", "recall", "map11", "auroc", "ci"):
            assert key in data
        assert curves.read_text().startswith("threshold,precision,recall,tpr,fpr")

    def test_matches_in_process_oracle(self, tmp_path, rng):
        preds, gts = make_eval_fixture(tmp_path, rng)
        report = tmp_path / "r.json"
        assert main(["eval", "--pred", *preds, "--gt", *gts,
                     "--report", str(report)]) == 0
        data = json.loads(report.read_text())
        want, _ = metrics.evaluate_pairs(
            [imageio.load_probmap(p) for p in preds],
            [imageio.load_mask(g) for g in gts])
        assert data["iou"] == want.iou
        assert data["dice"] == want.dice
        assert data["map11"] == want.map11
        assert data["auroc"] == want.auroc

    def test_manifest_input(self, tmp_path, rng):
        preds, gts = make_eval_fixture(tmp_path, rng, n=3)
        records = [imageio.ManifestRecord("test", "", g, (p,))
                   for p, g in zip(preds, gts)]
        mpath = tmp_path / "m.tsv"
        imageio.write_manifest(records, mpath)
        report = tmp_path / "r.json"
        assert main(["eval", "--manifest", str(mpath),
                     "--report", str(report)]) == 0
        assert json.loads(report.read_text())["image_count"] == 3

    def test_manifest_split_without_records_exits_one(self, tmp_path, capsys):
        # the one record is in another split, and its files do not exist:
        # reading either would exit 2
        mpath = tmp_path / "m.tsv"
        imageio.write_manifest([imageio.ManifestRecord(
            "train", "", str(tmp_path / "gt.pgm"), (str(tmp_path / "p.pgm"),))],
            mpath)
        report = tmp_path / "r.json"
        assert main(["eval", "--manifest", str(mpath),
                     "--report", str(report)]) == 1
        assert capsys.readouterr().err == (
            "segens: invalid input: need at least one prediction/ground-truth pair\n")
        assert not report.exists()


class TestFuse:
    def test_and_of_identical_inputs(self, tmp_path, rng):
        mask = (rng.random((8, 8)) > 0.5).astype(np.uint8)
        a_path = tmp_path / "a.pgm"
        imageio.store_mask(mask, a_path)
        out = tmp_path / "fused.pgm"
        assert main(["fuse", "--method", "and", "--inputs", str(a_path), str(a_path),
                     "--out", str(out)]) == 0
        assert np.array_equal(imageio.load_mask(out), mask)
        sidecar = json.loads((tmp_path / "fused.pgm.json").read_text())
        assert sidecar["method"] == "and"

    def test_or_of_complementary_inputs(self, tmp_path):
        a = np.zeros((6, 6), np.uint8)
        a[:3] = 1
        b = 1 - a
        pa, pb = tmp_path / "a.pgm", tmp_path / "b.pgm"
        imageio.store_mask(a, pa)
        imageio.store_mask(b, pb)
        out = tmp_path / "or.pgm"
        assert main(["fuse", "--method", "or", "--inputs", str(pa), str(pb),
                     "--out", str(out)]) == 0
        assert imageio.load_mask(out).all()

    def test_max_matches_library_bytes(self, tmp_path, rng):
        maps = [rng.random((8, 8)).astype(np.float32) for _ in range(3)]
        paths = []
        for i, m in enumerate(maps):
            p = tmp_path / f"p{i}.pgm"
            imageio.store_probmap(m, p)
            paths.append(str(p))
        out = tmp_path / "max.pgm"
        out_prob = tmp_path / "max_prob.pgm"
        assert main(["fuse", "--method", "max", "--inputs", *paths,
                     "--out", str(out), "--out-prob", str(out_prob)]) == 0
        loaded = [imageio.load_probmap(p) for p in paths]
        fused, mask = ensemble.fuse_max(loaded)
        want_prob = tmp_path / "want_prob.pgm"
        want_mask = tmp_path / "want_mask.pgm"
        imageio.store_probmap(fused, want_prob)
        imageio.store_mask(mask, want_mask)
        assert out_prob.read_bytes() == want_prob.read_bytes()
        assert out.read_bytes() == want_mask.read_bytes()

    @pytest.mark.parametrize("method", ["and", "or", "max"])
    def test_single_input_exits_one(self, tmp_path, rng, method):
        p = tmp_path / "p.pgm"
        imageio.store_probmap(rng.random((4, 4)), p)
        out = tmp_path / "fused.pgm"
        assert main(["fuse", "--method", method, "--inputs", str(p),
                     "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("threshold", ["1.5", "nan"])
    @pytest.mark.parametrize("method", ["and", "or", "max"])
    def test_threshold_outside_unit_interval_exits_one(self, tmp_path, rng,
                                                       method, threshold):
        p = tmp_path / "p.pgm"
        imageio.store_probmap(rng.random((4, 4)), p)
        out = tmp_path / "fused.pgm"
        assert main(["fuse", "--method", method, "--inputs", str(p), str(p),
                     "--threshold", threshold, "--out", str(out)]) == 1
        assert not out.exists()

    def test_empty_out_prob_is_not_skipped(self, tmp_path, rng):
        # an empty --out-prob was taken as absent: exit 0 and no map
        p = tmp_path / "p.pgm"
        imageio.store_probmap(rng.random((4, 4)), p)
        out = tmp_path / "fused.pgm"
        assert main(["fuse", "--method", "max", "--inputs", str(p), str(p),
                     "--out", str(out), "--out-prob", ""]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("method", ["and", "or"])
    def test_out_prob_without_max_exits_one_before_reading(self, tmp_path,
                                                           capsys, method):
        # it exited 0 and wrote no probability map; missing inputs would
        # exit 2, so the usage error is found before any input is read
        out = tmp_path / "out"
        out.mkdir()
        assert main(["fuse", "--method", method,
                     "--inputs", str(tmp_path / "missing1.pgm"),
                     str(tmp_path / "missing2.pgm"), "--out", str(out / "f.pgm"),
                     "--out-prob", str(out / "p.pgm")]) == 1
        assert "--out-prob needs --method max" in capsys.readouterr().err
        assert not any(out.iterdir())


def make_stack_manifest(tmp_path, rng, n_train=4, n_val=1, size=12):
    records = []
    for i in range(n_train + n_val):
        split = "train" if i < n_train else "validation"
        gt = np.zeros((size, size), np.uint8)
        cy, cx = rng.integers(3, size - 3, 2)
        gt[cy - 2:cy + 2, cx - 2:cx + 2] = 1
        stack = np.stack([gt.astype(np.float32),
                          np.clip(gt + rng.normal(0, 0.2, gt.shape),
                                  0, 1).astype(np.float32)])
        gp = tmp_path / f"gt{i}.pgm"
        sp = tmp_path / f"stack{i}.fst"
        imageio.store_mask(gt, gp)
        imageio.store_feature_stack(stack, sp)
        records.append(imageio.ManifestRecord(split, f"img{i}.pgm", str(gp),
                                              (), (str(sp),)))
    mpath = tmp_path / "m.tsv"
    imageio.write_manifest(records, mpath)
    return mpath


class TestStack:
    def test_zero_epochs_keeps_initialization(self, tmp_path, rng):
        mpath = make_stack_manifest(tmp_path, rng)
        params_path = tmp_path / "params.json"
        assert main(["stack", "train", "--manifest", str(mpath),
                     "--params", str(params_path), "--epochs", "0",
                     "--seed", "3"]) == 0
        trained = ensemble.load_metalearner(params_path)
        init = ensemble.build_metalearner(2, seed=3)
        for ka, kb in zip(trained.layers, init.layers):
            assert np.array_equal(ka.weights, kb.weights)
        run = json.loads((tmp_path / "params.json.run.json").read_text())
        assert run["train_loss"] == []
        assert run["input_mode"] == "feature-stacks"

    def test_train_then_predict(self, tmp_path, rng):
        mpath = make_stack_manifest(tmp_path, rng)
        params_path = tmp_path / "params.json"
        assert main(["stack", "train", "--manifest", str(mpath),
                     "--params", str(params_path), "--epochs", "3",
                     "--batch-size", "2", "--seed", "0"]) == 0
        outdir = tmp_path / "preds"
        assert main(["stack", "predict", "--manifest", str(mpath),
                     "--params", str(params_path), "--outdir", str(outdir)]) == 0
        outputs = sorted(outdir.glob("*.pgm"))
        assert len(outputs) == 5  # one probmap per manifest record
        for p in outputs:
            arr = imageio.load_probmap(p)
            assert arr.shape == (12, 12)

    def test_colliding_map_names_exit_one_and_write_nothing(self, tmp_path,
                                                             rng, capsys):
        mpath = make_stack_manifest(tmp_path, rng)
        params_path = tmp_path / "params.json"
        assert main(["stack", "train", "--manifest", str(mpath),
                     "--params", str(params_path), "--epochs", "0"]) == 0
        # a/img.png and b/img.png would both be named img_stack.pgm
        records = [replace(r, image=f"{d}/img.png") for d, r in
                   zip("ab", imageio.read_manifest(mpath))]
        imageio.write_manifest(records, mpath)
        outdir = tmp_path / "preds"
        capsys.readouterr()
        assert main(["stack", "predict", "--manifest", str(mpath),
                     "--params", str(params_path), "--outdir", str(outdir)]) == 1
        err = capsys.readouterr().err
        assert "a/img.png" in err and "b/img.png" in err
        assert not list(outdir.glob("*.pgm"))

    def test_same_command_twice_identical_params(self, tmp_path, rng):
        mpath = make_stack_manifest(tmp_path, rng)
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        for out in (out_a, out_b):
            assert main(["stack", "train", "--manifest", str(mpath),
                         "--params", str(out), "--epochs", "2",
                         "--batch-size", "2", "--seed", "1"]) == 0
        layers = json.loads(out_a.read_text())["layers"]
        for i in range(len(layers)):
            wa = (tmp_path / f"a.json.layer{i}.weights.fst").read_bytes()
            wb = (tmp_path / f"b.json.layer{i}.weights.fst").read_bytes()
            assert wa == wb

    def test_probmap_channels_mode(self, tmp_path, rng):
        # no feature stacks: constituent probmaps serve as channels
        records = []
        for i in range(3):
            gt = (rng.random((8, 8)) > 0.6).astype(np.uint8)
            gp = tmp_path / f"g{i}.pgm"
            imageio.store_mask(gt, gp)
            pred_paths = []
            for j in range(2):
                pp = tmp_path / f"p{i}_{j}.pgm"
                imageio.store_probmap(
                    np.clip(gt + rng.normal(0, 0.2, gt.shape), 0, 1)
                    .astype(np.float32), pp)
                pred_paths.append(str(pp))
            records.append(imageio.ManifestRecord("train", "", str(gp),
                                                  tuple(pred_paths)))
        mpath = tmp_path / "m.tsv"
        imageio.write_manifest(records, mpath)
        params_path = tmp_path / "params.json"
        assert main(["stack", "train", "--manifest", str(mpath),
                     "--params", str(params_path), "--epochs", "1"]) == 0
        run = json.loads((tmp_path / "params.json.run.json").read_text())
        assert run["input_mode"] == "probmap-channels"
        assert run["input_channels"] == 2


class TestAugmentCommand:
    def _manifest(self, tmp_path, rng, size=10):
        records = []
        for i in range(2):
            img = rng.integers(0, 256, (size, size), dtype=np.uint8)
            mask = (rng.random((size, size)) > 0.5).astype(np.uint8)
            ip, mp = tmp_path / f"i{i}.pgm", tmp_path / f"m{i}.pgm"
            imageio.store_gray(img, ip)
            imageio.store_mask(mask, mp)
            records.append(imageio.ManifestRecord("train", str(ip), str(mp)))
        path = tmp_path / "in.tsv"
        imageio.write_manifest(records, path)
        return path

    def test_count_zero_copies_manifest(self, tmp_path, rng):
        mpath = self._manifest(tmp_path, rng)
        out = tmp_path / "out.tsv"
        assert main(["augment", "--manifest", str(mpath),
                     "--outdir", str(tmp_path / "aug"),
                     "--out-manifest", str(out), "--count", "0"]) == 0
        assert imageio.read_manifest(out) == imageio.read_manifest(mpath)
        assert not (tmp_path / "aug").exists()

    def test_count_grows_train_split(self, tmp_path, rng):
        mpath = self._manifest(tmp_path, rng)
        out = tmp_path / "out.tsv"
        assert main(["augment", "--manifest", str(mpath),
                     "--outdir", str(tmp_path / "aug"),
                     "--out-manifest", str(out), "--count", "12",
                     "--seed", "5"]) == 0
        records = imageio.read_manifest(out)
        assert sum(r.split == "train" for r in records) == 2 + 12

    def test_zoom_factor_with_overflowing_inverse_exits_one(self, tmp_path, rng):
        mpath = self._manifest(tmp_path, rng)
        assert main(["augment", "--manifest", str(mpath),
                     "--outdir", str(tmp_path / "aug"),
                     "--out-manifest", str(tmp_path / "out.tsv"), "--count", "1",
                     "--zoom-min", "1e-320", "--zoom-max", "1e-320"]) == 1

    def test_zoom_factor_with_overflowing_coordinates_exits_one(self, tmp_path,
                                                                 rng):
        # 1e307 times a 64-pixel image's offsets overflows: numpy warned;
        # then an empty --outdir was left behind
        mpath = self._manifest(tmp_path, rng, size=64)
        assert main(["augment", "--manifest", str(mpath),
                     "--outdir", str(tmp_path / "aug"),
                     "--out-manifest", str(tmp_path / "out.tsv"), "--count", "1",
                     "--zoom-min", "1e-307", "--zoom-max", "1e-307"]) == 1
        assert not (tmp_path / "aug").exists()

    @pytest.mark.parametrize("field, what", [("image", "image"),
                                             ("gtmask", "ground-truth mask")])
    def test_source_without_a_path_is_one(self, tmp_path, rng, capsys, field,
                                          what):
        # an empty field read "." and exited 2 ("Is a directory"); the
        # other source's missing mask shows nothing was read
        mpath = self._manifest(tmp_path, rng)
        records = imageio.read_manifest(mpath)
        Path(records[0].gtmask).unlink()
        imageio.write_manifest([records[0], replace(records[1], **{field: ""})],
                               mpath)
        name = records[1].gtmask if field == "image" else records[1].image
        assert main(["augment", "--manifest", str(mpath),
                     "--outdir", str(tmp_path / "aug"),
                     "--out-manifest", str(tmp_path / "out.tsv"),
                     "--count", "12"]) == 1
        assert (f"record {name!r} in split 'train' has no {what} path"
                in capsys.readouterr().err)
        assert not (tmp_path / "aug").exists()

    def test_same_seed_identical_trees(self, tmp_path, rng):
        mpath = self._manifest(tmp_path, rng)
        for tag in ("x", "y"):
            assert main(["augment", "--manifest", str(mpath),
                         "--outdir", str(tmp_path / tag),
                         "--out-manifest", str(tmp_path / f"{tag}.tsv"),
                         "--count", "6", "--seed", "7"]) == 0
        for fx in sorted((tmp_path / "x").iterdir()):
            fy = tmp_path / "y" / fx.name
            assert fx.read_bytes() == fy.read_bytes()


_DELETE = object()


class TestModelHeader:
    """A malformed "stack-metalearner-v1" header, or one that disagrees
    with its tensor files, makes ``stack predict`` exit 2."""

    @pytest.mark.parametrize("keys, value", [
        ((), [{"format": "stack-metalearner-v1"}]),
        (("layers",), _DELETE),
        (("layers",), {"0": {}}),
        (("layers", 3), "layer"),
        (("layers", 2, "bias_file"), _DELETE),
        (("layers", 4), _DELETE),
        (("layers", 0, "out_channels"), 0),
        (("layers", 4, "kernel_h"), "1"),
        (("layers", 2, "kernel_w"), True),
        (("layers", 0, "in_channels"), 3),  # its weights file holds 2
        (("layers", 1, "bias_file"), "params.json.layer0.bias.fst"),
        (("layers", 0, "weights_file"), 7),
        (("layers", 0, "weights_file"), "../outside.fst"),
        (("layers", 0, "weights_file"), "params.json.layer0.weights.fst\0"),
        (("layers", 3, "bias_file"), "\0params.json.layer3.bias.fst"),
        (("seed",), "x"),
        (("seed",), 1.5),
    ], ids=["list", "no-layers", "layers-not-list", "layer-not-object",
            "missing-key", "layer-count", "zero-dim", "string-dim", "bool-dim",
            "in-channels", "bias-shape", "file-not-string", "escape",
            "nul-weights-file", "nul-bias-file", "string-seed", "float-seed"])
    def test_malformed_header_exits_two(self, tmp_path, rng, keys, value):
        mpath = make_stack_manifest(tmp_path, rng, n_train=1, n_val=0)
        model = tmp_path / "model" / "params.json"
        ensemble.save_metalearner(ensemble.build_metalearner(2, seed=0), model)
        # a valid tensor file outside the model's directory, which the
        # header must not be able to reach
        (tmp_path / "outside.fst").write_bytes(
            (model.parent / "params.json.layer0.weights.fst").read_bytes())
        meta = json.loads(model.read_text())
        if not keys:
            meta = value
        else:
            parent = meta
            for key in keys[:-1]:
                parent = parent[key]
            if value is _DELETE:
                del parent[keys[-1]]
            else:
                parent[keys[-1]] = value
        model.write_text(json.dumps(meta))
        assert main(["stack", "predict", "--manifest", str(mpath),
                     "--params", str(model),
                     "--outdir", str(tmp_path / "preds")]) == 2
        assert not (tmp_path / "preds").exists()


    def test_header_without_seed_loads_as_zero(self, tmp_path, rng):
        mpath = make_stack_manifest(tmp_path, rng, n_train=1, n_val=0)
        model = tmp_path / "model" / "params.json"
        ensemble.save_metalearner(ensemble.build_metalearner(2, seed=4), model)
        meta = json.loads(model.read_text())
        del meta["seed"]
        model.write_text(json.dumps(meta))
        assert ensemble.load_metalearner(model).seed == 0
        assert main(["stack", "predict", "--manifest", str(mpath),
                     "--params", str(model),
                     "--outdir", str(tmp_path / "preds")]) == 0

    def test_non_utf8_header_exits_two(self, tmp_path, rng):
        # UnicodeDecodeError is a ValueError, which used to exit 1
        mpath = make_stack_manifest(tmp_path, rng, n_train=1, n_val=0)
        model = tmp_path / "model" / "params.json"
        ensemble.save_metalearner(ensemble.build_metalearner(2, seed=0), model)
        model.write_bytes(b"\xff" + model.read_bytes()[1:])
        assert main(["stack", "predict", "--manifest", str(mpath),
                     "--params", str(model),
                     "--outdir", str(tmp_path / "preds")]) == 2
        assert not (tmp_path / "preds").exists()

    def test_other_architecture_exits_two(self, tmp_path, rng):
        # layer 4's header and files agree on 2 filters, but the network
        # has one: a malformed model file, not a shape mismatch of data
        mpath = make_stack_manifest(tmp_path, rng, n_train=1, n_val=0)
        model = tmp_path / "model" / "params.json"
        ensemble.save_metalearner(ensemble.build_metalearner(2, seed=0), model)
        meta = json.loads(model.read_text())
        spec = meta["layers"][4]
        spec["out_channels"] = 2
        imageio.store_feature_stack(np.ones((2, 32, 1), np.float32),
                                    model.parent / spec["weights_file"])
        imageio.store_feature_stack(np.zeros((2, 1, 1), np.float32),
                                    model.parent / spec["bias_file"])
        model.write_text(json.dumps(meta))
        assert main(["stack", "predict", "--manifest", str(mpath),
                     "--params", str(model),
                     "--outdir", str(tmp_path / "preds")]) == 2
        assert not (tmp_path / "preds").exists()

    def test_other_kernel_size_exits_two(self, tmp_path, rng, capsys):
        # layer 0's header and weights agree on a 5x5 kernel; the network's is 3x3
        mpath = make_stack_manifest(tmp_path, rng, n_train=1, n_val=0)
        model = tmp_path / "model" / "params.json"
        ensemble.save_metalearner(ensemble.build_metalearner(2, seed=0), model)
        meta = json.loads(model.read_text())
        spec = meta["layers"][0]
        spec["kernel_h"] = spec["kernel_w"] = 5
        imageio.store_feature_stack(np.ones((256, 2 * 5, 5), np.float32),
                                    model.parent / spec["weights_file"])
        model.write_text(json.dumps(meta))
        assert main(["stack", "predict", "--manifest", str(mpath),
                     "--params", str(model),
                     "--outdir", str(tmp_path / "preds")]) == 2
        assert ("not the meta-learner's architecture: layer 0 kernel must be 3x3, "
                "got (5, 5)") in capsys.readouterr().err
        assert not (tmp_path / "preds").exists()

    @pytest.mark.parametrize("failing", range(11))
    def test_failed_save_never_loads_a_mix(self, tmp_path, rng, monkeypatch,
                                           failing):
        # write ``failing`` of a save over model A fails: one of the ten
        # tensor files, or (10) the header. A's header used to stay, and
        # load B's first layers with A's last ones.
        mpath = make_stack_manifest(tmp_path, rng, n_train=1, n_val=0)
        model = tmp_path / "model" / "params.json"
        ensemble.save_metalearner(ensemble.build_metalearner(2, seed=0), model)
        stored = []

        def store(arr, path):
            if len(stored) == failing:
                raise OSError("no space left on device")
            stored.append(path)
            imageio.store_feature_stack(arr, path)

        def write_text(path, text):
            raise OSError("no space left on device")

        with monkeypatch.context() as m:
            m.setattr(ensemble, "store_feature_stack", store)
            m.setattr(Path, "write_text", write_text)
            with pytest.raises(OSError):
                ensemble.save_metalearner(ensemble.build_metalearner(2, seed=1),
                                          model)
        assert len(stored) == failing
        with pytest.raises(OSError):
            ensemble.load_metalearner(model)
        assert main(["stack", "predict", "--manifest", str(mpath),
                     "--params", str(model),
                     "--outdir", str(tmp_path / "preds")]) == 2
        assert not (tmp_path / "preds").exists()


class TestCi:
    def test_wald_reported_value(self, capsys):
        assert main(["ci", "--dice", "0.5608", "--n", "33"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["lower"] - 0.3914) < 1.5e-4
        assert abs(out["upper"] - 0.7302) < 1.5e-4

    def test_wald_zero_dice(self, capsys):
        assert main(["ci", "--dice", "0", "--n", "33"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["lower"] == 0.0 and out["upper"] == 0.0

    def test_clopper_pearson_method(self, capsys):
        assert main(["ci", "--dice", "0.5", "--n", "10",
                     "--method", "cp"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["method"] == "clopper-pearson"
        assert out["lower"] < 0.5 < out["upper"]

    def test_invalid_numeric_input_exits_one(self):
        assert main(["ci", "--dice", "1.5", "--n", "33"]) == 1

    def test_module_runs_as_a_script(self, capsys):
        # README's no-install route: the module must run the command when
        # run with -m, not only import
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        ok, bad = (subprocess.run(
            [sys.executable, "-m", "segens.cli", "ci", "--dice", dice, "--n", "33"],
            env=env, capture_output=True, text=True, timeout=120)
            for dice in ("0.5", "2"))
        assert main(["ci", "--dice", "0.5", "--n", "33"]) == 0
        assert (ok.returncode, ok.stdout) == (0, capsys.readouterr().out)
        interval = json.loads(ok.stdout)
        assert interval["lower"] < interval["estimate"] < interval["upper"]
        assert (bad.returncode, bad.stdout, bad.stderr) == (
            1, "", "segens: invalid input: proportion must be in [0, 1], got 2.0\n")

    @pytest.mark.parametrize("method", ["wald", "cp"])
    @pytest.mark.parametrize("dice", ["1.5", "-0.1", "nan"])
    def test_dice_checked_as_the_proportion(self, capsys, method, dice):
        # cp named dice * n, a value never typed: "successes must be in
        # [0, 33], got 49.5"
        assert main(["ci", "--dice", dice, "--n", "33", "--method", method]) == 1
        assert (f"proportion must be in [0, 1], got {float(dice)}\n"
                == capsys.readouterr().err.removeprefix("segens: invalid input: "))

    @pytest.mark.parametrize("method", ["wald", "cp"])
    def test_n_past_float_range_exits_one(self, capsys, method):
        # a 401-digit count overflowed on its conversion to float
        assert main(["ci", "--dice", "0.5", "--n", str(10**400),
                     "--method", method]) == 1
        assert "n must be in [1, " in capsys.readouterr().err

    def test_clopper_pearson_endpoint_below_the_subnormals(self, capsys):
        # the lower endpoint came out 4.44e-16, above the estimate, and the
        # command exited 1 with "interval out of order"
        assert main(["ci", "--dice", "1e-17", "--n", "33", "--method", "cp"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["lower"] == 0.0 < out["estimate"] < out["upper"]

    def test_clopper_pearson_tiny_lower_endpoint(self, capsys):
        # I_x(a, b) ~ x^a / (a B(a, b)) for small x gives 4.88e-51; it came
        # out 4.44e-16
        assert main(["ci", "--dice", "0.001", "--n", "33", "--method", "cp"]) == 0
        a = 0.001 * 33
        b = 33 - a + 1
        beta = math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
        want = (0.025 * a * beta) ** (1 / a)
        lower = json.loads(capsys.readouterr().out)["lower"]
        assert lower == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("exp", [15, 16, 20, 308])
    def test_clopper_pearson_past_its_trial_limit_exits_one(self, capsys,
                                                           exp):
        # 1e16 trials gave an inverted interval and 1e20 an OverflowError
        # traceback from math.exp; past 1e8 the interval is not exact
        assert main(["ci", "--dice", "0.3", "--n", str(10**exp),
                     "--method", "cp"]) == 1
        assert (f"n must be in [1, 100000000.0], got {10**exp}"
                in capsys.readouterr().err)


class TestBuPreview:
    def test_degenerate_labels_reproduce_input(self, tmp_path, rng):
        mask = (rng.random((9, 9)) > 0.5).astype(np.uint8)
        ip = tmp_path / "mask.pgm"
        imageio.store_mask(mask, ip)
        out = tmp_path / "soft.pgm"
        assert main(["bu-preview", "--mask", str(ip), "--out", str(out),
                     "--zeta", "1.0", "--omega", "0.0"]) == 0
        assert out.read_bytes() == ip.read_bytes()

    def test_default_labels_quantize_to_expected_bytes(self, tmp_path):
        mask = np.zeros((7, 7), np.uint8)
        mask[2:5, 2:5] = 1
        ip = tmp_path / "m.pgm"
        imageio.store_mask(mask, ip)
        out = tmp_path / "s.pgm"
        assert main(["bu-preview", "--mask", str(ip), "--out", str(out)]) == 0
        soft = imageio.load_gray(out)
        assert soft[3, 3] == 255             # core
        # 0.9 * 255 = 229.5 sits on the rounding boundary; the float32
        # label (0.89999997...) lands just below it
        assert soft[2, 2] == 229
        assert soft[1, 1] == 26              # round(0.1 * 255)
        assert soft[0, 0] == 0


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert main(["fuse", "--method", "bogus", "--inputs", "a", "b",
                     "--out", "c"]) == 1
        assert main(["no-such-command"]) == 1

    def test_missing_file_is_two(self, tmp_path):
        assert main(["eval", "--pred", str(tmp_path / "absent.pgm"),
                     "--gt", str(tmp_path / "also-absent.pgm")]) == 2

    def test_decode_error_is_two(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"NOTANIMAGE")
        assert main(["eval", "--pred", str(bad), "--gt", str(bad)]) == 2

    def test_short_png_ihdr_is_two(self, tmp_path):
        bad = tmp_path / "short.png"
        ihdr = b"IHDR" + bytes(6)
        bad.write_bytes(b"\x89PNG\r\n\x1a\n" + (6).to_bytes(4, "big") + ihdr
                        + zlib.crc32(ihdr).to_bytes(4, "big"))
        assert main(["eval", "--pred", str(bad), "--gt", str(bad)]) == 2

    def test_zero_width_png_is_two(self, tmp_path):
        # a 0x3 raster with its three filter bytes, complete and CRC-valid
        chunks = [b"IHDR" + bytes(4) + (3).to_bytes(4, "big") + bytes([8, 0, 0, 0, 0]),
                  b"IDAT" + zlib.compress(bytes(3)), b"IEND"]
        bad = tmp_path / "empty.png"
        bad.write_bytes(b"\x89PNG\r\n\x1a\n" + b"".join(
            (len(c) - 4).to_bytes(4, "big") + c + zlib.crc32(c).to_bytes(4, "big")
            for c in chunks))
        assert main(["eval", "--pred", str(bad), "--gt", str(bad)]) == 2

    @pytest.mark.parametrize("defect, code", [("out of range", 1),
                                              ("shape mismatch", 3)])
    def test_first_defective_pair_sets_the_exit_code(self, tmp_path, rng,
                                                     monkeypatch, defect, code):
        # pair 0 is defective and pair 1's prediction does not decode; pairs
        # load one at a time, so pair 0's error is the one reported
        preds, gts = make_eval_fixture(tmp_path, rng, n=2)
        (tmp_path / "pred1.pgm").write_bytes(b"NOTANIMAGE")
        if defect == "shape mismatch":
            imageio.store_mask(np.zeros((3, 3), np.uint8), gts[0])
        else:
            load = imageio.load_probmap
            monkeypatch.setattr(imageio, "load_probmap", lambda path: (
                np.full((16, 16), 1.7) if path == preds[0] else load(path)))
        assert main(["eval", "--pred", *preds, "--gt", *gts]) == code

    @pytest.mark.parametrize("method", ["and", "or", "max"])
    def test_fuse_checks_threshold_before_reading(self, tmp_path, capsys,
                                                  method):
        # missing inputs would exit 2; the bad threshold is found first
        out = tmp_path / "out"
        out.mkdir()
        assert main(["fuse", "--method", method, "--threshold=nan",
                     "--inputs", str(tmp_path / "missing1.pgm"),
                     str(tmp_path / "missing2.pgm"),
                     "--out", str(out / "f.pgm")]) == 1
        assert "threshold must be in [0, 1]" in capsys.readouterr().err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("command", ["eval", "stack predict"])
    def test_non_utf8_manifest_is_two(self, tmp_path, rng, capsys, command):
        mpath = make_stack_manifest(tmp_path, rng, n_train=1, n_val=0)
        model = tmp_path / "model" / "params.json"
        ensemble.save_metalearner(ensemble.build_metalearner(2, seed=0), model)
        data = mpath.read_bytes()
        mpath.write_bytes(data[:9] + b"\xff" + data[10:])
        argv = (["eval", "--manifest", str(mpath), "--split", "train"]
                if command == "eval" else
                ["stack", "predict", "--manifest", str(mpath),
                 "--params", str(model), "--outdir", str(tmp_path / "preds")])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "manifest is not UTF-8 at byte offset 9" in err
        assert not (tmp_path / "preds").exists()

    def test_record_without_stacks_or_maps_is_one(self, tmp_path, rng, capsys):
        mpath = make_stack_manifest(tmp_path, rng, n_train=2, n_val=0)
        records = imageio.read_manifest(mpath)
        imageio.write_manifest([records[0], replace(records[1], fsts=())], mpath)
        assert main(["stack", "train", "--manifest", str(mpath),
                     "--params", str(tmp_path / "p.json")]) == 1
        assert "neither feature stacks nor prediction maps" in capsys.readouterr().err

    def test_stacks_disagreeing_on_spatial_dims_is_three(self, tmp_path, rng,
                                                         capsys):
        mpath = make_stack_manifest(tmp_path, rng, n_train=1, n_val=0)
        small = tmp_path / "small.fst"
        imageio.store_feature_stack(np.zeros((1, 4, 4), np.float32), small)
        record = imageio.read_manifest(mpath)[0]
        imageio.write_manifest([replace(record, fsts=record.fsts + (str(small),))],
                               mpath)
        assert main(["stack", "train", "--manifest", str(mpath),
                     "--params", str(tmp_path / "p.json")]) == 3
        assert ("record 'img0.pgm' stacked input 1 shape (4, 4) != stacked "
                "input 0 shape (12, 12)") in capsys.readouterr().err

    def test_predict_on_an_empty_split_is_one(self, tmp_path, rng, capsys):
        mpath = make_stack_manifest(tmp_path, rng, n_train=1, n_val=0)
        model = tmp_path / "params.json"
        ensemble.save_metalearner(ensemble.build_metalearner(2, seed=0), model)
        assert main(["stack", "predict", "--manifest", str(mpath), "--split",
                     "test", "--params", str(model),
                     "--outdir", str(tmp_path / "preds")]) == 1
        assert "no manifest records to predict" in capsys.readouterr().err
        assert not (tmp_path / "preds").exists()

    def test_empty_train_split_is_one(self, tmp_path, rng, capsys):
        mpath = make_stack_manifest(tmp_path, rng, n_train=1, n_val=0)
        assert main(["stack", "train", "--manifest", str(mpath), "--train-split",
                     "test", "--params", str(tmp_path / "p.json")]) == 1
        assert "no records in split 'test'" in capsys.readouterr().err

    @pytest.mark.parametrize("inputs", [[], ["--pred", "p.pgm"], ["--gt", "g.pgm"]])
    def test_eval_without_inputs_is_one(self, capsys, inputs):
        assert main(["eval", *inputs]) == 1
        assert "eval needs either --manifest or both --pred and --gt" in \
            capsys.readouterr().err

    def test_eval_checks_ci_n_cap_before_reading(self, tmp_path, capsys):
        # a missing prediction would exit 2; a --ci-n past the
        # Clopper-Pearson cap was found only after every image was scored
        assert main(["eval", "--pred", str(tmp_path / "absent.pgm"),
                     "--gt", str(tmp_path / "absent-gt.pgm"),
                     "--ci-n", "200000000"]) == 1
        assert "ci_n must be in [1, 100000000.0]" in capsys.readouterr().err

    def test_stack_train_checks_flags_before_reading(self, tmp_path, capsys):
        # a missing manifest would exit 2; the bad flag is found first, as
        # augment finds a bad --count
        assert main(["stack", "train", "--manifest", str(tmp_path / "missing.tsv"),
                     "--params", str(tmp_path / "p.json"), "--epochs", "-1"]) == 1
        assert "epochs must be in [0, " in capsys.readouterr().err

    def test_manifest_record_without_prediction_is_one(self, tmp_path, rng,
                                                       capsys):
        mpath = make_stack_manifest(tmp_path, rng, n_train=1, n_val=0)
        assert main(["eval", "--manifest", str(mpath), "--split", "train"]) == 1
        assert "has no prediction path" in capsys.readouterr().err

    def test_manifest_record_without_mask_is_one(self, tmp_path, rng, capsys):
        # an empty gtmask field read "." and exited 2 ("Is a directory");
        # the first record's missing prediction shows nothing was read
        pred_paths, gt_paths = make_eval_fixture(tmp_path, rng, n=2)
        mpath = tmp_path / "m.tsv"
        imageio.write_manifest([
            imageio.ManifestRecord("test", "a.pgm", gt_paths[0],
                                   (str(tmp_path / "missing.pgm"),)),
            imageio.ManifestRecord("test", "b.pgm", "", (pred_paths[1],))], mpath)
        assert main(["eval", "--manifest", str(mpath)]) == 1
        assert ("record 'b.pgm' in split 'test' has no ground-truth mask path"
                in capsys.readouterr().err)

    def test_stack_train_record_without_mask_is_one(self, tmp_path, rng,
                                                    capsys):
        # as for eval; here the validation record is the one without a mask,
        # and a train record's missing stack shows nothing was read
        mpath = make_stack_manifest(tmp_path, rng, n_train=2, n_val=1)
        records = imageio.read_manifest(mpath)
        Path(records[0].fsts[0]).unlink()
        imageio.write_manifest(records[:2] + [replace(records[2], gtmask="")],
                               mpath)
        params = tmp_path / "p.json"
        assert main(["stack", "train", "--manifest", str(mpath),
                     "--params", str(params)]) == 1
        assert ("record 'img2.pgm' in split 'validation' has no ground-truth "
                "mask path" in capsys.readouterr().err)
        assert not params.exists()

    def test_shape_mismatch_is_three(self, tmp_path, rng):
        a = tmp_path / "a.pgm"
        b = tmp_path / "b.pgm"
        imageio.store_mask((rng.random((4, 4)) > 0.5).astype(np.uint8), a)
        imageio.store_mask((rng.random((6, 6)) > 0.5).astype(np.uint8), b)
        assert main(["fuse", "--method", "and", "--inputs", str(a), str(b),
                     "--out", str(tmp_path / "o.pgm")]) == 3

    def test_numeric_failure_is_four(self, tmp_path, rng, monkeypatch):
        mpath = make_stack_manifest(tmp_path, rng)

        def explode(*args, **kwargs):
            raise NumericError("non-finite loss at epoch 0, batch 1")

        monkeypatch.setattr(ensemble, "train_metalearner", explode)
        assert main(["stack", "train", "--manifest", str(mpath),
                     "--params", str(tmp_path / "p.json")]) == 4

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast")
    def test_predict_overflow_in_a_middle_layer_is_four(self, tmp_path, rng):
        mpath = make_stack_manifest(tmp_path, rng)
        params = ensemble.build_metalearner(2, seed=0)
        layers = list(params.layers)
        layers[2] = replace(layers[2],
                            weights=np.full_like(layers[2].weights, 1e37))
        ensemble.save_metalearner(ensemble.MetaLearnerParams(tuple(layers)),
                                  tmp_path / "p.json")
        outdir = tmp_path / "preds"
        assert main(["stack", "predict", "--manifest", str(mpath),
                     "--params", str(tmp_path / "p.json"),
                     "--outdir", str(outdir)]) == 4
        assert not list(outdir.glob("*.pgm"))

    def test_validation_error_is_one(self, tmp_path, rng):
        preds, gts = make_eval_fixture(tmp_path, rng, n=2)
        assert main(["eval", "--pred", preds[0], "--gt", *gts]) == 1


def _float_flags(parser, command=()):
    """(subcommand path, flag) for every float-typed option of ``parser``
    and its subparsers."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _float_flags(sub, command + (name,))
        elif action.type is float:
            yield command, action.option_strings[0]


_FLOAT_FLAGS = sorted(_float_flags(_build_parser()))


def _valid_argv(command, tmp_path, rng, out):
    """A run of ``command`` that exits 0 and writes only under ``out``."""
    if command in (("eval",), ("fuse",)):
        preds, gts = make_eval_fixture(tmp_path, rng, n=2, size=8)
        if command == ("eval",):
            return ["eval", "--pred", *preds, "--gt", *gts,
                    "--report", str(out / "r.json")]
        return ["fuse", "--method", "max", "--inputs", *preds,
                "--out", str(out / "f.pgm")]
    if command == ("stack", "train"):
        mpath = make_stack_manifest(tmp_path, rng, n_train=1, n_val=0, size=8)
        return ["stack", "train", "--manifest", str(mpath), "--epochs", "1",
                "--params", str(out / "params.json")]
    if command == ("augment",):
        _, gts = make_eval_fixture(tmp_path, rng, n=1, size=8)
        mpath = tmp_path / "train.tsv"
        imageio.write_manifest([imageio.ManifestRecord("train", gts[0], gts[0])],
                               mpath)
        return ["augment", "--manifest", str(mpath), "--count", "1",
                "--outdir", str(out / "aug"),
                "--out-manifest", str(out / "aug.tsv")]
    if command == ("ci",):
        return ["ci", "--dice", "0.5"]
    if command == ("bu-preview",):
        _, gts = make_eval_fixture(tmp_path, rng, n=1, size=8)
        return ["bu-preview", "--mask", gts[0], "--out", str(out / "soft.pgm")]
    raise AssertionError(f"no valid run of {command} to test its float flags on")


class TestScalarFlags:
    """Every float flag, found by walking the parser, rejects NaN and
    +-inf with exit 1 and writes nothing."""

    @pytest.mark.parametrize("command", sorted({c for c, _ in _FLOAT_FLAGS}),
                             ids=" ".join)
    def test_valid_run_exits_zero(self, tmp_path, rng, command):
        out = tmp_path / "out"
        out.mkdir()
        assert main(_valid_argv(command, tmp_path, rng, out)) == 0

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command, flag", _FLOAT_FLAGS,
                             ids=[" ".join(c + (f,)) for c, f in _FLOAT_FLAGS])
    def test_non_finite_value_exits_one(self, tmp_path, rng, capsys, command,
                                        flag, value):
        out = tmp_path / "out"
        out.mkdir()
        # "--flag=-inf": a separate "-inf" would parse as an unknown option
        argv = _valid_argv(command, tmp_path, rng, out) + [f"{flag}={value}"]
        assert main(argv) == 1
        assert not any(out.iterdir())
        assert capsys.readouterr().out == ""


def _default(fn, param):
    return inspect.signature(fn).parameters[param].default


def _cli_defaults():
    """(minimal argv, parsed attribute, the library default it feeds,
    where that default is set)."""
    hyper, tversky = ensemble.HyperParams(), TverskyConfig()
    bu, aug = BoundaryUncertaintyConfig(), augment.AugmentConfig()
    train = ["stack", "train", "--manifest", "m", "--params", "p"]
    for f in ("learning_rate", "epochs", "batch_size", "seed", "dice_target"):
        yield train, f, getattr(hyper, f), f"HyperParams.{f}"
    for f in ("fn_weight", "focal_exponent"):
        yield train, f, getattr(tversky, f), f"TverskyConfig.{f}"
    preview = ["bu-preview", "--mask", "m", "--out", "o"]
    for argv, iterations in ((train, "bu_iterations"), (preview, "iterations")):
        for f in ("interior_label", "exterior_label"):
            yield argv, f, getattr(bu, f), f"BoundaryUncertaintyConfig.{f}"
        yield (argv, iterations, bu.iterations,
               "BoundaryUncertaintyConfig.iterations")
    argv = ["augment", "--manifest", "m", "--outdir", "o", "--out-manifest", "a"]
    for f, i in (("rotation_min", 0), ("rotation_max", 1)):
        yield argv, f, aug.rotation_degrees[i], f"AugmentConfig.rotation_degrees[{i}]"
    for f, i in (("zoom_min", 0), ("zoom_max", 1)):
        yield argv, f, aug.zoom_factors[i], f"AugmentConfig.zoom_factors[{i}]"
    for f, field in (("mirror_prob", "mirror_probability"), ("count", "count"),
                     ("seed", "seed")):
        yield argv, f, getattr(aug, field), f"AugmentConfig.{field}"
    yield (["eval", "--pred", "p", "--gt", "g"], "threshold",
           _default(metrics.evaluate_pairs, "threshold"), "evaluate_pairs.threshold")
    fuse = ["fuse", "--method", "max", "--inputs", "a", "b", "--out", "o"]
    yield (fuse, "threshold", _default(ensemble.fuse_max, "binarize_threshold"),
           "fuse_max.binarize_threshold")
    yield fuse, "threshold", _default(ensemble.binarize, "threshold"), "binarize.threshold"
    for fn in (stats.wald_ci, stats.clopper_pearson_ci):
        yield ["ci", "--dice", "0.5"], "level", _default(fn, "level"), f"{fn.__name__}.level"


_CLI_DEFAULTS = list(_cli_defaults())


@pytest.mark.parametrize("argv, attr, want", [c[:3] for c in _CLI_DEFAULTS],
                         ids=[f"{c[0][0]} {c[1]}={c[3]}" for c in _CLI_DEFAULTS])
def test_cli_default_equals_library_default(argv, attr, want):
    # the parser reads each default from the library; a run with the flag
    # left out must get the library's value, of the library's type
    got = getattr(_build_parser().parse_args(argv), attr)
    assert got == want and type(got) is type(want), (got, want)


@pytest.mark.parametrize("argv, attr, want", [c[:3] for c in _CLI_DEFAULTS],
                         ids=[f"{c[0][0]} {c[1]}={c[3]}" for c in _CLI_DEFAULTS])
def test_help_shows_each_library_default(argv, attr, want, capsys, monkeypatch):
    # the subcommand's --help, whitespace collapsed and cut into one entry
    # per option, shows the library's value as the flag's default
    command = argv[:2] if argv[0] == "stack" else argv[:1]
    parser = _build_parser()
    for name in command:
        parser = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices[name]
    flag = next(a.option_strings[0] for a in parser._actions if a.dest == attr)
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        main(command + ["--help"])
    options = " ".join(capsys.readouterr().out.split()).split("options:")[1]
    entry = next(e for e in re.split(r" (?=--[a-z])", options)
                 if e.startswith(flag + " "))
    assert f"(default: {want})" in entry, entry


def test_parser_writes_no_library_default():
    # every numeric default is read from the library definition that sets
    # it; ci --n 33, the paper's test-set size, has no library counterpart
    tree = ast.parse(Path(cli.__file__).read_text())
    functions = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    todo, seen, literals = ["_build_parser"], set(), []
    while todo:  # the parser builder and every cli function it calls
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        nodes = list(ast.walk(functions[name]))
        indices = {id(n.slice) for n in nodes if isinstance(n, ast.Subscript)}
        for node in nodes:
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in functions:
                todo.append(node.func.id)
            elif (isinstance(node, ast.Constant) and id(node) not in indices
                  and type(node.value) in (int, float)):
                literals.append((node.lineno, node.value))
    assert [v for _, v in literals] == [33], literals
