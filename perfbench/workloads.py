"""The four benchmark workloads: seeded inputs, the CLI call, output checks.

Each workload generates its inputs from the workload seed into one
directory, names the ``segens`` command line that one op runs, and checks
that op's outputs against numbers the generator computed without segens.
Paths in manifests and command lines are relative to the workload's
working directory, which is the op's current directory.

Sizes are chosen so that one op takes about 1 to 2.5 s on a 2-vCPU box,
which gives each timed run several ops to take a median over.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

import formats
import oracle

OUT = "out"


def _seeded(seed, stream):
    return np.random.default_rng((seed, stream))


def smooth_field(rng, size, cells):
    """Values in [0, 1) varying smoothly over ``cells`` cells per side."""
    coarse = rng.random((cells + 1, cells + 1))
    t = np.linspace(0.0, cells, size)
    i = np.minimum(t.astype(np.int64), cells - 1)
    f = t - i
    rows = coarse[i] * (1 - f)[:, None] + coarse[i + 1] * f[:, None]
    return rows[:, i] * (1 - f) + rows[:, i + 1] * f


def blob(rng, size, scale=1.0, shift=(0, 0)):
    """A {0,1} lesion-like mask: a union of two overlapping ellipses."""
    yy, xx = np.mgrid[:size, :size]
    cy, cx = rng.uniform(0.3 * size, 0.7 * size, 2) + shift
    out = np.zeros((size, size), bool)
    for _ in range(2):
        ry, rx = rng.uniform(0.06, 0.16, 2) * size * scale
        oy, ox = rng.uniform(-0.05, 0.05, 2) * size
        out |= ((yy - cy - oy) / ry) ** 2 + ((xx - cx - ox) / rx) ** 2 <= 1.0
    return out.astype(np.uint8)


def feature_stack(rng, mask, channels=3):
    """Constituent-model probability maps that roughly agree on ``mask``."""
    size = mask.shape[0]
    maps = [np.clip(0.6 * mask + 0.25 * smooth_field(rng, size, 8)
                    + 0.15 * rng.random((size, size)), 0.0, 1.0)
            for _ in range(channels)]
    return np.stack(maps).astype(np.float32)


def write_manifest(path, rows):
    path.write_text("".join("\t".join(r) + "\n" for r in rows))


class StackTrain:
    name = "stack_train"
    item = "train sample"
    train, val, size, channels = 4, 1, 64, 3
    batch_size = 2
    items_per_op = train
    learning_rate = 1e-3

    def generate(self, dest, seed):
        """Runs the reference epoch: float64 backpropagation and Adam from
        the documented He initialization, two batches of two samples."""
        rng = _seeded(seed, 1)
        rows, stacks, masks = [], [], []
        for split, count in (("train", self.train), ("validation", self.val)):
            for i in range(count):
                mask = blob(rng, self.size)
                stack = feature_stack(rng, mask, self.channels)
                stem = f"{dest.name}/{split}{i}"
                (dest.parent / f"{stem}.fst").write_bytes(formats.encode_fst(stack))
                (dest.parent / f"{stem}_gt.pgm").write_bytes(formats.encode_pgm(mask * 255))
                rows.append((split, "", f"{stem}_gt.pgm", "", f"{stem}.fst"))
                if split == "train":
                    stacks.append(stack)
                    masks.append(mask)
        write_manifest(dest / "manifest.tsv", rows)
        # The epoch's sample order, drawn as segens draws it from the seed.
        order = np.random.default_rng((seed, 1)).permutation(self.train)
        loss, params = oracle.adam_epoch(oracle.he_init(self.channels, seed), stacks, masks,
                                         self.batch_size, order, self.learning_rate)
        np.save(dest / "reference_params.npy", _flat(p for pair in params for p in pair))
        return {"train_loss": loss}

    def argv(self, inputs, seed):
        return ["stack", "train", "--manifest", f"{inputs}/manifest.tsv",
                "--params", f"{OUT}/model.json", "--epochs", "1",
                "--batch-size", str(self.batch_size), "--seed", str(seed),
                "--learning-rate", repr(self.learning_rate)]

    def _split(self, workdir, inputs, split):
        stacks, masks = [], []
        for line in (workdir / inputs / "manifest.tsv").read_text().splitlines():
            fields = line.split("\t")
            if fields[0] == split:
                stacks.append(formats.decode_fst((workdir / fields[4]).read_bytes()))
                masks.append(formats.decode_pgm((workdir / fields[2]).read_bytes()) > 127)
        return stacks, masks

    def check(self, workdir, inputs, expected, seed):
        """The train loss (each sample's loss before its batch's Adam step)
        within 1e-5 relative of the reference epoch's; every saved
        parameter within a tenth of the learning rate of the reference
        epoch's; the validation loss within 1e-5 of the reference at the
        saved parameters."""
        from segens.ensemble import load_metalearner

        out = workdir / OUT
        run = json.loads((out / "model.json.run.json").read_text())
        problems = []
        train_loss, val_loss = run["train_loss"][0], run["val_loss"][0]
        if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
            return [f"non-finite losses {train_loss}, {val_loss}"]
        if not math.isclose(train_loss, expected["train_loss"], rel_tol=1e-5):
            problems.append(f"train loss {train_loss} != reference {expected['train_loss']}")
        params = load_metalearner(out / "model.json")
        trained = [(k.weights, k.bias) for k in params.layers]
        reference = np.load(workdir / inputs / "reference_params.npy")
        got = _flat(p for pair in trained for p in pair)
        if got.shape != reference.shape:
            return problems + [f"{got.size} parameters, reference has {reference.size}"]
        off = float(np.abs(got.astype(np.float64) - reference).max())
        if not off <= self.learning_rate / 10:
            problems.append(f"a parameter is {off} off the reference epoch")
        val_stacks, val_masks = self._split(workdir, inputs, "validation")
        ref_val = oracle.mean_loss(trained, val_stacks, val_masks)
        if not math.isclose(val_loss, ref_val, rel_tol=1e-5):
            problems.append(f"validation loss {val_loss} != reference {ref_val}")
        return problems


def _flat(arrays):
    return np.concatenate([np.ravel(a) for a in arrays]).astype(np.float32)


class StackPredict:
    name = "stack_predict"
    item = "predicted map"
    records, size, channels = 1, 256, 3
    items_per_op = records
    pixels = 64

    def generate(self, dest, seed):
        rng = _seeded(seed, 2)
        layers, c_in = [], self.channels
        for c_out, k in zip(oracle.FILTERS, oracle.KERNELS):
            scale = math.sqrt(2.0 / (c_in * k * k))
            layers.append(((rng.standard_normal((c_out, c_in, k, k)) * scale).astype(np.float32),
                           (0.05 * rng.standard_normal(c_out)).astype(np.float32)))
            c_in = c_out
        formats.write_metalearner_v1(layers, dest / "model.json", seed=seed)
        rows, refs = [], []
        edge = self.size - 1
        for i in range(self.records):
            stack = feature_stack(rng, blob(rng, self.size), self.channels)
            (dest / f"case{i}.fst").write_bytes(formats.encode_fst(stack))
            rows.append(("test", f"case{i}.png", "", "", f"{dest.name}/case{i}.fst"))
            fixed = [(0, 0), (0, edge), (edge, 0), (edge, edge), (0, 100), (edge, 37),
                     (150, 0), (90, edge)]
            pixels = fixed + [tuple(int(v) for v in rng.integers(0, self.size, 2))
                              for _ in range(self.pixels - len(fixed))]
            values = oracle.forward_at(layers, stack, pixels)
            refs.append({"pixels": pixels, "values": values.tolist()})
        write_manifest(dest / "manifest.tsv", rows)
        return {"maps": refs}

    def argv(self, inputs, seed):
        return ["stack", "predict", "--manifest", f"{inputs}/manifest.tsv",
                "--params", f"{inputs}/model.json", "--outdir", OUT]

    def check(self, workdir, inputs, expected, seed):
        """Each 8-bit map within 0.51 levels of 255 x the float64 reference
        at the sampled pixels (all four corners among them)."""
        problems = []
        for i, ref in enumerate(expected["maps"]):
            q = formats.decode_pgm((workdir / OUT / f"case{i}_stack.pgm").read_bytes())
            if q.shape != (self.size, self.size):
                problems.append(f"map {i} has shape {q.shape}")
                continue
            ys, xs = np.array(ref["pixels"]).T
            err = np.abs(q[ys, xs] - 255.0 * np.array(ref["values"]))
            if err.max() > 0.51:
                problems.append(f"map {i} is {err.max():.3f} levels off the reference")
        return problems


class EvalPooled:
    name = "eval_pooled"
    item = "image"
    images, size = 400, 256
    items_per_op = images

    def generate(self, dest, seed):
        """Maps are quantized to 256 levels because they come from 8-bit
        files. A tenth of the cases have an empty ground truth, so every
        mask-level outcome occurs."""
        rng = _seeded(seed, 3)
        hist = np.zeros((self.images, 2, 256), np.int64)
        rows = []
        for i in range(self.images):
            empty = rng.random() < 0.1
            gt = np.zeros((self.size, self.size), np.uint8) if empty else blob(rng, self.size)
            shift = rng.uniform(-0.12, 0.12, 2) * self.size
            pred = blob(rng, self.size, scale=rng.uniform(0.6, 1.3), shift=shift)
            strength = rng.uniform(0.2, 0.8) if rng.random() < 0.15 else 0.75
            prob = np.clip(strength * pred + 0.2 * smooth_field(rng, self.size, 6)
                           + 0.12 * rng.random((self.size, self.size)), 0.0, 1.0)
            levels = np.floor(prob * 255.0 + 0.5).astype(np.uint8)
            (dest / f"p{i}.pgm").write_bytes(formats.encode_pgm(levels))
            (dest / f"g{i}.pgm").write_bytes(formats.encode_pgm(gt * 255))
            rows.append(("test", "", f"{dest.name}/g{i}.pgm", f"{dest.name}/p{i}.pgm", ""))
            hist[i, 0] = np.bincount(levels[gt == 0], minlength=256)
            hist[i, 1] = np.bincount(levels[gt == 1], minlength=256)
        write_manifest(dest / "manifest.tsv", rows)
        n_bg, n_fg = (int(v) for v in hist.sum(axis=(0, 2)))
        tp = oracle.tally_at(hist[:, 1], 0.5)
        fp = oracle.tally_at(hist[:, 0], 0.5)
        fn = hist[:, 1].sum(axis=1) - tp
        tn = hist[:, 0].sum(axis=1) - fp
        matches = np.array([oracle.mask_match(*v) for v in zip(tp, fp, fn)])
        grid = np.linspace(0.0, 1.0, 101)[::-1]
        pooled = hist.sum(axis=0)
        return {
            "counts": {"tp": int(tp.sum()), "fp": int(fp.sum()),
                       "fn": int(fn.sum()), "tn": int(tn.sum())},
            "mask_level": dict(zip(("tp", "fp", "fn", "tn"),
                                   (int(v) for v in matches.sum(axis=0)))),
            "n_fg": n_fg, "n_bg": n_bg,
            "thresholds": grid.tolist(),
            "curve_tp": [int(oracle.tally_at(pooled[1], t)) for t in grid],
            "curve_fp": [int(oracle.tally_at(pooled[0], t)) for t in grid],
        }

    def argv(self, inputs, seed):
        return ["eval", "--manifest", f"{inputs}/manifest.tsv", "--split", "test",
                "--report", f"{OUT}/report.json", "--curves", f"{OUT}/curves.csv"]

    def check(self, workdir, inputs, expected, seed):
        """Pooled confusion counts, mask-level tallies and every curve
        point's tp/fp equal the generator's histogram tallies exactly."""
        report = json.loads((workdir / OUT / "report.json").read_text())
        problems = []
        if report["image_count"] != self.images:
            problems.append(f"image_count {report['image_count']}")
        if report["counts"] != expected["counts"]:
            problems.append(f"counts {report['counts']} != {expected['counts']}")
        got = {k: report["mask_level"][k] for k in ("tp", "fp", "fn", "tn")}
        if got != expected["mask_level"]:
            problems.append(f"mask_level {got} != {expected['mask_level']}")
        lines = (workdir / OUT / "curves.csv").read_text().splitlines()[1:]
        points = np.array([[float(v) for v in line.split(",")] for line in lines])
        if points.shape != (len(expected["thresholds"]), 5):
            return problems + [f"curve has shape {points.shape}"]
        thr, _, recall, tpr, fpr = points.T
        # Ten significant digits of a ratio times a count below 1e9 round
        # back to exactly one integer tally.
        tp = np.rint(recall * expected["n_fg"])
        fp = np.rint(fpr * expected["n_bg"])
        if np.abs(thr - expected["thresholds"]).max() > 1e-6:
            problems.append("curve thresholds differ from the 0.01 grid")
        if (not np.array_equal(tp, expected["curve_tp"])
                or not np.array_equal(fp, expected["curve_fp"])
                or not np.array_equal(recall, tpr)):
            problems.append("curve tallies differ from the reference")
        return problems


class AugmentPng:
    name = "augment_png"
    item = "output pair"
    sources, size, count = 5, 256, 12
    items_per_op = count

    def generate(self, dest, seed):
        """Checks that segens' decoder reads every PNG back bit-exact, and
        records each file's raster digest and scanlines per filter type."""
        from segens.imageio import load_gray

        rng = _seeded(seed, 4)
        rows, filters, rasters = [], {}, {}
        for i in range(self.sources):
            mask = blob(rng, self.size)
            # Smooth shading with texture and mild noise, like a photograph:
            # Paeth wins most rows, Sub the first lit row, None the black
            # rows and Average the noisy band at the bottom.
            image = (150 * smooth_field(rng, self.size, 6) + 80 * smooth_field(rng, self.size, 24)
                     + 45 * mask + 3 * rng.random((self.size, self.size)))
            image[-6:] += 12 * rng.random((6, self.size))
            image[:2] = 0
            image = np.clip(image, 0, 255).astype(np.uint8)
            for stem, arr in ((f"src{i}", image), (f"src{i}_gt", mask * 255)):
                path = f"{dest.name}/{stem}.png"
                data, counts = formats.encode_png(arr)
                (dest.parent / path).write_bytes(data)
                if not np.array_equal(load_gray(dest.parent / path), arr):
                    raise RuntimeError(f"segens does not decode {path} bit-exact")
                filters[path] = counts.tolist()
                rasters[path] = _digest(arr)
            rows.append(("train", f"{dest.name}/src{i}.png", f"{dest.name}/src{i}_gt.png", "", ""))
        totals = np.sum(list(filters.values()), axis=0)
        if not (totals > 0).all():
            raise RuntimeError(f"generated PNGs miss a filter type: {totals.tolist()}")
        write_manifest(dest / "manifest.tsv", rows)
        return {"png_filters": filters, "rasters": rasters}

    def argv(self, inputs, seed):
        return ["augment", "--manifest", f"{inputs}/manifest.tsv", "--outdir", f"{OUT}/aug",
                "--out-manifest", f"{OUT}/augmented.tsv", "--count", str(self.count),
                "--format", "png", "--seed", str(seed)]

    def check(self, workdir, inputs, expected, seed):
        """segens decodes every source PNG to the raster it was made from.
        The output manifest lists the sources plus one record per pair.
        Every output PNG is a 256x256 raster that segens decodes exactly as
        the PNG specification does, and every output mask is {0, 255}."""
        from segens.imageio import load_gray

        problems = [f"segens decodes {path} to a different raster"
                    for path, digest in expected["rasters"].items()
                    if _digest(load_gray(workdir / path)) != digest]
        lines = (workdir / OUT / "augmented.tsv").read_text().splitlines()
        if len(lines) != self.sources + self.count:
            problems.append(f"output manifest has {len(lines)} records")
        for line in lines[self.sources:]:
            image, mask = line.split("\t")[1:3]
            for name in (image, mask):
                raster = formats.decode_png((workdir / name).read_bytes())
                if raster.shape != (self.size, self.size):
                    problems.append(f"{name} is {raster.shape}")
                elif not np.array_equal(load_gray(workdir / name), raster):
                    problems.append(f"segens decodes {name} differently from the PNG spec")
                elif name == mask and not np.isin(raster, (0, 255)).all():
                    problems.append(f"mask {name} has values other than 0 and 255")
        return problems


def _digest(raster):
    return hashlib.sha256(np.ascontiguousarray(raster, np.uint8).tobytes()).hexdigest()

WORKLOADS = {w.name: w for w in (StackTrain(), StackPredict(), EvalPooled(), AugmentPng())}
