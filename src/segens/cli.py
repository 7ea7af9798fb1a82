"""Command-line surface: reproducible batch workflows over files.

Subcommands: ``eval``, ``fuse``, ``stack train``, ``stack predict``,
``augment``, ``ci``, ``bu-preview``. All randomness is seeded (default
seed 0), so every subcommand is deterministic given identical inputs.

Exit codes are a stable contract:

    0  success
    1  usage or validation error
    2  I/O or decode error
    3  shape mismatch
    4  numeric failure (non-finite values, training divergence)
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import augment as augment_mod
from . import ensemble, imageio, metrics, stats
from .errors import (DecodeError, NumericError, ShapeMismatchError, check_range,
                     check_shape)
from .losses import TverskyConfig
from .morpho import BoundaryUncertaintyConfig, boundary_soft_labels


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    parser = _Parser(prog="segens", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="score probability maps against masks")
    p.add_argument("--pred", nargs="+", default=None,
                   help="probability-map files, aligned with --gt")
    p.add_argument("--gt", nargs="+", default=None, help="ground-truth masks")
    p.add_argument("--manifest", default=None,
                   help="manifest file; uses each record's first pred path")
    p.add_argument("--split", default="test", choices=imageio.SPLITS,
                   help="manifest split to evaluate (default: test)")
    p.add_argument("--threshold", type=float, default=0.5,
                   help="binarization threshold in [0,1] (default: 0.5)")
    p.add_argument("--ci-n", type=int, default=None,
                   help="CI sample count (default: image count)")
    p.add_argument("--report", default=None,
                   help="write the JSON report here (default: stdout)")
    p.add_argument("--curves", default=None,
                   help="write pooled curve points as CSV here")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("fuse", help="fuse predicted masks or probability maps")
    p.add_argument("--method", required=True, choices=("and", "or", "max"))
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--out", required=True, help="fused mask file")
    p.add_argument("--threshold", type=float, default=0.5,
                   help="binarization threshold in [0,1] (default: 0.5)")
    p.add_argument("--out-prob", default=None,
                   help="also write the fused probability map (max only)")
    p.set_defaults(handler=_cmd_fuse)

    p = sub.add_parser("stack", help="train or apply the stacking meta-learner")
    stack_sub = p.add_subparsers(dest="stack_command", required=True)

    t = stack_sub.add_parser("train")
    t.add_argument("--manifest", required=True)
    t.add_argument("--params", required=True, help="output params file (JSON)")
    t.add_argument("--train-split", default="train", choices=imageio.SPLITS)
    t.add_argument("--val-split", default="validation", choices=imageio.SPLITS)
    t.add_argument("--epochs", type=int, default=20,
               help="training epochs >= 0 (default: 20)")
    t.add_argument("--learning-rate", type=float, default=1e-3,
               help="initial Adam rate >= 0 (default: 1e-3)")
    t.add_argument("--batch-size", type=int, default=4,
               help="samples per update, >= 1 (default: 4)")
    t.add_argument("--seed", type=int, default=0,
               help="RNG seed (default: 0, fixed for reproducibility)")
    t.add_argument("--lambda", dest="fn_weight", type=float, default=0.7,
                   help="Tversky FN weight in [0,1] (default: 0.7)")
    t.add_argument("--gamma", dest="focal_exponent", type=float, default=0.75,
                   help="focal exponent > 0 (default: 0.75)")
    t.add_argument("--zeta", dest="interior_label", type=float, default=0.9,
                   help="soft label for the interior boundary ring")
    t.add_argument("--omega", dest="exterior_label", type=float, default=0.1,
                   help="soft label for the exterior boundary ring")
    t.add_argument("--bu-iterations", type=int, default=1,
                   help="boundary ring width in morphology iterations")
    t.add_argument("--dice-target", type=float, default=None,
                   help="stop early once train Dice exceeds this, in [0,1]")
    t.add_argument("--run", default=None,
                   help="training-history JSON (default: <params>.run.json)")
    t.set_defaults(handler=_cmd_stack_train)

    q = stack_sub.add_parser("predict")
    q.add_argument("--manifest", required=True)
    q.add_argument("--params", required=True)
    q.add_argument("--outdir", required=True)
    q.add_argument("--split", default=None, choices=imageio.SPLITS,
                   help="restrict to one split (default: all records)")
    q.set_defaults(handler=_cmd_stack_predict)

    p = sub.add_parser("augment", help="generate affine-augmented train pairs")
    p.add_argument("--manifest", required=True)
    p.add_argument("--outdir", required=True)
    p.add_argument("--out-manifest", required=True)
    p.add_argument("--count", type=int, default=2000,
               help="augmented pairs to generate, >= 0 (default: 2000)")
    p.add_argument("--seed", type=int, default=0,
               help="RNG seed (default: 0)")
    p.add_argument("--rotation-min", type=float, default=5.0,
               help="rotation magnitude lower bound in degrees (default: 5)")
    p.add_argument("--rotation-max", type=float, default=10.0,
               help="rotation magnitude upper bound in degrees (default: 10)")
    p.add_argument("--zoom-min", type=float, default=0.8,
               help="zoom factor lower bound > 0 (default: 0.8)")
    p.add_argument("--zoom-max", type=float, default=1.4,
               help="zoom factor upper bound (default: 1.4)")
    p.add_argument("--mirror-prob", type=float, default=0.5,
               help="mirror probability in [0,1] (default: 0.5)")
    p.add_argument("--format", default="pgm", choices=("pgm", "png"))
    p.set_defaults(handler=_cmd_augment)

    p = sub.add_parser("ci", help="confidence interval for a proportion-like score")
    p.add_argument("--dice", type=float, required=True,
               help="proportion-like score in [0,1]")
    p.add_argument("--n", type=int, default=33,
               help="effective sample count >= 1 (default: 33)")
    p.add_argument("--method", default="wald", choices=("wald", "cp"))
    p.add_argument("--level", type=float, default=0.95,
               help="confidence level in (0,1) (default: 0.95)")
    p.set_defaults(handler=_cmd_ci)

    p = sub.add_parser("bu-preview",
                       help="write the boundary-uncertainty soft labels of a mask")
    p.add_argument("--mask", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--zeta", dest="interior_label", type=float, default=0.9)
    p.add_argument("--omega", dest="exterior_label", type=float, default=0.1)
    p.add_argument("--iterations", type=int, default=1)
    p.set_defaults(handler=_cmd_bu_preview)
    return parser


def _emit(text, path=None):
    if path is None:
        print(text)
    else:
        Path(path).write_text(text + ("\n" if not text.endswith("\n") else ""))


def _load_eval_inputs(args):
    if args.manifest is not None:
        records = [r for r in imageio.read_manifest(args.manifest)
                   if r.split == args.split]
        pred_paths = []
        gt_paths = []
        for r in records:
            pred_paths.append(r.require("preds", "prediction")[0])
            gt_paths.append(r.require("gtmask", "ground-truth mask"))
    else:
        if not args.pred or not args.gt:
            raise _UsageError("eval needs either --manifest or both --pred and --gt")
        pred_paths, gt_paths = args.pred, args.gt
    if len(pred_paths) != len(gt_paths):
        raise ValueError(f"{len(pred_paths)} predictions vs "
                         f"{len(gt_paths)} ground-truth masks")
    if not pred_paths:
        raise ValueError("no images to evaluate")
    return pred_paths, gt_paths


def _cmd_eval(args):
    pred_paths, gt_paths = _load_eval_inputs(args)
    # Files load as they are scored, one pair at a time, so memory does not
    # grow with the image count and the first defective pair sets the exit.
    preds = (imageio.load_probmap(p) for p in pred_paths)
    gts = (imageio.load_mask(p) for p in gt_paths)
    report, curve = metrics.evaluate_pairs(preds, gts, threshold=args.threshold,
                                           ci_n=args.ci_n)
    if args.curves:
        metrics.write_curve_csv(curve, args.curves)
    _emit(report.to_json(), args.report)
    return 0


def _cmd_fuse(args):
    # checked before any input is read, as eval does
    check_range(args.threshold, "threshold", 0, 1)
    if args.out_prob is not None and args.method != "max":
        raise _UsageError("--out-prob needs --method max: and/or fuse masks only")
    maps = [imageio.load_probmap(p) for p in args.inputs]
    sidecar = {"method": args.method, "inputs": list(args.inputs),
               "threshold": args.threshold}
    if args.method == "max":
        fused, mask = ensemble.fuse_max(maps, binarize_threshold=args.threshold)
        if args.out_prob is not None:
            imageio.store_probmap(fused, args.out_prob)
            sidecar["probmap"] = args.out_prob
    else:
        hard = [ensemble.binarize(m, args.threshold) for m in maps]
        mask = ensemble.fuse_and(hard) if args.method == "and" else \
            ensemble.fuse_or(hard)
    imageio.store_mask(mask, args.out)
    Path(str(args.out) + ".json").write_text(json.dumps(sidecar, indent=2) + "\n")
    return 0


def _record_stack(record):
    """Channel-concatenated input for one record: its FST exports when
    present, else its probability maps as single channels."""
    if record.fsts:
        parts = [imageio.load_feature_stack(p) for p in record.fsts]
        mode = "feature-stacks"
    elif record.preds:
        parts = [imageio.load_probmap(p)[None, :, :] for p in record.preds]
        mode = "probmap-channels"
    else:
        raise ValueError(
            f"record {record.image or record.gtmask!r} has neither feature "
            "stacks nor prediction maps")
    for i, part in enumerate(parts[1:], start=1):
        check_shape(part.shape[1:],
                    f"record {record.image or record.gtmask!r} stacked input {i}",
                    parts[0].shape[1:], "stacked input 0")
    return np.concatenate(parts, axis=0).astype(np.float32), mode


def _cmd_stack_train(args):
    records = imageio.read_manifest(args.manifest)
    train_recs = [r for r in records if r.split == args.train_split]
    val_recs = [r for r in records if r.split == args.val_split]
    if not train_recs:
        raise ValueError(f"manifest has no records in split {args.train_split!r}")
    for r in train_recs + val_recs:  # all checked before any file is read
        r.require("gtmask", "ground-truth mask")

    modes = set()

    def pairs(recs):
        out = []
        for r in recs:
            stack, mode = _record_stack(r)
            modes.add(mode)
            out.append((stack, imageio.load_mask(r.gtmask)))
        return out

    hyper = ensemble.HyperParams(
        learning_rate=args.learning_rate, epochs=args.epochs,
        batch_size=args.batch_size, seed=args.seed,
        dice_target=args.dice_target)
    tversky = TverskyConfig(fn_weight=args.fn_weight,
                            focal_exponent=args.focal_exponent)
    boundary = BoundaryUncertaintyConfig(
        interior_label=args.interior_label,
        exterior_label=args.exterior_label,
        iterations=args.bu_iterations)
    params, run = ensemble.train_metalearner(
        pairs(train_recs), pairs(val_recs), hyper=hyper, tversky=tversky,
        boundary=boundary)
    run.input_mode = "+".join(sorted(modes))
    ensemble.save_metalearner(params, args.params, hyper=hyper)
    run_path = args.run or (str(args.params) + ".run.json")
    Path(run_path).write_text(run.to_json() + "\n")
    return 0


def _cmd_stack_predict(args):
    records = imageio.read_manifest(args.manifest)
    if args.split is not None:
        records = [r for r in records if r.split == args.split]
    if not records:
        raise ValueError("no manifest records to predict")
    names = {}  # map file name -> the record that writes it
    for i, record in enumerate(records):
        stem = Path(record.image).stem if record.image else f"record{i:04d}"
        name, label = f"{stem}_stack.pgm", record.image or f"record {i}"
        if name in names:
            raise ValueError(f"records {names[name]!r} and {label!r} both write {name}")
        names[name] = label
    params = ensemble.load_metalearner(args.params)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for record, name in zip(records, names):
        stack, _ = _record_stack(record)
        prob = ensemble.predict_metalearner(params, stack)
        imageio.store_probmap(prob, outdir / name)
    return 0


def _cmd_augment(args):
    config = augment_mod.AugmentConfig(
        rotation_degrees=(args.rotation_min, args.rotation_max),
        zoom_factors=(args.zoom_min, args.zoom_max),
        mirror_probability=args.mirror_prob,
        count=args.count, seed=args.seed)
    records = imageio.read_manifest(args.manifest)
    out = augment_mod.augment_dataset(records, config, args.outdir,
                                      image_format=args.format)
    imageio.write_manifest(out, args.out_manifest)
    return 0


def _cmd_ci(args):
    if args.method == "wald":
        interval = stats.wald_ci(args.dice, args.n, level=args.level)
    else:
        # checked before dice * n, which overflows past float range
        n = stats.check_trials(args.n)
        interval = stats.clopper_pearson_ci(args.dice * n, n, level=args.level)
    print(json.dumps(interval.to_dict(), indent=2))
    return 0


def _cmd_bu_preview(args):
    config = BoundaryUncertaintyConfig(
        interior_label=args.interior_label,
        exterior_label=args.exterior_label,
        iterations=args.iterations)
    mask = imageio.load_mask(args.mask)
    imageio.store_probmap(boundary_soft_labels(mask, config), args.out)
    return 0


def main(argv=None):
    """Run one subcommand; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        print(f"segens: {exc}", file=sys.stderr)
        return 1
    except DecodeError as exc:
        print(f"segens: decode error: {exc}", file=sys.stderr)
        return 2
    except ShapeMismatchError as exc:
        print(f"segens: shape mismatch: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"segens: numeric failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"segens: i/o error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"segens: invalid input: {exc}", file=sys.stderr)
        return 1


def run():
    sys.exit(main())
