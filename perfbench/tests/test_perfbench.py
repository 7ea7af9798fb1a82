"""Tests of the benchmark's own code: generator, PNG writer, span
arithmetic, output checks, and a short run of every workload."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import formats
import run
import spans
import workloads
from segens import cli, ensemble, imageio
from segens.imageio import load_gray

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _files(directory):
    return {p.relative_to(directory): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def _generate(wl, workdir, seed):
    inputs = workdir / f"inputs-s{seed}"
    inputs.mkdir(parents=True)
    return inputs, wl.generate(inputs, seed)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(tmp_path, name):
    wl = workloads.WORKLOADS[name]
    first, expected = _generate(wl, tmp_path / "a", 3)
    again, expected_again = _generate(wl, tmp_path / "b", 3)
    other, _ = _generate(wl, tmp_path / "c", 4)
    assert _files(first) == _files(again)
    assert json.dumps(expected) == json.dumps(expected_again)
    assert _files(first) != _files(other)


@pytest.mark.parametrize("filter_type", [None, 0, 1, 2, 3, 4])
def test_png_writer_round_trips_each_filter(tmp_path, filter_type):
    rng = np.random.default_rng(filter_type or 0)
    smooth = workloads.smooth_field(rng, 40, 5) * 255
    for image in (rng.integers(0, 256, (7, 13), dtype=np.uint8),
                  smooth.astype(np.uint8),
                  np.full((3, 5), 255, np.uint8)):
        data, counts = formats.encode_png(image, filter_type)
        (tmp_path / "x.png").write_bytes(data)
        assert np.array_equal(load_gray(tmp_path / "x.png"), image)
        assert np.array_equal(formats.decode_png(data), image)
        (h, w), raw = formats.png_scanline_bytes(data)
        types = np.frombuffer(raw, np.uint8)[:: w + 1]
        assert (h, w) == image.shape
        assert counts.tolist() == np.bincount(types, minlength=5).tolist()
        if filter_type is not None:
            assert (types == filter_type).all()


def test_self_time_of_nested_calls():
    ticks = iter([0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 9.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks), peak_spans=())
    outer = tracer.open("outer")
    child = tracer.open("child")
    grandchild = tracer.open("grandchild")
    tracer.close(grandchild)
    tracer.close(child)
    sibling = tracer.open("sibling")
    tracer.close(sibling)
    tracer.close(outer)
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]
    assert spans.self_times(tracer.spans) == [4.0, 2.0, 1.0, 3.0]


def test_install_wraps_every_binding_and_restores_them():
    original = ensemble.conv2d_forward
    from_arrays = ensemble.MetaLearnerParams.__dict__["from_arrays"]
    tracer = spans.Tracer(peak_spans=())
    restore = spans.install(tracer)
    try:
        assert ensemble.conv2d_forward.__wrapped__ is original
        assert cli.main.__wrapped__ is not None
        assert cli.main(["ci", "--dice", "0.5", "--n", "10"]) == 0
        assert cli.main(["ci", "--dice", "2", "--n", "10"]) == 1
    finally:
        restore()
    assert ensemble.conv2d_forward is original
    assert ensemble.MetaLearnerParams.__dict__["from_arrays"] is from_arrays
    names = [s.name for s in tracer.spans]
    assert names.count("cli.main") == 2 and "stats.wald_ci" in names
    assert tracer.errors["stats"] == 1 and tracer.errors["cli"] == 0
    metrics = spans.per_layer(tracer, [1.0, 1.0], 0.1)
    assert [m for m, _, _ in spans.PER_LAYER] == list(metrics)
    assert metrics["stats.errors"]["value"] == 0.5
    assert 0 < metrics["stats.wald_ci.self_s"]["value"] < 0.5


def _corrupt_eval(out, patch):
    report = json.loads((out / "report.json").read_text())
    report["counts"]["tp"] += 1
    (out / "report.json").write_text(json.dumps(report))


def _corrupt_predict(out, patch):
    path = out / "case0_stack.pgm"
    data = bytearray(path.read_bytes())
    data[-1] = (data[-1] + 2) % 256
    path.write_bytes(bytes(data))


def _corrupt_train_loss(out, patch):
    path = out / "model.json.run.json"
    run = json.loads(path.read_text())
    run["train_loss"][0] *= 1.001
    path.write_text(json.dumps(run))


def _corrupt_train_params(out, patch):
    """Scale the head's weights as one Adam step too many would move them."""
    path = out / "model.json.layer4.weights.fst"
    weights = formats.decode_fst(path.read_bytes())
    path.write_bytes(formats.encode_fst(weights * 1.01))


def _corrupt_augment_manifest(out, patch):
    path = out / "augmented.tsv"
    path.write_text("".join(path.read_text().splitlines(True)[:-1]))


def _corrupt_augment_filter(out, patch):
    """Mark every scanline of an output mask as Sub-filtered, as a wrong
    encoder paired with a matching wrong decoder would."""
    path = out / "aug" / "aug00000_mask.png"
    shape, raw = formats.png_scanline_bytes(path.read_bytes())
    lines = np.frombuffer(raw, np.uint8).reshape(shape[0], -1).copy()
    lines[:, 0] = 1
    path.write_bytes(formats.assemble_png(shape, lines.tobytes()))


def _misdecode_paeth(out, patch):
    """Make segens decode Paeth scanlines as Up scanlines."""
    unfilter = imageio._unfilter_scanlines

    def paeth_as_up(raw, width, height, path=None):
        lines = np.frombuffer(raw, np.uint8).reshape(height, width + 1).copy()
        lines[lines[:, 0] == 4, 0] = 2
        return unfilter(lines.tobytes(), width, height, path=path)

    patch.setattr(imageio, "_unfilter_scanlines", paeth_as_up)


CORRUPT = {"eval_pooled": [_corrupt_eval], "stack_predict": [_corrupt_predict],
           "stack_train": [_corrupt_train_loss, _corrupt_train_params],
           "augment_png": [_corrupt_augment_manifest, _corrupt_augment_filter,
                           _misdecode_paeth]}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_output_check_passes_real_outputs_and_catches_corrupt_ones(tmp_path, name,
                                                                   monkeypatch):
    wl = workloads.WORKLOADS[name]
    inputs, expected = _generate(wl, tmp_path, 6)
    out = tmp_path / workloads.OUT
    out.mkdir()
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        assert cli.main(wl.argv(inputs.name, 6)) == 0
    finally:
        os.chdir(cwd)
    assert wl.check(tmp_path, inputs.name, expected, 6) == []
    shutil.copytree(out, tmp_path / "pristine")
    for corrupt in CORRUPT[name]:
        with monkeypatch.context() as patch:
            corrupt(out, patch)
            assert wl.check(tmp_path, inputs.name, expected, 6), corrupt.__name__
        shutil.rmtree(out)
        shutil.copytree(tmp_path / "pristine", out)


def test_benchmark_json_lists_what_the_code_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        list(spans.PER_LAYER)


def test_peak_rss_is_the_child_alone():
    """A parent that once held 256 MB does not raise the child's peak."""
    held = np.ones(2**25)  # 256 MB, every page touched
    del held
    child = subprocess.run([sys.executable, "-c", "import worker; print(worker.peak_rss_mb())"],
                           cwd=BENCH, capture_output=True, text=True, check=True)
    assert 1 < float(child.stdout) < 128


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_short_run_of_each_workload_passes_its_checks(name):
    proc = _bench("--workload", name, "--seed", "5", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert list(result["metrics"]) == [n for n, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    proc = _bench("--workload", "augment_png", "--seed", "5", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    assert list(metrics) == [n for n, _, _ in spans.PER_LAYER]
    assert metrics["imageio.load_gray.calls"]["value"] == 2 * workloads.AugmentPng.count
    assert metrics["imageio.png_rows.f4"]["value"] > 0
    assert metrics["augment.rotate.self_s"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "eval_pooled", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
