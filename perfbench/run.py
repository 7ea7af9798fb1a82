"""Benchmark of the ``segens`` command line on seeded, generated inputs.

    python3 perfbench/run.py --workload eval_pooled --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py                     # every workload, one after another

Run from the root of a checkout: segens is imported from ``src/``.
Inputs are generated from the seed into ``perfbench/.work/`` and reused
for the same seed. Each workload runs as a closed loop in fresh child
processes (see worker.py): two set-up samples, then a timed process that
runs a warm-up op and timed ops for ``--seconds``. Every op's outputs
are checked. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUP_SAMPLES = 3
KEEP_INPUTS = 2
# A child that runs this much longer than its timed seconds is killed.
CHILD_SLACK_S = 60
END_TO_END = (("items_per_s", "items/s"), ("op_p50_s", "s"), ("cpu_s_per_item", "s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))


def generator_version():
    """Hash of the code that makes inputs, so a change to it regenerates."""
    h = hashlib.sha256()
    for name in ("workloads.py", "formats.py", "oracle.py"):
        h.update((HERE / name).read_bytes())
    return h.hexdigest()[:10]


def prepare(wl, seed):
    """Generate (or reuse) the seed's inputs; write the op plan."""
    workdir = WORK / wl.name
    inputs = workdir / f"inputs-{generator_version()}-s{seed}"
    marker = inputs / "expected.json"
    if marker.is_file():
        expected = json.loads(marker.read_text())
        marker.touch()
    else:
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        expected = wl.generate(inputs, seed)
        marker.write_text(json.dumps(expected))
    cached = sorted(workdir.glob("inputs-*/expected.json"), key=lambda p: p.stat().st_mtime)
    for old in cached[:-KEEP_INPUTS]:
        shutil.rmtree(old.parent)
    plan = {"argv": wl.argv(inputs.name, seed), "out": workloads.OUT,
            "png_rows": expected.get("png_filters", {})}
    (workdir / "plan.json").write_text(json.dumps(plan))
    return workdir, inputs.name, expected


def _die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def spawn(workdir, seconds, trace, tag):
    result = workdir / f"result-{tag}.json"
    result.unlink(missing_ok=True)
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workdir", str(workdir),
         "--result", str(result), "--started", repr(started),
         "--seconds", repr(seconds), "--trace", str(trace)],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=seconds + CHILD_SLACK_S)
    if proc.returncode != 0 or not result.is_file():
        _die(f"worker exited with {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(result.read_text())


def judge(wl, workdir, inputs, expected, seed, runs):
    """Mark each op ok or failed. Every op of a run has the same inputs and
    segens is deterministic, so an op passes when it exited 0, wrote the
    same bytes as the last op, and those bytes (still on disk) pass the
    workload's check."""
    try:
        problems = wl.check(workdir, inputs, expected, seed)
    except Exception as exc:  # missing or malformed outputs fail the check
        problems = [f"outputs unreadable: {type(exc).__name__}: {exc}"]
    reference = runs[-1]["ops"][-1]["digest"]
    ops = [r["warmup"] for r in runs] + runs[-1]["ops"]
    for op in ops:
        op["ok"] = op["rc"] == 0 and op["digest"] == reference and not problems
    return problems, ops


def run_workload(name, seed, seconds, trace):
    wl = workloads.WORKLOADS[name]
    workdir, inputs, expected = prepare(wl, seed)
    runs = [spawn(workdir, 0, 0, f"setup{i}") for i in range(SETUP_SAMPLES - 1)]
    runs.append(spawn(workdir, seconds, trace, "timed"))
    timed = runs[-1]
    problems, ops = judge(wl, workdir, inputs, expected, seed, runs)
    failed = sum(not op["ok"] for op in ops)
    measured = [op for op in timed["ops"] if not op["traced"]]
    walls = [op["wall_s"] for op in measured]
    items = wl.items_per_op * sum(op["ok"] for op in measured)
    values = {
        "items_per_s": items / sum(walls),
        "op_p50_s": statistics.median(walls),
        "cpu_s_per_item": sum(op["cpu_s"] for op in measured) / max(items, 1),
        "peak_rss_mb": timed["peak_rss_mb"],
        "setup_s": statistics.median(r["setup_s"] for r in runs),
    }
    summary = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "item": wl.item, "items_per_op": wl.items_per_op, "timed_ops": len(measured),
        "attempted": len(ops), "failed": failed, "ops_failed_frac": failed / len(ops),
        "problems": problems, "machine": timed["machine"],
        "end_to_end": {k: {"value": values[k], "unit": u} for k, u in END_TO_END},
        "per_layer": timed.get("per_layer"), "ops": ops,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-s{seed}-trace{trace}.json").write_text(json.dumps(summary, indent=1))
    return summary


def report(s):
    print(f"== {s['workload']} (seed {s['seed']}, {s['timed_ops']} timed ops of "
          f"{s['items_per_op']} {s['item']}(s), trace {s['trace']})")
    print("machine: " + json.dumps(s["machine"]))
    for name, m in s["end_to_end"].items():
        note = f"  (median of {s['timed_ops']} ops)" if name == "op_p50_s" else ""
        print(f"{name:>16} = {m['value']:.6g} {m['unit']}{note}")
    print(f"{'ops_failed_frac':>16} = {s['ops_failed_frac']:.6g} ratio "
          f"({s['failed']} of {s['attempted']} checked ops)")
    for problem in s["problems"]:
        print(f"  check failed: {problem}")
    if s["per_layer"]:
        for name, m in s["per_layer"].items():
            if m["value"]:
                print(f"  {name} = {m['value']:.6g} {m['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "segens" / "cli.py").is_file():
        _die(f"no segens sources under {ROOT / 'src'}; run from a segens checkout")
    sys.path.insert(0, str(ROOT / "src"))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = [run_workload(n, args.seed, args.seconds, args.trace) for n in names]
    for s in summaries:
        report(s)
    key = "per_layer" if args.trace else "end_to_end"
    if len(summaries) == 1:
        metrics = summaries[0][key]
    else:
        metrics = {f"{s['workload']}.{k}": v for s in summaries for k, v in s[key].items()}
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
