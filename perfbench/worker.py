"""One workload in a fresh process: a warm-up op, then timed ops.

run.py starts this script once per set-up sample and once for the timed
run, so that each process's peak RSS belongs to one workload alone. The
script imports segens from the checkout's ``src``, runs the op described
by ``plan.json`` in the workload directory, and writes its measurements
as JSON to ``--result``. With ``--trace 1`` the timed ops alternate
untraced and traced, which gives the tracing overhead from the same run.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine():
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads(), "numpy": np.__version__,
            "python": platform.python_version()}


def peak_rss_mb():
    """This process's peak resident set size in MB (2^20 bytes).

    VmHWM belongs to the current program image alone. ``ru_maxrss`` does
    not: Linux carries the parent's peak into it across fork and exec, so
    it would report run.py's input generation instead of the workload.
    """
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024.0


def digest(out):
    """sha256 over the names and bytes of every file an op wrote."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_op(cli, argv, out):
    """One ``segens.cli.main`` call with a fresh output directory."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception as exc:  # an uncaught error is a failed op, not a crash
        rc = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (after.ru_utime - usage.ru_utime) + (after.ru_stime - usage.ru_stime)
    return {"wall_s": wall, "cpu_s": cpu, "rc": rc, "digest": digest(out)}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="timed ops run until this much time has passed; 0: set-up only")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import segens.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"segens was imported from {cli.__file__}, not from {SRC}")
    workdir = Path(args.workdir)
    plan = json.loads((workdir / "plan.json").read_text())
    os.chdir(workdir)
    out = Path(plan["out"])

    warmup = run_op(cli, plan["argv"], out)
    result = {"setup_s": time.monotonic() - args.started, "warmup": warmup, "ops": []}
    if args.seconds > 0:
        tracer = restore = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            png_rows = {os.path.normpath(k): v for k, v in plan["png_rows"].items()}
        start = time.perf_counter()
        while (time.perf_counter() - start < args.seconds
               or len(result["ops"]) < 1 + args.trace):
            traced = bool(args.trace) and len(result["ops"]) % 2 == 1
            if traced:
                tracer.op = len(result["ops"]) // 2
                restore = spans.install(tracer, png_rows=png_rows)
            try:
                op = run_op(cli, plan["argv"], out)
            finally:
                if traced:
                    restore()
            op["traced"] = traced
            result["ops"].append(op)
        result["peak_rss_mb"] = peak_rss_mb()
        result["machine"] = machine()
        if tracer is not None:
            traced = [op["wall_s"] for op in result["ops"] if op["traced"]]
            plain = [op["wall_s"] for op in result["ops"] if not op["traced"]]
            # 1 - (traced ops per second) / (untraced ops per second)
            overhead = 1.0 - (sum(plain) / len(plain)) / (sum(traced) / len(traced))
            result["per_layer"] = spans.per_layer(tracer, traced, overhead)
            with open(workdir / "spans.jsonl", "w") as fh:
                for record in spans.span_records(tracer):
                    fh.write(json.dumps(record) + "\n")
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
