"""Spans around segens' public functions, recorded from outside the program.

``install`` replaces every public function and classmethod of the layer
modules, in every segens namespace that binds it, by a wrapper that
records a span: name, start, end, parent, and for some calls a few
attributes (the conv layer and its computed flops, bytes read or
written, pixels evaluated). A ``from .x import y`` binding is wrapped
where it lives, so calls made through it are seen. Spans stay in memory
until the run ends.

``per_layer`` turns the spans of the traced ops into the per-layer
metrics listed in ``PER_LAYER``, each a mean per traced op.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("cli", "imageio", "augment", "ensemble", "ndtensor", "losses",
          "morpho", "metrics", "stats")
CONV_LAYER = {256: 0, 128: 1, 64: 2, 32: 3, 1: 4}
MB = float(1 << 20)


# Spans whose allocation peak is measured. tracemalloc runs only inside
# them: on Python-heavy code such as the PNG unfilter loops it slows
# every allocation several-fold.
PEAK_SPANS = frozenset({"ndtensor.conv2d_forward", "ndtensor.conv2d_backward",
                        "metrics.pr_roc_curves"})


class Span:
    __slots__ = ("id", "op", "parent", "name", "start", "end", "attrs", "peak", "owns_trace")

    def __init__(self, id, op, parent, name, start):
        self.id, self.op, self.parent, self.name, self.start = id, op, parent, name, start
        self.end = None
        self.attrs = {}
        self.peak = 0
        self.owns_trace = False


class Tracer:
    """Collects nested spans. A span named in ``peak_spans`` also gets
    the peak of the memory allocated during it, as traced by
    ``tracemalloc`` (which numpy reports to). Single-threaded: spans
    nest strictly."""

    def __init__(self, clock=time.perf_counter, peak_spans=PEAK_SPANS):
        self.clock = clock
        self.peak_spans = peak_spans
        self.spans = []
        self.errors = defaultdict(int)
        self.op = 0
        self._stack = []
        self._raised = {}

    def open(self, name):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), self.op, parent, name, None)
        if name in self.peak_spans and not tracemalloc.is_tracing():
            span.owns_trace = True
            tracemalloc.start()
        self.spans.append(span)
        self._stack.append(span)
        span.start = self.clock()
        return span

    def close(self, span):
        span.end = self.clock()
        self._stack.pop()
        if span.owns_trace:
            span.peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()

    def raised(self, layer, exc):
        """Count ``exc`` once per layer it passes through."""
        seen = self._raised.setdefault(id(exc), (exc, set()))[1]
        if layer not in seen:
            seen.add(layer)
            self.errors[layer] += 1


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for s in spans:
        covered, reach = 0.0, s.start
        for start, end in sorted(children[s.id]):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(s.end - s.start - covered)
    return out


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _conv_attrs(args, kwargs, backward):
    x, kernel = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "kernel")
    o, c, kh, kw = kernel.weights.shape
    flops = 2 * o * c * kh * kw * x.shape[1] * x.shape[2]
    # backward does two GEMMs of the forward's size: weight and input grads
    return {"layer": CONV_LAYER.get(o), "flops": 2 * flops if backward else flops}


def _annotators(png_rows):
    def load_gray(args, kwargs, result):
        path = os.fspath(_arg(args, kwargs, 0, "path"))
        return {"path": path, "bytes": os.path.getsize(path),
                "png_rows": png_rows.get(os.path.normpath(path))}

    def store_gray(args, kwargs, result):
        return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}

    def evaluate_pairs(args, kwargs, result):
        preds = _arg(args, kwargs, 0, "predictions")
        if isinstance(preds, (list, tuple)):
            return {"pixels": sum(int(getattr(p, "size", 0)) for p in preds)}
        return {}

    return {
        "ndtensor.conv2d_forward": lambda a, k, r: _conv_attrs(a, k, False),
        "ndtensor.conv2d_backward": lambda a, k, r: _conv_attrs(a, k, True),
        "imageio.load_gray": load_gray,
        "imageio.store_gray": store_gray,
        "metrics.evaluate_pairs": evaluate_pairs,
    }


def _wrap(tracer, name, layer, fn, annotate):
    def traced(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.raised(layer, exc)
            raise
        finally:
            tracer.close(span)
        if annotate is not None:
            span.attrs = annotate(args, kwargs, result)
        return result

    traced.__wrapped__ = fn
    return traced


def install(tracer, package="segens", png_rows=None):
    """Wrap the layers' public functions and classmethods in place.

    ``png_rows`` maps a normalized PNG path to its scanline count per
    filter type, recorded on each ``load_gray`` span. Returns a callable
    that puts the original functions back.
    """
    annotators = _annotators(png_rows or {})
    wrappers, patches = {}, []
    for layer in LAYERS:
        module = sys.modules[f"{package}.{layer}"]
        for attr, value in vars(module).items():
            if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                name = f"{layer}.{attr}"
                wrappers[value] = _wrap(tracer, name, layer, value, annotators.get(name))
            elif inspect.isclass(value):
                for cattr, member in list(vars(value).items()):
                    if isinstance(member, classmethod) and not cattr.startswith("_"):
                        patches.append((value, cattr, member))
                        setattr(value, cattr, classmethod(_wrap(
                            tracer, f"{layer}.{cattr}", layer, member.__func__, None)))
    for mod_name, module in list(sys.modules.items()):
        if mod_name != package and not mod_name.startswith(package + "."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                patches.append((module, attr, value))
                setattr(module, attr, wrappers[value])

    def restore():
        for owner, attr, value in reversed(patches):
            setattr(owner, attr, value)

    return restore


# name, unit, better
PER_LAYER = (
    [(f"ndtensor.conv2d_{d}.L{i}.self_s", "s", "lower")
     for d in ("forward", "backward") for i in range(5)]
    + [(f"ndtensor.conv2d_{d}.{m}", u, b) for d in ("forward", "backward")
       for m, u, b in (("flops", "flop", "lower"), ("gflops_per_s", "GFLOP/s", "higher"),
                       ("L0.peak_alloc_mb", "MB", "lower"))]
    + [("ndtensor.activations.self_s", "s", "lower")]
    + [(f"{f}.{m}", u, "lower")
       for f in ("ndtensor.adam_step", "losses.focal_tversky_loss",
                 "morpho.boundary_soft_labels", "ensemble.from_arrays")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"{f}.self_s", "s", "lower")
       for f in ("ensemble.train_metalearner", "ensemble.predict_metalearner",
                 "ensemble.load_metalearner", "ensemble.save_metalearner",
                 "imageio.load_feature_stack")]
    + [("imageio.load_gray.calls", "count", "lower"), ("imageio.load_gray.self_s", "s", "lower"),
       ("imageio.load_gray.bytes_in", "bytes", "lower")]
    + [(f"imageio.png_rows.f{i}", "count", "lower") for i in range(5)]
    + [("augment.decode_unique_ratio", "ratio", "higher")]
    + [("imageio.store_gray.calls", "count", "lower"), ("imageio.store_gray.self_s", "s", "lower"),
       ("imageio.store_gray.bytes_out", "bytes", "lower")]
    + [(f"augment.{f}.self_s", "s", "lower")
       for f in ("rotate", "zoom", "mirror", "augment_dataset")]
    + [(f"metrics.{f}.self_s", "s", "lower")
       for f in ("evaluate_pairs", "confusion", "mask_level_match", "pr_roc_curves",
                 "write_curve_csv")]
    + [("metrics.pr_roc_curves.peak_alloc_mb", "MB", "lower"),
       ("metrics.pixels", "count", "lower")]
    + [(f"stats.{f}.self_s", "s", "lower") for f in ("wald_ci", "clopper_pearson_ci")]
    + [(f"{f}.self_s", "s", "lower")
       for f in ("cli.main", "imageio.read_manifest", "imageio.write_manifest")]
    + [(f"{layer}.errors", "count", "lower") for layer in LAYERS]
    + [("trace.untraced_s", "s", "lower"), ("trace.overhead_frac", "ratio", "lower")]
)


def per_layer(tracer, op_walls, overhead_frac):
    """Per-layer metrics, each a mean per traced op (peaks: the maximum).

    ``op_walls`` are the traced ops' wall times, in op order, and
    ``overhead_frac`` is 1 - traced / untraced items per second.
    """
    n = len(op_walls)
    selfs = self_times(tracer.spans)
    total = defaultdict(float)
    calls = defaultdict(int)
    peak = defaultdict(float)
    top = defaultdict(float)
    loads = defaultdict(set)
    for s, own in zip(tracer.spans, selfs):
        name = s.name
        layer = s.attrs.get("layer")
        if layer is not None:
            name = f"{name}.L{layer}"
            total[f"{s.name}.flops"] += s.attrs["flops"]
            total[f"{s.name}.duration"] += s.end - s.start
        total[f"{name}.self_s"] += own
        calls[name] += 1
        peak[name] = max(peak[name], s.peak / MB)
        if s.parent is None:
            top[s.op] += s.end - s.start
        if not s.attrs:  # the call raised
            continue
        if s.name == "imageio.load_gray":
            loads[s.op].add(s.attrs["path"])
            total["imageio.load_gray.bytes_in"] += s.attrs["bytes"]
            for i, rows in enumerate(s.attrs["png_rows"] or ()):
                total[f"imageio.png_rows.f{i}"] += rows
        elif s.name == "imageio.store_gray":
            total["imageio.store_gray.bytes_out"] += s.attrs["bytes"]
        elif s.name == "metrics.evaluate_pairs":
            total["metrics.pixels"] += s.attrs.get("pixels", 0)
    for layer in ("relu_forward_backward", "sigmoid_forward_backward"):
        total["ndtensor.activations.self_s"] += total[f"ndtensor.{layer}.self_s"]
    for f in ("ndtensor.adam_step", "losses.focal_tversky_loss",
              "morpho.boundary_soft_labels", "ensemble.from_arrays",
              "imageio.load_gray", "imageio.store_gray"):
        total[f"{f}.calls"] = calls[f]
    for layer in LAYERS:
        total[f"{layer}.errors"] = tracer.errors[layer]
    total["trace.untraced_s"] = sum(w - top[op] for op, w in enumerate(op_walls))
    out = {}
    for name, unit, _ in PER_LAYER:
        if name.endswith("gflops_per_s"):
            base = name[: -len(".gflops_per_s")]
            seconds = total[f"{base}.duration"]
            value = total[f"{base}.flops"] / seconds / 1e9 if seconds else 0.0
        elif name.endswith("peak_alloc_mb"):
            value = peak[name[: -len(".peak_alloc_mb")]]
        elif name == "augment.decode_unique_ratio":
            n_loads = calls["imageio.load_gray"]
            value = sum(len(v) for v in loads.values()) / n_loads if n_loads else 0.0
        elif name == "trace.overhead_frac":
            value = overhead_frac
        else:
            value = total[name] / n
        out[name] = {"value": value, "unit": unit}
    return out


def span_records(tracer):
    """The spans as JSON-ready dicts, with their self time."""
    for s, own in zip(tracer.spans, self_times(tracer.spans)):
        yield {"id": s.id, "parent": s.parent, "op": s.op, "name": s.name,
               "start": s.start, "end": s.end, "self_s": own, "peak_alloc_mb": s.peak / MB,
               **{k: v for k, v in s.attrs.items() if k != "png_rows"}}
