"""Span tracing from outside the program.

`instrument` replaces the public functions that the pipeline calls across
module boundaries with wrappers that record a span (name, start, end,
parent) plus a few counters per call. The spans stay in memory; `layer_metrics`
folds them into per-layer totals and `dump` writes them out once the run ends.
Nothing in touchfuse is edited: every wrapper is installed on a module or
class attribute and removed again by `restore`.
"""

import functools
import json
import os
import time

# Module-level functions wrapped by `instrument`; each span is named after
# the function it times.
FUNCTIONS = (
    "gpis.build_conditioning_set", "gpis.fit", "gpis.save_model", "gpis.load_model",
    "sdfrender.render_depth_variance",
    "touchsim.sample_touches", "touchsim.render_gt_depth", "touchsim.surface_points",
    "align.align_vision", "fuse.fuse_images",
    "splat.backproject_init", "splat.optimize", "splat.loss_gradients",
    "splat.footprint_pairs", "splat.render",
    "metrics.align_clouds", "metrics.chamfer",
)


class Tracer:
    """In-memory span list; a span is [name, start, end, parent index, counters]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, count=None):
        """Wrap `fn` so each call records a span; `count(args, result)`
        returns a dict of counters stored on the span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span[4] = count(args, result)
            return result
        return traced

    def dump(self, path):
        """Write the spans as JSON, each with its self time: its duration
        minus the durations of its direct children."""
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        records = [{"name": n, "start": s, "end": e, "parent": p, "self": e - s - child_s[i], **c}
                   for i, (n, s, e, p, c) in enumerate(self.spans)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(records, fh)


def _rows_by_conditioning(args, _result):
    model, points = args[0], args[1]
    return {"rows": len(points), "cond": len(model.conditioning)}


def _file_size(args, _result):
    return {"bytes": os.path.getsize(args[0])}


def instrument(tracer, tf):
    """Install span wrappers on the touchfuse package `tf`; returns the
    list of (owner, attribute, original) needed by `restore`."""
    originals = []

    def patch(owner, attr, name, count=None):
        original = getattr(owner, attr)
        originals.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, count))

    stage_funcs = tf.pipeline.STAGE_FUNCS
    for stage in tf.pipeline.STAGE_ORDER:
        originals.append((stage_funcs, stage, stage_funcs[stage]))
        stage_funcs[stage] = tracer.wrap(f"pipeline.{stage}", stage_funcs[stage])

    counters = {
        "gpis.fit": lambda args, _r: {"cond": len(args[0])},
        "gpis.save_model": _file_size,
        "splat.footprint_pairs": lambda _a, result: {"pairs": int(result[0].size)},
    }
    for name in FUNCTIONS:
        module, attr = name.split(".")
        patch(getattr(tf, module), attr, name, counters.get(name))
    patch(tf.gpis.GPISModel, "query_mean", "gpis.query_mean", _rows_by_conditioning)
    patch(tf.gpis.GPISModel, "query", "gpis.query", _rows_by_conditioning)

    for attr in sorted(vars(tf.fileio)):
        fn = getattr(tf.fileio, attr)
        if not callable(fn) or getattr(fn, "__module__", None) != tf.fileio.__name__:
            continue
        if attr.startswith("read_"):
            patch(tf.fileio, attr, "fileio.read", _file_size)
        elif attr == "atomic_write_bytes":
            patch(tf.fileio, attr, "fileio.write", lambda args, _r: {"bytes": len(args[1])})
        elif attr.startswith(("write_", "atomic_write_")):
            patch(tf.fileio, attr, "fileio.write")
    return originals


def restore(originals):
    for owner, attr, original in reversed(originals):
        if isinstance(owner, dict):
            owner[attr] = original
        else:
            setattr(owner, attr, original)


def layer_metrics(spans, wall_s):
    """Per-layer totals, counts and derived ratios of one traced round.

    `wall_s` is the round's cold pipeline wall time; what the stage spans
    do not cover is the pipeline's own hashing and manifest bookkeeping.
    """
    def dur(span):
        return span[2] - span[1]

    total, calls = {}, {}
    for span in spans:
        total[span[0]] = total.get(span[0], 0.0) + dur(span)
        calls[span[0]] = calls.get(span[0], 0) + 1

    def seconds(name):
        return total.get(name, 0.0)

    def counter(name, key):
        return sum(s[4].get(key, 0) for s in spans if s[0] == name)

    stages = [name for name in total if name.startswith("pipeline.")]
    out = {f"{name.replace('-', '_')}_s": total[name] for name in stages}
    out["pipeline.bookkeeping_s"] = wall_s - sum(total[name] for name in stages)

    fits = [s for s in spans if s[0] == "gpis.fit"]
    out["gpis.cond_points"] = fits[-1][4]["cond"] if fits else 0
    out["gpis.fit_calls"] = len(fits)
    for name in ("fit", "build_conditioning_set", "query_mean", "query", "save_model", "load_model"):
        out[f"gpis.{name}_s"] = seconds(f"gpis.{name}")
    out["gpis.model_mb"] = counter("gpis.save_model", "bytes") / 1e6
    kernel_evals = sum(s[4]["rows"] * s[4]["cond"] for s in spans
                       if s[0] in ("gpis.query_mean", "gpis.query"))
    out["gpis.kernel_evals"] = kernel_evals
    query_s = seconds("gpis.query_mean") + seconds("gpis.query")
    out["gpis.kernel_evals_per_s"] = kernel_evals / query_s if query_s > 0 else 0.0

    renders = {i for i, s in enumerate(spans) if s[0] == "sdfrender.render_depth_variance"}
    children = [s for s in spans if s[3] in renders]
    first_march = {}
    for s in children:
        if s[0] == "gpis.query_mean":
            first_march.setdefault(s[3], s[4]["rows"])
    out["sdfrender.render_s"] = seconds("sdfrender.render_depth_variance")
    out["sdfrender.render_self_s"] = out["sdfrender.render_s"] - sum(dur(s) for s in children)
    out["sdfrender.candidate_rays"] = sum(first_march.values())
    out["sdfrender.hit_rays"] = sum(s[4]["rows"] for s in children if s[0] == "gpis.query")
    out["sdfrender.march_iters"] = sum(1 for s in children if s[0] == "gpis.query_mean")
    out["sdfrender.march_rows"] = sum(s[4]["rows"] for s in children if s[0] == "gpis.query_mean")

    for name in ("sample_touches", "render_gt_depth", "surface_points"):
        out[f"touchsim.{name}_s"] = seconds(f"touchsim.{name}")
    out["align.align_vision_s"] = seconds("align.align_vision")
    out["fuse.fuse_images_s"] = seconds("fuse.fuse_images")

    for name in ("backproject_init", "optimize", "loss_gradients", "footprint_pairs", "render"):
        out[f"splat.{name}_s"] = seconds(f"splat.{name}")
    optimize_s = seconds("splat.optimize")
    out["splat.iters_per_s"] = calls.get("splat.loss_gradients", 0) / optimize_s if optimize_s else 0.0
    out["splat.footprint_pairs"] = counter("splat.footprint_pairs", "pairs")

    out["metrics.align_clouds_s"] = seconds("metrics.align_clouds")
    out["metrics.chamfer_s"] = seconds("metrics.chamfer")

    # Only outermost fileio spans: write_pfm nests an atomic_write_bytes span.
    fileio_ids = {i for i, s in enumerate(spans) if s[0].startswith("fileio.")}
    for kind in ("write", "read"):
        name = f"fileio.{kind}"
        out[f"{name}_s"] = sum(dur(s) for s in spans if s[0] == name and s[3] not in fileio_ids)
    out["fileio.write_mb"] = counter("fileio.write", "bytes") / 1e6
    out["fileio.read_mb"] = sum(s[4].get("bytes", 0) for s in spans
                                if s[0] == "fileio.read" and s[3] not in fileio_ids) / 1e6
    out["trace.spans"] = len(spans)
    return out
