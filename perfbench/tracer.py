"""Outside-in span recorder and the per-layer metrics derived from it.

The traced run replaces public conewave functions, in the namespace of the
module that calls them, by wrappers that record a span per call: name,
layer, start, end, parent span and op id, plus counts taken from the
arguments and the result.  ``speedscan`` and ``frames`` bind their helpers
at import time, so a wrapper must be installed where the caller looks the
name up, not where the function is defined.  Spans stay in memory and are
written out when the run ends.

A layer's self time is the time its spans cover minus the time their child
spans cover (including the tracer's own work for those children, which is
booked separately as overhead), so the self times of all layers, the
harness and the overhead add up to the op time.
"""

import csv
import importlib
import os
import time
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("cli", "stvio", "synth", "stcwt", "kernels", "speedscan", "frames")
# Layers an op runs through; synth only builds inputs during set-up.
OP_LAYERS = tuple(layer for layer in LAYERS if layer != "synth")


def _nbytes_out(args, kwargs, out):
    return {"bytes": int(out.data.nbytes)}


def _power_bytes(args, kwargs, out):
    # The float64 power spectrum each energy call forms from the spectrum.
    spec = args[0] if args else kwargs["spec"]
    return {"bytes": 8 * int(spec.data.size)}


def _support(args, kwargs, out):
    return {"points": int(np.size(out)), "nonzero": int(np.count_nonzero(out))}


def _file_bytes(args, kwargs, out):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# (module, name in that module's namespace, layer, counter).  The module is
# the caller's, so the wrapper sees every call the pipeline makes.
WRAPS = (
    ("conewave.cli", "main", "cli", None),
    ("conewave.stvio", "read_stv", "stvio", _file_bytes),
    ("conewave.stvio", "write_stv", "stvio", _file_bytes),
    ("conewave.stvio", "write_csv", "stvio", _file_bytes),
    ("conewave.synth", "generate", "synth", None),
    ("conewave.synth", "add_noise", "synth", None),
    ("conewave.speedscan", "scan_speeds", "speedscan", None),
    ("conewave.speedscan", "scan_orientations", "speedscan", None),
    ("conewave.speedscan", "aperture_sweep", "speedscan", None),
    ("conewave.speedscan", "golden_section_maximize", "speedscan", None),
    ("conewave.speedscan", "forward_fft3", "stcwt", _nbytes_out),
    ("conewave.speedscan", "tuned_energy_detail", "stcwt", _power_bytes),
    ("conewave.speedscan", "tuned_energy", "stcwt", _power_bytes),
    ("conewave.stcwt", "tuned_filter_factors", "stcwt", None),
    ("conewave.stcwt", "tuned_spatial", "kernels", _support),
    ("conewave.stcwt", "tuned_temporal", "kernels", None),
    ("conewave.frames", "estimate_bounds", "frames", None),
    ("conewave.frames", "lambda_fn", "frames", None),
    ("conewave.frames", "golden_section_maximize", "frames", None),
    ("conewave.frames", "eval_gc_2d", "kernels", _support),
)


@dataclass
class Span:
    name: str
    layer: str
    parent: int | None
    op: int | None
    start: float = 0.0
    end: float = 0.0
    outer: float = 0.0  # time the call took as seen by the caller, tracer included
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Holds the spans of one run and the wrappers that record them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None  # id of the running op; None during set-up
        self.absent: list[str] = []
        self.counter_errors: dict[str, str] = {}
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def wrap(self, fn, name, layer, counter=None):
        """fn wrapped so that every call records a span."""

        def traced(*args, **kwargs):
            enter = time.perf_counter()
            span = Span(name, layer, self._stack[-1] if self._stack else None, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                span.outer = span.end - enter
            if counter is not None:
                try:
                    span.counts = counter(args, kwargs, out)
                except Exception as exc:  # a changed signature must not stop the run
                    self.counter_errors.setdefault(name, repr(exc))
            span.outer = time.perf_counter() - enter
            return out

        return traced

    def install(self, wraps=WRAPS):
        """Wrap every listed name that exists; record the others as absent."""
        self.absent = []
        for module_name, attr, layer, counter in wraps:
            name = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            setattr(module, attr, self.wrap(fn, name, layer, counter))
            self._installed.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def write(self, path):
        """Write the spans as CSV: id, parent, op, layer, name, start, end, counts."""
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "op", "layer", "name", "start", "end", "counts"])
            for i, s in enumerate(self.spans):
                counts = ";".join(f"{k}={v}" for k, v in s.counts.items())
                out.writerow([i, "" if s.parent is None else s.parent,
                              "" if s.op is None else s.op, s.layer, s.name,
                              repr(s.start), repr(s.end), counts])


def self_times(spans):
    """Self time of every span: its duration minus its children's outer time."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.outer
    return [s.duration - c for s, c in zip(spans, covered)]


def under(spans, ancestor_name):
    """For every span, whether a span named ancestor_name encloses it."""
    flags = [False] * len(spans)
    for i, s in enumerate(spans):
        p = s.parent
        if p is not None:
            flags[i] = flags[p] or spans[p].name == ancestor_name
    return flags


def _ratio(num, den):
    return num / den if den else 0.0


ENERGY = ("speedscan.tuned_energy_detail", "speedscan.tuned_energy")


def _counts(rows, n):
    """Exact counts per op over the rows of the n ops of the counting window."""
    n = max(n, 1)
    by_name = {}
    for s, _, _, _ in rows:
        by_name.setdefault(s.name, []).append(s)

    def calls(*names):
        return sum(len(by_name.get(x, ())) for x in names)

    def total(key, *names):
        return sum(s.counts.get(key, 0) for x in names for s in by_name.get(x, ()))

    spatial_points = total("points", "stcwt.tuned_spatial")
    gc_points = total("points", "frames.eval_gc_2d")
    return {
        "stvio.read_bytes": total("bytes", "stvio.read_stv") / n,
        "stvio.write_bytes": total("bytes", "stvio.write_stv", "stvio.write_csv") / n,
        "stcwt.fft_calls": calls("speedscan.forward_fft3") / n,
        "stcwt.fft_bytes_computed": total("bytes", "speedscan.forward_fft3") / n,
        "stcwt.energy_calls": calls(*ENERGY) / n,
        "stcwt.energy_bytes_computed": total("bytes", *ENERGY) / n,
        "stcwt.alias_terms_per_tuning": _ratio(calls("stcwt.tuned_spatial"),
                                               calls("stcwt.tuned_filter_factors")),
        "kernels.spatial_calls": calls("stcwt.tuned_spatial") / n,
        "kernels.spatial_points": spatial_points / n,
        "kernels.spatial_support_ratio": _ratio(total("nonzero", "stcwt.tuned_spatial"),
                                                spatial_points),
        "kernels.gc_calls": calls("frames.eval_gc_2d") / n,
        "kernels.gc_points": gc_points / n,
        "kernels.gc_support_ratio": _ratio(total("nonzero", "frames.eval_gc_2d"), gc_points),
        "speedscan.grid_tunings": sum(1 for s, _, r, _ in rows if s.name in ENERGY and not r) / n,
        "speedscan.refine_evals": sum(1 for s, _, r, _ in rows if s.name in ENERGY and r) / n,
        "frames.polish_evals": sum(1 for s, _, _, p in rows
                                   if s.name == "frames.lambda_fn" and p) / n,
    }


def _times(rows, n):
    """Times per op over the rows of n ops."""
    n = max(n, 1)
    incl, own, layers = {}, {}, {}
    for s, t, _, _ in rows:
        incl[s.name] = incl.get(s.name, 0.0) + s.duration
        own[s.name] = own.get(s.name, 0.0) + t
        layers[s.layer] = layers.get(s.layer, 0.0) + t
    overhead = sum(s.outer - s.duration for s, _, _, _ in rows if s.parent is not None)
    grid = sum(s.duration for s, _, r, _ in rows if s.name in ENERGY and not r)
    lam_grid = sum(s.duration for s, _, _, p in rows if s.name == "frames.lambda_fn" and not p)
    polish = incl.get("frames.golden_section_maximize", 0.0)
    out = {f"{layer}.self_s": layers.get(layer, 0.0) / n for layer in OP_LAYERS}
    out.update({
        "stvio.read_s": incl.get("stvio.read_stv", 0.0) / n,
        "stvio.write_s": (incl.get("stvio.write_stv", 0.0) + incl.get("stvio.write_csv", 0.0)) / n,
        "stcwt.fft_s": own.get("speedscan.forward_fft3", 0.0) / n,
        "stcwt.energy_self_s": sum(own.get(x, 0.0) for x in ENERGY) / n,
        "stcwt.factors_self_s": own.get("stcwt.tuned_filter_factors", 0.0) / n,
        "kernels.spatial_s": incl.get("stcwt.tuned_spatial", 0.0) / n,
        "kernels.temporal_s": incl.get("stcwt.tuned_temporal", 0.0) / n,
        "kernels.gc_s": incl.get("frames.eval_gc_2d", 0.0) / n,
        "speedscan.grid_s": grid / n,
        "speedscan.refine_s": incl.get("speedscan.golden_section_maximize", 0.0) / n,
        "frames.lambda_grid_s": lam_grid / n,
        "frames.polish_s": polish / n,
        "frames.gamma_s": (incl.get("frames.estimate_bounds", 0.0) - lam_grid - polish) / n,
        "trace.harness_self_s": layers.get("bench", 0.0) / n,
        "trace.overhead_s": overhead / n,
        "trace.spans_per_op": len(rows) / n,
    })
    return out


def layer_metrics(recorder, n_ops, count_ops):
    """Per-layer metrics of a traced run.

    Times are per op over the n_ops traced ops; counts are per op over the
    first count_ops ops, so they repeat exactly for a given seed.  Set-up
    spans (op None) give the per-set-up synth and stvio figures.
    """
    spans = recorder.spans
    rows = list(zip(spans, self_times(spans), under(spans, "speedscan.golden_section_maximize"),
                    under(spans, "frames.golden_section_maximize")))
    out = _times([r for r in rows if r[0].op is not None], n_ops)
    out.update(_counts([r for r in rows if r[0].op is not None and r[0].op < count_ops],
                       count_ops))
    setup = [s for s in spans if s.op is None]
    out["synth.generate_s"] = sum(s.duration for s in setup if s.layer == "synth")
    writes = [s for s in setup if s.name == "stvio.write_stv"]
    out["stvio.setup_write_s"] = sum(s.duration for s in writes)
    out["stvio.setup_write_bytes"] = sum(s.counts.get("bytes", 0) for s in writes)
    out["trace.absent_names"] = len(recorder.absent)
    return out


COUNT_METRICS = (
    "stvio.read_bytes", "stvio.write_bytes", "stvio.setup_write_bytes",
    "stcwt.fft_calls", "stcwt.fft_bytes_computed", "stcwt.energy_calls",
    "stcwt.energy_bytes_computed", "stcwt.alias_terms_per_tuning",
    "kernels.spatial_calls", "kernels.spatial_points", "kernels.spatial_support_ratio",
    "kernels.gc_calls", "kernels.gc_points", "kernels.gc_support_ratio",
    "speedscan.grid_tunings", "speedscan.refine_evals", "frames.polish_evals",
)


def unit(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("ops_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "bytes"
    if name.endswith(("_ratio", ".slowdown")):
        return "ratio"
    return "count"


# Which end-to-end metric each layer metric should move, and on which
# workload.  These are the per-layer metrics of a traced run (PER_LAYER);
# the tracer's own figures (trace.*) are diagnostics, reported beside them.
LAYER_MAP = {
    "cli.self_s": "op_p50_s on scan-small-cli",
    "stvio.self_s, stvio.read_s, stvio.read_bytes, stvio.write_s, stvio.write_bytes":
        "op_p50_s on scan-small-cli",
    "stvio.setup_write_s, stvio.setup_write_bytes, synth.generate_s": "setup_s",
    "stcwt.self_s": "op_p50_s on scan-large",
    "stcwt.fft_s, stcwt.fft_calls, stcwt.fft_bytes_computed":
        "op_p50_s and peak_rss_mb on scan-large; not sweep-orient",
    "stcwt.energy_self_s, stcwt.energy_calls, stcwt.energy_bytes_computed":
        "op_p50_s and peak_rss_mb on scan-large",
    "stcwt.factors_self_s, stcwt.alias_terms_per_tuning": "ops_per_s on sweep-orient",
    "kernels.self_s": "ops_per_s on sweep-orient; op_p50_s on frame-bounds",
    "kernels.spatial_s, kernels.spatial_calls, kernels.spatial_points, "
    "kernels.spatial_support_ratio, kernels.temporal_s":
        "ops_per_s on sweep-orient; op_p50_s on scan-small-cli",
    "kernels.gc_s, kernels.gc_calls, kernels.gc_points, kernels.gc_support_ratio":
        "op_p50_s on frame-bounds",
    "speedscan.self_s, speedscan.grid_s, speedscan.grid_tunings, speedscan.refine_s, "
    "speedscan.refine_evals": "op_p50_s on scan-small-cli (the only workload that refines)",
    "frames.self_s, frames.lambda_grid_s, frames.polish_s, frames.polish_evals, frames.gamma_s":
        "op_p50_s on frame-bounds",
}
PER_LAYER = tuple(name for names in LAYER_MAP for name in names.split(", "))
