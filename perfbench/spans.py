"""In-memory spans around rtspect's layer functions, and the metrics they give.

The tracer wraps functions from outside, at the module attribute through
which the calling code looks them up (``rtspect.spectrum.assemble_forms``,
not ``rtspect.assembly.assemble_forms``), and class methods on the class.
Nothing in rtspect is edited.  Spans are kept in memory and written out
when the traced run ends.

A span's parent is the innermost open span of its own thread.  A span that
opens in a worker thread with nothing open there gets, as its parent, the
innermost open span of the thread that made the tracer: that is the call
that is waiting on the worker pool.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time

# (module, attribute, span name): functions wrapped where they are looked up
FUNCTIONS = (
    ("rtspect.pipeline", "profile_bounds", "profiles.profile_bounds"),
    ("rtspect.pipeline", "truncation_points", "outer_general.truncation_points"),
    ("rtspect.pipeline", "coercive_window", "outer_general.coercive_window"),
    ("rtspect.pipeline", "solve_dispersion", "spectrum.solve_dispersion"),
    ("rtspect.pipeline", "mode_count", "spectrum.mode_count"),
    ("rtspect.pipeline", "glue_mode", "modes.glue_mode"),
    ("rtspect.spectrum", "assemble_forms", "assembly.assemble_forms"),
    ("rtspect.spectrum", "coercivity_check", "assembly.coercivity_check"),
    ("rtspect.spectrum", "gamma_spectrum", "spectrum.gamma_spectrum"),
    ("rtspect.spectrum", "compact_outer_basis",
     "outer_compact.compact_outer_basis"),
    ("rtspect.evans", "evans_function", "evans.evans_function"),
    ("rtspect.evans", "solve_ivp", "evans.solve_ivp"),
    ("rtspect.cli", "parse_config", "cli.parse_config"),
    ("rtspect.cli", "run", "cli.run"),
)

# (module, class, method): methods wrapped on the class
METHODS = (
    ("rtspect.outer_general", "OuterSolutions", "solve"),
    ("rtspect.spectrum", "SliceBuilder", "__call__"),
    ("rtspect.pipeline", "Pipeline", "__init__"),
    ("rtspect.pipeline", "Pipeline", "build"),
    ("rtspect.pipeline", "Pipeline", "solve_mode_index"),
    ("rtspect.pipeline", "Pipeline", "dispersion"),
    ("rtspect.pipeline", "Pipeline", "count_modes"),
    ("rtspect.pipeline", "Pipeline", "mode"),
)


def _own_tags(name, args):
    """Wavenumber and root index visible in one call's arguments."""
    tags = {}
    for a in args[:3]:
        k = getattr(getattr(a, "params", a), "k", None)
        if isinstance(k, float):
            tags["k"] = k
            break
    if name == "pipeline.Pipeline.solve_mode_index" and len(args) > 1:
        tags["root"] = args[1]
    elif name == "pipeline.Pipeline.mode" and len(args) > 1:
        tags["root"] = getattr(args[1], "n", None)
    return tags


class Tracer:
    """Thread-safe span store; one per traced run."""

    def __init__(self, workload):
        self.workload = workload
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home_stack = self._stack()    # of the thread that made the tracer
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if parent is None and tracer._home_stack:
                parent = tracer._home_stack[-1]
            tags = dict(parent["tags"]) if parent else {"workload": tracer.workload}
            tags.update(_own_tags(name, args))
            span = {"name": name, "parent": parent["id"] if parent else None,
                    "thread": threading.get_ident(), "tags": tags}
            with tracer._lock:
                span["id"] = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            nfev = getattr(result, "nfev", None)
            if isinstance(nfev, int):
                span["nfev"] = nfev
            return result

        return traced

    def install(self):
        """Wrap every target; `uninstall` puts the originals back."""
        for mod_name, attr, name in FUNCTIONS:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._undo.append((mod, attr, orig))
            setattr(mod, attr, self.wrap(orig, name))
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            orig = cls.__dict__[meth]
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, self.wrap(orig, f"{mod_name.split('.')[-1]}."
                                               f"{cls_name}.{meth}"))
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()


# -- metrics from spans -----------------------------------------------------

def _union_length(intervals):
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def children_of(spans):
    kids = {s["id"]: [] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            kids[s["parent"]].append(s)
    return kids


def self_time(span, kids):
    """Duration minus the part of it that child spans cover."""
    lo, hi = span["start"], span["end"]
    covered = [(max(c["start"], lo), min(c["end"], hi))
               for c in kids[span["id"]]]
    return (hi - lo) - _union_length([iv for iv in covered if iv[1] > iv[0]])


def unit_of(metric):
    last = metric.rsplit(".", 1)[-1]
    if last in ("s", "self_s"):
        return "s"
    if last in ("ms", "ms_per_call", "self_ms_per_call"):
        return "ms"
    if last in ("hit_ratio", "parallelism", "overhead_ratio"):
        return "ratio"
    return "count"


def layer_metrics(spans, n_roots, solve_untraced, solve_traced):
    """Per-layer metrics of one traced run, by the names in BENCHMARK.json.

    `.s` and `.ms` are the total time spent in a function over the run;
    `.ms_per_call` is that total over the number of calls.  A layer the
    workload does not reach reads 0.
    """
    kids = children_of(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name):
        return sum(s["end"] - s["start"] for s in by_name.get(name, ()))

    def per_call_ms(name):
        return 1e3 * total(name) / calls(name) if calls(name) else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    gs = by_name.get("spectrum.gamma_spectrum", ())
    slice_calls = by_name.get("spectrum.SliceBuilder.__call__", ())
    misses = sum(1 for s in slice_calls
                 if any(c["name"] == "assembly.assemble_forms"
                        for c in kids[s["id"]]))
    evans_calls = calls("evans.evans_function")
    nfev = sum(s.get("nfev", 0) for s in by_name.get("evans.solve_ivp", ()))
    runs = by_name.get("cli.run", ())
    run_wall = sum(s["end"] - s["start"] for s in runs)
    busy = sum(c["end"] - c["start"] for s in runs for c in kids[s["id"]]
               if c["name"].startswith("pipeline.Pipeline."))

    m = {
        "profiles.profile_bounds.ms": 1e3 * total("profiles.profile_bounds"),
        "outer_general.truncation_points.s":
            total("outer_general.truncation_points"),
        "outer_general.coercive_window.s": total("outer_general.coercive_window"),
        "pipeline.Pipeline.build.s": total("pipeline.Pipeline.build"),
        "outer_general.OuterSolutions.solve.calls":
            calls("outer_general.OuterSolutions.solve"),
        "outer_general.OuterSolutions.solve.ms_per_call":
            per_call_ms("outer_general.OuterSolutions.solve"),
        "outer_compact.compact_outer_basis.calls":
            calls("outer_compact.compact_outer_basis"),
        "outer_compact.compact_outer_basis.ms_per_call":
            per_call_ms("outer_compact.compact_outer_basis"),
        "assembly.assemble_forms.calls": calls("assembly.assemble_forms"),
        "assembly.assemble_forms.ms_per_call":
            per_call_ms("assembly.assemble_forms"),
        "assembly.coercivity_check.calls": calls("assembly.coercivity_check"),
        "assembly.coercivity_check.ms_per_call":
            per_call_ms("assembly.coercivity_check"),
        "spectrum.gamma_spectrum.calls": len(gs),
        "spectrum.gamma_spectrum.self_ms_per_call":
            1e3 * ratio(sum(self_time(s, kids) for s in gs), len(gs)),
        "spectrum.slices_per_root": ratio(misses, n_roots),
        "spectrum.SliceBuilder.hit_ratio":
            ratio(len(slice_calls) - misses, len(slice_calls)),
        "spectrum.solve_dispersion.s": total("spectrum.solve_dispersion"),
        "spectrum.mode_count.s": total("spectrum.mode_count"),
        "modes.glue_mode.ms_per_call": per_call_ms("modes.glue_mode"),
        "evans.evans_function.calls": evans_calls,
        "evans.evans_function.ms_per_call": per_call_ms("evans.evans_function"),
        "evans.evals_per_root": ratio(evans_calls, n_roots),
        "evans.rhs_evals_per_call": ratio(nfev, evans_calls),
        "cli.parse_config.ms": 1e3 * total("cli.parse_config"),
        "cli.run.self_s": sum(self_time(s, kids) for s in runs),
        "cli.parallelism": ratio(busy, run_wall),
        "trace.overhead_ratio": ratio(solve_traced, solve_untraced),
    }
    return m
