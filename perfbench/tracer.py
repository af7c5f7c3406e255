"""In-memory span recorder that wraps bohrgap's public functions from outside.

Nothing in ``src/`` is edited: ``install`` replaces every binding of each
public function of the nine library modules (the defining module, every
bohrgap module that imported the name, and the package namespace) with a
wrapper that records a span.  A span is (id, parent id, layer, name, start,
end, self seconds, job id); self time is the span's duration minus the time
covered by its direct child spans.  Aggregates per layer and per function are
kept for every call; raw spans are kept up to ``SPAN_CAP`` per process and
written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("realfield", "scan", "bohr", "minima", "gap", "counting", "sums", "exponents", "cli")
SPAN_CAP = 50_000

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.active = False
        self.job = None
        self.spans = []
        self.dropped = 0
        self.next_id = 1
        self.stack = []  # [span id, child seconds] per open span
        self.self_s = defaultdict(float)  # layer -> exclusive seconds
        self.incl_s = defaultdict(float)  # "layer.name" -> inclusive seconds
        self.calls = defaultdict(int)  # "layer.name" -> calls
        self.counts = defaultdict(int)  # named counters filled by hooks

    def wrap(self, fn, layer, name, after=None):
        tracer = self
        key = f"{layer}.{name}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1][0] if tracer.stack else 0
            frame = [sid, 0.0]
            tracer.stack.append(frame)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _perf()
                tracer.stack.pop()
                dur = t1 - t0
                if tracer.stack:
                    tracer.stack[-1][1] += dur
                own = dur - frame[1]
                tracer.self_s[layer] += own
                tracer.incl_s[key] += dur
                tracer.calls[key] += 1
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((sid, parent, layer, name, t0, t1, own, tracer.job))
                else:
                    tracer.dropped += 1
            if after is not None:
                after(tracer, args, result)
            return result

        traced.__bench_traced__ = True
        return traced

    def run_job(self, job_id, fn):
        """Run one job as a top-level span of the harness's own layer."""
        self.job = job_id
        self.active = True
        try:
            return self.wrap(fn, "bench", "job")()
        finally:
            self.active = False
            self.job = None

    def summary(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "spans_kept": len(self.spans),
            "spans_dropped": self.dropped,
        }

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"summary": self.summary(), "spans": self.spans}, fh)


# -- hooks that turn return values into counters ---------------------------------


def _count_scanned(tr, args, result):
    tr.counts["scan.n_scanned"] += len(args[1])


def _count_pool(tr, args, result):
    tr.counts["minima.pool_size"] += len(result)


def _count_lifts(tr, args, result):
    tr.counts["gap.lifts_checked"] += int(result.checks["checked_lifts"])


def _count_borderline(tr, args, result):
    tr.counts["sums.support_borderline"] += int(result.borderline)


def _count_members(tr, args, result):
    tr.counts["bohr.members"] += int(result.cardinality)


def _count_refine(tr, args, result):
    extra = args[1] - args[0].scale
    if extra > 0:
        tr.counts["realfield.refine_calls"] += 1
        if extra >= 192:
            tr.counts["realfield.refine_192"] += 1


_AFTER = {
    "minima.enumerate_gauge_ball": _count_pool,
    "gap.outer_gap": _count_lifts,
    "sums.support_mask": _count_borderline,
    "bohr.enumerate_bohr": _count_members,
    "bohr.restricted_bohr": _count_members,
}


def _wrap_exact_callbacks(tracer, scan):
    """Make ThresholdSpec constructors hand out traced exact callbacks."""
    cls = scan.ThresholdSpec
    for meth in ("for_fraction", "for_fixed"):
        orig = cls.__dict__[meth].__func__

        def make(orig=orig):
            def build(klass, *args, **kwargs):
                spec = orig(klass, *args, **kwargs)
                if not getattr(spec.exact, "__bench_traced__", False):
                    spec.exact = tracer.wrap(spec.exact, "scan", "exact")
                return spec

            return classmethod(build)

        setattr(cls, meth, make())


def install(tracer: Tracer) -> None:
    """Patch every binding of each public function of the nine modules."""
    pkg = importlib.import_module("bohrgap")
    mods = {name: importlib.import_module(f"bohrgap.{name}") for name in LAYERS}
    replaced = {}  # id(original) -> wrapper
    for layer, mod in mods.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            replaced[id(obj)] = tracer.wrap(obj, layer, name, _AFTER.get(f"{layer}.{name}"))
    lift_check = mods["gap"]._lift_coeff_check
    replaced[id(lift_check)] = tracer.wrap(lift_check, "gap", "_lift_coeff_check")
    for ns in [pkg, *mods.values()]:
        for name, obj in list(vars(ns).items()):
            wrapper = replaced.get(id(obj))
            if wrapper is not None:
                setattr(ns, name, wrapper)

    scan = mods["scan"]
    scan.CoordScan.dist_words = tracer.wrap(scan.CoordScan.dist_words, "scan", "dist_words", _count_scanned)
    _wrap_exact_callbacks(tracer, scan)
    rf = mods["realfield"]
    rf.FixedReal.refined = tracer.wrap(rf.FixedReal.refined, "realfield", "refined", _count_refine)
    # the sieve itself runs in the table constructor
    ct = mods["counting"]
    ct.TotientTable.__init__ = tracer.wrap(ct.TotientTable.__init__, "counting", "TotientTable")
