"""Span and counter tracing of kmcert from outside the package.

`instrument` replaces the public functions and methods named in the layer
table (README.md) with wrappers that record a span (name, layer, start, end,
parent, run id) or bump a counter, and returns a function that puts the
originals back.  Nothing inside kmcert is edited.  Spans stay in memory until
`write_spans` is called once at the end of the run.

A layer's self time is the time of its spans minus the time of their child
spans, so the self times of all layers add up to the time of the root spans,
one per workload run.
"""

from __future__ import annotations

import collections
import csv
import functools
import sys
import time


class Tracer:
    def __init__(self):
        self.spans = []          # [name, layer, start, end, parent index, run id]
        self.counts = collections.Counter()
        self.depth = collections.Counter()
        self.missing = []        # targets that no longer exist in kmcert
        self.run = -1
        self._stack = []

    # -- spans -------------------------------------------------------------

    def begin_run(self, name: str, t0: float) -> None:
        """Open the root span of one workload run at ``t0``."""
        self.run += 1
        self._stack.append(len(self.spans))
        self.spans.append([name, "bench", t0, t0, -1, self.run])

    def end_run(self, t1: float) -> None:
        self.spans[self._stack.pop()][3] = t1

    def wrap(self, name: str, layer: str, fn):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, tracer.run]
            stack.append(len(spans))
            spans.append(rec)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                rec[2] = t0
                stack.pop()

        return traced

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[4] >= 0:
                child[s[4]] += s[3] - s[2]
        return [s[3] - s[2] - c for s, c in zip(self.spans, child)]

    def summary(self) -> dict:
        """Inclusive and self seconds per span name and self seconds per
        layer; ``root_s`` is the summed duration of the root spans."""
        inclusive = collections.Counter()
        own = collections.Counter()
        layer = collections.Counter()
        root = 0.0
        for s, st in zip(self.spans, self.self_times()):
            inclusive[s[0]] += s[3] - s[2]
            own[s[0]] += st
            layer[s[1]] += st
            if s[4] < 0:
                root += s[3] - s[2]
        return {"inclusive": inclusive, "self": own, "layer_self": layer,
                "root_s": root}

    def write_spans(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "run", "layer", "name", "start", "end"])
            for i, (name, layer, t0, t1, parent, run) in enumerate(self.spans):
                out.writerow([i, parent, run, layer, name, repr(t0), repr(t1)])


def instrument(tr: Tracer):
    """Wrap kmcert's layer boundaries for tracer ``tr``; returns an undo
    function.  Targets are looked up by name so that a missing one is
    recorded in ``tr.missing`` instead of failing the run."""
    import importlib

    import scipy.linalg

    mods = {m: importlib.import_module(f"kmcert.{m}")
            for m in ("bounds", "cli", "km", "problems", "spaces", "splitting",
                      "operators")}
    undo = []

    def set_attr(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def patch_function(mod, attr, make):
        fn = getattr(mods[mod], attr, None)
        if fn is None:
            tr.missing.append(f"{mod}.{attr}")
            return
        new = make(fn)
        # replace every binding of the function, so calls through names
        # imported into other modules are traced too
        for m in [m for n, m in sys.modules.items() if n.split(".")[0] == "kmcert"]:
            for name in [k for k, v in vars(m).items() if v is fn]:
                set_attr(m, name, new)

    def patch_method(mod, cls_name, attr, make):
        cls = getattr(mods[mod], cls_name, None)
        if cls is None or attr not in cls.__dict__:
            tr.missing.append(f"{mod}.{cls_name}.{attr}")
            return
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            set_attr(cls, attr, classmethod(make(raw.__func__)))
        else:
            set_attr(cls, attr, make(raw))

    def span(name, layer):
        return lambda fn: tr.wrap(name, layer, fn)

    def count(key, when=None):
        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if when is None or when(*args):
                    tr.counts[key] += 1
                return fn(*args, **kwargs)
            return counted
        return make

    def nested(key, name, layer):
        def make(fn):
            traced = tr.wrap(name, layer, fn)

            @functools.wraps(fn)
            def inner(*args, **kwargs):
                tr.depth[key] += 1
                try:
                    return traced(*args, **kwargs)
                finally:
                    tr.depth[key] -= 1
            return inner
        return make

    def outermost_eval(fn):
        # composed operators call further operators; only the outermost
        # evaluation is a span and counts as one evaluation
        traced = tr.wrap("operator", "splitting", fn)

        @functools.wraps(fn)
        def call(*args, **kwargs):
            if tr.depth["operator"]:
                return fn(*args, **kwargs)
            tr.counts["splitting.evals"] += 1
            tr.depth["operator"] += 1
            try:
                return traced(*args, **kwargs)
            finally:
                tr.depth["operator"] -= 1
        return call

    def engine(fn):
        traced = tr.wrap("engine", "km", fn)

        @functools.wraps(fn)
        def run(*args, **kwargs):
            trace = traced(*args, **kwargs)
            key = "problems.reference_steps" if tr.depth["reference"] else "km.steps"
            tr.counts[key] += trace.n_steps
            return trace
        return run

    def family(fn):
        traced = tr.wrap("family", "splitting", fn)

        @functools.wraps(fn)
        def at(*args, **kwargs):
            builds = tr.counts["splitting.gfb_builds"]
            op = traced(*args, **kwargs)
            tr.counts["splitting.family_calls"] += 1
            if tr.counts["splitting.gfb_builds"] == builds:
                tr.counts["splitting.family_hits"] += 1
            return op
        return at

    in_certificate = lambda *a: tr.depth["certificate"] > 0  # noqa: E731

    patch_function("cli", "execute_run", span("execute", "cli"))
    patch_function("cli", "emit_trace_csv", span("emit", "cli"))
    patch_function("cli", "write_report", span("emit", "cli"))
    patch_function("cli", "verify_files", span("verify", "cli"))
    patch_function("cli", "build_problem", span("build", "problems"))
    patch_function("problems", "make_multiblock_nonstationary", span("build", "problems"))
    patch_method("problems", "ProblemInstance", "fix_reference",
                 nested("reference", "reference", "problems"))
    patch_function("km", "run_km", engine)
    patch_function("km", "run_km_nonstationary", engine)
    patch_function("bounds", "empirical_constants", span("constants", "bounds"))
    for fn in ("verify_trace", "local_model_envelope", "pointwise_bound", "ergodic_bound"):
        patch_function("bounds", fn, span("scan", "bounds"))
    for fn in ("gfb_certificate_series", "drs_certificate_series", "pds_certificate_series"):
        patch_function("splitting", fn, nested("certificate", "certificate", "splitting"))
    patch_method("operators", "OperatorSpec", "__call__", outermost_eval)
    for cls in ("GfbChannelModel", "DrsChannelModel", "PdsChannelModel"):
        patch_method("splitting", cls, "evaluate", outermost_eval)
    patch_method("splitting", "GfbFamily", "at", family)
    patch_method("splitting", "GfbBuilt", "__init__", count("splitting.gfb_builds"))
    patch_method("splitting", "GfbBuilt", "step_parts",
                 count("splitting.certificate_evals", in_certificate))
    patch_method("splitting", "DrsBuilt", "readout",
                 count("splitting.certificate_evals", in_certificate))
    patch_method("spaces", "ProductPoint", "__init__", count("spaces.points"))
    patch_method("spaces", "ProductPoint", "_raw", count("spaces.points"))
    patch_method("spaces", "ProductSpace", "norm", count("spaces.norms"))
    patch_method("spaces", "ProductSpace", "base_norm", count("spaces.norms"))
    patch_method("spaces", "ProductSpace", "inner",
                 count("spaces.metric_applies", lambda space, *a: space.metric_op is not None))
    for fn in ("lu_factor", "lu_solve"):
        orig = getattr(scipy.linalg, fn)
        undo.append((scipy.linalg, fn, orig))
        setattr(scipy.linalg, fn, count(f"splitting.{fn}")(orig))

    def restore():
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)

    return restore
