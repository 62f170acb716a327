"""Span tracing of evalcodes from outside the package.

`Tracer.install()` replaces selected public functions and methods of the
evalcodes modules with wrappers that record a span around each call; every
module-level name bound to the same function object is patched too, so
`from .codes import build_code` call sites are traced.  `uninstall()` puts
the originals back.  Nothing under src/ is modified, and a wrapper only
times and forwards the call, so the program's outputs are unchanged.

Spans are kept in memory and written as JSONL when the run ends.  Each span
has an id, a name whose first component is its layer, start and end
(seconds since the tracer was created), its parent span id, the job id and
the work counts read from the call; `first` is false on the second and later
next() spans of one generator call.  GF element operations (`gf.add`,
`gf.mul`) are called far too often for one record each: they are leaves,
aggregated per (parent span, operation, table regime) into one record with
the call count, busy seconds and element count.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time

import numpy as np

LAYERS = ("gf", "gflinalg", "poly", "projective", "codes", "bounds", "families", "cli")

# (span name, module, attribute path, kind); the layer is the name's prefix.
# kind: "call" (one span per call), "gen" (one span per next() of the
# returned generator), "leaf" (aggregated GF element operation).
HOOKS = (
    ("gf.make_field", "gf", "make_field", "call"),
    ("gf.embedding", "gf", "get_embedding", "call"),
    ("gf.add", "gf", "FiniteField.add", "leaf"),
    ("gf.mul", "gf", "FiniteField.mul", "leaf"),
    ("gflinalg.rref", "gflinalg", "rref", "call"),
    ("gflinalg.matmul", "gflinalg", "matmul", "call"),
    ("poly.eval_points", "poly", "HomogPoly.eval_points", "call"),
    ("poly.grid", "poly", "eval_affine_grid_chunks", "gen"),
    ("projective.zero_scan", "projective", "count_rational_points", "call"),
    ("projective.zero_scan", "projective", "iter_zero_point_batches", "gen"),
    ("projective.lines", "projective", "lines_on_surface", "call"),
    ("projective.rational_points", "projective", "rational_points", "call"),
    ("projective.section_scan", "projective", "section_scan", "call"),
    ("codes.build", "codes", "build_code", "call"),
    ("codes.min_distance", "codes", "min_distance", "call"),
    ("codes.isd", "codes", "information_set_distance", "call"),
    ("codes.exhaustive", "codes", "exhaustive_sweep", "call"),
    ("codes.wenum", "codes", "weight_enumerator", "call"),
    ("bounds.report", "bounds", "build_bound_report", "call"),
    ("bounds.predicted_nr", "bounds", "predicted_Nr", "call"),
    ("bounds.optimal_g1", "bounds", "optimal_g1_count", "call"),
    ("families.search", "families", "random_cubic_search", "call"),
    ("families.orbit", "families", "frobenius_orbit", "call"),
    ("families.dp6", "families", "del_pezzo6", "call"),
    ("families.witness", "families", "geometric_witness_dp6", "call"),
    ("families.c12_sample", "families", "sample_cayley_salmon", "call"),
    ("cli.verify_paper", "cli", "cmd_verify_paper", "call"),
    ("cli.search", "cli", "cmd_search", "call"),
    ("cli.emit", "cli", "_emit", "call"),
)

ISD_FIELDS = (7, 8, 9, 32, 47, 49)

# Every per-layer metric, with its unit, in the order it is reported.
PER_LAYER_METRICS = (
    *[(f"gf.{op}.{regime}.{part}", unit)
      for op in ("add", "mul") for regime in ("full", "log")
      for part, unit in (("s", "s"), ("elems", "count"))],
    ("gf.digit.s", "s"), ("gf.digit.elems", "count"),
    ("gf.make_field.s", "s"),
    ("poly.grid.s", "s"), ("poly.grid.points", "count"),
    ("poly.eval_points.s", "s"), ("poly.eval_points.points", "count"),
    ("projective.zero_scan.s", "s"), ("projective.zero_scan.points", "count"),
    ("projective.zero_scan.points_per_s", "1/s"),
    ("projective.lines.s", "s"), ("projective.lines.calls", "count"),
    ("projective.rational_points.s", "s"), ("projective.section_scan.s", "s"),
    ("gflinalg.rref.s", "s"), ("gflinalg.rref.calls", "count"), ("gflinalg.rref.cells", "count"),
    ("gflinalg.matmul.s", "s"), ("gflinalg.matmul.calls", "count"),
    ("codes.build.s", "s"), ("codes.build.calls", "count"),
    ("codes.isd.s", "s"), ("codes.isd.cw", "count"),
    *[(f"codes.isd.cw_per_s.q{q}", "1/s") for q in ISD_FIELDS],
    ("codes.exhaustive.s", "s"), ("codes.exhaustive.cw", "count"),
    ("codes.exhaustive.cw_per_s", "1/s"), ("codes.wenum.s", "s"), ("codes.open_gap", "symbols"),
    ("bounds.report.s", "s"), ("bounds.predicted_nr.calls", "count"), ("bounds.optimal_g1.s", "s"),
    ("families.search.samples", "count"), ("families.search.hits", "count"),
    ("families.search.deep_samples", "count"), ("families.search.hit_ratio", "ratio"),
    ("families.search.samples_per_s", "1/s"),
    ("families.deep_sample_p50_s", "s"), ("families.dp6.s", "s"),
    ("families.witness.s", "s"), ("families.c12_sample.s", "s"),
    ("cli.verify_paper.s", "s"), ("cli.search.s", "s"), ("cli.emit.s", "s"),
    *[(f"layer.{layer}.self_s", "s") for layer in LAYERS],
    ("trace.overhead", "ratio"),
)


def _resolve(module, path: str):
    """(owner object, attribute name) for a dotted attribute path."""
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "job", "child_s", "attrs")

    def __init__(self, sid, name, start, parent, job):
        self.id, self.name, self.start, self.parent, self.job = sid, name, start, parent, job
        self.end = start
        self.child_s = 0.0
        self.attrs: dict = {}

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.leaves: dict[tuple, list] = {}  # (parent id, name) -> [calls, s, elems, first, last]
        self.job = None
        self._in_leaf = False
        self._patches: list[tuple[object, str, object]] = []
        gf = importlib.import_module("evalcodes.gf")
        self._full_max, self._log_max = gf.FULL_TABLE_MAX, gf.LOG_TABLE_MAX

    # -- installation -----------------------------------------------------------

    def install(self):
        """Patch every hook; a hook whose target is missing raises AttributeError."""
        modules = {m: importlib.import_module(f"evalcodes.{m}") for m in LAYERS}
        package = importlib.import_module("evalcodes")
        for name, mod, path, kind in HOOKS:
            owner, attr = _resolve(modules[mod], path)
            original = getattr(owner, attr)
            wrapper = {"call": self._wrap_call, "gen": self._wrap_gen, "leaf": self._wrap_leaf}[kind](
                name, original)
            targets = [(owner, attr)]
            if owner is modules[mod]:
                targets += [(m, a) for m in (*modules.values(), package) for a, v in vars(m).items()
                            if v is original and (m, a) != (owner, attr)]
            for obj, a in targets:
                self._patches.append((obj, a, original))
                setattr(obj, a, wrapper)

    def uninstall(self):
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    # -- recording ----------------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans) + 1, name, time.perf_counter() - self.t0, parent, self.job)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter() - self.t0
        self.stack.pop()
        if self.stack:
            self.stack[-1].child_s += span.dur

    def _wrap_call(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
                span.attrs.update(_call_attrs(name, args, kwargs, out), first=True)
                return out
            finally:
                tracer._close(span)

        return wrapper

    def _wrap_gen(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            attrs = {**_call_attrs(name, args, kwargs, None), "first": True}
            while True:
                span = tracer._open(name)
                span.attrs.update(attrs)
                attrs = {"first": False}
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer._close(span)
                if name == "poly.grid":
                    span.attrs["points"] = int(len(item[0]) * args[0].q ** (args[1][0].ndim - 1))
                yield item

        return wrapper

    def _wrap_leaf(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(fld, *args):
            if tracer._in_leaf:
                return fn(fld, *args)
            tracer._in_leaf = True
            start = time.perf_counter()
            try:
                out = fn(fld, *args)
            finally:
                end = time.perf_counter()
                tracer._in_leaf = False
            regime = "full" if fld.q <= tracer._full_max else "log" if fld.q <= tracer._log_max else None
            key_name = f"{name}.{regime}" if regime else "gf.digit"
            parent = tracer.stack[-1] if tracer.stack else None
            key = (parent.id if parent else None, key_name)
            rec = tracer.leaves.get(key)
            if rec is None:
                rec = tracer.leaves[key] = [0, 0.0, 0, start - tracer.t0, 0.0, tracer.job]
            rec[0] += 1
            rec[1] += end - start
            rec[2] += int(np.size(out))
            rec[4] = end - tracer.t0
            if parent is not None:
                parent.child_s += end - start
            return out

        return wrapper

    # -- output -------------------------------------------------------------------

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                rec = {"id": s.id, "name": s.name, "start": round(s.start, 7), "end": round(s.end, 7),
                       "parent": s.parent, "job": s.job}
                rec.update(s.attrs)
                fh.write(json.dumps(rec) + "\n")
            for (parent, name), (calls, busy, elems, first, last, job) in self.leaves.items():
                fh.write(json.dumps({"name": name, "start": round(first, 7), "end": round(last, 7),
                                     "parent": parent, "job": job, "calls": calls,
                                     "busy_s": round(busy, 7), "elems": elems}) + "\n")


def _call_attrs(name, args, kwargs, out) -> dict:
    """Work counts recorded on a span, read from the call's arguments and result."""
    if name == "gflinalg.rref":
        m = np.shape(args[1])
        return {"cells": int(m[0] * m[1])}
    if name == "poly.eval_points":
        return {"points": int(np.shape(args[1])[0])}
    if name == "projective.zero_scan":
        if len(args) >= 3:  # iter_zero_point_batches(fld, gens, r)
            q, r = args[0].q, args[2]
        else:  # count_rational_points(gens, extension_field=None)
            ext = args[1] if len(args) > 1 else kwargs.get("extension_field")
            q, r = (ext or args[0][0].field).q, args[0][0].nvars - 1
        return {"q": q, "points": sum(q**i for i in range(r + 1))}
    if name == "codes.min_distance":
        return {"gap": int(out.upper - out.lower)}
    if name == "codes.isd":
        return {"q": args[0].fld.q, "cw": int(out.work)}
    if name == "codes.exhaustive":
        return {"q": args[0].fld.q, "cw": int(out[0].work)}
    if name == "families.search":
        budget = args[3] if len(args) > 3 else kwargs["budget"]
        return {"q": args[0].q, "samples": int(budget), "hits": len(out)}
    return {}


def _outermost(spans: list[Span], by_id: dict, name: str):
    """Spans of the given name with no ancestor of the same name."""
    out = []
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p is not None and by_id[p].name != name:
            p = by_id[p].parent
        if p is None:
            out.append(s)
    return out


def layer_metrics(tracer: Tracer, untraced_s: float, traced_s: float) -> dict[str, float]:
    """Every per-layer metric from the recorded spans (0 where a layer was idle).

    untraced_s and traced_s are the wall times of one pass without and with
    tracing; samples per second is taken from the untraced pass.
    """
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    m: dict[str, float] = {}

    def total_s(name):
        return sum(s.dur for s in _outermost(spans, by_id, name))

    def count(name):
        return sum(1 for s in spans if s.name == name and s.attrs.get("first"))

    for (_, name), (calls, busy, elems, *_rest) in tracer.leaves.items():
        m[f"{name}.s"] = m.get(f"{name}.s", 0.0) + busy
        m[f"{name}.elems"] = m.get(f"{name}.elems", 0) + elems
    m["gf.make_field.s"] = total_s("gf.make_field")

    m["poly.grid.s"] = total_s("poly.grid")
    m["poly.grid.points"] = sum(s.attrs.get("points", 0) for s in spans if s.name == "poly.grid")
    m["poly.eval_points.s"] = total_s("poly.eval_points")
    m["poly.eval_points.points"] = sum(s.attrs["points"] for s in spans if s.name == "poly.eval_points")

    scans = _outermost(spans, by_id, "projective.zero_scan")
    m["projective.zero_scan.s"] = sum(s.dur for s in scans)
    m["projective.zero_scan.points"] = sum(s.attrs.get("points", 0) for s in scans)
    m["projective.zero_scan.points_per_s"] = _ratio(m["projective.zero_scan.points"], m["projective.zero_scan.s"])
    m["projective.lines.s"] = total_s("projective.lines")
    m["projective.lines.calls"] = count("projective.lines")
    m["projective.rational_points.s"] = total_s("projective.rational_points")
    m["projective.section_scan.s"] = total_s("projective.section_scan")

    m["gflinalg.rref.s"] = total_s("gflinalg.rref")
    m["gflinalg.rref.calls"] = count("gflinalg.rref")
    m["gflinalg.rref.cells"] = sum(s.attrs["cells"] for s in spans if s.name == "gflinalg.rref")
    m["gflinalg.matmul.s"] = total_s("gflinalg.matmul")
    m["gflinalg.matmul.calls"] = count("gflinalg.matmul")

    m["codes.build.s"] = total_s("codes.build")
    m["codes.build.calls"] = count("codes.build")
    isd = _outermost(spans, by_id, "codes.isd")
    m["codes.isd.s"] = sum(s.dur for s in isd)
    m["codes.isd.cw"] = sum(s.attrs.get("cw", 0) for s in isd)
    for q in ISD_FIELDS:
        part = [s for s in isd if s.attrs.get("q") == q]
        m[f"codes.isd.cw_per_s.q{q}"] = _ratio(sum(s.attrs.get("cw", 0) for s in part),
                                               sum(s.dur for s in part))
    ex = _outermost(spans, by_id, "codes.exhaustive")
    m["codes.exhaustive.s"] = sum(s.dur for s in ex)
    m["codes.exhaustive.cw"] = sum(s.attrs.get("cw", 0) for s in ex)
    m["codes.exhaustive.cw_per_s"] = _ratio(m["codes.exhaustive.cw"], m["codes.exhaustive.s"])
    m["codes.wenum.s"] = total_s("codes.wenum")
    m["codes.open_gap"] = sum(s.attrs["gap"] for s in _outermost(spans, by_id, "codes.min_distance"))

    m["bounds.report.s"] = total_s("bounds.report")
    m["bounds.predicted_nr.calls"] = count("bounds.predicted_nr")
    m["bounds.optimal_g1.s"] = total_s("bounds.optimal_g1")

    searches = _outermost(spans, by_id, "families.search")
    deep_ids = _deep_searches(spans, by_id)
    deep = [s for s in searches if s.id in deep_ids]
    m["families.search.samples"] = sum(s.attrs.get("samples", 0) for s in searches)
    m["families.search.hits"] = sum(s.attrs.get("hits", 0) for s in searches)
    m["families.search.deep_samples"] = len(deep)
    m["families.search.hit_ratio"] = _ratio(m["families.search.hits"], len(deep))
    m["families.search.samples_per_s"] = _ratio(m["families.search.samples"], untraced_s)
    # over every deep sample of the traced pass, whatever field it was drawn over
    m["families.deep_sample_p50_s"] = statistics.median(s.dur for s in deep) if deep else 0.0
    m["families.dp6.s"] = total_s("families.dp6")
    m["families.witness.s"] = total_s("families.witness")
    m["families.c12_sample.s"] = total_s("families.c12_sample")

    m["cli.verify_paper.s"] = total_s("cli.verify_paper")
    m["cli.search.s"] = total_s("cli.search")
    m["cli.emit.s"] = total_s("cli.emit")

    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = sum(s.dur - s.child_s for s in spans if s.name.split(".")[0] == layer)
    m["layer.gf.self_s"] += sum(rec[1] for rec in tracer.leaves.values())
    m["trace.overhead"] = _ratio(traced_s, untraced_s)
    return {name: m.get(name, 0) for name, _ in PER_LAYER_METRICS}


def _deep_searches(spans: list[Span], by_id: dict) -> set[int]:
    """Ids of search spans inside which a zero scan over GF(q^3) started."""
    deep = set()
    for s in spans:
        if s.name != "projective.zero_scan" or not s.attrs.get("first"):
            continue
        p = s.parent
        while p is not None and by_id[p].name != "families.search":
            p = by_id[p].parent
        if p is not None and by_id[p].attrs.get("q", 0) ** 3 == s.attrs["q"]:
            deep.add(p)
    return deep


def _ratio(num, den) -> float:
    return num / den if den else 0.0
