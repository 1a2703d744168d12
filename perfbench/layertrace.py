"""Outside-in layer tracing of dt4vertex, installed from the benchmark.

``install(tracer)`` replaces each function named in ``TARGETS`` by a timing
wrapper at every name it can be looked up under: the attribute of its own
module or class, every ``from .x import f`` copy in the other dt4vertex
modules, and class aliases such as ``LambdaRat.__radd__ = __add__``.  No
file of the program changes.

A span is one call of a wrapped function (or one ``next()`` of a wrapped
generator): its name, its parent span, its start, its end, and the time its
child spans cover.  Spans stay in memory, one list per pass, and
``layer_metrics`` turns them into the per-layer metrics at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import time

MODULES = (
    "exactalg",
    "partitions",
    "ptconfig",
    "vertexcalc",
    "signsearch",
    "toric",
    "cache",
    "cli",
)

# (module, attribute path, span name); the span name's first two dotted
# parts name the layer group its self time is charged to.
TARGETS = (
    ("partitions", "enumerate_dt", "partitions.enumerate.dt"),
    ("ptconfig", "enumerate_boxconfigs", "ptconfig.enumerate.boxconfigs"),
    ("vertexcalc", "dt_vertex_character", "vertexcalc.characters.dt"),
    ("vertexcalc", "pt_vertex_character", "vertexcalc.characters.pt"),
    ("vertexcalc", "edge_character", "vertexcalc.characters.edge"),
    ("vertexcalc", "euler_sqrt", "vertexcalc.euler_sqrt"),
    ("vertexcalc", "dt_vertex_root", "vertexcalc.root.dt"),
    ("vertexcalc", "pt_vertex_root", "vertexcalc.root.pt"),
    ("vertexcalc", "edge_root", "vertexcalc.root.edge"),
    ("vertexcalc", "dt_vertex_series", "vertexcalc.series.dt"),
    ("vertexcalc", "pt_vertex_series", "vertexcalc.series.pt"),
    ("vertexcalc", "SqrtEuler.expand", "exactalg.expand.sqrt_euler"),
    ("exactalg", "FactoredWeightProduct.expand", "exactalg.expand.factored"),
    ("exactalg", "LambdaRat.__add__", "exactalg.add.add"),
    ("exactalg", "LambdaRat.__sub__", "exactalg.add.sub"),
    ("exactalg", "LambdaRat.__rsub__", "exactalg.add.rsub"),
    ("exactalg", "LambdaRat.__neg__", "exactalg.add.neg"),
    ("exactalg", "lambdarat_sum", "exactalg.add.sum"),
    ("exactalg", "LambdaRat.__mul__", "exactalg.mul.mul"),
    ("exactalg", "LambdaRat.scale", "exactalg.mul.scale"),
    ("exactalg", "LambdaRat.inv", "exactalg.mul.inv"),
    ("exactalg", "LambdaRat.__truediv__", "exactalg.mul.truediv"),
    ("exactalg", "LambdaRat.__pow__", "exactalg.mul.pow"),
    ("exactalg", "LambdaRat.__eq__", "exactalg.eq"),
    ("exactalg", "LambdaRat.evaluate_mod", "exactalg.evaluate_mod"),
    ("exactalg", "QSeries.__add__", "exactalg.qseries.add"),
    ("exactalg", "QSeries.__sub__", "exactalg.qseries.sub"),
    ("exactalg", "QSeries.__mul__", "exactalg.qseries.mul"),
    ("exactalg", "QSeries.scale", "exactalg.qseries.scale"),
    ("exactalg", "QSeries.divide_by_unit", "exactalg.qseries.divide"),
    ("exactalg", "qexp", "exactalg.qseries.exp"),
    ("signsearch", "check_nekrasov", "signsearch.check_nekrasov"),
    ("signsearch", "check_dtpt", "signsearch.check_dtpt"),
    ("signsearch", "solve_signed_sum", "signsearch.solve"),
    ("signsearch", "nekrasov_rational", "signsearch.nekrasov_rational"),
    ("signsearch", "nekrasov_rational_subst", "signsearch.nekrasov_rational"),
    ("toric", "load_geometry", "toric.load_geometry"),
    ("toric", "cm_assignments", "toric.cm_assignments"),
    ("toric", "global_series", "toric.global_series"),
    ("toric", "check_affine_implies_toric", "toric.check_affine_implies_toric"),
    ("toric", "local_curve_full_check", "toric.local_curve_full_check"),
    ("cache", "VertexCache.__init__", "cache.load"),
    ("cache", "VertexCache.get", "cache.get"),
    ("cache", "VertexCache.put", "cache.put"),
    ("cli", "main", "cli.main"),
)

GENERATORS = {"partitions.enumerate_dt", "ptconfig.enumerate_boxconfigs"}

# span fields
NAME, PARENT, START, END, CHILD, NOTE = range(6)


class Tracer:
    """Span store of one process; ``begin_pass`` starts a new span list."""

    def __init__(self):
        self.passes = []
        self.spans = None
        self.stack = []

    def begin_pass(self, label):
        self.spans = []
        self.passes.append((label, self.spans))


def _group(span_name):
    return ".".join(span_name.split(".")[:2])


# per-call facts the layer metrics need beyond timing, from (args, result)
NOTES = {
    "exactalg.add.add": lambda args, r: (len(r.num), max((sum(m) for m in r.den), default=0)),
    "signsearch.solve": lambda args, r: (len(args[0]), len(r)),
    "cache.get": lambda args, r: r is not None,
}


def _wrap_function(tracer, fn, span_name):
    clock = time.perf_counter
    stack = tracer.stack
    note = NOTES.get(span_name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = [span_name, stack[-1] if stack else None, clock(), 0.0, 0.0, None]
        tracer.spans.append(span)
        stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = end = clock()
            stack.pop()
            if stack:
                stack[-1][CHILD] += end - span[START]
        if note is not None:
            span[NOTE] = note(args, result)
        return result

    return traced


def _wrap_generator(tracer, fn, span_name):
    """One span per ``next()``; a span that yielded an item is noted True."""
    clock = time.perf_counter
    stack = tracer.stack

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            span = [span_name, stack[-1] if stack else None, clock(), 0.0, 0.0, None]
            tracer.spans.append(span)
            stack.append(span)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                span[END] = end = clock()
                stack.pop()
                if stack:
                    stack[-1][CHILD] += end - span[START]
            span[NOTE] = True
            yield item

    return traced


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner.__dict__[parts[-1]]


def _namespaces(modules):
    """Every module and dt4vertex class dictionary a name can be found in."""
    for mod in modules:
        yield mod
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__.startswith("dt4vertex"):
                yield value


def install(tracer):
    """Wrap every target at every name bound to it; returns the number of
    bindings replaced."""
    package = importlib.import_module("dt4vertex")
    modules = [package] + [importlib.import_module(f"dt4vertex.{m}") for m in MODULES]
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules[1:]}
    wrappers = {}
    for mod_name, path, span_name in TARGETS:
        fn = _resolve(by_name[mod_name], path)
        if f"{mod_name}.{path}" in GENERATORS:
            wrappers[id(fn)] = (fn, _wrap_generator(tracer, fn, span_name))
        else:
            wrappers[id(fn)] = (fn, _wrap_function(tracer, fn, span_name))
    replaced = 0
    seen = set()
    for space in _namespaces(modules):
        if id(space) in seen:
            continue
        seen.add(id(space))
        for attr, value in list(vars(space).items()):
            hit = wrappers.get(id(value))
            if hit is None or hit[0] is not value:
                continue
            setattr(space, attr, hit[1])
            replaced += 1
    return replaced


def layer_metrics(tracer, wall_by_pass):
    """The per-layer metric values of one traced process.

    ``wall_by_pass`` maps each pass label to its measured wall time; the
    result also holds the trace's own coverage and span count.
    """
    self_s = {}
    calls = {}
    out = {
        "partitions.fixed_points": 0,
        "ptconfig.box_configs": 0,
        "exactalg.add.out_terms_max": 0,
        "exactalg.add.den_deg_max": 0,
        "signsearch.unknowns_max": 0,
        "signsearch.candidates": 0,
        "signsearch.solutions": 0,
        "vertexcalc.euler_sqrt.warm_calls": 0,
        "cache.hits": 0,
        "cache.misses": 0,
    }
    covered = 0.0
    n_spans = 0
    self_total = 0.0
    for label, spans in tracer.passes:
        n_spans += len(spans)
        for span in spans:
            name = span[NAME]
            own = (span[END] - span[START]) - span[CHILD]  # self time
            group = _group(name)
            self_s[group] = self_s.get(group, 0.0) + own
            self_total += own
            calls[name] = calls.get(name, 0) + 1
            parent = span[PARENT]
            if parent is None:
                covered += span[END] - span[START]
            note = span[NOTE]
            if note is None and name in ("exactalg.add.add", "signsearch.solve"):
                continue  # the call raised
            if name.startswith("partitions.enumerate") and note:
                out["partitions.fixed_points"] += 1
            elif name.startswith("ptconfig.enumerate") and note:
                out["ptconfig.box_configs"] += 1
            elif name == "exactalg.add.add":
                out["exactalg.add.out_terms_max"] = max(
                    out["exactalg.add.out_terms_max"], note[0])
                out["exactalg.add.den_deg_max"] = max(
                    out["exactalg.add.den_deg_max"], note[1])
            elif name == "exactalg.add.sum":
                if parent is not None and parent[NAME] == "signsearch.solve":
                    out["signsearch.candidates"] += 1
            elif name == "signsearch.solve":
                out["signsearch.unknowns_max"] = max(
                    out["signsearch.unknowns_max"], note[0])
                out["signsearch.solutions"] += note[1]
            elif name == "vertexcalc.euler_sqrt" and label == "warm":
                out["vertexcalc.euler_sqrt.warm_calls"] += 1
            elif name == "cache.get":
                out["cache.hits" if note else "cache.misses"] += 1

    def calls_of(prefix):
        return sum(n for name, n in calls.items() if name.startswith(prefix))

    wall = sum(wall_by_pass.values())
    root_calls = calls_of("vertexcalc.root.")
    euler_calls = calls_of("vertexcalc.euler_sqrt")
    candidates = out["signsearch.candidates"]
    load_s = 0.0
    for _, spans in tracer.passes:
        load_s += sum(s[END] - s[START] for s in spans if s[NAME] == "cache.load")
    out.update({
        "partitions.enumerate.self_s": self_s.get("partitions.enumerate", 0.0),
        "ptconfig.enumerate.self_s": self_s.get("ptconfig.enumerate", 0.0),
        "vertexcalc.characters.self_s": self_s.get("vertexcalc.characters", 0.0),
        "vertexcalc.characters.calls": calls_of("vertexcalc.characters."),
        "vertexcalc.euler_sqrt.self_s": self_s.get("vertexcalc.euler_sqrt", 0.0),
        "vertexcalc.euler_sqrt.calls": euler_calls,
        "vertexcalc.root.calls": root_calls,
        "vertexcalc.root_reuse_ratio": 1.0 - euler_calls / root_calls if root_calls else 0.0,
        "vertexcalc.series.self_s": self_s.get("vertexcalc.series", 0.0),
        "exactalg.add.self_s": self_s.get("exactalg.add", 0.0),
        "exactalg.add.calls": calls.get("exactalg.add.add", 0),
        "exactalg.expand.self_s": self_s.get("exactalg.expand", 0.0),
        "exactalg.expand.calls": calls_of("exactalg.expand."),
        "exactalg.mul.self_s": self_s.get("exactalg.mul", 0.0),
        "exactalg.eq.self_s": self_s.get("exactalg.eq", 0.0),
        "exactalg.evaluate_mod.self_s": self_s.get("exactalg.evaluate_mod", 0.0),
        "exactalg.evaluate_mod.calls": calls.get("exactalg.evaluate_mod", 0),
        "exactalg.qseries.self_s": self_s.get("exactalg.qseries", 0.0),
        "signsearch.self_s": sum(
            v for k, v in self_s.items() if k.startswith("signsearch.")),
        "signsearch.solve.calls": calls.get("signsearch.solve", 0),
        "signsearch.solutions_per_candidate": (
            out["signsearch.solutions"] / candidates if candidates else 0.0),
        "toric.self_s": sum(v for k, v in self_s.items() if k.startswith("toric.")),
        "toric.global_series.calls": calls.get("toric.global_series", 0),
        "cache.load_s": load_s,
        "cache.put.calls": calls.get("cache.put", 0),
        "cache.put.self_s": self_s.get("cache.put", 0.0),
        "cli.self_s": self_s.get("cli.main", 0.0),
        "trace.wall_s": wall,
        "trace.coverage_frac": covered / wall if wall else 0.0,
        "trace.spans": n_spans,
        "trace.self_total_s": self_total,
    })
    return out

