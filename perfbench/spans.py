"""Span tracer for the traced benchmark run.

`install` replaces the public functions of legch's layers with wrappers,
inside the child process only; no file of the program changes.  Each
wrapper opens a span (name, start, end, parent, query id) while a query is
being answered and calls through untouched otherwise, so reference checks
run between queries are not traced.  A call of a function from inside its
own span (a recursive walk) is counted but folded into the outer span,
which keeps its time in that layer and the span count bounded.

Spans are kept in flat arrays and written out by `dump` when the sample
ends.  `layer_metrics` turns them into self times: a span's duration minus
the spans directly inside it.  Query time that no span covers is reported
as unattributed, so the self times plus the unattributed time add up to
the traced solve time.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import Counter

# (module, attribute, span name); attributes of classes are "Class.method".
TARGETS = (
    ("algebra", "mul", "algebra.mul"),
    ("algebra", "add", "algebra.add"),
    ("algebra", "Poly.length", "algebra.length"),
    ("algebra", "Poly.tau", "algebra.tau"),
    ("algebra", "Poly.contains", "algebra.contains"),
    ("algebra", "Poly.expand", "algebra.expand"),
    ("algebra", "AlgebraMap.apply", "algebra.apply"),
    ("algebra", "AlgebraMap.compose", "algebra.compose"),
    ("algebra", "poly_from_str", "algebra.poly_from_str"),
    ("algebra", "poly_to_str", "algebra.poly_to_str"),
    ("builders", "path_matrix", "builders.path_matrix"),
    ("builders", "torus_knot_dga", "builders.torus_knot_dga"),
    ("builders", "tangle_from_knot", "builders.tangle_from_knot"),
    ("builders", "connect_sum", "builders.connect_sum"),
    ("builders", "is_even_delta_class", "builders.is_even_delta_class"),
    ("builders", "tangle_from_dict", "builders.tangle_from_dict"),
    ("builders", "tangle_to_dict", "builders.tangle_to_dict"),
    ("dga", "dga_from_dict", "dga.dga_from_dict"),
    ("dga", "dga_to_dict", "dga.dga_to_dict"),
    ("dga", "apply_endomorphism", "dga.apply_endomorphism"),
    ("moves", "holonomy", "moves.holonomy"),
    ("moves", "run_script", "moves.run_script"),
    ("moves", "kalman_monodromy", "moves.kalman_monodromy"),
    ("obstruction", "family_dga", "obstruction.family_dga"),
    ("obstruction", "tau_parity_certificate", "obstruction.tau_parity_certificate"),
    ("obstruction", "verdict", "obstruction.verdict"),
    ("cli", "main", "cli.main"),
)

CLI_COMMANDS = ("build", "tangle", "sum", "classify", "word", "verdict")
QUERY_SPANS = ("algebra.length", "algebra.tau", "algebra.contains")

# Per-layer metric names, in the order BENCHMARK.json lists them.
SELF_TIMED = tuple(name for _, _, name in TARGETS if name != "cli.main") + tuple(
    f"cli.main.{c}" for c in CLI_COMMANDS
)
CALL_COUNTED = (
    "algebra.length", "algebra.tau", "algebra.contains", "algebra.expand",
    "algebra.compose", "algebra.apply", "algebra.mul", "algebra.add", "moves.holonomy",
)
COUNTERS = (
    "algebra.expand.words_max", "algebra.expand.words_total", "algebra.too_large.count",
    "algebra.nodes.created", "cli.bytes_out",
)

# Self times of the layers only loop_compose reaches: documents read and
# written, move scripts and the CLI.  On certified_queries they read exactly
# 0 in every run, so they are printed and recorded but left out of the JSON
# line, and BENCHMARK.json does not list them.
REPORT_ONLY = tuple(f"{n}.self_s" for n in (
    "algebra.poly_from_str", "algebra.poly_to_str", "builders.tangle_from_dict",
    "builders.tangle_to_dict", "dga.dga_from_dict", "dga.dga_to_dict",
    "dga.apply_endomorphism", "moves.holonomy", "moves.run_script",
)) + tuple(f"cli.main.{c}.self_s" for c in CLI_COMMANDS)


def metric_units() -> dict[str, str]:
    units = {f"{n}.self_s": "s" for n in SELF_TIMED}
    units.update({f"{n}.calls": "count" for n in CALL_COUNTED})
    units.update({n: "count" for n in COUNTERS})
    units["algebra.expand.words_max"] = "words"
    units["algebra.expand.words_total"] = "words"
    units["cli.bytes_out"] = "bytes"
    units["algebra.expand_fallback_ratio"] = "ratio"
    units["trace.unattributed_s"] = "s"
    units["trace.solve_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


class Tracer:
    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.query = array("i")
        self.stack: list[int] = []
        self.queries: list[tuple[int, float, float]] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.query_id = -1
        self.query_depth = 0
        self.fell_back = False
        self.query_calls = 0
        self.query_fallbacks = 0

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    # -- queries ------------------------------------------------------------

    def begin_query(self, qid: int) -> float:
        self.query_id = qid
        self.enabled = True
        return time.perf_counter()

    def end_query(self, qid: int, t0: float) -> float:
        t1 = time.perf_counter()
        self.enabled = False
        self.stack.clear()
        self.query_depth = 0
        self.queries.append((qid, t0, t1))
        return t1

    # -- spans --------------------------------------------------------------

    def call(self, name: str, nid: int, fn, args, kwargs):
        self.calls[name] += 1
        stack = self.stack
        if stack and self.name_id[stack[-1]] == nid:
            return fn(*args, **kwargs)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.query.append(self.query_id)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            stack.pop()

    # -- output -------------------------------------------------------------

    def dump(self, path: str) -> int:
        """Write every span as a tab-separated line; returns the span count."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart\tend\tparent\tquery\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.query[i]}\n"
                )
        return len(self.start)

    def layer_metrics(self) -> dict[str, float]:
        n = len(self.start)
        child = [0.0] * n
        root_by_query: Counter = Counter()
        for i in range(n):
            dur = self.end[i] - self.start[i]
            p = self.parent[i]
            if p >= 0:
                child[p] += dur
            else:
                root_by_query[self.query[i]] += dur
        self_s: Counter = Counter()
        for i in range(n):
            self_s[self.names[self.name_id[i]]] += self.end[i] - self.start[i] - child[i]
        solve = sum(t1 - t0 for _, t0, t1 in self.queries)
        out = {f"{name}.self_s": self_s.get(name, 0.0) for name in SELF_TIMED}
        out.update({f"{name}.calls": float(self.calls.get(name, 0)) for name in CALL_COUNTED})
        out.update({name: float(self.counts.get(name, 0)) for name in COUNTERS})
        out["algebra.expand_fallback_ratio"] = (
            self.query_fallbacks / self.query_calls if self.query_calls else 0.0
        )
        out["trace.solve_s"] = solve
        out["trace.unattributed_s"] = solve - sum(root_by_query.values())
        return out


def _resolve(module, attr):
    owner = module
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last


def install(tracer: Tracer, legch_modules: dict) -> None:
    """Wrap every target and rebind each module attribute that refers to
    the original function (names imported with `from .algebra import mul`
    are separate bindings)."""
    algebra = legch_modules["algebra"]
    replaced = {}
    for mod_name, attr, span in TARGETS:
        owner, last = _resolve(legch_modules[mod_name], attr)
        fn = getattr(owner, last)
        wrapper = _make_wrapper(tracer, span, fn, algebra)
        setattr(owner, last, wrapper)
        replaced[id(fn)] = (fn, wrapper)
    for module in legch_modules.values():
        for key, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, key, hit[1])
    _count_nodes(tracer, algebra.Poly)


def _count_nodes(tracer: Tracer, poly_cls) -> None:
    init = poly_cls.__init__
    counts = tracer.counts

    def counted_init(self, *args, **kwargs):
        if tracer.enabled:
            counts["algebra.nodes.created"] += 1
        init(self, *args, **kwargs)

    poly_cls.__init__ = counted_init


def _make_wrapper(tracer: Tracer, span: str, fn, algebra):
    nid = tracer._id(span)
    call = tracer.call

    if span == "algebra.expand":
        too_large = algebra.ExpansionTooLarge
        counts = tracer.counts

        def wrapper(self, *args, **kwargs):
            if not tracer.enabled:
                return fn(self, *args, **kwargs)
            materializes = not self.is_explicit and "expanded" not in self._cache
            try:
                out = call(span, nid, fn, (self,) + args, kwargs)
            except too_large as exc:
                if not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    counts["algebra.too_large.count"] += 1
                raise
            if materializes:
                counts["algebra.expand.words_total"] += len(out)
                if len(out) > counts["algebra.expand.words_max"]:
                    counts["algebra.expand.words_max"] = len(out)
                if tracer.query_depth:
                    tracer.fell_back = True
            return out

        return wrapper

    if span in QUERY_SPANS:

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            outer = tracer.query_depth == 0
            if outer:
                tracer.fell_back = False
            tracer.query_depth += 1
            try:
                return call(span, nid, fn, args, kwargs)
            finally:
                tracer.query_depth -= 1
                if outer:
                    tracer.query_calls += 1
                    tracer.query_fallbacks += tracer.fell_back

        return wrapper

    if span == "cli.main":

        def wrapper(argv=None):
            if not tracer.enabled:
                return fn(argv)
            name = f"cli.main.{argv[0] if argv else ''}"
            return call(name, tracer._id(name), fn, (argv,), {})

        return wrapper

    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        return call(span, nid, fn, args, kwargs)

    return wrapper
