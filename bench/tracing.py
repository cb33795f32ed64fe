"""Timing spans around calls into a3d's public functions, from outside.

The benchmark does not change ``src/a3d``.  For a traced run it replaces
every binding of each function named in ``FUNCTIONS`` (and the methods in
``METHODS``) with a wrapper that opens a span, and puts the originals back
afterwards.  Names are imported by value into several modules — for example
``output_schema`` is bound in ``algebra``, ``stats``, ``rewrite``,
``planner``, ``planner.enumeration``, ``planner.decompose`` and
``translate`` — so every module attribute that *is* the original function
is patched.

A span records its name, start, end and parent, and the spans of one query
share a trace id.  Only a function's outermost call opens a span: nested
calls of the same function (``output_schema`` recursing through its own
module global) pass straight through, so ``calls`` counts outermost calls and
their time includes the recursion.  A span's self time is its duration minus
the time its child spans cover.

Totals are accumulated into a caller-chosen bucket as spans close; raw span
records ``[trace_id, name, start_s, end_s, parent_index]`` are kept only
while ``keep`` is set and up to ``MAX_SPANS``, so a traced run's memory
stays small.
"""

import functools
import importlib
import sys
import time
from contextlib import contextmanager

# (span name, module, attribute)
FUNCTIONS = (
    ("cli.parse_plan_document", "a3d.cli", "parse_plan_document"),
    ("translate.to_sql", "a3d.translate", "to_sql"),
    ("algebra.output_schema", "a3d.algebra", "output_schema"),
    ("algebra.evaluate", "a3d.algebra", "evaluate"),
    ("rewrite.try_apply", "a3d.rewrite", "try_apply"),
    ("rewrite.collect_names", "a3d.rewrite", "collect_names"),
    ("rewrite.guard_cost_improves", "a3d.rewrite", "guard_cost_improves"),
    ("stats.build_table_stats", "a3d.stats", "build_table_stats"),
    ("testkit.generate", "a3d.testkit", "generate"),
    ("planner.preprocess", "a3d.planner.preprocess", "preprocess"),
    ("planner.decompose", "a3d.planner.decompose", "decompose"),
    ("planner.sort_ops", "a3d.planner.schedule", "sort_ops"),
    ("planner.optimize_greedy", "a3d.planner.greedy", "optimize_greedy"),
    ("planner.postprocess", "a3d.planner.postprocess", "postprocess"),
    ("planner.enumerate_plans", "a3d.planner.enumeration",
     "enumerate_plans"),
    ("enumeration.apply_op", "a3d.planner.enumeration", "apply_op"),
    ("enumeration.join_entries", "a3d.planner.enumeration", "join_entries"),
)

# (span name, module, class, method)
METHODS = (
    ("stats.term_cost", "a3d.stats", "CostModel", "term_cost"),
    ("stats.op_effect", "a3d.stats", "CostModel", "op_effect"),
    ("stats.join_effect", "a3d.stats", "CostModel", "join_effect"),
    ("enumeration.prefixes", "a3d.planner.enumeration", "Enumerator",
     "prefixes"),
)

MAX_SPANS = 50_000           # raw span records kept per run

# spans whose non-None result counts as a hit (rule fired / was accepted)
HIT_SPANS = frozenset({"rewrite.try_apply", "rewrite.guard_cost_improves"})


class SpanTotals:
    __slots__ = ("calls", "total_s", "self_s", "hits")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.hits = 0


class Tracer:
    def __init__(self):
        self.keep = False
        self.bucket: dict = {}        # span name -> SpanTotals
        self.trace_id = 0
        self.spans: list = []         # kept span records
        self.dropped = 0
        self._stack: list = []        # open frames: [name, child_s, index]
        self._open: dict = {}         # span name -> 1 while a call is open
        self._t0 = time.perf_counter()

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._open.get(name):
                return fn(*args, **kwargs)
            return tracer._call(name, fn, args, kwargs)

        return traced

    def _call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        index = None
        if self.keep:
            if len(self.spans) < MAX_SPANS:
                index = len(self.spans)
                self.spans.append([self.trace_id, name, 0.0, 0.0,
                                   parent[2] if parent else None])
            else:
                self.dropped += 1
        frame = [name, 0.0, index]
        self._stack.append(frame)
        self._open[name] = 1
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._open[name] = 0
            dur = end - start
            if parent is not None:
                parent[1] += dur
            tot = self.bucket.get(name)
            if tot is None:
                tot = self.bucket[name] = SpanTotals()
            tot.calls += 1
            tot.total_s += dur
            tot.self_s += dur - frame[1]
            if result is not None and name in HIT_SPANS:
                tot.hits += 1
                if name == "rewrite.guard_cost_improves" \
                        and self._open.get("planner.postprocess"):
                    self.bucket.setdefault("postprocess.rewrites",
                                           SpanTotals()).calls += 1
            if index is not None:
                rec = self.spans[index]
                rec[2] = start - self._t0
                rec[3] = end - self._t0

    def reset_stack(self) -> None:
        """Forget open frames left by an interrupted (timed-out) call."""
        self._stack.clear()
        self._open.clear()


def _a3d_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "a3d" or name.startswith("a3d."))]


def bindings(original) -> list:
    """Every (module, attribute) in a3d whose value is `original`."""
    out = []
    for mod in _a3d_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                out.append((mod, attr))
    return out


def originals() -> dict:
    """Span name -> (owner, attribute, original) for every patch target."""
    out = {}
    for name, modname, attr in FUNCTIONS:
        fn = getattr(importlib.import_module(modname), attr)
        out[name] = [(mod, a, fn) for mod, a in bindings(fn)]
    for name, modname, clsname, meth in METHODS:
        cls = getattr(importlib.import_module(modname), clsname)
        out[name] = [(cls, meth, cls.__dict__[meth])]
    return out


@contextmanager
def installed(tracer: Tracer):
    """Patch every binding with a tracing wrapper; restore on exit."""
    patched = []
    try:
        for name, targets in originals().items():
            wrapper = tracer.wrap(name, targets[0][2])
            for owner, attr, original in targets:
                setattr(owner, attr, wrapper)
                patched.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
