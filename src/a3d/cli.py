"""Batch command-line front end.

Reads a plan document (JSON envelope with a catalog and a serialized term),
optionally a statistics file, runs the selected optimization mode, and
emits the requested artifact on stdout: the optimized plan, SQL for a
dialect, or a dot graph.  Diagnostics — errors, timings, counters, rule
traces — go to stderr as single-line JSON records.

Exit codes: 0 success, 1 plan/stats parse error, 2 schema error,
3 infeasible or unsupported query, 4 dialect error.

A second form, ``a3d gen --spec spec.json --out rel.json``, generates a
relation from a distribution spec (see `testkit`).
"""

import argparse
import json
import sys

from .algebra import (
    A3DError, AggSpec, Aggregate, ArrayFilter, ArrayJoin, Derive, Filter,
    Join, Project, RelVar, Schema, SchemaError, Term,
)
from .functions import ScalarFn, known_agg_fn, known_scalar_fn
from .planner import (
    DisconnectedJoinGraphError, GreedyIterationCapError,
    InfeasibleQueryError, MalformedQueryError, OracleLimitError,
    MODES, PostprocessCapError, optimize,
)
from .predicates import And, Cmp, Col, Lit, Not, Or, Apply, COMPARISONS
from .stats import ArrayStats, CostModel, ScalarStats, TableStats
from .translate import DIALECTS, DialectError, to_dot, to_sql

EXIT_PARSE = 1
EXIT_SCHEMA = 2
EXIT_INFEASIBLE = 3
EXIT_DIALECT = 4

PLAN_VERSION = 1

EMIT_TARGETS = ("plan", *(f"sql-{name}" for name in DIALECTS), "dot")


class PlanParseError(A3DError):
    """The plan or stats document is not well-formed."""


############################################################
# expression / predicate codec
############################################################

def _fn_to_json(fn: ScalarFn) -> dict:
    doc = {"name": fn.name}
    if fn.params:
        doc["params"] = {k: v for k, v in fn.params}
    return doc


def _fn_from_json(doc, where: str) -> ScalarFn:
    if not isinstance(doc, dict) or not isinstance(doc.get("name"), str):
        raise PlanParseError(f"{where}: function must be an object "
                             f"with a 'name'")
    if not known_scalar_fn(doc["name"]):
        raise PlanParseError(f"{where}: unknown function {doc['name']!r}")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise PlanParseError(f"{where}: function params must be an object")
    return ScalarFn.of(doc["name"], **params)


def _expr_to_json(expr):
    if isinstance(expr, Col):
        return {"expr": "col", "name": expr.name}
    if isinstance(expr, Lit):
        v = expr.value
        return {"expr": "lit",
                "value": list(v) if isinstance(v, tuple) else v}
    if isinstance(expr, Apply):
        return {"expr": "apply", "fn": _fn_to_json(expr.fn),
                "args": [_expr_to_json(a) for a in expr.args]}
    raise PlanParseError(f"unserializable expression {expr!r}")


def _expr_from_json(doc, where: str):
    if not isinstance(doc, dict) or "expr" not in doc:
        raise PlanParseError(f"{where}: expression must be an object "
                             f"with an 'expr' tag")
    tag = doc["expr"]
    if tag == "col":
        if not isinstance(doc.get("name"), str):
            raise PlanParseError(f"{where}: col needs a string name")
        return Col(doc["name"])
    if tag == "lit":
        v = doc.get("value")
        if isinstance(v, list):
            v = tuple(v)
        return Lit(v)
    if tag == "apply":
        args = doc.get("args")
        if not isinstance(args, list):
            raise PlanParseError(f"{where}: apply needs an argument list")
        return Apply(_fn_from_json(doc.get("fn"), where),
                     tuple(_expr_from_json(a, where) for a in args))
    raise PlanParseError(f"{where}: unknown expression tag {tag!r}")


def _pred_to_json(pred):
    if isinstance(pred, Cmp):
        return {"pred": "cmp", "op": pred.op,
                "lhs": _expr_to_json(pred.lhs),
                "rhs": _expr_to_json(pred.rhs)}
    if isinstance(pred, And):
        return {"pred": "and",
                "parts": [_pred_to_json(p) for p in pred.parts]}
    if isinstance(pred, Or):
        return {"pred": "or",
                "parts": [_pred_to_json(p) for p in pred.parts]}
    if isinstance(pred, Not):
        return {"pred": "not", "part": _pred_to_json(pred.part)}
    raise PlanParseError(f"unserializable predicate {pred!r}")


def _pred_from_json(doc, where: str):
    if not isinstance(doc, dict) or "pred" not in doc:
        raise PlanParseError(f"{where}: predicate must be an object "
                             f"with a 'pred' tag")
    tag = doc["pred"]
    if tag == "cmp":
        if doc.get("op") not in COMPARISONS:
            raise PlanParseError(f"{where}: unknown comparison "
                                 f"{doc.get('op')!r}")
        return Cmp(doc["op"], _expr_from_json(doc.get("lhs"), where),
                   _expr_from_json(doc.get("rhs"), where))
    if tag in ("and", "or"):
        parts = doc.get("parts")
        if not isinstance(parts, list) or len(parts) < 2:
            raise PlanParseError(f"{where}: {tag} needs >= 2 parts")
        built = tuple(_pred_from_json(p, where) for p in parts)
        return And(built) if tag == "and" else Or(built)
    if tag == "not":
        return Not(_pred_from_json(doc.get("part"), where))
    raise PlanParseError(f"{where}: unknown predicate tag {tag!r}")


############################################################
# term codec
############################################################

def term_to_json(term: Term) -> dict:
    """Serialize a term to the tagged-union plan format."""
    if isinstance(term, RelVar):
        return {"op": "relVar", "name": term.name}
    if isinstance(term, Filter):
        return {"op": "filter", "pred": _pred_to_json(term.pred),
                "input": term_to_json(term.child)}
    if isinstance(term, Project):
        return {"op": "project", "cols": list(term.cols),
                "input": term_to_json(term.child)}
    if isinstance(term, Join):
        return {"op": "join", "left": term_to_json(term.left),
                "right": term_to_json(term.right)}
    if isinstance(term, ArrayJoin):
        return {"op": "arrayJoin",
                "targets": [[s, a] for s, a in term.targets],
                "input": term_to_json(term.child)}
    if isinstance(term, ArrayFilter):
        return {"op": "arrayFilter",
                "targets": [[s, a] for s, a in term.targets],
                "pred": _pred_to_json(term.pred),
                "input": term_to_json(term.child)}
    if isinstance(term, Derive):
        doc = {"op": "derive", "output": term.output,
               "fn": _fn_to_json(term.fn), "args": list(term.args),
               "input": term_to_json(term.child)}
        if term.is_map:
            doc["map"] = True
        return doc
    if isinstance(term, Aggregate):
        return {"op": "aggregate", "keys": list(term.keys),
                "aggs": [{"fn": s.fn, "arg": s.arg, "alias": s.alias}
                         for s in term.aggs],
                "input": term_to_json(term.child)}
    raise PlanParseError(f"unserializable term {type(term).__name__}")


def _str_list(doc, key: str, where: str) -> tuple:
    v = doc.get(key)
    if not isinstance(v, list) or not all(isinstance(s, str) for s in v):
        raise PlanParseError(f"{where}: {key!r} must be a list of strings")
    return tuple(v)


def _targets_from_json(doc, where: str) -> tuple:
    v = doc.get("targets")
    ok = isinstance(v, list) and v and all(
        isinstance(t, list) and len(t) == 2
        and all(isinstance(s, str) for s in t) for t in v)
    if not ok:
        raise PlanParseError(f"{where}: 'targets' must be a non-empty list "
                             f"of [source, alias] pairs")
    return tuple((s, a) for s, a in v)


def term_from_json(doc) -> Term:
    """Parse the tagged-union plan format back into a term."""
    if not isinstance(doc, dict) or "op" not in doc:
        raise PlanParseError("term node must be an object with an 'op' tag")
    op = doc["op"]
    where = f"term op {op!r}"
    if op == "relVar":
        if not isinstance(doc.get("name"), str):
            raise PlanParseError(f"{where}: needs a string 'name'")
        return RelVar(doc["name"])
    if op == "filter":
        return Filter(_pred_from_json(doc.get("pred"), where),
                      term_from_json(doc.get("input")))
    if op == "project":
        return Project(_str_list(doc, "cols", where),
                       term_from_json(doc.get("input")))
    if op == "join":
        return Join(term_from_json(doc.get("left")),
                    term_from_json(doc.get("right")))
    if op == "arrayJoin":
        return ArrayJoin(_targets_from_json(doc, where),
                         term_from_json(doc.get("input")))
    if op == "arrayFilter":
        return ArrayFilter(_targets_from_json(doc, where),
                           _pred_from_json(doc.get("pred"), where),
                           term_from_json(doc.get("input")))
    if op == "derive":
        if not isinstance(doc.get("output"), str):
            raise PlanParseError(f"{where}: needs a string 'output'")
        return Derive(doc["output"], _fn_from_json(doc.get("fn"), where),
                      _str_list(doc, "args", where),
                      term_from_json(doc.get("input")),
                      is_map=bool(doc.get("map", False)))
    if op == "aggregate":
        aggs = doc.get("aggs")
        if not isinstance(aggs, list):
            raise PlanParseError(f"{where}: 'aggs' must be a list")
        specs = []
        for a in aggs:
            if not (isinstance(a, dict)
                    and all(isinstance(a.get(k), str)
                            for k in ("fn", "arg", "alias"))):
                raise PlanParseError(f"{where}: each agg needs string "
                                     f"fn/arg/alias")
            if not known_agg_fn(a["fn"]):
                raise PlanParseError(f"{where}: unknown aggregate "
                                     f"{a['fn']!r}")
            specs.append(AggSpec(a["fn"], a["arg"], a["alias"]))
        return Aggregate(_str_list(doc, "keys", where), tuple(specs),
                         term_from_json(doc.get("input")))
    raise PlanParseError(f"unknown term op {op!r}")


############################################################
# plan document (envelope + catalog)
############################################################

def parse_plan_document(doc):
    """Parse an envelope into (term, schemas, correspondences, options).

    Envelope shape violations raise PlanParseError; catalog-level
    inconsistencies (overlapping scalar/array names, correspondences not
    over array columns of one relation) raise SchemaError.
    """
    if not isinstance(doc, dict):
        raise PlanParseError("plan document must be a JSON object")
    if doc.get("a3d_plan") != PLAN_VERSION:
        raise PlanParseError(f"missing or unsupported plan version "
                             f"(need \"a3d_plan\": {PLAN_VERSION})")
    catalog = doc.get("catalog")
    if not isinstance(catalog, dict) or \
            not isinstance(catalog.get("relations"), dict):
        raise PlanParseError("catalog must contain a 'relations' object")

    schemas = {}
    for name, rel in catalog["relations"].items():
        if not isinstance(rel, dict):
            raise PlanParseError(f"relation {name!r} must be an object")
        schemas[name] = Schema(
            frozenset(_str_list(rel, "scalars", f"relation {name!r}"))
            if "scalars" in rel else frozenset(),
            frozenset(_str_list(rel, "arrays", f"relation {name!r}"))
            if "arrays" in rel else frozenset())

    correspondences = []
    for group in catalog.get("correspondences", []):
        if not (isinstance(group, list) and len(group) >= 2
                and all(isinstance(c, str) for c in group)):
            raise PlanParseError("each correspondence must be a list of "
                                 ">= 2 column names")
        owners = {rel for rel, sch in schemas.items()
                  if set(group) <= sch.arrays}
        if not owners:
            raise SchemaError(
                f"correspondence {group} does not name array columns "
                f"of a single relation")
        correspondences.append(tuple(group))

    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise PlanParseError("'options' must be an object")
    if "term" not in doc:
        raise PlanParseError("plan document has no 'term'")
    term = term_from_json(doc["term"])
    return term, schemas, tuple(correspondences), options


def plan_document(term: Term, catalog: dict) -> dict:
    return {"a3d_plan": PLAN_VERSION, "catalog": catalog,
            "term": term_to_json(term)}


############################################################
# statistics file
############################################################

_SCALAR_STAT_KEYS = {"kind", "row_count", "ndv", "null_fraction", "freq",
                     "avg_freq", "lo", "hi", "clusters"}
_ARRAY_STAT_KEYS = {"kind", "row_count", "avg_array_len", "empty_fraction",
                    "row_stats"}


def _scalar_stats_from_json(doc, where: str) -> ScalarStats:
    kind = doc.get("kind")
    null_fraction = float(doc.get("null_fraction", 0.0))
    if kind == "exact":
        freq = doc.get("freq", [])
        if not isinstance(freq, list):
            raise PlanParseError(f"{where}: 'freq' must be a list of "
                                 f"[value, fraction] pairs")
        freqs = tuple((v, float(f)) for v, f in freq)
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      for v, _ in freqs)
        lo = min((v for v, _ in freqs), default=None) if numeric else None
        hi = max((v for v, _ in freqs), default=None) if numeric else None
        return ScalarStats("exact", int(doc.get("ndv", len(freqs))),
                           null_fraction, freqs=freqs, lo=lo, hi=hi,
                           numeric=numeric)
    if kind == "uniform":
        if "ndv" not in doc:
            raise PlanParseError(f"{where}: uniform stats need 'ndv'")
        return ScalarStats("uniform", int(doc["ndv"]), null_fraction,
                           lo=doc.get("lo"), hi=doc.get("hi"),
                           numeric=doc.get("lo") is not None)
    if kind == "clustered":
        clusters = doc.get("clusters")
        if not isinstance(clusters, list) or not clusters:
            raise PlanParseError(f"{where}: clustered stats need "
                                 f"'clusters' [[lo, hi, weight, ndv], ...]")
        built = tuple((float(lo), float(hi), float(w), int(n))
                      for lo, hi, w, n in clusters)
        ndv = int(doc.get("ndv", sum(c[3] for c in built)))
        return ScalarStats("clustered", ndv, null_fraction,
                           lo=built[0][0], hi=built[-1][1],
                           clusters=built, numeric=True)
    raise PlanParseError(f"{where}: unknown stats kind {kind!r}")


def parse_stats_document(doc, schemas) -> dict:
    """Parse {"rel.col": entry} statistics into per-relation tables."""
    if not isinstance(doc, dict):
        raise PlanParseError("stats document must be a JSON object")
    rows: dict = {}
    scalars: dict = {}
    arrays: dict = {}
    for key, entry in doc.items():
        rel, dot, col = key.partition(".")
        if not dot:
            raise PlanParseError(f"stats entry {key!r}: keys are "
                                 f"'relation.column'")
        if rel not in schemas:
            raise PlanParseError(f"stats entry {key!r}: unknown relation "
                                 f"{rel!r}")
        if not isinstance(entry, dict):
            raise PlanParseError(f"stats entry {key!r} must be an object")
        rc = entry.get("row_count")
        if not isinstance(rc, int) or rc < 0:
            raise PlanParseError(f"stats entry {key!r}: needs an integer "
                                 f"row_count")
        if rows.setdefault(rel, rc) != rc:
            raise PlanParseError(f"stats entry {key!r}: row_count {rc} "
                                 f"disagrees with {rows[rel]} for {rel!r}")
        where = f"stats entry {key!r}"
        if entry.get("kind") == "array":
            if col not in schemas[rel].arrays:
                raise PlanParseError(f"{where}: {col!r} is not an array "
                                     f"column of {rel!r}")
            extra = set(entry) - _ARRAY_STAT_KEYS
            if extra:
                raise PlanParseError(f"{where}: unknown keys "
                                     f"{sorted(extra)}")
            elem = entry.get("row_stats")
            arrays.setdefault(rel, {})[col] = ArrayStats(
                float(entry.get("avg_array_len", 0.0)),
                float(entry.get("empty_fraction", 0.0)),
                _scalar_stats_from_json(elem, f"{where} row_stats")
                if elem is not None else None)
        else:
            if col not in schemas[rel].scalars:
                raise PlanParseError(f"{where}: {col!r} is not a scalar "
                                     f"column of {rel!r}")
            extra = set(entry) - _SCALAR_STAT_KEYS
            if extra:
                raise PlanParseError(f"{where}: unknown keys "
                                     f"{sorted(extra)}")
            scalars.setdefault(rel, {})[col] = \
                _scalar_stats_from_json(entry, where)
    return {rel: TableStats(rows[rel], scalars.get(rel, {}),
                            arrays.get(rel, {}))
            for rel in rows}


############################################################
# emission
############################################################

def _emit(result, catalog, schemas, stats, args) -> str:
    if args.emit == "plan":
        return json.dumps(plan_document(result.term, catalog),
                          indent=2, sort_keys=True) + "\n"
    if args.emit.startswith("sql-"):
        dialect = args.emit.split("-", 1)[1]
        return to_sql(result.term, dialect, schemas, cte=args.cte)
    # the one target left: "dot", annotated with estimates as ``optimize``
    # planned, with default statistics where none are given
    return to_dot(result.term, CostModel(dict(stats), dict(schemas)))


def _diag(kind: str, message: str, **extra) -> None:
    rec = {"error": kind, "message": message}
    rec.update(extra)
    print(json.dumps(rec, sort_keys=True), file=sys.stderr)


############################################################
# argument parsing and the two commands
############################################################

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="a3d",
        description="optimize array-relational plans and emit SQL")
    p.add_argument("--plan", required=True, help="plan document (JSON)")
    p.add_argument("--stats", help="statistics document (JSON)")
    p.add_argument("--mode", choices=MODES, default=None)
    p.add_argument("--emit", choices=EMIT_TARGETS, default=None)
    p.add_argument("--trace", action="store_true",
                   help="stream rule-application records to stderr")
    p.add_argument("--time", action="store_true",
                   help="report per-stage wall-clock (ms) to stderr")
    p.add_argument("--counters", action="store_true",
                   help="report the optimizer's counters to stderr, with "
                        "rule id -> [attempts, fires] under \"rules\"")
    p.add_argument("--cte", action="store_true",
                   help="emit SQL as a WITH chain")
    p.add_argument("--preagg-alpha", type=float, default=None,
                   help="condensation threshold for pre-aggregation")
    p.add_argument("--allow-cross-products", action="store_true")
    return p


def _build_gen_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="a3d gen", description="generate a relation from a spec")
    p.add_argument("--spec", required=True, help="generation spec (JSON)")
    p.add_argument("--out", help="output file (default: stdout)")
    return p


def _load_json(path: str, what: str):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise PlanParseError(f"cannot read {what} file: {e}") from None
    except json.JSONDecodeError as e:
        raise PlanParseError(f"{what} file is not valid JSON: {e}") from None


def _run_gen(argv) -> int:
    args = _build_gen_parser().parse_args(argv)
    from .testkit import generate, genspec_from_json

    try:
        doc = _load_json(args.spec, "spec")
        spec = genspec_from_json(doc)
    except (PlanParseError, ValueError) as e:
        _diag("parse", str(e))
        return EXIT_PARSE
    rel = generate(spec)
    out = {
        "a3d_relation": 1,
        "schema": {"scalars": sorted(rel.schema.scalars),
                   "arrays": sorted(rel.schema.arrays)},
        "rows": [{c: list(v) if isinstance(v, tuple) else v
                  for c, v in r.items()} for r in rel.rows],
    }
    text = json.dumps(out, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _resolve(args, options) -> None:
    """Fill unset flags from the plan document's options block."""
    if args.mode is None:
        args.mode = options.get("mode", "enumerate")
    if args.emit is None:
        args.emit = options.get("emit", "plan")
    if args.preagg_alpha is None:
        args.preagg_alpha = float(options.get("preagg_alpha", 1.0))
    if not args.cte:
        args.cte = bool(options.get("cte", False))
    if not args.allow_cross_products:
        args.allow_cross_products = bool(
            options.get("allow_cross_products", False))


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "gen":
        return _run_gen(argv[1:])
    args = _build_parser().parse_args(argv)

    try:
        doc = _load_json(args.plan, "plan")
        term, schemas, correspondences, options = parse_plan_document(doc)
        _resolve(args, options)
        # the options block may name what the flags' choices rule out
        if args.mode not in MODES:
            raise PlanParseError(f"unknown mode {args.mode!r}")
        if args.emit not in EMIT_TARGETS:
            raise PlanParseError(f"unknown emit target {args.emit!r}")
        stats = {}
        if args.stats:
            stats = parse_stats_document(_load_json(args.stats, "stats"),
                                         schemas)
    except PlanParseError as e:
        _diag("parse", str(e))
        return EXIT_PARSE
    except SchemaError as e:
        _diag("schema", str(e))
        return EXIT_SCHEMA

    try:
        result = optimize(term, schemas, stats=stats,
                          correspondences=correspondences, mode=args.mode,
                          alpha=args.preagg_alpha,
                          allow_cross_products=args.allow_cross_products,
                          trace=args.trace)
    except SchemaError as e:
        _diag("schema", str(e))
        return EXIT_SCHEMA
    except InfeasibleQueryError as e:
        _diag("infeasible", str(e), blocking_op=e.blocking_op)
        return EXIT_INFEASIBLE
    except (DisconnectedJoinGraphError, MalformedQueryError,
            OracleLimitError, PostprocessCapError,
            GreedyIterationCapError) as e:
        _diag("infeasible", str(e))
        return EXIT_INFEASIBLE

    if args.trace:
        for rec in result.trace:
            print(json.dumps({
                "rule_id": rec["rule"], "path": rec["path"],
                "before_cost": rec.get("before_cost"),
                "after_cost": rec.get("after_cost"),
            }, sort_keys=True), file=sys.stderr)
    if args.time:
        print(json.dumps({"timings_ms": result.timings_ms},
                         sort_keys=True), file=sys.stderr)
    if args.counters:
        print(json.dumps(result.counters, sort_keys=True), file=sys.stderr)

    try:
        sys.stdout.write(_emit(result, doc["catalog"], schemas, stats, args))
    except DialectError as e:
        _diag("dialect", str(e))
        return EXIT_DIALECT
    return 0


if __name__ == "__main__":
    sys.exit(main())
