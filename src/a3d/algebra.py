"""Relational algebra over array-valued attributes: terms and interpreter.

Relations carry two column kinds, scalar and array.  Arrays are tuples whose
elements are scalars (possibly null); an array itself is never null.  The
interpreter runs in bag semantics by default; ``mode="set"`` deduplicates
after every operator.

Operators
---------
RelVar        base relation reference
Filter        sigma: keep rows satisfying a predicate
Project       pi: keep a subset of columns
Join          natural inner join on all shared column names
ArrayJoin     mu: unnest one or more equal-length arrays, one output row per
              index; sources are consumed, aliases become scalar columns
ArrayFilter   phi: coordinated element filter over equal-length arrays; the
              predicate sees only the element aliases; sources are consumed
              and aliases become the filtered arrays
Derive        delta: add/overwrite one column from a scalar function; with
              is_map=True the function is mapped over array arguments
              (scalar arguments broadcast) producing a new array
Aggregate     gamma: group by key columns, apply aggregates; an empty input
              yields an empty output even with no keys

Schema inference
----------------
``node_schema`` holds every schema rule as one step: a node's output schema
from its children's schemas, reading only the node's own fields, and it
raises on any inconsistency.  ``output_schema`` folds it over a whole term
and is the only place a catalog is consulted, at ``RelVar``.  Beside it,
``footprint`` says which columns a unary node reads, writes and consumes;
it is the one table of per-operator columns that the rest of the package
(decomposition, gensym, preprocess, and the rewrite rules that commute
operators or move them across a join) uses.  The join search does not call
``node_schema`` per step: decomposition runs it once per operator where the
query placed it, and the search replays the recorded effect
(``RankableOp.schema_after``).

Null/equality conventions live in `functions` and `predicates`; join and
group keys treat null as equal to null.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Union

from .functions import (
    FunctionError,
    ScalarFn,
    agg_output_kind,
    apply_agg,
    apply_scalar,
    fn_output_kind,
    is_array,
    known_agg_fn,
    known_scalar_fn,
    scalar_fn_arity,
)
from .predicates import Pred, PredicateError, eval_pred, format_pred, pred_columns


class A3DError(Exception):
    """Base class for anything this package raises on purpose."""


class SchemaError(A3DError):
    """Term or data inconsistent with declared schemas."""


class EvalError(A3DError):
    """Runtime failure: length mismatch, bad comparison, unknown function."""


############################################################
# schemas and relations
############################################################

@dataclass(frozen=True)
class Schema:
    scalars: frozenset
    arrays: frozenset

    def __post_init__(self):
        overlap = self.scalars & self.arrays
        if overlap:
            raise SchemaError(f"columns both scalar and array: {sorted(overlap)}")

    @staticmethod
    def of(scalars=(), arrays=()) -> "Schema":
        return Schema(frozenset(scalars), frozenset(arrays))

    @property
    def columns(self) -> frozenset:
        return self.scalars | self.arrays

    def kind(self, col: str) -> str:
        if col in self.scalars:
            return "scalar"
        if col in self.arrays:
            return "array"
        raise SchemaError(f"unknown column {col!r}")


def _valid_scalar(v) -> bool:
    return v is None or isinstance(v, (int, float, str, bool))


@dataclass(frozen=True)
class Relation:
    schema: Schema
    rows: tuple  # of dict

    @staticmethod
    def build(schema: Schema, rows) -> "Relation":
        """Validating constructor; copies rows."""
        cols = schema.columns
        out = []
        for i, r in enumerate(rows):
            if set(r) != cols:
                raise SchemaError(
                    f"row {i}: columns {sorted(r)} != schema {sorted(cols)}")
            for c in schema.scalars:
                if not _valid_scalar(r[c]):
                    raise SchemaError(f"row {i}: column {c!r} not a scalar")
            for c in schema.arrays:
                v = r[c]
                if not isinstance(v, tuple) or not all(_valid_scalar(e) for e in v):
                    raise SchemaError(f"row {i}: column {c!r} not an array")
            out.append(dict(r))
        return Relation(schema, tuple(out))

    def __len__(self) -> int:
        return len(self.rows)


############################################################
# terms
############################################################

@dataclass(frozen=True)
class RelVar:
    name: str


@dataclass(frozen=True)
class Filter:
    pred: Pred
    child: "Term"


@dataclass(frozen=True)
class Project:
    cols: tuple
    child: "Term"


@dataclass(frozen=True)
class Join:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class ArrayJoin:
    targets: tuple  # of (source, alias)
    child: "Term"


@dataclass(frozen=True)
class ArrayFilter:
    targets: tuple  # of (source, alias)
    pred: Pred
    child: "Term"


@dataclass(frozen=True)
class Derive:
    output: str
    fn: ScalarFn
    args: tuple  # of column names
    child: "Term"
    is_map: bool = False


@dataclass(frozen=True)
class AggSpec:
    fn: str
    arg: str
    alias: str


@dataclass(frozen=True)
class Aggregate:
    keys: tuple
    aggs: tuple  # of AggSpec
    child: "Term"


Term = Union[RelVar, Filter, Project, Join, ArrayJoin, ArrayFilter, Derive,
             Aggregate]

UNARY_TYPES = (Filter, Project, ArrayJoin, ArrayFilter, Derive, Aggregate)


############################################################
# generic tree plumbing
############################################################

def children(term: Term) -> tuple:
    if isinstance(term, RelVar):
        return ()
    if isinstance(term, Join):
        return (term.left, term.right)
    return (term.child,)


def with_children(term: Term, kids: tuple) -> Term:
    if isinstance(term, RelVar):
        if kids:
            raise SchemaError("RelVar takes no children")
        return term
    if isinstance(term, Join):
        return Join(kids[0], kids[1])
    if isinstance(term, Filter):
        return Filter(term.pred, kids[0])
    if isinstance(term, Project):
        return Project(term.cols, kids[0])
    if isinstance(term, ArrayJoin):
        return ArrayJoin(term.targets, kids[0])
    if isinstance(term, ArrayFilter):
        return ArrayFilter(term.targets, term.pred, kids[0])
    if isinstance(term, Derive):
        return Derive(term.output, term.fn, term.args, kids[0], term.is_map)
    if isinstance(term, Aggregate):
        return Aggregate(term.keys, term.aggs, kids[0])
    raise SchemaError(f"not a term: {term!r}")


def walk(term: Term, path=()) -> Iterator[tuple]:
    """Preorder traversal yielding (path, subterm)."""
    return _preorder([(path, term)])


def walk_from(term: Term, start: tuple) -> Iterator[tuple]:
    """``walk(term)`` from the node at path `start` on: that node, its
    subtree, then every node that follows it in preorder."""
    stack, node = [], term
    for depth, i in enumerate(start):
        kids = children(node)
        for j in range(len(kids) - 1, i, -1):
            stack.append((start[:depth] + (j,), kids[j]))
        node = kids[i]
    stack.append((start, node))
    return _preorder(stack)


def _preorder(stack: list) -> Iterator[tuple]:
    # an explicit stack: a recursive ``yield from`` passes each item up
    # through every enclosing generator, quadratic on a deep unary chain
    while stack:
        path, node = stack.pop()
        yield path, node
        if isinstance(node, Join):
            stack.append((path + (1,), node.right))
            stack.append((path + (0,), node.left))
        elif not isinstance(node, RelVar):
            stack.append((path + (0,), node.child))


def replace_at(term: Term, path: tuple, new: Term) -> Term:
    if not path:
        return new
    kids = list(children(term))
    kids[path[0]] = replace_at(kids[path[0]], path[1:], new)
    return with_children(term, tuple(kids))


def base_relations(term: Term) -> tuple:
    """RelVar names in left-to-right order (duplicates preserved)."""
    if isinstance(term, RelVar):
        return (term.name,)
    out: tuple = ()
    for kid in children(term):
        out += base_relations(kid)
    return out


############################################################
# schema inference
############################################################

def _check_targets(targets, schema: Schema, what: str) -> tuple:
    """Validate (source, alias) targets; returns the (sources, aliases)
    sets."""
    if not targets:
        raise SchemaError(f"{what} needs at least one target")
    sources = frozenset(s for s, _ in targets)
    aliases = frozenset(a for _, a in targets)
    if len(sources) != len(targets):
        raise SchemaError(f"{what}: duplicate source")
    if len(aliases) != len(targets):
        raise SchemaError(f"{what}: duplicate alias")
    for s, _ in targets:
        if s not in schema.arrays:
            raise SchemaError(f"{what}: source {s!r} is not an array column")
    survivors = schema.columns - sources
    for _, a in targets:
        if a in survivors:
            raise SchemaError(f"{what}: alias {a!r} shadows an unrelated column")
    return sources, aliases


def node_schema(node: Term, *child_schemas: Schema) -> Schema:
    """One inference step: the schema `node` outputs given its children's.

    Only the node's own fields are read; its children are ignored (pass
    their schemas instead), so template nodes with placeholder children are
    fine.  Raises SchemaError on any inconsistency.  Not defined for
    RelVar, whose schema comes from a catalog.
    """
    if isinstance(node, Join):
        left, right = child_schemas
        for c in left.columns & right.columns:
            if left.kind(c) != right.kind(c):
                raise SchemaError(f"join column {c!r} has mixed kinds")
        return Schema(left.scalars | right.scalars, left.arrays | right.arrays)

    if not isinstance(node, UNARY_TYPES):
        raise SchemaError(f"not a term: {node!r}")
    (inner,) = child_schemas

    if isinstance(node, Filter):
        missing = pred_columns(node.pred) - inner.columns
        if missing:
            raise SchemaError(f"filter references {sorted(missing)}")
        return inner

    if isinstance(node, Project):
        if len(set(node.cols)) != len(node.cols):
            raise SchemaError("project: duplicate column")
        for c in node.cols:
            if c not in inner.columns:
                raise SchemaError(f"project: unknown column {c!r}")
        keep = frozenset(node.cols)
        return Schema(inner.scalars & keep, inner.arrays & keep)

    if isinstance(node, ArrayJoin):
        sources, aliases = _check_targets(node.targets, inner, "arrayJoin")
        gone = sources | aliases
        return Schema((inner.scalars - gone) | aliases, inner.arrays - gone)

    if isinstance(node, ArrayFilter):
        sources, aliases = _check_targets(node.targets, inner, "arrayFilter")
        stray = pred_columns(node.pred) - aliases
        if stray:
            raise SchemaError(
                f"arrayFilter predicate may only use element aliases; got {sorted(stray)}")
        gone = sources | aliases
        return Schema(inner.scalars - gone, (inner.arrays - gone) | aliases)

    if isinstance(node, Derive):
        if not known_scalar_fn(node.fn.name):
            raise SchemaError(f"unknown function {node.fn.name!r}")
        if len(node.args) != scalar_fn_arity(node.fn.name):
            raise SchemaError(f"{node.fn.name}: wrong arity")
        kinds = []
        for c in node.args:
            if c not in inner.columns:
                raise SchemaError(f"derive references unknown column {c!r}")
            kinds.append(inner.kind(c))
        if node.is_map and "array" not in kinds:
            raise SchemaError("map derive needs at least one array argument")
        out = frozenset((node.output,))
        if node.is_map or fn_output_kind(node.fn, kinds) == "array":
            return Schema(inner.scalars - out, inner.arrays | out)
        return Schema(inner.scalars | out, inner.arrays - out)

    # Aggregate
    if len(set(node.keys)) != len(node.keys):
        raise SchemaError("aggregate: duplicate key")
    kinds = {k: inner.kind(k) for k in node.keys}
    for spec in node.aggs:
        if not known_agg_fn(spec.fn):
            raise SchemaError(f"unknown aggregate {spec.fn!r}")
        if spec.arg not in inner.columns:
            raise SchemaError(f"aggregate references unknown column {spec.arg!r}")
        if spec.fn.endswith("ForEach") and inner.kind(spec.arg) != "array":
            raise SchemaError(f"{spec.fn} needs an array column")
        if spec.alias in kinds:
            raise SchemaError(f"aggregate alias {spec.alias!r} collides")
        kinds[spec.alias] = agg_output_kind(spec.fn)
    return Schema(frozenset(c for c, k in kinds.items() if k == "scalar"),
                  frozenset(c for c, k in kinds.items() if k == "array"))


def footprint(node: Term) -> tuple:
    """(reads, writes, consumes): the columns a unary node reads, creates or
    overwrites, and removes from its input.

    Like ``node_schema`` it reads only the node's own fields.  Outside
    Project and Aggregate, which also drop every input column they do not
    output, a valid node's output columns are its input's minus `consumes`
    plus `writes`.  Not defined for RelVar and Join.
    """
    if isinstance(node, Filter):
        return pred_columns(node.pred), frozenset(), frozenset()
    if isinstance(node, Project):
        return frozenset(node.cols), frozenset(), frozenset()
    if isinstance(node, (ArrayJoin, ArrayFilter)):
        sources = frozenset(s for s, _ in node.targets)
        aliases = frozenset(a for _, a in node.targets)
        reads = sources
        if isinstance(node, ArrayFilter):
            reads = sources | (pred_columns(node.pred) - aliases)
        return reads, aliases, sources
    if isinstance(node, Derive):
        return frozenset(node.args), frozenset((node.output,)), frozenset()
    if isinstance(node, Aggregate):
        reads = frozenset(node.keys) | {s.arg for s in node.aggs}
        return reads, frozenset(s.alias for s in node.aggs), frozenset()
    raise SchemaError(f"not a unary term: {node!r}")


def output_schema(term: Term, catalog: Mapping[str, Schema]) -> Schema:
    """Infer the output schema, raising SchemaError on any inconsistency."""
    if isinstance(term, RelVar):
        if term.name not in catalog:
            raise SchemaError(f"unknown relation {term.name!r}")
        return catalog[term.name]
    if isinstance(term, Join):
        return node_schema(term, output_schema(term.left, catalog),
                           output_schema(term.right, catalog))
    if isinstance(term, UNARY_TYPES):
        return node_schema(term, output_schema(term.child, catalog))
    raise SchemaError(f"not a term: {term!r}")


############################################################
# interpreter
############################################################

def _row_key(row: dict) -> tuple:
    return tuple(sorted(((c, repr(v)) for c, v in row.items())))


def _dedupe(rows: list) -> list:
    seen = set()
    out = []
    for r in rows:
        k = _row_key(r)
        if k not in seen:
            seen.add(k)
            out.append(r)
    return out


def _eval_join(left_rows, right_rows, shared) -> list:
    index: dict = {}
    for rr in right_rows:
        index.setdefault(tuple(rr[c] for c in shared), []).append(rr)
    out = []
    for lr in left_rows:
        for rr in index.get(tuple(lr[c] for c in shared), ()):
            merged = dict(lr)
            merged.update(rr)
            out.append(merged)
    return out


def _eval_array_join(term: ArrayJoin, rows) -> list:
    sources = tuple(s for s, _ in term.targets)
    drop = set(sources) | {a for _, a in term.targets}
    out = []
    for r in rows:
        length = len(r[sources[0]])
        for s in sources[1:]:
            if len(r[s]) != length:
                raise EvalError(
                    f"arrayJoin over {s!r}: length {len(r[s])} != {length}")
        base = {c: v for c, v in r.items() if c not in drop}
        for j in range(length):
            new = dict(base)
            for s, a in term.targets:
                new[a] = r[s][j]
            out.append(new)
    return out


def _eval_array_filter(term: ArrayFilter, rows) -> list:
    sources = tuple(s for s, _ in term.targets)
    drop = set(sources) | {a for _, a in term.targets}
    out = []
    for r in rows:
        length = len(r[sources[0]])
        for s in sources[1:]:
            if len(r[s]) != length:
                raise EvalError(
                    f"arrayFilter over {s!r}: length {len(r[s])} != {length}")
        keep = []
        for j in range(length):
            binding = {a: r[s][j] for s, a in term.targets}
            if eval_pred(term.pred, binding):
                keep.append(j)
        new = {c: v for c, v in r.items() if c not in drop}
        for s, a in term.targets:
            new[a] = tuple(r[s][j] for j in keep)
        out.append(new)
    return out


def _eval_derive(term: Derive, rows, arg_is_array) -> list:
    out = []
    for r in rows:
        args = [r[c] for c in term.args]
        new = dict(r)
        if term.is_map:
            arr_args = [a for a, is_arr in zip(args, arg_is_array) if is_arr]
            length = len(arr_args[0])
            for a in arr_args[1:]:
                if len(a) != length:
                    raise EvalError("map derive: array length mismatch")
            mapped = []
            for j in range(length):
                point = [a[j] if is_arr else a
                         for a, is_arr in zip(args, arg_is_array)]
                mapped.append(apply_scalar(term.fn, point))
            new[term.output] = tuple(mapped)
        else:
            new[term.output] = apply_scalar(term.fn, args)
        out.append(new)
    return out


def _eval_aggregate(term: Aggregate, rows) -> list:
    if not rows:
        return []
    groups: dict = {}
    for r in rows:
        k = tuple(r[c] for c in term.keys)
        groups.setdefault(k, []).append(r)
    out = []
    for k, members in groups.items():
        new = dict(zip(term.keys, k))
        for spec in term.aggs:
            new[spec.alias] = apply_agg(spec.fn, [m[spec.arg] for m in members])
        out.append(new)
    return out


def evaluate(term: Term, db: Mapping[str, Relation], mode: str = "bag") -> Relation:
    """Run the interpreter.  Returns a Relation with the inferred schema."""
    if mode not in ("bag", "set"):
        raise EvalError(f"unknown mode {mode!r}")
    catalog = {name: rel.schema for name, rel in db.items()}
    schema = output_schema(term, catalog)  # fail fast on schema problems

    def run(t: Term) -> tuple:
        """(rows, schema) of one subterm."""
        if isinstance(t, RelVar):
            rows, sch = [dict(r) for r in db[t.name].rows], db[t.name].schema
        elif isinstance(t, Join):
            (lrows, lsch), (rrows, rsch) = run(t.left), run(t.right)
            shared = sorted(lsch.columns & rsch.columns)
            rows = _eval_join(lrows, rrows, shared)
            sch = node_schema(t, lsch, rsch)
        else:
            kid_rows, kid_sch = run(t.child)
            sch = node_schema(t, kid_sch)
            try:
                if isinstance(t, Filter):
                    rows = [r for r in kid_rows if eval_pred(t.pred, r)]
                elif isinstance(t, Project):
                    rows = [{c: r[c] for c in t.cols} for r in kid_rows]
                elif isinstance(t, ArrayJoin):
                    rows = _eval_array_join(t, kid_rows)
                elif isinstance(t, ArrayFilter):
                    rows = _eval_array_filter(t, kid_rows)
                elif isinstance(t, Derive):
                    arg_is_array = [kid_sch.kind(c) == "array" for c in t.args]
                    rows = _eval_derive(t, kid_rows, arg_is_array)
                else:
                    rows = _eval_aggregate(t, kid_rows)
            except (FunctionError, PredicateError) as exc:
                raise EvalError(str(exc)) from None
        if mode == "set":
            rows = _dedupe(rows)
        return rows, sch

    return Relation(schema, tuple(run(term)[0]))


def relations_equal(a: Relation, b: Relation, mode: str = "bag") -> bool:
    """Compare two relations as multisets (or sets) of rows."""
    if a.schema != b.schema:
        return False
    if mode == "set":
        return set(map(_row_key, a.rows)) == set(map(_row_key, b.rows))
    bag_a: dict = {}
    bag_b: dict = {}
    for r in a.rows:
        k = _row_key(r)
        bag_a[k] = bag_a.get(k, 0) + 1
    for r in b.rows:
        k = _row_key(r)
        bag_b[k] = bag_b.get(k, 0) + 1
    return bag_a == bag_b


############################################################
# debug rendering
############################################################

def format_term(term: Term, indent: int = 0) -> str:
    """Multi-line, operator-symbol rendering (for traces and debugging)."""
    pad = "  " * indent
    if isinstance(term, RelVar):
        return f"{pad}{term.name}"
    if isinstance(term, Filter):
        head = f"{pad}sigma[{format_pred(term.pred)}]"
    elif isinstance(term, Project):
        head = f"{pad}pi[{', '.join(term.cols)}]"
    elif isinstance(term, Join):
        return (f"{pad}join\n{format_term(term.left, indent + 1)}\n"
                f"{format_term(term.right, indent + 1)}")
    elif isinstance(term, ArrayJoin):
        tt = ", ".join(f"{s}:{a}" for s, a in term.targets)
        head = f"{pad}mu[{tt}]"
    elif isinstance(term, ArrayFilter):
        tt = ", ".join(f"{s}:{a}" for s, a in term.targets)
        head = f"{pad}phi[{tt} | {format_pred(term.pred)}]"
    elif isinstance(term, Derive):
        fn = term.fn.name
        if term.fn.params:
            fn += "[" + ",".join(f"{k}={v!r}" for k, v in term.fn.params) + "]"
        star = "map " if term.is_map else ""
        head = f"{pad}delta[{term.output} = {star}{fn}({', '.join(term.args)})]"
    elif isinstance(term, Aggregate):
        aa = ", ".join(f"{s.fn}({s.arg}):{s.alias}" for s in term.aggs)
        head = f"{pad}gamma[{', '.join(term.keys)} | {aa}]"
    else:
        return f"{pad}{term!r}"
    return head + "\n" + format_term(term.child, indent + 1)
