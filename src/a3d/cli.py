"""Batch command-line front end.

Reads a plan document (JSON envelope with a catalog and a serialized term),
optionally a statistics file, runs the selected optimization mode, and
emits the requested artifact on stdout: the optimized plan, SQL for a
dialect, or a dot graph.  Diagnostics — errors, timings, counters, rule
traces — go to stderr as single-line JSON records.

Exit codes: 0 success, 1 plan/stats parse error or command-line usage
error, 2 schema error, 3 infeasible or unsupported query, 4 dialect error.
A usage error (an unknown flag, a value a flag does not take, a missing
``--plan``) is one ``parse`` record, as a document error is; ``--help``
prints the usage and exits 0.

A second form, ``a3d gen --spec spec.json --out rel.json``, generates a
relation from a distribution spec (see `testkit.genspec_from_json`).

Plan document::

    {"a3d_plan": 1,
     "catalog": {"relations": {name: {"scalars": [col], "arrays": [col]}},
                 "correspondences": [[array col, array col, ...]]},
     "term": term,
     "options": {"mode": ..., "emit": ..., "cte": flag,
                 "allow_cross_products": flag}}

``scalars``, ``arrays``, ``correspondences`` and ``options`` and each of
its keys may be left out; a command-line flag overrides its option.  A
correspondence names two or more array columns of one relation.  An
object whose keys the format names (the envelope, the catalog, a relation
entry, ``options``, and each term, predicate, expression, aggregate and
function below) holds no other key: an unknown key, a misspelt one too, is
a parse error that names the object's path.

A term, a predicate and an expression are each a JSON object whose ``op``,
``pred`` or ``expr`` key names its tag; the tables ``_TERMS``, ``_PREDS``
and ``_EXPRS`` give each tag's class and fields::

    op           fields                                  class
    relVar       name                                    RelVar
    filter       pred, input                             Filter
    project      cols, input                             Project
    join         left, right                             Join
    arrayJoin    targets, input                          ArrayJoin
    arrayFilter  targets, pred, input                    ArrayFilter
    derive       output, fn, args, input, map            Derive
    aggregate    keys, aggs, input                       Aggregate

    pred         fields                                  class
    cmp          op (= != < <= > >=), lhs, rhs           Cmp
    and, or      parts (two or more predicates)          And, Or
    not          part                                    Not

    expr         fields                                  class
    col          name                                    Col
    lit          value                                   Lit
    apply        fn, args (a list of expressions)        Apply

``input``, ``left`` and ``right`` are terms; ``pred`` and ``part`` are
predicates; ``lhs`` and ``rhs`` are expressions.  ``name`` and ``output``
are strings; ``cols``, ``keys`` and a derive's ``args`` are lists of
strings; ``targets`` is a non-empty list of ``[array column, alias]``
pairs; ``aggs`` is a list of ``{"fn", "arg", "alias"}`` strings, ``fn`` a
known aggregate.  Every field is required except ``map``.  The value
rules:

- a number is a finite JSON number, and an integer where one is asked for;
- a flag is ``true`` or ``false``, and false when left out;
- a literal (a ``lit`` value) is null, a boolean, a finite number, a
  string, or a flat list of those, which is an array value;
- a function ``fn`` is ``{"name": ..., "params": {...}}`` with exactly the
  parameters that `functions` declares for it: ``const`` takes a literal
  ``value``, ``affine`` takes numbers ``a`` and ``b`` (it computes
  ``a * x + b``), and every other function takes none, so ``params`` may
  be left out.

Statistics document: ``{"relation.column": entry}``.  Every entry has a
``row_count``, a non-negative integer equal across one relation's entries,
and a ``kind``:

- ``exact``: ``freq``, a list of ``[value, fraction]`` pairs with a scalar
  literal value and a number fraction; ``ndv`` (default: the number of
  pairs); ``null_fraction``;
- ``uniform``: ``ndv`` (required); ``lo`` and ``hi``, numbers or null;
  ``null_fraction``;
- ``clustered``: ``clusters``, a non-empty list of ``[lo, hi, weight,
  ndv]`` numbers with an integer ``ndv``; ``ndv`` (default: their sum);
  ``null_fraction``;
- ``array``, for an array column: ``avg_array_len``, ``empty_fraction``,
  and ``row_stats``, a scalar entry without ``row_count`` for the
  elements.

``ndv`` is an integer and every other statistic a number.  Like
``row_count``, every ``ndv`` (an entry's or a cluster's) and
``avg_array_len`` must not be negative, and ``null_fraction``,
``empty_fraction``, a ``freq`` fraction and a cluster weight lie between 0
and 1: outside these bounds the cost model would estimate rows and costs
that no table can have.  A scalar entry may hold only ``row_count`` and
the keys that the scalar kinds list, a ``row_stats`` entry only the
latter, and an array entry only its own.

A term nests at most ``MAX_TERM_DEPTH`` levels of JSON objects and lists:
an operator takes one level, and so does each predicate, expression or list
of them below it.  A deeper term is a parse error, and so is a document
that nests too deeply for ``json`` to read.  The planner and the emitters
recurse over the depth of the term they plan, and the bound keeps a
document's own stack of operators clear of Python's recursion limit: under
the default limit of 1,000 frames, a stack of about 496 unary operators is
the shallowest that ends in a RecursionError, in the ClickHouse emitter.
The bound does not cover the planned term, which can nest far deeper than
the document: preprocess makes one filter of each conjunct, so a filter
on a conjunction of 500 comparisons, five JSON levels deep, plans as a
stack of 500 filters.  A RecursionError while planning or emitting is one
``infeasible`` record, with exit 3.

An error names the path of keys from the document's root down to the bad
value, for example ``term['input']['pred']['rhs']['value']``.
"""

import argparse
import json
import math
import sys

from .algebra import (
    A3DError, AggSpec, Aggregate, ArrayFilter, ArrayJoin, Derive, Filter,
    Join, Project, RelVar, Schema, SchemaError, Term,
)
from .functions import ScalarFn, known_agg_fn, scalar_fn_signature
from .planner import InfeasibleQueryError, MODES, optimize
from .predicates import And, Cmp, Col, Lit, Not, Or, Apply, COMPARISONS
from .stats import ArrayStats, CostModel, ScalarStats, TableStats
from .translate import DIALECTS, DialectError, to_dot, to_sql

EXIT_PARSE = 1
EXIT_SCHEMA = 2
EXIT_INFEASIBLE = 3
EXIT_DIALECT = 4

PLAN_VERSION = 1

# the deepest term a plan document may hold, in JSON levels (module
# docstring)
MAX_TERM_DEPTH = 400

EMIT_TARGETS = ("plan", *(f"sql-{name}" for name in DIALECTS), "dot")


class PlanParseError(A3DError, ValueError):
    """A plan, statistics or generation document is not well-formed.

    `at` is the path of keys and indices from the document's root to the
    bad value.  Readers prepend their key as the error passes up through
    them, so no location text is built for a document that parses.
    """

    def __init__(self, message: str, *at):
        super().__init__(message)
        self.at = list(at)

    def __str__(self) -> str:
        if not self.at:
            return self.args[0]
        path = "".join(f"[{key!r}]" for key in self.at[1:])
        return f"{self.at[0]}{path}: {self.args[0]}"


class _at:
    """Prefix `keys` to the path of a PlanParseError raised in the block."""

    def __init__(self, *keys):
        self.keys = keys

    def __enter__(self):
        return self

    def __exit__(self, kind, error, traceback):
        if isinstance(error, PlanParseError):
            error.at[:0] = self.keys


############################################################
# value readers: one per kind of value, each a document's only check of it
############################################################

_ABSENT = object()  # the value of a key that a document leaves out


def _check_keys(doc: dict, allowed, *at) -> None:
    """A PlanParseError at `at` unless `allowed` holds every key of the
    object `doc`; one subset test where it does."""
    if not allowed.issuperset(doc):
        raise PlanParseError(f"unknown keys {sorted(doc.keys() - allowed)}",
                             *at)


def _number(value, *at, kind=float):
    """`value` as a `kind` (float or int): a PlanParseError at `at` unless
    it is a finite JSON number, and integral where `kind` is int."""
    if type(value) is float:
        if math.isfinite(value) and (kind is float or value.is_integer()):
            return value if kind is float else kind(value)
    elif type(value) is int:
        try:
            return kind(value)
        except OverflowError:  # too large for a float
            pass
    raise PlanParseError(f"must be a finite "
                         f"{'integer' if kind is int else 'number'}", *at)


def _flag(value, *at) -> bool:
    """A JSON boolean; false when the key is absent."""
    if value is True or value is False or value is _ABSENT:
        return value is True
    raise PlanParseError("must be true or false", *at)


_EXACT_SCALARS = frozenset({type(None), bool, int, str})


def _is_scalar(value) -> bool:
    return type(value) in _EXACT_SCALARS \
        or (type(value) is float and math.isfinite(value))


def _literal(value):
    """A literal: null, a boolean, a finite number, a string, or a flat
    list of those (read as a tuple, the array value)."""
    if _is_scalar(value):
        return value
    if type(value) is list and all(map(_is_scalar, value)):
        return tuple(value)
    raise PlanParseError("must be null, a boolean, a finite number, a "
                         "string or a flat list of those")


def _string(value):
    if type(value) is str:
        return value
    raise PlanParseError("must be a string")


def _strings(value, *at) -> tuple:
    if type(value) is list and all(type(s) is str for s in value):
        return tuple(value)
    raise PlanParseError("must be a list of strings", *at)


def _targets(value) -> tuple:
    if type(value) is list and value and all(
            type(t) is list and len(t) == 2 and type(t[0]) is str
            and type(t[1]) is str for t in value):
        return tuple((s, a) for s, a in value)
    raise PlanParseError("must be a non-empty list of [source, alias] "
                         "pairs")


def _comparison(value):
    if value in COMPARISONS:
        return value
    raise PlanParseError(f"must be one of {list(COMPARISONS)}")


def _aggregate_fn(value):
    if type(value) is str and known_agg_fn(value):
        return value
    raise PlanParseError("must name a known aggregate")


############################################################
# codecs: a (writer, reader) pair per field type, and the tables
############################################################

def _write_object(obj) -> dict:
    """The JSON object of `obj`: its tag, if its class has one, and each
    field its codec writes (a flag that is off is left out)."""
    try:
        tag_key, tag, fields = _WRITERS[type(obj)]
    except KeyError:
        raise PlanParseError(f"unserializable {type(obj).__name__}") \
            from None
    doc = {tag_key: tag} if tag_key else {}
    for key, attr, (write, _) in fields:
        value = write(getattr(obj, attr))
        if value is not _ABSENT:
            doc[key] = value
    return doc


def _object(tag_key, table: dict):
    """The codec of a JSON object that stands for one of `table`'s classes.

    `table` maps each tag to (class, fields), and the object's `tag_key`
    names its tag.  A class with no tag has the tag key None and is
    `table`'s only entry, under None.
    """

    def read(doc):
        try:
            cls, fields = table[doc.get(tag_key)]
        except (AttributeError, TypeError, KeyError):  # no object, bad tag
            raise PlanParseError("must be an object" + (
                f" whose {tag_key!r} is one of {sorted(table)}"
                if tag_key else "")) from None
        _check_keys(doc, _KEYS[cls])
        values = []
        try:
            for key, _, (_, read_field) in fields:
                values.append(read_field(doc.get(key, _ABSENT)))
        except PlanParseError as e:
            if key not in doc:
                raise PlanParseError("is missing", key) from None
            e.at.insert(0, key)
            raise
        return cls(*values)

    return _write_object, read


def _list_of(codec, least: int = 0):
    """The codec of a list of `least` or more values of `codec`."""
    write, read = codec

    def read_list(value) -> tuple:
        if type(value) is not list or len(value) < least:
            raise PlanParseError("must be a list" + (
                f" of {least} or more" if least else ""))
        out = []
        try:
            for i, item in enumerate(value):
                out.append(read(item))
        except PlanParseError as e:
            e.at.insert(0, i)
            raise
        return tuple(out)

    return (lambda items: [write(item) for item in items]), read_list


def _write_fn(fn: ScalarFn) -> dict:
    doc = {"name": fn.name}
    if fn.params:
        doc["params"] = dict(fn.params)
    return doc


_FN_KEYS = frozenset({"name", "params"})


def _read_fn(doc) -> ScalarFn:
    """A function: a known name, and exactly the parameters it takes."""
    try:
        name = doc["name"]
        kinds = scalar_fn_signature(name)[1]
    except (TypeError, KeyError):  # no object, no name, or an unknown one
        raise PlanParseError("must be an object naming a known function") \
            from None
    _check_keys(doc, _FN_KEYS)
    params = doc.get("params", {})
    if type(params) is not dict or params.keys() != kinds.keys():
        raise PlanParseError(f"must hold exactly the parameters of {name}: "
                             f"{sorted(kinds)}", "params")
    if not kinds:
        return ScalarFn(name)
    values = []
    try:
        for key, kind in kinds.items():
            values.append((key, _PARAM_READERS[kind](params[key])))
    except PlanParseError as e:
        e.at[:0] = ["params", key]
        raise
    return ScalarFn(name, tuple(sorted(values)))


# a number parameter keeps its JSON type: affine's a=2 stays the int 2, and
# the plan and the SQL print it as written
_PARAM_READERS = {"literal": _literal,
                  "number": lambda v: _number(v, kind=type(v))}

_STRING = (str, _string)
_STRINGS = (list, _strings)
_TARGETS = (lambda targets: [list(t) for t in targets], _targets)
_LITERAL = (lambda v: list(v) if type(v) is tuple else v, _literal)
_FLAG = (lambda on: True if on else _ABSENT, _flag)
_FUNCTION = (_write_fn, _read_fn)

# tag -> (class, its fields as (JSON key, attribute, codec)), a class's
# fields in the order its constructor takes them.  The unions nest, so
# their codecs exist before their tables are filled in.
_TERMS: dict = {}
_PREDS: dict = {}
_EXPRS: dict = {}
_TERM = _object("op", _TERMS)
_PREDICATE = _object("pred", _PREDS)
_EXPRESSION = _object("expr", _EXPRS)
_AGG_SPECS = {None: (AggSpec, (("fn", "fn", (str, _aggregate_fn)),
                               ("arg", "arg", _STRING),
                               ("alias", "alias", _STRING)))}
_TERMS.update({
    "relVar": (RelVar, (("name", "name", _STRING),)),
    "filter": (Filter, (("pred", "pred", _PREDICATE),
                        ("input", "child", _TERM))),
    "project": (Project, (("cols", "cols", _STRINGS),
                          ("input", "child", _TERM))),
    "join": (Join, (("left", "left", _TERM), ("right", "right", _TERM))),
    "arrayJoin": (ArrayJoin, (("targets", "targets", _TARGETS),
                              ("input", "child", _TERM))),
    "arrayFilter": (ArrayFilter, (("targets", "targets", _TARGETS),
                                  ("pred", "pred", _PREDICATE),
                                  ("input", "child", _TERM))),
    "derive": (Derive, (("output", "output", _STRING),
                        ("fn", "fn", _FUNCTION), ("args", "args", _STRINGS),
                        ("input", "child", _TERM),
                        ("map", "is_map", _FLAG))),
    "aggregate": (Aggregate, (("keys", "keys", _STRINGS),
                              ("aggs", "aggs",
                               _list_of(_object(None, _AGG_SPECS))),
                              ("input", "child", _TERM))),
})
_PREDS.update({
    "cmp": (Cmp, (("op", "op", (str, _comparison)),
                  ("lhs", "lhs", _EXPRESSION), ("rhs", "rhs", _EXPRESSION))),
    "and": (And, (("parts", "parts", _list_of(_PREDICATE, 2)),)),
    "or": (Or, (("parts", "parts", _list_of(_PREDICATE, 2)),)),
    "not": (Not, (("part", "part", _PREDICATE),)),
})
_EXPRS.update({
    "col": (Col, (("name", "name", _STRING),)),
    "lit": (Lit, (("value", "value", _LITERAL),)),
    "apply": (Apply, (("fn", "fn", _FUNCTION),
                      ("args", "args", _list_of(_EXPRESSION)))),
})
_CORRESPONDENCES = _list_of(_list_of(_STRING, 2))
_WRITERS = {cls: (tag_key, tag, fields)
            for tag_key, table in (("op", _TERMS), ("pred", _PREDS),
                                   ("expr", _EXPRS), (None, _AGG_SPECS))
            for tag, (cls, fields) in table.items()}
# the keys an object of each class may hold: its tag key and its fields'
_KEYS = {cls: frozenset([key for key, _, _ in fields]
                        + ([tag_key] if tag_key else []))
         for cls, (tag_key, _, fields) in _WRITERS.items()}


def term_to_json(term: Term) -> dict:
    """Serialize a term to the tagged-union plan format."""
    return _write_object(term)


def _nesting(value) -> int:
    """How many levels of JSON objects and lists `value` nests, counted
    level by level without recursion: 0 for a scalar."""
    depth = 0
    level = [value] if type(value) is dict or type(value) is list else []
    while level:
        depth += 1
        inner = []
        for v in level:
            for item in v.values() if type(v) is dict else v:
                if type(item) is dict or type(item) is list:
                    inner.append(item)
        level = inner
    return depth


def term_from_json(doc) -> Term:
    """Parse the tagged-union plan format back into a term, one that nests
    at most ``MAX_TERM_DEPTH`` levels."""
    depth = _nesting(doc)
    if depth > MAX_TERM_DEPTH:
        raise PlanParseError(f"nests {depth} levels deep, more than the "
                             f"{MAX_TERM_DEPTH} a term may")
    return _TERM[1](doc)


############################################################
# plan document (envelope + catalog)
############################################################

_ENVELOPE_KEYS = frozenset({"a3d_plan", "catalog", "term", "options"})
_CATALOG_KEYS = frozenset({"relations", "correspondences"})
_RELATION_KEYS = frozenset({"scalars", "arrays"})
_OPTION_KEYS = frozenset({"mode", "emit", "cte", "allow_cross_products"})


def parse_plan_document(doc):
    """Parse an envelope into (term, schemas, correspondences, options).

    Envelope shape violations, unknown keys among them, raise
    PlanParseError; catalog-level inconsistencies (overlapping
    scalar/array names, correspondences not over array columns of one
    relation) raise SchemaError.
    """
    if type(doc) is not dict:
        raise PlanParseError("plan document must be a JSON object")
    if doc.get("a3d_plan") != PLAN_VERSION:
        raise PlanParseError(f"missing or unsupported plan version "
                             f"(need \"a3d_plan\": {PLAN_VERSION})")
    _check_keys(doc, _ENVELOPE_KEYS)
    catalog = doc.get("catalog")
    if type(catalog) is not dict or type(catalog.get("relations")) is not dict:
        raise PlanParseError("must contain a 'relations' object", "catalog")
    _check_keys(catalog, _CATALOG_KEYS, "catalog")

    schemas = {}
    for name, rel in catalog["relations"].items():
        if type(rel) is not dict:
            raise PlanParseError("must be an object", "catalog", "relations",
                                 name)
        _check_keys(rel, _RELATION_KEYS, "catalog", "relations", name)
        schemas[name] = Schema(
            frozenset(_strings(rel.get("scalars", []), "catalog",
                               "relations", name, "scalars")),
            frozenset(_strings(rel.get("arrays", []), "catalog",
                               "relations", name, "arrays")))

    try:
        correspondences = _CORRESPONDENCES[1](
            catalog.get("correspondences", []))
    except PlanParseError as e:
        e.at[:0] = ["catalog", "correspondences"]
        raise
    for group in correspondences:
        if not any(set(group) <= sch.arrays for sch in schemas.values()):
            raise SchemaError(
                f"correspondence {list(group)} does not name array columns "
                f"of a single relation")

    options = doc.get("options", {})
    if type(options) is not dict:
        raise PlanParseError("must be an object", "options")
    _check_keys(options, _OPTION_KEYS, "options")
    if "term" not in doc:
        raise PlanParseError("plan document has no 'term'")
    try:
        term = term_from_json(doc["term"])
    except PlanParseError as e:
        e.at.insert(0, "term")
        raise
    return term, schemas, correspondences, options


def plan_document(term: Term, catalog: dict) -> dict:
    return {"a3d_plan": PLAN_VERSION, "catalog": catalog,
            "term": term_to_json(term)}


############################################################
# statistics file
############################################################

_SCALAR_STAT_KEYS = {"kind", "ndv", "null_fraction", "freq", "lo", "hi",
                     "clusters"}
_ARRAY_STAT_KEYS = {"kind", "row_count", "avg_array_len", "empty_fraction",
                    "row_stats"}


def _fraction(value, *at) -> float:
    """A number from 0 to 1 at `at`: a share of rows, arrays or values."""
    frac = _number(value, *at)
    if not 0.0 <= frac <= 1.0:
        raise PlanParseError("must be between 0 and 1", *at)
    return frac


def _count(value, *at) -> int:
    """A non-negative integer at `at`: a number of rows or of values."""
    count = _number(value, *at, kind=int)
    if count < 0:
        raise PlanParseError("must not be negative", *at)
    return count


def _scalar_stats(doc, top: bool) -> ScalarStats:
    """A scalar entry: a top-level one (`top`), which carries
    ``row_count``, or an array entry's ``row_stats``, which does not."""
    if type(doc) is not dict:
        raise PlanParseError("must be an object")
    _check_keys(doc, _SCALAR_STAT_KEYS | {"row_count"} if top
                else _SCALAR_STAT_KEYS)
    kind = doc.get("kind")
    null_fraction = _fraction(doc.get("null_fraction", 0.0), "null_fraction")
    if kind == "exact":
        freq = doc.get("freq", [])
        if type(freq) is not list or not all(
                type(pair) is list and len(pair) == 2 and _is_scalar(pair[0])
                for pair in freq):
            raise PlanParseError("must be a list of [scalar, fraction] "
                                 "pairs", "freq")
        with _at("freq"):
            freqs = tuple((v, _fraction(f)) for v, f in freq)
        values = [v for v, _ in freqs]
        numeric = all(type(v) in (int, float) for v in values)
        lo, hi = (min(values), max(values)) if numeric and values \
            else (None, None)
        ndv = _count(doc.get("ndv", len(freqs)), "ndv")
        return ScalarStats("exact", ndv, null_fraction, freqs=freqs, lo=lo,
                           hi=hi, numeric=numeric)
    if kind == "uniform":
        lo, hi = doc.get("lo"), doc.get("hi")
        lo = lo if lo is None else _number(lo, "lo")
        hi = hi if hi is None else _number(hi, "hi")
        ndv = _count(doc.get("ndv", _ABSENT), "ndv")
        return ScalarStats("uniform", ndv, null_fraction, lo=lo, hi=hi,
                           numeric=lo is not None)
    if kind == "clustered":
        clusters = doc.get("clusters")
        if type(clusters) is not list or not clusters or not all(
                type(c) is list and len(c) == 4 for c in clusters):
            raise PlanParseError("must be a non-empty list of [lo, hi, "
                                 "weight, ndv] quadruples", "clusters")
        with _at("clusters"):
            built = tuple((_number(lo), _number(hi), _fraction(w), _count(n))
                          for lo, hi, w, n in clusters)
        ndv = _count(doc.get("ndv", sum(c[3] for c in built)), "ndv")
        return ScalarStats("clustered", ndv, null_fraction,
                           lo=built[0][0], hi=built[-1][1],
                           clusters=built, numeric=True)
    raise PlanParseError(f"unknown stats kind {kind!r}", "kind")


def parse_stats_document(doc, schemas) -> dict:
    """Parse {"rel.col": entry} statistics into per-relation tables."""
    if type(doc) is not dict:
        raise PlanParseError("stats document must be a JSON object")
    rows: dict = {}
    scalars: dict = {}
    arrays: dict = {}
    for key, entry in doc.items():
        with _at("stats", key):
            rel, dot, col = key.partition(".")
            if not dot:
                raise PlanParseError("keys are 'relation.column'")
            if rel not in schemas:
                raise PlanParseError(f"unknown relation {rel!r}")
            if type(entry) is not dict:
                raise PlanParseError("must be an object")
            rc = _count(entry.get("row_count", _ABSENT), "row_count")
            if rows.setdefault(rel, rc) != rc:
                raise PlanParseError(f"disagrees with {rows[rel]} for "
                                     f"{rel!r}", "row_count")
            array = entry.get("kind") == "array"
            if col not in (schemas[rel].arrays if array
                           else schemas[rel].scalars):
                raise PlanParseError(f"{col!r} is not "
                                     f"{'an array' if array else 'a scalar'}"
                                     f" column of {rel!r}")
            if not array:
                scalars.setdefault(rel, {})[col] = _scalar_stats(entry, True)
                continue
            _check_keys(entry, _ARRAY_STAT_KEYS)
            elem = entry.get("row_stats")
            with _at("row_stats"):
                elem = None if elem is None else _scalar_stats(elem, False)
            avg_len = _number(entry.get("avg_array_len", 0.0),
                              "avg_array_len")
            if avg_len < 0:
                raise PlanParseError("must not be negative", "avg_array_len")
            arrays.setdefault(rel, {})[col] = ArrayStats(
                avg_len,
                _fraction(entry.get("empty_fraction", 0.0), "empty_fraction"),
                elem)
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

class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise PlanParseError, so that
    they end in one ``parse`` record and exit 1; ``--help`` still prints
    the usage and exits 0."""

    def error(self, message):
        raise PlanParseError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    p = _ArgumentParser(
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
    p.add_argument("--allow-cross-products", action="store_true")
    return p


def _build_gen_parser() -> argparse.ArgumentParser:
    p = _ArgumentParser(
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
    except RecursionError:
        raise PlanParseError(f"{what} file nests too deeply to read") \
            from None


def _run_gen(argv) -> int:
    from .testkit import generate, genspec_from_json

    try:
        args = _build_gen_parser().parse_args(argv)
        spec = genspec_from_json(_load_json(args.spec, "spec"))
    except ValueError as e:  # PlanParseError among them
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
    """Fill unset flags from the plan document's options block, and check
    the values of both."""
    # argparse keeps the flags to known values; these catch the options'
    args.mode = args.mode or options.get("mode", "enumerate")
    if args.mode not in MODES:
        raise PlanParseError(f"unknown mode {args.mode!r}", "options", "mode")
    args.emit = args.emit or options.get("emit", "plan")
    if args.emit not in EMIT_TARGETS:
        raise PlanParseError(f"unknown emit target {args.emit!r}", "options",
                             "emit")
    args.cte |= _flag(options.get("cte", _ABSENT), "options", "cte")
    args.allow_cross_products |= _flag(
        options.get("allow_cross_products", _ABSENT), "options",
        "allow_cross_products")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "gen":
        return _run_gen(argv[1:])
    try:
        args = _build_parser().parse_args(argv)
        doc = _load_json(args.plan, "plan")
        term, schemas, correspondences, options = parse_plan_document(doc)
        _resolve(args, options)
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
                          allow_cross_products=args.allow_cross_products,
                          trace=args.trace)
    except SchemaError as e:
        _diag("schema", str(e))
        return EXIT_SCHEMA
    except InfeasibleQueryError as e:
        _diag("infeasible", str(e), blocking_op=e.blocking_op)
        return EXIT_INFEASIBLE
    except A3DError as e:  # every other planner error
        _diag("infeasible", str(e))
        return EXIT_INFEASIBLE
    except RecursionError:  # the planned term nests deeper than the input
        _diag("infeasible", "the term nests too deeply to plan within "
                            "Python's recursion limit")
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
    except RecursionError:
        _diag("infeasible", f"the plan nests too deeply to emit as "
                            f"{args.emit} within Python's recursion limit")
        return EXIT_INFEASIBLE
    return 0


if __name__ == "__main__":
    sys.exit(main())
