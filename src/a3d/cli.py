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
relation from a generation spec.

This module reads all three input documents, the plan document, the
statistics document and the generation spec, and each of their objects
through one codec table: an object is an entry that names its keys, each
key's codec, and the class or function that builds its value (``_object``,
``_list_of`` and ``_map_of``).  What one object cannot check, the three
readers check after it: the plan version, that a correspondence lies over
one relation's arrays, that a statistics key names a catalog column of its
entry's kind, one row count per relation, at least one generated column,
and what `testkit.generate` requires of a spec.  Every object that the
formats below name holds no key they do not list: an unknown key, a
misspelt one too, is a parse error that names the object's path.

Plan document::

    {"a3d_plan": 1,
     "catalog": {"relations": {name: {"scalars": [col], "arrays": [col]}},
                 "correspondences": [[array col, array col, ...]]},
     "term": term,
     "options": {"mode": ..., "emit": ..., "cte": flag,
                 "allow_cross_products": flag}}

``scalars``, ``arrays``, ``correspondences`` and ``options`` and each of
its keys may be left out; a command-line flag overrides its option.  A
``mode`` is one of the planner's modes and an ``emit`` one of the emit
targets.  A correspondence names two or more array columns of one
relation.

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
- ``uniform``: ``ndv`` (required); ``lo`` and ``hi``, numbers or null,
  ``lo`` not above ``hi``; ``null_fraction``;
- ``clustered``: ``clusters``, a non-empty list of ``[lo, hi, weight,
  ndv]`` numbers with an integer ``ndv``, each with ``lo`` not above
  ``hi`` and above the ``hi`` of the cluster before it, so that they
  ascend and none overlaps the next; ``ndv`` (default: their sum);
  ``null_fraction``;
- ``array``, for an array column: ``avg_array_len``, ``empty_fraction``,
  and ``row_stats``, a scalar entry without ``row_count`` for the
  elements.

``ndv`` is an integer and every other statistic a number.  Like
``row_count``, every ``ndv`` (an entry's or a cluster's) and
``avg_array_len`` must not be negative, and ``null_fraction``,
``empty_fraction``, a ``freq`` fraction and a cluster weight lie between 0
and 1, and an entry's ``freq`` fractions or cluster weights sum, with its
``null_fraction``, to at most 1 (up to a rounding of 1e-9): outside these
bounds the cost model would estimate rows and costs that no table can
have.  A scalar entry may hold only ``row_count`` and the keys that the
scalar kinds list, a ``row_stats`` entry only the latter, and an array
entry only its own.

Generation spec (``a3d gen``)::

    {"row_count": n, "seed": n,
     "columns": {name: {"kind": "scalar", "dist": dist,
                        "null_probability": p}
                     | {"kind": "array", "elem": dist, "length": dist,
                        "empty_probability": p}}}

where ``dist`` is ``{"name": "uniform" | "zipf" | "normal", "ndv": n,
"s": x, "mu": x, "sigma": x}``.  ``row_count``, ``columns``, a column's
``kind`` and distributions, and a distribution's ``name`` are required;
``columns`` names at least one column.  ``seed`` defaults to 0, ``ndv`` to
0, ``s`` and ``sigma`` to 1, ``mu`` and the probabilities to 0.  ``n`` is
an integer and ``x`` and ``p`` numbers, which `testkit.generate` bounds
further: ``row_count`` is not negative, a probability lies between 0 and
1, uniform and zipf take an ``ndv`` of 1 or more, zipf an ``s`` above 0,
and normal a ``sigma`` not below 0.

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
stack of 500 filters.  Greedy and enumerate mode plan it and write it with
``--emit plan``, as a document deeper than this bound; the SQL and dot
emitters recurse too deeply for it, and 1,000 conjuncts do not plan.  A
RecursionError while planning or emitting is one ``infeasible`` record,
with exit 3.

An error names the path of keys from the document's root down to the bad
value, for example ``term['input']['pred']['rhs']['value']``.
"""

import argparse
import dataclasses
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
from .testkit import (
    ArrayColumn, Dist, GenSpec, ScalarColumn, generate, validate_spec,
)
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


############################################################
# value readers: one per kind of value, each a document's only check of it
############################################################

_ABSENT = object()  # the value of a key that a document leaves out


def _check_keys(doc: dict, allowed) -> None:
    """A PlanParseError unless `allowed` holds every key of the object
    `doc`; one subset test where it does."""
    if not allowed.issuperset(doc):
        raise PlanParseError(f"unknown keys {sorted(doc.keys() - allowed)}")


def _number(value, kind=float):
    """`value` as a `kind` (float or int): a PlanParseError unless it is a
    finite JSON number, and integral where `kind` is int."""
    if type(value) is float:
        if math.isfinite(value) and (kind is float or value.is_integer()):
            return value if kind is float else kind(value)
    elif type(value) is int:
        try:
            return kind(value)
        except OverflowError:  # too large for a float
            pass
    raise PlanParseError(f"must be a finite "
                         f"{'integer' if kind is int else 'number'}")


def _count(value, kind=int):
    """A number of rows, values or elements: a `kind` that is not
    negative."""
    count = _number(value, kind)
    if count < 0:
        raise PlanParseError("must not be negative")
    return count


def _fraction(value) -> float:
    """A number from 0 to 1: a share of rows, arrays or values."""
    frac = _number(value)
    if not 0.0 <= frac <= 1.0:
        raise PlanParseError("must be between 0 and 1")
    return frac


def _flag(value) -> bool:
    """A JSON boolean."""
    if value is True or value is False:
        return value
    raise PlanParseError("must be true or false")


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


def _strings(value) -> tuple:
    if type(value) is list and all(type(s) is str for s in value):
        return tuple(value)
    raise PlanParseError("must be a list of strings")


def _targets(value) -> tuple:
    if type(value) is list and value and all(
            type(t) is list and len(t) == 2 and type(t[0]) is str
            and type(t[1]) is str for t in value):
        return tuple((s, a) for s, a in value)
    raise PlanParseError("must be a non-empty list of [source, alias] "
                         "pairs")


def _one_of(choices):
    """The reader of a value that `choices` lists."""

    def read(value):
        if value in choices:
            return value
        raise PlanParseError(f"must be one of {list(choices)}")

    return read


def _aggregate_fn(value):
    if type(value) is str and known_agg_fn(value):
        return value
    raise PlanParseError("must name a known aggregate")


def _freqs(value) -> tuple:
    """``[value, fraction]`` pairs, each value a scalar literal."""
    if type(value) is list and all(
            type(pair) is list and len(pair) == 2 and _is_scalar(pair[0])
            for pair in value):
        return tuple((v, _fraction(f)) for v, f in value)
    raise PlanParseError("must be a list of [scalar, fraction] pairs")


def _clusters(value) -> tuple:
    """``[lo, hi, weight, ndv]`` clusters, at least one, each with lo <= hi
    and above the cluster before it: ascending, and no two overlap."""
    if type(value) is not list or not value or not all(
            type(c) is list and len(c) == 4 for c in value):
        raise PlanParseError("must be a non-empty list of [lo, hi, weight, "
                             "ndv] quadruples")
    out, floor = [], -math.inf
    try:
        for lo, hi, weight, ndv in value:
            cluster = (_number(lo), _number(hi), _fraction(weight),
                       _count(ndv))
            if cluster[0] > cluster[1]:
                raise PlanParseError("lo must not be above hi")
            if cluster[0] <= floor:
                raise PlanParseError("must lie above the cluster before it")
            floor = cluster[1]
            out.append(cluster)
    except PlanParseError as e:
        e.at.insert(0, len(out))
        raise
    return tuple(out)


############################################################
# codecs: a (writer, reader, absent) triple per field type, and the tables
############################################################

# A codec's `absent` is the JSON value read for a key that a document
# leaves out.  Where it is _ABSENT the key is required: the reader refuses
# _ABSENT and the object reports the key missing.  `_optional` instead
# hands _ABSENT on to the object's builder.

def _default(codec, absent):
    """`codec`, with a key left out read as the JSON value `absent`."""
    return codec[0], codec[1], absent


def _optional(codec):
    """`codec`, with a key left out passed to the builder as _ABSENT."""
    write, read, _ = codec
    return write, (lambda value: value if value is _ABSENT
                   else read(value)), _ABSENT


def _nullable(codec):
    """`codec`, or null, read as None."""
    write, read, absent = codec
    return write, (lambda value: None if value is None
                   else read(value)), absent


def _write_object(obj) -> dict:
    """The JSON object of `obj`: its tag, if its class has one, and each
    field its codec writes (a flag that is off is left out)."""
    try:
        tag_key, tag, fields = _WRITERS[type(obj)]
    except KeyError:
        raise PlanParseError(f"unserializable {type(obj).__name__}") \
            from None
    doc = {tag_key: tag} if tag_key else {}
    for key, attr, write in fields:
        value = write(getattr(obj, attr))
        if value is not _ABSENT:
            doc[key] = value
    return doc


# (tag key, table) of every object codec; the codecs are made at import
_TABLES: list = []


def _object(tag_key, table: dict):
    """The codec of a JSON object that stands for one of `table`'s values.

    `table` maps each tag to (build, fields): `build`, a class or a
    function that no other entry shares, makes the value from its fields'
    values, and ``fields`` lists (JSON key, codec) pairs in the order
    `build` takes them.  The object's `tag_key` names its tag.  An object
    with no tag has the tag key None and is `table`'s only entry, under
    None.  The object holds no key but its tag key and its fields'
    (``_KEYS``).
    """
    _TABLES.append((tag_key, table))

    def read(doc):
        try:
            build, fields = table[doc.get(tag_key)]
        except (AttributeError, TypeError, KeyError):  # no object, bad tag
            raise PlanParseError("must be an object" + (
                f" whose {tag_key!r} is one of {sorted(table)}"
                if tag_key else "")) from None
        _check_keys(doc, _KEYS[build])
        values = []
        try:
            for key, (_, read_field, absent) in fields:
                value = doc.get(key, absent)
                values.append(read_field(value))
        except PlanParseError as e:
            if value is _ABSENT:
                raise PlanParseError("is missing", key) from None
            e.at.insert(0, key)
            raise
        return build(*values)

    return _write_object, read, _ABSENT


def _list_of(codec, least: int = 0):
    """The codec of a list of `least` or more values of `codec`."""
    write, read, _ = codec

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

    return (lambda items: [write(item) for item in items]), read_list, \
        _ABSENT


def _map_of(codec):
    """The codec of a JSON object that maps names to values of `codec`,
    read into a dict."""
    read = codec[1]

    def read_map(value) -> dict:
        if type(value) is not dict:
            raise PlanParseError("must be an object")
        out = {}
        try:
            for key, item in value.items():
                out[key] = read(item)
        except PlanParseError as e:
            e.at.insert(0, key)
            raise
        return out

    return None, read_map, _ABSENT


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

_STRING = (str, _string, _ABSENT)
_STRINGS = (list, _strings, _ABSENT)
_TARGETS = (lambda targets: [list(t) for t in targets], _targets, _ABSENT)
_LITERAL = (lambda v: list(v) if type(v) is tuple else v, _literal,
            _ABSENT)
_FLAG = (lambda on: True if on else _ABSENT, _flag, False)
_FUNCTION = (_write_fn, _read_fn, _ABSENT)
_NUMBER = (None, _number, _ABSENT)
_INTEGER = (None, lambda v: _number(v, int), _ABSENT)
_COUNT = (None, _count, _ABSENT)
_FRACTION = (None, _fraction, _ABSENT)

# tag -> (class, its fields as (JSON key, codec)), a class's fields in the
# order its constructor takes them.  The unions nest, so their codecs
# exist before their tables are filled in.
_TERMS: dict = {}
_PREDS: dict = {}
_EXPRS: dict = {}
_TERM = _object("op", _TERMS)
_PREDICATE = _object("pred", _PREDS)
_EXPRESSION = _object("expr", _EXPRS)
_AGG_SPECS = {None: (AggSpec, (("fn", (str, _aggregate_fn, _ABSENT)),
                               ("arg", _STRING), ("alias", _STRING)))}
_TERMS.update({
    "relVar": (RelVar, (("name", _STRING),)),
    "filter": (Filter, (("pred", _PREDICATE), ("input", _TERM))),
    "project": (Project, (("cols", _STRINGS), ("input", _TERM))),
    "join": (Join, (("left", _TERM), ("right", _TERM))),
    "arrayJoin": (ArrayJoin, (("targets", _TARGETS), ("input", _TERM))),
    "arrayFilter": (ArrayFilter, (("targets", _TARGETS),
                                  ("pred", _PREDICATE), ("input", _TERM))),
    "derive": (Derive, (("output", _STRING), ("fn", _FUNCTION),
                        ("args", _STRINGS), ("input", _TERM),
                        ("map", _FLAG))),
    "aggregate": (Aggregate, (("keys", _STRINGS),
                              ("aggs", _list_of(_object(None, _AGG_SPECS))),
                              ("input", _TERM))),
})
_PREDS.update({
    "cmp": (Cmp, (("op", (str, _one_of(COMPARISONS), _ABSENT)),
                  ("lhs", _EXPRESSION), ("rhs", _EXPRESSION))),
    "and": (And, (("parts", _list_of(_PREDICATE, 2)),)),
    "or": (Or, (("parts", _list_of(_PREDICATE, 2)),)),
    "not": (Not, (("part", _PREDICATE),)),
})
_EXPRS.update({
    "col": (Col, (("name", _STRING),)),
    "lit": (Lit, (("value", _LITERAL),)),
    "apply": (Apply, (("fn", _FUNCTION), ("args", _list_of(_EXPRESSION)))),
})
# each class's writer takes its fields' values from the attributes of its
# dataclass, in order
_WRITERS = {cls: (tag_key, tag, tuple(
                (key, attr.name, write)
                for (key, (write, _, _)), attr
                in zip(fields, dataclasses.fields(cls))))
            for tag_key, table in (("op", _TERMS), ("pred", _PREDS),
                                   ("expr", _EXPRS), (None, _AGG_SPECS))
            for tag, (cls, fields) in table.items()}


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
# the documents' objects: plan envelope, statistics, generation spec
############################################################

_OPTION_FIELDS = (("mode", _optional((None, _one_of(MODES), _ABSENT))),
                  ("emit", _optional((None, _one_of(EMIT_TARGETS), _ABSENT))),
                  ("cte", _optional(_FLAG)),
                  ("allow_cross_products", _optional(_FLAG)))


def _options(*values) -> dict:
    """The options a plan document sets, by key."""
    return {key: value for (key, _), value in zip(_OPTION_FIELDS, values)
            if value is not _ABSENT}


_RELATION = _object(None, {None: (Schema.of, (
    ("scalars", _default(_STRINGS, [])),
    ("arrays", _default(_STRINGS, []))))})
_CATALOG = _object(None, {None: (
    lambda relations, correspondences: (relations, correspondences),
    (("relations", _map_of(_RELATION)),
     ("correspondences", _default(_list_of(_list_of(_STRING, 2)), []))))})
# -> (term, schemas, correspondences, options); the version is checked
# before the envelope is read
_ENVELOPE = _object(None, {None: (
    lambda version, catalog, options, term: (term, *catalog, options),
    (("a3d_plan", (None, lambda version: version, _ABSENT)),
     ("catalog", _CATALOG),
     ("options", _default(_object(None, {None: (_options, _OPTION_FIELDS)}),
                          {})),
     ("term", (term_to_json, term_from_json, _ABSENT))))})


def _check_shares(null_fraction: float, shares, key: str) -> None:
    """The shares of rows under `key` and the nulls' sum to at most 1, up
    to the rounding of a document's fractions."""
    total = null_fraction + sum(shares)
    if total > 1.0 + 1e-9:
        raise PlanParseError(f"sum to {total!r} with null_fraction, more "
                             f"than 1", key)


def _exact_stats(ndv, null_fraction, freqs) -> ScalarStats:
    _check_shares(null_fraction, (f for _, f in freqs), "freq")
    values = [v for v, _ in freqs]
    numeric = all(type(v) in (int, float) for v in values)
    lo, hi = (min(values), max(values)) if numeric and values \
        else (None, None)
    return ScalarStats("exact", len(freqs) if ndv is _ABSENT else ndv,
                       null_fraction, freqs=freqs, lo=lo, hi=hi,
                       numeric=numeric)


def _uniform_stats(ndv, null_fraction, lo, hi) -> ScalarStats:
    if lo is not None and hi is not None and lo > hi:
        raise PlanParseError(f"must not be above hi ({hi!r})", "lo")
    return ScalarStats("uniform", ndv, null_fraction, lo=lo, hi=hi,
                       numeric=lo is not None)


def _clustered_stats(ndv, null_fraction, clusters) -> ScalarStats:
    _check_shares(null_fraction, (c[2] for c in clusters), "clusters")
    return ScalarStats("clustered",
                       sum(c[3] for c in clusters) if ndv is _ABSENT else ndv,
                       null_fraction, lo=clusters[0][0], hi=clusters[-1][1],
                       clusters=clusters, numeric=True)


_NULL_FRACTION = ("null_fraction", _default(_FRACTION, 0.0))
# the statistics of a scalar column's or an array column's elements, by
# kind: an ``ndv`` left out is derived from the values or the clusters
_ELEMENT_STATS = {
    "exact": (_exact_stats, (("ndv", _optional(_COUNT)), _NULL_FRACTION,
                             ("freq", (None, _freqs, [])))),
    "uniform": (_uniform_stats, (("ndv", _COUNT), _NULL_FRACTION,
                                 ("lo", _default(_nullable(_NUMBER), None)),
                                 ("hi", _default(_nullable(_NUMBER), None)))),
    "clustered": (_clustered_stats, (("ndv", _optional(_COUNT)),
                                     _NULL_FRACTION,
                                     ("clusters", (None, _clusters,
                                                   _ABSENT)))),
}


def _with_rows(build):
    return lambda row_count, *values: (row_count, build(*values))


# a column's entry in a statistics document, by kind: its relation's row
# count and its statistics
_COLUMN_STATS = {kind: (_with_rows(build), (("row_count", _COUNT), *fields))
                 for kind, (build, fields) in _ELEMENT_STATS.items()}
_COLUMN_STATS["array"] = (_with_rows(ArrayStats), (
    ("row_count", _COUNT),
    ("avg_array_len", _default((None, lambda v: _count(v, float), _ABSENT),
                               0.0)),
    ("empty_fraction", _default(_FRACTION, 0.0)),
    ("row_stats", _default(_nullable(_object("kind", _ELEMENT_STATS)),
                           None))))
_STATS = _map_of(_object("kind", _COLUMN_STATS))

_DIST = _object(None, {None: (Dist, (
    ("name", _STRING), ("ndv", _default(_INTEGER, 0)),
    ("s", _default(_NUMBER, 1.0)), ("mu", _default(_NUMBER, 0.0)),
    ("sigma", _default(_NUMBER, 1.0))))})
_GEN_COLUMNS = {
    "scalar": (ScalarColumn, (("dist", _DIST), ("null_probability",
                                                _default(_NUMBER, 0.0)))),
    "array": (ArrayColumn, (("elem", _DIST), ("length", _DIST),
                            ("empty_probability", _default(_NUMBER, 0.0)))),
}
# a spec that leaves ``columns`` out reads as one whose columns are null,
# which is not an object
_GEN_SPEC = _object(None, {None: (GenSpec, (
    ("row_count", _INTEGER),
    ("columns", _default(_map_of(_object("kind", _GEN_COLUMNS)), None)),
    ("seed", _default(_INTEGER, 0))))})

# the keys an object may hold: its tag key and its fields'
_KEYS = {build: frozenset([key for key, _ in fields]
                          + ([tag_key] if tag_key else []))
         for tag_key, table in _TABLES for build, fields in table.values()}
# a scalar entry may hold the keys of every scalar kind, and reads its own
_SCALAR_KEYS = frozenset().union(*(_KEYS[build] for build, _
                                   in _ELEMENT_STATS.values()))
_KEYS.update({build: _SCALAR_KEYS for build, _ in _ELEMENT_STATS.values()})
_KEYS.update({build: _SCALAR_KEYS | {"row_count"}
              for kind, (build, _) in _COLUMN_STATS.items()
              if kind != "array"})


############################################################
# the three documents
############################################################

def parse_plan_document(doc):
    """Parse an envelope into (term, schemas, correspondences, options).

    ``options`` holds the options the document sets.  A document that is
    not well-formed, one with an unknown key among them, raises
    PlanParseError; catalog-level inconsistencies (overlapping
    scalar/array names, correspondences not over array columns of one
    relation) raise SchemaError.
    """
    if type(doc) is not dict or doc.get("a3d_plan") != PLAN_VERSION:
        raise PlanParseError(f"missing or unsupported plan version "
                             f"(need \"a3d_plan\": {PLAN_VERSION})")
    term, schemas, correspondences, options = _ENVELOPE[1](doc)
    for group in correspondences:
        if not any(set(group) <= sch.arrays for sch in schemas.values()):
            raise SchemaError(
                f"correspondence {list(group)} does not name array columns "
                f"of a single relation")
    return term, schemas, correspondences, options


def plan_document(term: Term, catalog: dict) -> dict:
    return {"a3d_plan": PLAN_VERSION, "catalog": catalog,
            "term": term_to_json(term)}


def parse_stats_document(doc, schemas) -> dict:
    """Parse {"rel.col": entry} statistics into per-relation tables."""
    try:
        entries = _STATS[1](doc)
    except PlanParseError as e:
        e.at.insert(0, "stats")
        raise
    rows: dict = {}
    scalars: dict = {}
    arrays: dict = {}
    for key, (row_count, stats) in entries.items():
        rel, dot, col = key.partition(".")
        if not dot:
            raise PlanParseError("keys are 'relation.column'", "stats", key)
        if rel not in schemas:
            raise PlanParseError(f"unknown relation {rel!r}", "stats", key)
        if rows.setdefault(rel, row_count) != row_count:
            raise PlanParseError(f"disagrees with {rows[rel]} for {rel!r}",
                                 "stats", key, "row_count")
        array = type(stats) is ArrayStats
        if col not in (schemas[rel].arrays if array
                       else schemas[rel].scalars):
            raise PlanParseError(f"{col!r} is not "
                                 f"{'an array' if array else 'a scalar'}"
                                 f" column of {rel!r}", "stats", key)
        (arrays if array else scalars).setdefault(rel, {})[col] = stats
    return {rel: TableStats(rows[rel], scalars.get(rel, {}),
                            arrays.get(rel, {}))
            for rel in rows}


def genspec_from_json(doc) -> GenSpec:
    """Parse a generation spec into a `testkit.GenSpec` of at least one
    column that `testkit.generate` accepts."""
    spec = _GEN_SPEC[1](doc)
    if not spec.columns:
        raise PlanParseError("must name at least one column", "columns")
    validate_spec(spec)
    return spec


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
    """Fill unset flags from the plan document's options block."""
    args.mode = args.mode or options.get("mode", "enumerate")
    args.emit = args.emit or options.get("emit", "plan")
    args.cte |= options.get("cte", False)
    args.allow_cross_products |= options.get("allow_cross_products", False)


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
