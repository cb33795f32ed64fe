"""Emit executable artifacts from optimized terms.

Two SQL dialects and a Graphviz rendering:

``clickhouse``  array operators map onto native surface forms — ``ARRAY
                JOIN``, ``arrayFilter``/``arrayMap`` higher-order calls, the
                ``-ForEach`` aggregate combinators.
``generic``     standard SQL; unnesting becomes ``CROSS JOIN UNNEST``, and
                operators without a portable equivalent raise
                :class:`DialectError` instead of guessing.

A dialect is a class.  :class:`SqlDialect` renders standard SQL (it is
``generic``); a subclass overrides its data — scalar and aggregate
templates, the array literal, the inequality operator, the boolean
literals — and the three methods that render array operators:
``unnest`` (the clause after ``FROM`` of an unnest), ``array_filter``
(alias → expression of an arrayFilter's outputs) and ``array_map`` (the
expression of a map derive).  The base versions of the last two raise
:class:`DialectError`.  :class:`ClickHouse` is such a subclass; ``DIALECTS``
names one instance of each.

Everything here is a pure function of (term, dialect): the same term always
emits byte-identical text.  Every operator renders as ``SELECT <output
columns> FROM <input>`` plus at most one clause; a column the operator
computes is selected as ``<expr> AS <col>``.  Operators render their
inputs first, so of several inexpressible operators the innermost is
reported.  Nested operators become subqueries with deterministic ``t0, t1,
…`` aliases; ``cte=True`` flips the nesting into a ``WITH`` chain.  Select
lists are alphabetical — schemas are set-valued, so the column order must
come from somewhere canonical.
"""

from textwrap import indent
from typing import Mapping, Optional

from .algebra import (
    A3DError, Aggregate, ArrayFilter, ArrayJoin, Derive, Filter, Join,
    Project, RelVar, Schema, Term, children, node_schema, walk,
)
from .functions import ScalarFn
from .predicates import And, Apply, Cmp, Col, Lit, Not, Or


class DialectError(A3DError):
    """The dialect has no rendering for a function or operator."""


############################################################
# dialects
############################################################

def _heads(lvars) -> str:
    """The parameter list of a lambda over `lvars`."""
    heads = ", ".join(lvars)
    return f"({heads})" if len(lvars) > 1 else heads


class SqlDialect:
    """Standard SQL.  Templates are ``str.format`` strings over positional
    argument renderings (plus named function parameters); a missing entry
    means the dialect cannot express it."""

    name = "generic"
    scalar_templates = {
        "const": "{value}",
        "identity": "{0}",
        "neg": "-({0})",
        "abs": "abs({0})",
        "add": "({0} + {1})",
        "sub": "({0} - {1})",
        "mul": "({0} * {1})",
        "div": "({0} / {1})",
        "concat": "concat({0}, {1})",
        "affine": "({a} * {0} + {b})",
        "strlen": "char_length({0})",
        "arrayLength": "cardinality({0})",
    }
    agg_templates = {
        "min": "min({0})",
        "max": "max({0})",
        "sum": "sum({0})",
        "count": "count({0})",
        "avg": "avg({0})",
    }
    array_literal = "ARRAY[{items}]"   # wraps a comma-joined item list
    neq = "<>"                         # inequality comparison operator
    true_lit = "TRUE"
    false_lit = "FALSE"

    # -- array operators ------------------------------------------------------

    def unnest(self, term: ArrayJoin, fresh) -> str:
        """The clause after ``FROM`` that unnests `term`'s targets; `fresh`
        hands out a new alias for a given prefix."""
        srcs = ", ".join(src for src, _ in term.targets)
        aliases = ", ".join(alias for _, alias in term.targets)
        return f"CROSS JOIN UNNEST({srcs}) AS {fresh('u')} ({aliases})"

    def array_filter(self, term: ArrayFilter) -> dict:
        """Alias → expression of each filtered array."""
        raise DialectError(f"{self.name} dialect cannot express "
                           "element-level array filters")

    def array_map(self, term: Derive) -> str:
        """The expression of a map derive's output array."""
        raise DialectError(f"{self.name} dialect cannot express "
                           "element-wise array mapping")

    # -- expressions ----------------------------------------------------------

    def lit(self, value) -> str:
        if value is None:
            return "NULL"
        if isinstance(value, bool):
            return self.true_lit if value else self.false_lit
        if isinstance(value, str):
            return "'" + value.replace("'", "''") + "'"
        if isinstance(value, tuple):
            items = ", ".join(self.lit(v) for v in value)
            return self.array_literal.format(items=items)
        return repr(value)

    def fn(self, fn: ScalarFn, args) -> str:
        template = self.scalar_templates.get(fn.name)
        if template is None:
            raise DialectError(
                f"{self.name} dialect has no rendering for function "
                f"{fn.name!r}")
        params = {k: self.lit(v) for k, v in fn.params}
        return template.format(*args, **params)

    def agg(self, fn: str, arg: str) -> str:
        template = self.agg_templates.get(fn)
        if template is None:
            raise DialectError(f"{self.name} dialect has no rendering "
                               f"for aggregate {fn!r}")
        return template.format(arg)

    def expr(self, expr, names: Optional[Mapping] = None) -> str:
        if isinstance(expr, Col):
            return names.get(expr.name, expr.name) if names else expr.name
        if isinstance(expr, Lit):
            return self.lit(expr.value)
        if isinstance(expr, Apply):
            return self.fn(expr.fn, [self.expr(a, names) for a in expr.args])
        raise DialectError(f"unrenderable expression {expr!r}")

    def pred(self, pred, names: Optional[Mapping] = None) -> str:
        if isinstance(pred, Cmp):
            lhs = self.expr(pred.lhs, names)
            rhs = self.expr(pred.rhs, names)
            op = self.neq if pred.op == "!=" else pred.op
            return f"{lhs} {op} {rhs}"
        if isinstance(pred, And):
            return "(" + " AND ".join(self.pred(p, names)
                                      for p in pred.parts) + ")"
        if isinstance(pred, Or):
            return "(" + " OR ".join(self.pred(p, names)
                                     for p in pred.parts) + ")"
        if isinstance(pred, Not):
            return "NOT (" + self.pred(pred.part, names) + ")"
        raise DialectError(f"unrenderable predicate {pred!r}")


class ClickHouse(SqlDialect):
    """ClickHouse: ``ARRAY JOIN``, higher-order array functions and the
    ``-ForEach`` aggregate combinators."""

    name = "clickhouse"
    scalar_templates = {
        **SqlDialect.scalar_templates,
        "strlen": "length({0})",
        "arrayEnumerate": "arrayEnumerate({0})",
        "arrayLength": "length({0})",
        "arraySum": "arraySum({0})",
        "arrayMin": "arrayMin({0})",
        "arrayMax": "arrayMax({0})",
    }
    agg_templates = {
        **SqlDialect.agg_templates,
        "distinct": "arraySort(groupUniqArray({0}))",
        "minForEach": "minForEach({0})",
        "maxForEach": "maxForEach({0})",
        "sumForEach": "sumForEach({0})",
        "countForEach": "countForEach({0})",
    }
    array_literal = "[{items}]"
    neq = "!="
    true_lit = "true"
    false_lit = "false"

    def unnest(self, term: ArrayJoin, fresh) -> str:
        parts = [src if src == alias else f"{src} AS {alias}"
                 for src, alias in term.targets]
        return "ARRAY JOIN " + ", ".join(parts)

    def array_filter(self, term: ArrayFilter) -> dict:
        # one lambda variable per target, numbered by target position
        lvars = {alias: f"x{k + 1}"
                 for k, (_, alias) in enumerate(term.targets)}
        cond = self.pred(term.pred, lvars)
        exprs = {}
        for src, alias in term.targets:
            # the filtered array comes first; the rest follow in order
            order = [(src, alias)] + [t for t in term.targets
                                      if t[1] != alias]
            heads = _heads([lvars[a] for _, a in order])
            arrays = ", ".join(s for s, _ in order)
            exprs[alias] = f"arrayFilter({heads} -> {cond}, {arrays})"
        return exprs

    def array_map(self, term: Derive) -> str:
        lvars = [f"x{k + 1}" for k in range(len(term.args))]
        body = self.fn(term.fn, lvars)
        return f"arrayMap({_heads(lvars)} -> {body}, {', '.join(term.args)})"


DIALECTS = {"clickhouse": ClickHouse(), "generic": SqlDialect()}


############################################################
# statement assembly
############################################################

class _Emitter:
    def __init__(self, dialect: SqlDialect, schemas: Mapping[str, Schema],
                 cte: bool):
        self.d = dialect
        self.schemas = dict(schemas)
        self.cte = cte
        self.count = 0
        self.ctes: list = []        # (alias, sql) in definition order

    def fresh(self, prefix: str = "t") -> str:
        name = f"{prefix}{self.count}"
        self.count += 1
        return name

    def from_ref(self, child: Term, pad: str) -> tuple:
        """(FROM-clause target, child schema) for a child term of an
        operator indented by `pad`; a subquery is indented a level deeper."""
        if isinstance(child, RelVar):
            return child.name, self._schema_of_rel(child.name)
        sql, schema = self.emit(child, "" if self.cte else pad + "  ")
        alias = self.fresh()
        if self.cte:
            self.ctes.append((alias, sql))
            return alias, schema
        return f"(\n{sql}\n{pad}) AS {alias}", schema

    def _schema_of_rel(self, name: str) -> Schema:
        try:
            return self.schemas[name]
        except KeyError:
            raise DialectError(f"unknown relation {name!r}") from None

    def emit(self, term: Term, pad: str = "") -> tuple:
        """(sql text, output schema) for one operator: its output columns
        in name order, each plain or ``<expr> AS <col>``, selected from its
        input, then the operator's clause if it has one.

        Every line is indented by `pad`.  A subquery comes back indented
        already, so each line is indented once, not once per enclosing
        operator.
        """
        exprs, clause = {}, ""
        if isinstance(term, RelVar):
            ref, schema = term.name, self._schema_of_rel(term.name)
        elif isinstance(term, Join):
            ref, lschema = self.from_ref(term.left, pad)
            rref, rschema = self.from_ref(term.right, pad)
            schema = node_schema(term, lschema, rschema)
            using = ", ".join(sorted(lschema.columns & rschema.columns))
            clause = f"{pad}INNER JOIN {rref} USING ({using})"
        elif isinstance(term, (Filter, Project, ArrayJoin, ArrayFilter,
                               Derive, Aggregate)):
            ref, child_schema = self.from_ref(term.child, pad)
            schema = node_schema(term, child_schema)
            exprs, clause = self._render(term)
            clause = indent(clause, pad)
        else:
            raise DialectError(f"unrenderable term {type(term).__name__}")
        items = [f"{exprs[c]} AS {c}" if c in exprs else c
                 for c in sorted(schema.columns)]
        sql = indent(f"SELECT {', '.join(items)}\nFROM ", pad) + ref
        return (f"{sql}\n{clause}" if clause else sql), schema

    def _render(self, term: Term) -> tuple:
        """(column → expression, clause) of a unary operator."""
        d = self.d
        if isinstance(term, Filter):
            return {}, "WHERE " + d.pred(term.pred)
        if isinstance(term, ArrayJoin):
            return {}, d.unnest(term, self.fresh)
        if isinstance(term, ArrayFilter):
            return d.array_filter(term), ""
        if isinstance(term, Derive):
            expr = (d.array_map(term) if term.is_map
                    else d.fn(term.fn, list(term.args)))
            return {term.output: expr}, ""
        if isinstance(term, Aggregate):
            keys = ", ".join(sorted(term.keys))
            exprs = {spec.alias: d.agg(spec.fn, spec.arg)
                     for spec in term.aggs}
            return exprs, f"GROUP BY {keys}" if keys else ""
        return {}, ""               # Project selects its columns only


def to_sql(term: Term, dialect="clickhouse",
           schemas: Optional[Mapping[str, Schema]] = None,
           cte: bool = False) -> str:
    """Render `term` as one SQL statement in the named dialect."""
    try:
        d = DIALECTS[dialect]
    except KeyError:
        raise DialectError(f"unknown dialect {dialect!r}; expected one of "
                           f"{sorted(DIALECTS)}") from None
    emitter = _Emitter(d, schemas or {}, cte)
    sql, _ = emitter.emit(term)
    if emitter.ctes:
        defs = ",\n".join(f"{name} AS (\n" + indent(body, "  ") + "\n)"
                          for name, body in emitter.ctes)
        sql = "WITH " + defs + "\n" + sql
    return sql + "\n"


############################################################
# dot rendering
############################################################

_SYMBOLS = {
    Filter: "\u03c3",       # sigma
    Project: "\u03a0",      # Pi
    ArrayJoin: "\u03bc",    # mu
    ArrayFilter: "\u03c6",  # phi
    Derive: "\u03b4",       # delta
    Aggregate: "\u0393",    # Gamma
    Join: "\u22c8",         # bowtie
}


def _dot_label(term: Term) -> str:
    from .predicates import format_pred

    sym = _SYMBOLS.get(type(term), "")
    if isinstance(term, RelVar):
        return term.name
    if isinstance(term, Filter):
        return f"{sym} {format_pred(term.pred)}"
    if isinstance(term, Project):
        return f"{sym} {', '.join(term.cols)}"
    if isinstance(term, ArrayJoin):
        targets = ", ".join(f"{s}\u2192{a}" for s, a in term.targets)
        return f"{sym} {targets}"
    if isinstance(term, ArrayFilter):
        targets = ", ".join(f"{s}\u2192{a}" for s, a in term.targets)
        return f"{sym} {targets} | {format_pred(term.pred)}"
    if isinstance(term, Derive):
        how = "map " if term.is_map else ""
        args = ", ".join(term.args)
        return f"{sym} {term.output} := {how}{term.fn.name}({args})"
    if isinstance(term, Aggregate):
        aggs = ", ".join(f"{s.alias}={s.fn}({s.arg})" for s in term.aggs)
        keys = ", ".join(term.keys)
        return f"{sym} [{keys}] {aggs}"
    return sym or type(term).__name__


def to_dot(term: Term, cost_model=None) -> str:
    """Graphviz rendering: one node per operator, edges child -> parent.

    With a cost model, each node is annotated with the modelled output rows
    and cumulative cost of its subtree, all read from one fold.
    """
    lines = ["digraph plan {", "  node [shape=box, fontname=\"monospace\"];"]
    counter = [0]
    known = {id(node): None for _, node in walk(term)}
    if cost_model is not None:
        cost_model.fold(term, known)

    def visit(t: Term) -> str:
        kid_ids = [visit(k) for k in children(t)]
        nid = f"n{counter[0]}"
        counter[0] += 1
        label = _dot_label(t)
        if cost_model is not None:
            cost, state, _ = known[id(t)]
            label += f"\\nrows\u2248{state.rows:.0f} " \
                     f"cost\u2248{cost:.0f}"
        escaped = label.replace("\"", "\\\"")
        lines.append(f"  {nid} [label=\"{escaped}\"];")
        for kid in kid_ids:
            lines.append(f"  {kid} -> {nid};")
        return nid

    visit(term)
    lines.append("}")
    return "\n".join(lines) + "\n"
