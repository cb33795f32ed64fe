"""Emit executable artifacts from optimized terms.

Two SQL dialects and a Graphviz rendering:

``clickhouse``  array operators map onto native surface forms — ``ARRAY
                JOIN``, ``arrayFilter``/``arrayMap`` higher-order calls, the
                ``-ForEach`` aggregate combinators.
``generic``     standard SQL; unnesting becomes ``CROSS JOIN UNNEST``, and
                operators without a portable equivalent raise
                :class:`DialectError` instead of guessing.

Everything here is a pure function of (term, dialect): the same term always
emits byte-identical text.  Nested operators become subqueries with
deterministic ``t0, t1, …`` aliases; ``cte=True`` flips the nesting into a
``WITH`` chain.  Select lists are alphabetical — schemas are set-valued, so
the column order must come from somewhere canonical.
"""

from dataclasses import dataclass, field
from textwrap import indent
from typing import Mapping, Optional

from .algebra import (
    A3DError, Aggregate, ArrayFilter, ArrayJoin, Derive, Filter, Join,
    Project, RelVar, Schema, Term, node_schema,
)
from .functions import ScalarFn
from .predicates import And, Apply, Cmp, Col, Lit, Not, Or


class DialectError(A3DError):
    """The dialect has no rendering for a function or operator."""


############################################################
# dialect data
############################################################

@dataclass(frozen=True)
class SqlDialect:
    """Rendering data for one SQL surface.  Templates are ``str.format``
    strings over positional argument renderings (plus named function
    parameters); a missing entry means the dialect cannot express it."""

    name: str
    scalar_templates: Mapping[str, str]
    agg_templates: Mapping[str, str]
    supports_array_filter: bool
    supports_array_map: bool
    unnest_via_array_join: bool      # ClickHouse ARRAY JOIN vs CROSS JOIN UNNEST
    array_literal: str               # wraps a comma-joined item list
    neq: str                         # inequality comparison operator
    true_lit: str
    false_lit: str


_COMMON_SCALARS = {
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
}

CLICKHOUSE = SqlDialect(
    name="clickhouse",
    scalar_templates={
        **_COMMON_SCALARS,
        "strlen": "length({0})",
        "arrayEnumerate": "arrayEnumerate({0})",
        "arrayLength": "length({0})",
        "arraySum": "arraySum({0})",
        "arrayMin": "arrayMin({0})",
        "arrayMax": "arrayMax({0})",
    },
    agg_templates={
        "min": "min({0})",
        "max": "max({0})",
        "sum": "sum({0})",
        "count": "count({0})",
        "avg": "avg({0})",
        "distinct": "arraySort(groupUniqArray({0}))",
        "minForEach": "minForEach({0})",
        "maxForEach": "maxForEach({0})",
        "sumForEach": "sumForEach({0})",
        "countForEach": "countForEach({0})",
    },
    supports_array_filter=True,
    supports_array_map=True,
    unnest_via_array_join=True,
    array_literal="[{items}]",
    neq="!=",
    true_lit="true",
    false_lit="false",
)

GENERIC = SqlDialect(
    name="generic",
    scalar_templates={
        **_COMMON_SCALARS,
        "strlen": "char_length({0})",
        "arrayLength": "cardinality({0})",
    },
    agg_templates={
        "min": "min({0})",
        "max": "max({0})",
        "sum": "sum({0})",
        "count": "count({0})",
        "avg": "avg({0})",
    },
    supports_array_filter=False,
    supports_array_map=False,
    unnest_via_array_join=False,
    array_literal="ARRAY[{items}]",
    neq="<>",
    true_lit="TRUE",
    false_lit="FALSE",
)

DIALECTS = {"clickhouse": CLICKHOUSE, "generic": GENERIC}


def get_dialect(name) -> SqlDialect:
    if isinstance(name, SqlDialect):
        return name
    try:
        return DIALECTS[name]
    except KeyError:
        raise DialectError(f"unknown dialect {name!r}; expected one of "
                           f"{sorted(DIALECTS)}") from None


############################################################
# expression rendering
############################################################

def _render_lit(value, d: SqlDialect) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return d.true_lit if value else d.false_lit
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, tuple):
        items = ", ".join(_render_lit(v, d) for v in value)
        return d.array_literal.format(items=items)
    return repr(value)


def _render_fn(fn: ScalarFn, args, d: SqlDialect) -> str:
    template = d.scalar_templates.get(fn.name)
    if template is None:
        raise DialectError(
            f"{d.name} dialect has no rendering for function {fn.name!r}")
    params = {k: _render_lit(v, d) for k, v in fn.params}
    return template.format(*args, **params)


def _render_expr(expr, d: SqlDialect, names: Optional[Mapping] = None) -> str:
    if isinstance(expr, Col):
        return names.get(expr.name, expr.name) if names else expr.name
    if isinstance(expr, Lit):
        return _render_lit(expr.value, d)
    if isinstance(expr, Apply):
        args = [_render_expr(a, d, names) for a in expr.args]
        return _render_fn(expr.fn, args, d)
    raise DialectError(f"unrenderable expression {expr!r}")


def _render_pred(pred, d: SqlDialect, names: Optional[Mapping] = None) -> str:
    if isinstance(pred, Cmp):
        lhs = _render_expr(pred.lhs, d, names)
        rhs = _render_expr(pred.rhs, d, names)
        op = d.neq if pred.op == "!=" else pred.op
        return f"{lhs} {op} {rhs}"
    if isinstance(pred, And):
        return "(" + " AND ".join(_render_pred(p, d, names)
                                  for p in pred.parts) + ")"
    if isinstance(pred, Or):
        return "(" + " OR ".join(_render_pred(p, d, names)
                                 for p in pred.parts) + ")"
    if isinstance(pred, Not):
        return "NOT (" + _render_pred(pred.part, d, names) + ")"
    raise DialectError(f"unrenderable predicate {pred!r}")


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

    def from_ref(self, child: Term) -> tuple:
        """(FROM-clause target, child schema) for a child term."""
        if isinstance(child, RelVar):
            return child.name, self._schema_of_rel(child.name)
        sql, schema = self.emit(child)
        alias = self.fresh()
        if self.cte:
            self.ctes.append((alias, sql))
            return alias, schema
        return "(\n" + indent(sql, "  ") + "\n) AS " + alias, schema

    def _schema_of_rel(self, name: str) -> Schema:
        try:
            return self.schemas[name]
        except KeyError:
            raise DialectError(f"unknown relation {name!r}") from None

    # -- per-operator renderings -------------------------------------------

    def emit(self, term: Term) -> tuple:
        """(sql text, output schema) for one operator."""
        d = self.d
        if isinstance(term, RelVar):
            schema = self._schema_of_rel(term.name)
            cols = ", ".join(sorted(schema.columns))
            return f"SELECT {cols}\nFROM {term.name}", schema

        if isinstance(term, Project):
            ref, child_schema = self.from_ref(term.child)
            schema = node_schema(term, child_schema)
            cols = ", ".join(sorted(term.cols))
            return f"SELECT {cols}\nFROM {ref}", schema

        if isinstance(term, Filter):
            ref, child_schema = self.from_ref(term.child)
            schema = node_schema(term, child_schema)
            cols = ", ".join(sorted(schema.columns))
            cond = _render_pred(term.pred, d)
            return f"SELECT {cols}\nFROM {ref}\nWHERE {cond}", schema

        if isinstance(term, Join):
            lref, lschema = self.from_ref(term.left)
            rref, rschema = self.from_ref(term.right)
            shared = sorted(lschema.columns & rschema.columns)
            schema = node_schema(term, lschema, rschema)
            cols = ", ".join(sorted(schema.columns))
            using = ", ".join(shared)
            return (f"SELECT {cols}\nFROM {lref}\n"
                    f"INNER JOIN {rref} USING ({using})", schema)

        if isinstance(term, ArrayJoin):
            return self._emit_array_join(term)

        if isinstance(term, ArrayFilter):
            return self._emit_array_filter(term)

        if isinstance(term, Derive):
            return self._emit_derive(term)

        if isinstance(term, Aggregate):
            ref, child_schema = self.from_ref(term.child)
            schema = node_schema(term, child_schema)
            rendered = {}
            for spec in term.aggs:
                template = d.agg_templates.get(spec.fn)
                if template is None:
                    raise DialectError(f"{d.name} dialect has no rendering "
                                       f"for aggregate {spec.fn!r}")
                rendered[spec.alias] = \
                    template.format(spec.arg) + f" AS {spec.alias}"
            items = [rendered.get(c, c) for c in sorted(schema.columns)]
            keys = ", ".join(sorted(term.keys))
            sql = f"SELECT {', '.join(items)}\nFROM {ref}"
            if keys:
                sql += f"\nGROUP BY {keys}"
            return sql, schema

        raise DialectError(f"unrenderable term {type(term).__name__}")

    def _emit_array_join(self, term: ArrayJoin) -> tuple:
        ref, child_schema = self.from_ref(term.child)
        schema = node_schema(term, child_schema)
        cols = ", ".join(sorted(schema.columns))
        if self.d.unnest_via_array_join:
            parts = [src if src == alias else f"{src} AS {alias}"
                     for src, alias in term.targets]
            clause = "ARRAY JOIN " + ", ".join(parts)
        else:
            srcs = ", ".join(src for src, _ in term.targets)
            aliases = ", ".join(alias for _, alias in term.targets)
            clause = (f"CROSS JOIN UNNEST({srcs}) "
                      f"AS {self.fresh('u')} ({aliases})")
        return f"SELECT {cols}\nFROM {ref}\n{clause}", schema

    def _emit_array_filter(self, term: ArrayFilter) -> tuple:
        if not self.d.supports_array_filter:
            raise DialectError(f"{self.d.name} dialect cannot express "
                               "element-level array filters")
        ref, child_schema = self.from_ref(term.child)
        schema = node_schema(term, child_schema)
        # one lambda variable per target, numbered by target position
        lvars = {alias: f"x{k + 1}"
                 for k, (_, alias) in enumerate(term.targets)}
        rendered = {}
        for src, alias in term.targets:
            # the filtered array comes first; the rest follow in order
            order = [(src, alias)] + [t for t in term.targets
                                      if t[1] != alias]
            heads = ", ".join(lvars[a] for _, a in order)
            if len(order) > 1:
                heads = f"({heads})"
            arrays = ", ".join(s for s, _ in order)
            cond = _render_pred(term.pred, self.d, lvars)
            rendered[alias] = (f"arrayFilter({heads} -> {cond}, {arrays})"
                               f" AS {alias}")
        items = [rendered.get(c, c) for c in sorted(schema.columns)]
        return f"SELECT {', '.join(items)}\nFROM {ref}", schema

    def _emit_derive(self, term: Derive) -> tuple:
        ref, child_schema = self.from_ref(term.child)
        schema = node_schema(term, child_schema)
        d = self.d
        if term.is_map:
            if not d.supports_array_map:
                raise DialectError(f"{d.name} dialect cannot express "
                                   "element-wise array mapping")
            lvars = [f"x{k + 1}" for k in range(len(term.args))]
            heads = ", ".join(lvars)
            if len(lvars) > 1:
                heads = f"({heads})"
            body = _render_fn(term.fn, lvars, d)
            arrays = ", ".join(term.args)
            expr = f"arrayMap({heads} -> {body}, {arrays})"
        else:
            expr = _render_fn(term.fn, list(term.args), d)
        rendered = {term.output: f"{expr} AS {term.output}"}
        items = [rendered.get(c, c) for c in sorted(schema.columns)]
        return f"SELECT {', '.join(items)}\nFROM {ref}", schema


def to_sql(term: Term, dialect="clickhouse",
           schemas: Optional[Mapping[str, Schema]] = None,
           cte: bool = False) -> str:
    """Render `term` as one SQL statement in the chosen dialect."""
    d = get_dialect(dialect)
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
    and cumulative cost of its subtree.
    """
    lines = ["digraph plan {", "  node [shape=box, fontname=\"monospace\"];"]
    counter = [0]

    def visit(t: Term) -> str:
        from .algebra import children

        kid_ids = [visit(k) for k in children(t)]
        nid = f"n{counter[0]}"
        counter[0] += 1
        label = _dot_label(t)
        if cost_model is not None:
            res = cost_model.term_cost(t)
            label += f"\\nrows\u2248{res.state.rows:.0f} " \
                     f"cost\u2248{res.cost:.0f}"
        escaped = label.replace("\"", "\\\"")
        lines.append(f"  {nid} [label=\"{escaped}\"];")
        for kid in kid_ids:
            lines.append(f"  {kid} -> {nid};")
        return nid

    visit(term)
    lines.append("}")
    return "\n".join(lines) + "\n"
