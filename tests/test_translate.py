"""SQL and dot rendering tests.

The golden corpus pins the full optimizer-to-SQL pipeline byte for byte;
the rest of the file pins individual surface forms with hand-written
expected strings and audits that emitted identifiers never leak internal
names.
"""

import random
import re

import pytest

from a3d.algebra import (
    UNARY_TYPES, AggSpec, Aggregate, ArrayFilter, ArrayJoin, Derive, Filter,
    Join, Project, RelVar, Schema, children, walk,
)
from a3d.functions import ScalarFn
from a3d.planner import optimize
from a3d.predicates import And, Cmp, Col, Lit, pred_columns
from a3d.stats import CostModel, ScalarStats, TableStats
from a3d.translate import DialectError, to_dot, to_sql

from gen_utils import random_db, random_term
from golden_queries import (
    CASES, GENERIC_DIR, GENERIC_ERRORS, GOLDEN_DIR, generic_sql,
    optimized_sql,
)


def _sch(scalars, arrays=()):
    return Schema(frozenset(scalars), frozenset(arrays))


SCHEMAS = {
    "R": _sch({"a", "b"}, {"vals", "tags"}),
    "S": _sch({"a", "c"}),
}


############################################################
# golden corpus: byte identity through the whole pipeline
############################################################

@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_byte_identity(name):
    expected = (GOLDEN_DIR / f"{name}.sql").read_text()
    assert optimized_sql(name) == expected


@pytest.mark.parametrize("name", sorted(set(CASES) - set(GENERIC_ERRORS)))
def test_golden_generic_byte_identity(name):
    expected = (GENERIC_DIR / f"{name}.sql").read_text()
    assert generic_sql(name) == expected


@pytest.mark.parametrize("name", sorted(GENERIC_ERRORS))
def test_golden_generic_error_message(name):
    with pytest.raises(DialectError) as exc:
        generic_sql(name)
    assert str(exc.value) == GENERIC_ERRORS[name]


def test_golden_corpus_complete():
    on_disk = {p.stem for p in GOLDEN_DIR.glob("*.sql")}
    assert on_disk == set(CASES)
    assert len(CASES) == 13
    generic = {p.stem for p in GENERIC_DIR.glob("*.sql")}
    assert generic.isdisjoint(GENERIC_ERRORS)
    assert generic | set(GENERIC_ERRORS) == set(CASES)
    assert len(generic) == 7


@pytest.mark.parametrize("name",
                         ["filter_chain", "index_array_join", "cte_join_agg"])
def test_emission_deterministic(name):
    assert optimized_sql(name) == optimized_sql(name)


############################################################
# pinned surface forms, ClickHouse dialect
############################################################

def test_project_renders_plain_select():
    sql = to_sql(Project(("a",), RelVar("R")), "clickhouse", SCHEMAS)
    assert sql == "SELECT a\nFROM R\n"


def test_relvar_columns_sorted():
    sql = to_sql(RelVar("S"), "clickhouse", SCHEMAS)
    assert sql == "SELECT a, c\nFROM S\n"


def test_filter_renders_where():
    term = Filter(Cmp(">", Col("a"), Lit(3)), RelVar("S"))
    sql = to_sql(term, "clickhouse", SCHEMAS)
    assert sql == "SELECT a, c\nFROM S\nWHERE a > 3\n"


def test_join_using_lists_shared_keys():
    sql = to_sql(Join(RelVar("R"), RelVar("S")), "clickhouse", SCHEMAS)
    assert "INNER JOIN S USING (a)" in sql


def test_array_join_clause_names_alias():
    term = ArrayJoin((("vals", "v"),), RelVar("R"))
    sql = to_sql(term, "clickhouse", SCHEMAS)
    assert "ARRAY JOIN vals AS v" in sql


def test_array_join_same_name_skips_alias():
    term = ArrayJoin((("vals", "vals"),), RelVar("R"))
    sql = to_sql(term, "clickhouse", SCHEMAS)
    assert "ARRAY JOIN vals\n" in sql
    assert "AS vals" not in sql


def test_array_filter_lambda_positions():
    # both arrays are filtered in lockstep; each call leads with its own
    # target and numbers the lambda variables by original target position.
    pred = And((Cmp(">", Col("v"), Lit(3)), Cmp("!=", Col("t"), Lit("x"))))
    term = ArrayFilter((("vals", "v"), ("tags", "t")), pred, RelVar("R"))
    sql = to_sql(term, "clickhouse", SCHEMAS)
    assert "arrayFilter((x1, x2) -> (x1 > 3 AND x2 != 'x'), vals, tags) AS v" \
        in sql
    assert "arrayFilter((x2, x1) -> (x1 > 3 AND x2 != 'x'), tags, vals) AS t" \
        in sql


def test_array_map_lambda():
    term = Derive("y", ScalarFn.of("affine", a=2, b=1), ("vals",),
                  RelVar("R"), is_map=True)
    sql = to_sql(term, "clickhouse", SCHEMAS)
    assert "arrayMap(x1 -> (2 * x1 + 1), vals) AS y" in sql


def test_aggregate_group_by():
    term = Aggregate(("a",), (AggSpec("sum", "b", "s"),), RelVar("R"))
    sql = to_sql(term, "clickhouse", SCHEMAS)
    assert sql == "SELECT a, sum(b) AS s\nFROM R\nGROUP BY a\n"


def test_aggregate_without_keys_has_no_group_by():
    term = Aggregate((), (AggSpec("count", "a", "n"),), RelVar("S"))
    sql = to_sql(term, "clickhouse", SCHEMAS)
    assert sql == "SELECT count(a) AS n\nFROM S\n"


def test_foreach_combinators_render_by_name():
    term = Aggregate(("a",), (AggSpec("sumForEach", "vals", "sv"),
                              AggSpec("countForEach", "vals", "cv")),
                     RelVar("R"))
    sql = to_sql(term, "clickhouse", SCHEMAS)
    assert "sumForEach(vals) AS sv" in sql
    assert "countForEach(vals) AS cv" in sql


def test_distinct_renders_sorted_unique_array():
    term = Aggregate(("a",), (AggSpec("distinct", "b", "d"),), RelVar("R"))
    sql = to_sql(term, "clickhouse", SCHEMAS)
    assert "arraySort(groupUniqArray(b)) AS d" in sql


def test_empty_array_literal():
    term = Filter(Cmp("!=", Col("vals"), Lit(())), RelVar("R"))
    sql = to_sql(term, "clickhouse", SCHEMAS)
    assert "WHERE vals != []" in sql


def test_null_and_bool_literals():
    term = Filter(Cmp("!=", Col("a"), Lit(None)), RelVar("S"))
    assert "a != NULL" in to_sql(term, "clickhouse", SCHEMAS)
    term = Filter(Cmp("=", Col("a"), Lit(True)), RelVar("S"))
    assert "a = true" in to_sql(term, "clickhouse", SCHEMAS)


def test_string_literal_quote_escaped():
    term = Filter(Cmp("=", Col("a"), Lit("it's")), RelVar("S"))
    assert "a = 'it''s'" in to_sql(term, "clickhouse", SCHEMAS)


def _string_literals(sql: str, dialect: str) -> list:
    """The values of the string literals in `sql`, read as `dialect`
    reads them: a doubled quote is a quote, and in ClickHouse a backslash
    escapes the next character (``\\n`` is a line break)."""
    values, i = [], 0
    while True:
        i = sql.find("'", i)
        if i < 0:
            return values
        chars, i = [], i + 1
        while True:
            c = sql[i]
            if c == "\\" and dialect == "clickhouse":
                chars.append({"n": "\n"}.get(sql[i + 1], sql[i + 1]))
                i += 2
            elif c == "'" and sql[i + 1:i + 2] == "'":
                chars.append("'")
                i += 2
            elif c == "'":
                values.append("".join(chars))
                i += 1
                break
            else:
                chars.append(c)
                i += 1


@pytest.mark.parametrize("cte", [False, True])
@pytest.mark.parametrize("depth", [0, 1, 3])
@pytest.mark.parametrize("dialect", ["clickhouse", "generic"])
def test_string_literal_keeps_its_value_at_any_depth(dialect, depth, cte):
    value = "x\n  y\\n'z'\n"
    term = Filter(Cmp("=", Col("c"), Lit(value)), RelVar("S"))
    for _ in range(depth):
        term = Filter(Cmp(">", Col("a"), Lit(1)), Project(("a", "c"), term))
    sql = to_sql(term, dialect, SCHEMAS, cte=cte)
    assert _string_literals(sql, dialect) == [value]
    assert sql.count("SELECT") == 1 + 2 * depth
    # ClickHouse keeps the literal on one line; standard SQL has no escape
    assert ("x\n" in sql) == (dialect == "generic")


def test_clickhouse_string_literal_escapes_backslashes():
    term = Filter(Cmp("=", Col("c"), Lit("a\\b")), RelVar("S"))
    assert "c = 'a\\\\b'" in to_sql(term, "clickhouse", SCHEMAS)
    assert "c = 'a\\b'" in to_sql(term, "generic", SCHEMAS)


@pytest.mark.parametrize("dialect", ["clickhouse", "generic"])
def test_nested_subqueries_indent_two_spaces_per_level(dialect):
    seen = 0
    for seed in range(60):
        rels, _ = random_db(random.Random(seed), join=seed % 2 == 1)
        term = random_term(random.Random(seed), rels, n_ops=6)
        try:
            sql = to_sql(term, dialect, {r.name: r.schema for r in rels})
        except DialectError:
            continue
        depth = 0
        for line in sql.splitlines():
            if line.lstrip().startswith(") AS t"):
                depth -= 1
            assert line == "  " * depth + line.lstrip(), (seed, line)
            if line.endswith(("FROM (", "INNER JOIN (")):
                depth += 1
                seen = max(seen, depth)
        assert depth == 0
    assert seen > 3


def test_cte_mode_builds_with_chain():
    term = Filter(Cmp(">", Col("a"), Lit(1)),
                  Project(("a",), Filter(Cmp("<", Col("c"), Lit(9)),
                                         RelVar("S"))))
    sql = to_sql(term, "clickhouse", SCHEMAS, cte=True)
    assert sql.startswith("WITH t0 AS (\n")
    assert "t1 AS (" in sql
    # final statement reads from the last CTE, not a nested subquery
    assert sql.rstrip().endswith("WHERE a > 1")
    assert "FROM t1" in sql
    assert "(\n  SELECT" not in sql.split("\nSELECT")[-1]


############################################################
# generic dialect
############################################################

def test_generic_unnest_form():
    term = ArrayJoin((("vals", "v"),), RelVar("R"))
    sql = to_sql(term, "generic", SCHEMAS)
    assert "CROSS JOIN UNNEST(vals) AS u0 (v)" in sql


def test_generic_comparison_spelling():
    term = Filter(Cmp("!=", Col("a"), Lit(2)), RelVar("S"))
    assert "a <> 2" in to_sql(term, "generic", SCHEMAS)


@pytest.mark.parametrize("term", [
    ArrayFilter((("vals", "v"),), Cmp(">", Col("v"), Lit(0)), RelVar("R")),
    Derive("y", ScalarFn.of("neg"), ("vals",), RelVar("R"), is_map=True),
    Derive("y", ScalarFn.of("arraySum"), ("vals",), RelVar("R")),
    Derive("y", ScalarFn.of("arrayEnumerate"), ("vals",), RelVar("R")),
    Aggregate(("a",), (AggSpec("sumForEach", "vals", "s"),), RelVar("R")),
    Aggregate(("a",), (AggSpec("distinct", "b", "d"),), RelVar("R")),
])
def test_generic_dialect_rejects_array_forms(term):
    with pytest.raises(DialectError):
        to_sql(term, "generic", SCHEMAS)


def test_generic_reports_innermost_inexpressible_operator():
    # every operator renders its input first, so the map below the
    # arrayFilter is the one named
    term = ArrayFilter((("y", "v"),), Cmp(">", Col("v"), Lit(0)),
                       Derive("y", ScalarFn.of("neg"), ("vals",), RelVar("R"),
                              is_map=True))
    with pytest.raises(DialectError, match="element-wise array mapping"):
        to_sql(term, "generic", SCHEMAS)


def test_unknown_dialect_rejected():
    with pytest.raises(DialectError):
        to_sql(RelVar("S"), "oracle12c", SCHEMAS)


def test_unknown_relation_rejected():
    with pytest.raises(DialectError):
        to_sql(RelVar("missing"), "clickhouse", SCHEMAS)


############################################################
# dot rendering
############################################################

def test_dot_single_relation():
    dot = to_dot(RelVar("S"))
    assert dot.startswith("digraph plan {")
    assert dot.count("[label=") == 1
    assert "->" not in dot


def test_dot_chain_counts():
    term = Filter(Cmp(">", Col("y"), Lit(0)),
                  Derive("y", ScalarFn.of("neg"), ("v",),
                         ArrayJoin((("vals", "v"),), RelVar("R"))))
    dot = to_dot(term)
    assert dot.count("[label=") == 4
    assert dot.count("->") == 3


def test_dot_operator_symbols():
    term = Project(("a",),
                   Aggregate(("a",), (AggSpec("sum", "e", "s"),),
                             ArrayJoin((("v", "e"),),
                                       ArrayFilter((("vals", "v"),),
                                                   Cmp(">", Col("v"), Lit(0)),
                                                   Filter(Cmp(">", Col("a"),
                                                              Lit(1)),
                                                          Join(RelVar("R"),
                                                               RelVar("S")))))))
    dot = to_dot(term)
    for sym in ("σ", "Π", "μ", "φ", "Γ", "⋈"):
        assert sym in dot


def test_dot_label_shows_a_derive_functions_parameters():
    term = Derive("y", ScalarFn.of("affine", a=2, b=1), ("x",), RelVar("R"))
    assert '[label="δ y := affine[a=2,b=1](x)"]' in to_dot(term)


def test_dot_cost_annotation():
    stats = {"S": TableStats(100, {"a": ScalarStats("uniform", 10, 0.0,
                                                    lo=0, hi=10)}, {})}
    cm = CostModel(stats, SCHEMAS)
    dot = to_dot(Filter(Cmp(">", Col("a"), Lit(5)), RelVar("S")), cm)
    assert "rows≈" in dot and "cost≈" in dot


def _per_node_annotations(term, cm):
    """The rows/cost annotation of every node in ``to_dot``'s node order
    (children first, left to right), each from its own ``term_cost``."""
    out = [a for kid in children(term) for a in _per_node_annotations(kid, cm)]
    res = cm.term_cost(term)
    return out + [f"rows≈{res.state.rows:.0f} cost≈{res.cost:.0f}"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_dot_folds_the_plan_once(name):
    term, schemas, stats, corr, opt_kw, _ = CASES[name]()
    plan = optimize(term, schemas, stats=stats, correspondences=corr,
                    **opt_kw).term
    for t in (term, plan):
        cm = CostModel(dict(stats or {}), dict(schemas))
        calls = []
        real = cm.op_effect

        def counting(node, state):
            calls.append(node)
            return real(node, state)

        cm.op_effect = counting
        dot = to_dot(t, cm)
        assert len(calls) == sum(isinstance(n, UNARY_TYPES)
                                 for _, n in walk(t))
        labels = re.findall(r'\[label="[^"]*\\n(rows≈[^"]*)"\]', dot)
        assert labels == _per_node_annotations(t, cm)


@pytest.mark.parametrize("seed", range(10))
def test_dot_node_count_matches_term_size(seed):
    import random
    rng = random.Random(seed)
    rels, _db = random_db(rng)
    term = random_term(rng, rels)
    dot = to_dot(term)
    assert dot.count("[label=") == sum(1 for _ in walk(term))


############################################################
# identifier audit: emitted SQL never leaks internal names
############################################################

_KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "INNER", "JOIN", "USING",
    "ARRAY", "AS", "WITH", "AND", "OR", "NOT", "CROSS", "UNNEST",
    "TRUE", "FALSE", "NULL", "true", "false",
}
_FUNCTIONS = {
    "length", "char_length", "cardinality", "abs", "concat",
    "arrayFilter", "arrayMap", "arrayEnumerate", "arraySum", "arrayMin",
    "arrayMax", "arraySort", "groupUniqArray",
    "min", "max", "sum", "count", "avg",
    "sumForEach", "countForEach", "minForEach", "maxForEach",
}
_GENERATED = re.compile(r"^(t\d+|u\d+|x\d+)$")


def _term_names(term):
    names = set()
    for _, sub in walk(term):
        if isinstance(sub, RelVar):
            names.add(sub.name)
        elif isinstance(sub, Filter):
            names |= pred_columns(sub.pred)
        elif isinstance(sub, Project):
            names |= set(sub.cols)
        elif isinstance(sub, (ArrayJoin, ArrayFilter)):
            for src, alias in sub.targets:
                names |= {src, alias}
            if isinstance(sub, ArrayFilter):
                names |= pred_columns(sub.pred)
        elif isinstance(sub, Derive):
            names |= {sub.output, *sub.args}
        elif isinstance(sub, Aggregate):
            names |= set(sub.keys)
            for spec in sub.aggs:
                names |= {spec.arg, spec.alias}
    return names


@pytest.mark.parametrize("name", sorted(CASES))
def test_emitted_identifiers_are_known(name):
    from a3d.planner import optimize

    term, schemas, stats, corr, opt_kw, emit_kw = CASES[name]()
    result = optimize(term, schemas, stats=stats, correspondences=corr,
                      **opt_kw)
    sql = to_sql(result.term, "clickhouse", schemas, **emit_kw)

    allowed = _KEYWORDS | _FUNCTIONS | _term_names(result.term)
    for rel, schema in schemas.items():
        allowed |= {rel} | schema.scalars | schema.arrays

    stripped = re.sub(r"'(?:[^']|'')*'", "''", sql)
    idents = set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", stripped))
    unknown = {i for i in idents
               if i not in allowed and not _GENERATED.match(i)}
    assert not unknown, f"unexpected identifiers in SQL: {sorted(unknown)}"
