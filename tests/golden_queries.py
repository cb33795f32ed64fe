"""Golden query corpus: fixed logical plans with pinned statistics.

Each case names a query, the catalog it runs against, and the optimizer
options.  The expected ClickHouse SQL for every case is frozen under
``tests/golden/<name>.sql``, and the generic SQL under
``tests/golden/generic/<name>.sql`` for every case the generic dialect can
express; ``GENERIC_ERRORS`` pins the ``DialectError`` message of the rest.
``test_translate.py`` asserts byte identity.
Regenerate after a deliberate optimizer/translator change with

    python3 -m tests.golden_queries

and review the diff by hand before committing it.
"""

from pathlib import Path

from a3d.algebra import (
    AggSpec, Aggregate, ArrayJoin, Derive, Filter, Join, Project, RelVar,
    Schema,
)
from a3d.functions import ScalarFn
from a3d.planner import optimize
from a3d.predicates import And, Cmp, Col, Lit
from a3d.stats import ArrayStats, ScalarStats, TableStats
from a3d.testkit import make_pattern, pattern_schemas
from a3d.translate import to_sql

GOLDEN_DIR = Path(__file__).parent / "golden"
GENERIC_DIR = GOLDEN_DIR / "generic"


############################################################
# stats shorthand
############################################################

def _u(lo, hi, ndv):
    return ScalarStats("uniform", ndv, 0.0, lo=lo, hi=hi)


def _arr(avg_len, empty_fraction=0.0, lo=0, hi=100, ndv=50):
    return ArrayStats(avg_len, empty_fraction, _u(lo, hi, ndv))


def _schema(scalars, arrays=()):
    return Schema(frozenset(scalars), frozenset(arrays))


############################################################
# case definitions
############################################################

def _filter_chain():
    # three filters of very different selectivity on one relation;
    # the optimizer must order them most-selective-first.
    schemas = {"orders": _schema({"oid", "amount", "qty", "score"})}
    stats = {"orders": TableStats(
        10_000,
        {"amount": _u(0, 100, 100), "qty": _u(1, 10, 10),
         "score": _u(0, 1000, 1000)},
        {},
    )}
    term = Filter(Cmp(">", Col("amount"), Lit(20)),
                  Filter(Cmp("=", Col("qty"), Lit(3)),
                         Filter(Cmp(">", Col("score"), Lit(990)),
                                RelVar("orders"))))
    return term, schemas, stats, (), {"mode": "enumerate"}, {}


def _join_pushdown():
    # a filter written above the join must move onto its own side.
    schemas = {"users": _schema({"uid", "age"}),
               "events": _schema({"uid", "dur"})}
    stats = {"users": TableStats(1_000, {"uid": _u(0, 1000, 1000),
                                         "age": _u(0, 100, 100)}, {}),
             "events": TableStats(50_000, {"uid": _u(0, 1000, 1000),
                                           "dur": _u(0, 600, 600)}, {})}
    term = Filter(Cmp(">", Col("age"), Lit(90)),
                  Join(RelVar("users"), RelVar("events")))
    return term, schemas, stats, (), {"mode": "enumerate"}, {}


def _array_join_basic():
    schemas = {"sensors": _schema({"sid"}, {"readings"})}
    stats = {"sensors": TableStats(
        500, {"sid": _u(0, 500, 500)}, {"readings": _arr(6.0)})}
    term = Project(("r", "sid"),
                   ArrayJoin((("readings", "r"),), RelVar("sensors")))
    return term, schemas, stats, (), {"mode": "enumerate"}, {}


def _empty_array_guard():
    # 40% of the arrays are empty: worth a guard filter before unnesting.
    schemas = {"sensors": _schema({"sid"}, {"readings"})}
    stats = {"sensors": TableStats(
        500, {"sid": _u(0, 500, 500)},
        {"readings": _arr(6.0, empty_fraction=0.4)})}
    term = Project(("r", "sid"),
                   ArrayJoin((("readings", "r"),), RelVar("sensors")))
    return term, schemas, stats, (), {"mode": "enumerate"}, {}


def _element_filter_pushdown():
    # filter on the unnested element becomes an element-level filter
    # on the array itself, before the unnest.
    schemas = {"sensors": _schema({"sid"}, {"readings"})}
    stats = {"sensors": TableStats(
        500, {"sid": _u(0, 500, 500)}, {"readings": _arr(6.0)})}
    term = Project(("r", "sid"),
                   Filter(Cmp(">", Col("r"), Lit(95)),
                          ArrayJoin((("readings", "r"),), RelVar("sensors"))))
    return term, schemas, stats, (), {"mode": "enumerate"}, {}


def _array_filter_multi():
    # predicate touching two jointly-unnested arrays filters both in
    # lockstep, keeping positions aligned.
    schemas = {"events": _schema({"uid"}, {"vals", "tags"})}
    stats = {"events": TableStats(
        2_000, {"uid": _u(0, 100, 100)},
        {"vals": _arr(5.0), "tags": _arr(5.0)})}
    term = Project(
        ("t", "uid", "v"),
        Filter(And((Cmp(">", Col("v"), Lit(80)),
                    Cmp("!=", Col("t"), Lit(0)))),
               ArrayJoin((("vals", "v"), ("tags", "t")), RelVar("events"))))
    corr = (("vals", "tags"),)
    return term, schemas, stats, corr, {"mode": "enumerate"}, {}


def _array_map_derive():
    schemas = {"metrics": _schema({"mid"}, {"vals"})}
    stats = {"metrics": TableStats(
        1_000, {"mid": _u(0, 1000, 1000)}, {"vals": _arr(4.0)})}
    term = Project(
        ("mid", "scaled"),
        Derive("scaled", ScalarFn.of("affine", a=2, b=1), ("vals",),
               RelVar("metrics"), is_map=True))
    return term, schemas, stats, (), {"mode": "enumerate"}, {}


def _invertible_map_filter():
    # filter over an affine-derived column is rewritten against the
    # source column, so it can run before the derivation.
    schemas = {"scores": _schema({"sid", "raw"})}
    stats = {"scores": TableStats(
        5_000, {"sid": _u(0, 5000, 5000), "raw": _u(0, 200, 200)}, {})}
    term = Project(
        ("norm", "sid"),
        Filter(Cmp(">", Col("norm"), Lit(30)),
               Derive("norm", ScalarFn.of("affine", a=0.5, b=-10.0),
                      ("raw",), RelVar("scores"))))
    return term, schemas, stats, (), {"mode": "enumerate"}, {}


def _foreach_preagg():
    # per-key aggregate over unnested elements folds into ForEach
    # partials computed without unnesting.
    schemas = {"logs": _schema({"uid"}, {"vals"})}
    stats = {"logs": TableStats(
        10_000, {"uid": _u(0, 50, 50)}, {"vals": _arr(8.0)})}
    term = Aggregate(
        ("uid",),
        (AggSpec("sum", "e", "total"),),
        ArrayJoin((("vals", "e"),), RelVar("logs")))
    return term, schemas, stats, (), {"mode": "enumerate"}, {}


def _avg_join_decomposition():
    # average over a join decomposes into sum/count partials pushed below
    # the join, re-aggregated above it, and finished with a division.
    schemas = {"users": _schema({"uid", "age"}),
               "events": _schema({"uid", "dur"})}
    stats = {"users": TableStats(1_000, {"uid": _u(0, 1000, 1000),
                                         "age": _u(0, 100, 100)}, {}),
             "events": TableStats(50_000, {"uid": _u(0, 1000, 1000),
                                           "dur": _u(0, 600, 600)}, {})}
    term = Aggregate(
        ("age",), (AggSpec("avg", "dur", "mean_dur"),),
        Join(RelVar("users"), RelVar("events")))
    return term, schemas, stats, (), {"mode": "enumerate"}, {}


def _index_array_join():
    # unnesting corresponding arrays from both join sides: enumerate the
    # positions, unnest each side alone, and join on (key, index).
    schemas = {"ships": _schema({"k"}, {"vals"}),
               "parts": _schema({"k"}, {"costs"})}
    stats = {"ships": TableStats(
        2_000, {"k": _u(0, 20, 20)}, {"vals": _arr(4.0)}),
        "parts": TableStats(
        2_000, {"k": _u(0, 20, 20)}, {"costs": _arr(4.0)})}
    term = Project(
        ("c", "k", "v"),
        ArrayJoin((("vals", "v"), ("costs", "c")),
                  Join(RelVar("ships"), RelVar("parts"))))
    corr = (("vals", "costs"),)
    return term, schemas, stats, corr, {"mode": "greedy"}, {}


def _pattern_b_fused():
    # one three-conjunct filter over three jointly unnested arrays: the
    # conjuncts become arrayFilters one at a time and fuse into one, so each
    # array is rebuilt once.
    return (make_pattern("B", 3), pattern_schemas("B", 3), {}, (),
            {"mode": "enumerate"}, {})


def _cte_join_agg():
    # same pipeline surface as join_pushdown + aggregate, emitted as a
    # WITH chain instead of nested subqueries.
    schemas = {"users": _schema({"uid", "age"}),
               "events": _schema({"uid", "dur"})}
    stats = {"users": TableStats(1_000, {"uid": _u(0, 1000, 1000),
                                         "age": _u(0, 100, 100)}, {}),
             "events": TableStats(50_000, {"uid": _u(0, 1000, 1000),
                                           "dur": _u(0, 600, 600)}, {})}
    term = Aggregate(
        ("uid",), (AggSpec("sum", "dur", "total_dur"),),
        Filter(Cmp(">", Col("age"), Lit(80)),
               Join(RelVar("users"), RelVar("events"))))
    return term, schemas, stats, (), {"mode": "enumerate"}, {"cte": True}


CASES = {
    "filter_chain": _filter_chain,
    "join_pushdown": _join_pushdown,
    "array_join_basic": _array_join_basic,
    "empty_array_guard": _empty_array_guard,
    "element_filter_pushdown": _element_filter_pushdown,
    "array_filter_multi": _array_filter_multi,
    "array_map_derive": _array_map_derive,
    "invertible_map_filter": _invertible_map_filter,
    "foreach_preagg": _foreach_preagg,
    "avg_join_decomposition": _avg_join_decomposition,
    "index_array_join": _index_array_join,
    "cte_join_agg": _cte_join_agg,
    "pattern_b_fused": _pattern_b_fused,
}


# the cases the generic dialect cannot express, with the error each raises
GENERIC_ERRORS = {
    "array_filter_multi":
        "generic dialect cannot express element-level array filters",
    "array_map_derive":
        "generic dialect cannot express element-wise array mapping",
    "element_filter_pushdown":
        "generic dialect cannot express element-level array filters",
    "foreach_preagg":
        "generic dialect has no rendering for aggregate 'sumForEach'",
    "index_array_join":
        "generic dialect has no rendering for function 'arrayEnumerate'",
    "pattern_b_fused":
        "generic dialect cannot express element-level array filters",
}


def optimized_plan(name: str) -> tuple:
    """(optimized term, schemas, ``to_sql`` keywords) of the named case."""
    term, schemas, stats, corr, opt_kw, emit_kw = CASES[name]()
    result = optimize(term, schemas, stats=stats, correspondences=corr,
                      **opt_kw)
    return result.term, schemas, emit_kw


def optimized_sql(name: str) -> str:
    """Optimize the named case and render it as ClickHouse SQL."""
    term, schemas, emit_kw = optimized_plan(name)
    return to_sql(term, dialect="clickhouse", schemas=schemas, **emit_kw)


def generic_sql(name: str) -> str:
    """Optimize the named case and render it as generic SQL."""
    term, schemas, emit_kw = optimized_plan(name)
    return to_sql(term, dialect="generic", schemas=schemas, **emit_kw)


def regenerate() -> None:
    GENERIC_DIR.mkdir(parents=True, exist_ok=True)
    for name in CASES:
        sql = optimized_sql(name)
        (GOLDEN_DIR / f"{name}.sql").write_text(sql)
        print(f"wrote golden/{name}.sql ({len(sql.splitlines())} lines)")
        if name not in GENERIC_ERRORS:
            sql = generic_sql(name)
            (GENERIC_DIR / f"{name}.sql").write_text(sql)
            print(f"wrote golden/generic/{name}.sql "
                  f"({len(sql.splitlines())} lines)")


if __name__ == "__main__":
    regenerate()
