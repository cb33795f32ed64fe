import random

import pytest

from a3d.algebra import (
    Aggregate,
    AggSpec,
    ArrayFilter,
    ArrayJoin,
    Derive,
    EvalError,
    Filter,
    Join,
    Project,
    RelVar,
    Relation,
    Schema,
    SchemaError,
    UNARY_TYPES,
    base_relations,
    evaluate,
    footprint,
    format_term,
    node_schema,
    output_schema,
    relations_equal,
    replace_at,
    walk,
)
from a3d.functions import ScalarFn, apply_agg, apply_scalar
from a3d.planner import optimize
from a3d.predicates import And, Apply, Cmp, Col, Lit, Not, Or

from gen_utils import build_relation, random_db, random_term, subterm_at
from golden_queries import CASES
from naive_interp import naive_eval, rows_equal_bag

INT = "int"


def _rel(schema_scalars, schema_arrays, rows):
    return Relation.build(Schema.of(schema_scalars, schema_arrays), rows)


@pytest.fixture
def people():
    return _rel(
        ("id", "age"), ("tags",),
        [
            {"id": 1, "age": 30, "tags": ("a", "b")},
            {"id": 2, "age": None, "tags": ()},
            {"id": 3, "age": 30, "tags": ("b", None)},
        ],
    )


############################################################
# value-level conventions
############################################################

def test_null_comparison_is_false_and_not_flips():
    row = {"x": None}
    assert not evaluate(
        Filter(Cmp("<", Col("x"), Lit(5)), RelVar("R")),
        {"R": _rel(("x",), (), [row])},
    ).rows
    flipped = evaluate(
        Filter(Not(Cmp("<", Col("x"), Lit(5))), RelVar("R")),
        {"R": _rel(("x",), (), [row])},
    )
    assert len(flipped.rows) == 1


def test_array_compare_only_equality():
    db = {"R": _rel((), ("a",), [{"a": (1, 2)}])}
    assert evaluate(Filter(Cmp("=", Col("a"), Lit((1, 2))), RelVar("R")),
                    db).rows
    assert not evaluate(Filter(Cmp("=", Col("a"), Lit(())), RelVar("R")),
                        db).rows
    with pytest.raises(EvalError):
        evaluate(Filter(Cmp("<", Col("a"), Lit((1,))), RelVar("R")), db)


def test_div_conventions():
    assert apply_scalar(ScalarFn.of("div"), [6, 3]) == 2
    assert isinstance(apply_scalar(ScalarFn.of("div"), [6, 3]), int)
    assert apply_scalar(ScalarFn.of("div"), [7, 2]) == 3.5
    assert apply_scalar(ScalarFn.of("div"), [1, 0]) is None
    assert apply_scalar(ScalarFn.of("div"), [None, 2]) is None


def test_aggregate_null_conventions():
    assert apply_agg("count", [1, None, 2]) == 2
    assert apply_agg("sum", [None, None]) == 0
    assert apply_agg("min", [None]) is None
    assert apply_agg("avg", []) is None
    assert apply_agg("avg", [2, None, 4]) == 3
    assert apply_agg("distinct", [3, 1, 3, None, 1]) == (1, 3)


def test_foreach_ragged_positions():
    # positions beyond an array's length just don't contribute
    assert apply_agg("sumForEach", [(1, 2, 3), (10,), ()]) == (11, 2, 3)
    assert apply_agg("countForEach", [(None, 5), (1,)]) == (1, 1)
    assert apply_agg("maxForEach", [(None,), (None, 2)]) == (None, 2)


############################################################
# operator edge cases
############################################################

def test_array_join_null_and_empty(people):
    out = evaluate(ArrayJoin((("tags", "t"),), RelVar("P")), {"P": people})
    assert sorted((r["t"] for r in out.rows if r["id"] == 3),
                  key=repr) == ["b", None]
    assert not [r for r in out.rows if r["id"] == 2]  # empty array: no rows


def test_array_join_length_mismatch_raises():
    db = {"R": _rel((), ("a", "b"), [{"a": (1,), "b": (1, 2)}])}
    with pytest.raises(EvalError):
        evaluate(ArrayJoin((("a", "x"), ("b", "y")), RelVar("R")), db)


def test_array_filter_coordinates_equal_length_arrays():
    db = {"R": _rel((), ("a", "b"), [{"a": (1, 2, 3), "b": (9, 8, 7)}])}
    out = evaluate(
        ArrayFilter((("a", "x"), ("b", "y")), Cmp(">", Col("x"), Lit(1)),
                    RelVar("R")),
        db,
    )
    assert out.rows[0] == {"x": (2, 3), "y": (8, 7)}


def test_array_filter_pred_must_use_aliases_only():
    db = {"R": _rel(("s",), ("a",), [{"s": 1, "a": (1,)}])}
    with pytest.raises(SchemaError):
        evaluate(ArrayFilter((("a", "x"),), Cmp("=", Col("s"), Lit(1)),
                             RelVar("R")), db)


def test_alias_shadowing_rejected():
    db = {"R": _rel(("s",), ("a",), [{"s": 1, "a": (1,)}])}
    with pytest.raises(SchemaError):
        evaluate(ArrayJoin((("a", "s"),), RelVar("R")), db)


def test_join_on_null_keys_matches():
    left = _rel(("k", "l"), (), [{"k": None, "l": 1}, {"k": 2, "l": 2}])
    right = _rel(("k", "r"), (), [{"k": None, "r": 9}, {"k": 3, "r": 8}])
    out = evaluate(Join(RelVar("L"), RelVar("R")), {"L": left, "R": right})
    assert len(out.rows) == 1 and out.rows[0]["l"] == 1 and out.rows[0]["r"] == 9


def test_join_kind_mismatch_rejected():
    left = _rel(("c",), (), [{"c": 1}])
    right = _rel((), ("c",), [{"c": (1,)}])
    with pytest.raises(SchemaError):
        evaluate(Join(RelVar("L"), RelVar("R")), {"L": left, "R": right})


def test_aggregate_empty_input_empty_output():
    db = {"R": _rel(("x",), (), [])}
    out = evaluate(Aggregate((), (AggSpec("count", "x", "n"),), RelVar("R")), db)
    assert out.rows == ()


def test_aggregate_no_keys_single_group(people):
    out = evaluate(Aggregate((), (AggSpec("sum", "age", "s"),), RelVar("P")),
                   {"P": people})
    assert out.rows == ({"s": 60},)


def test_scalar_aggregate_flattens_arrays(people):
    out = evaluate(Aggregate((), (AggSpec("count", "tags", "n"),), RelVar("P")),
                   {"P": people})
    assert out.rows == ({"n": 3},)  # "a","b","b"; the null element is skipped


def test_derive_map_broadcasts_scalars():
    db = {"R": _rel(("x",), ("a",), [{"x": 10, "a": (1, 2)}, {"x": 1, "a": ()}])}
    out = evaluate(
        Derive("y", ScalarFn.of("add"), ("a", "x"), RelVar("R"), is_map=True),
        db)
    by_x = {r["x"]: r["y"] for r in out.rows}
    assert by_x == {10: (11, 12), 1: ()}


def test_derive_overwrites_column():
    db = {"R": _rel(("x",), (), [{"x": 3}])}
    out = evaluate(Derive("x", ScalarFn.of("neg"), ("x",), RelVar("R")), db)
    assert out.rows == ({"x": -3},)


def test_set_mode_dedupes():
    db = {"R": _rel(("x",), (), [{"x": 1}, {"x": 1}])}
    t = RelVar("R")
    assert len(evaluate(t, db, mode="bag").rows) == 2
    assert len(evaluate(t, db, mode="set").rows) == 1


def test_relations_equal_modes():
    a = _rel(("x",), (), [{"x": 1}, {"x": 1}, {"x": 2}])
    b = _rel(("x",), (), [{"x": 2}, {"x": 1}])
    assert not relations_equal(a, b)
    assert relations_equal(a, b, mode="set")


############################################################
# tree plumbing
############################################################

def test_walk_paths_roundtrip():
    term = Filter(Cmp("=", Col("k"), Lit(1)), Join(RelVar("A"), RelVar("B")))
    seen = dict(walk(term))
    assert set(seen) == {(), (0,), (0, 0), (0, 1)}
    assert subterm_at(term, (0, 1)) == RelVar("B")
    swapped = replace_at(term, (0, 1), RelVar("C"))
    assert base_relations(swapped) == ("A", "C")
    assert base_relations(term) == ("A", "B")  # original untouched


def _recursive_preorder(term, path=()):
    yield path, term
    kids = (term.left, term.right) if isinstance(term, Join) else \
        () if isinstance(term, RelVar) else (term.child,)
    for i, kid in enumerate(kids):
        yield from _recursive_preorder(kid, path + (i,))


def test_walks_match_a_recursive_preorder():
    for seed in range(40):
        rels, _ = random_db(random.Random(seed), join=seed % 2 == 1)
        term = random_term(random.Random(seed), rels, n_ops=6)
        order = list(_recursive_preorder(term))
        assert [(p, id(n)) for p, n in walk(term)] == \
            [(p, id(n)) for p, n in order]
        assert next(walk(term, (7,)))[0] == (7,)


def test_walk_of_a_deep_chain_is_linear():
    # a recursive ``yield from`` passes every item up through each
    # enclosing generator; the explicit stack does not recurse at all
    term = RelVar("r")
    for _ in range(5000):
        term = Filter(Cmp("<", Col("x"), Lit(1)), term)
    assert sum(1 for _ in walk(term)) == 5001


############################################################
# schema inference
############################################################

def _check_footprints(term, catalog, seen: set) -> None:
    """footprint agrees with node_schema on every unary node of `term`."""
    for _, node in walk(term):
        if not isinstance(node, UNARY_TYPES):
            continue
        seen.add(type(node))
        inner = output_schema(node.child, catalog)
        reads, writes, consumes = footprint(node)
        assert reads <= inner.columns, node
        if not isinstance(node, (Project, Aggregate)):
            assert node_schema(node, inner).columns == \
                (inner.columns - consumes) | writes, node


# the child schema of every unary case below: scalars k, x, y; arrays v, w
_INNER = Schema.of(("k", "x", "y"), ("v", "w"))
_R = RelVar("R")        # a placeholder child: node_schema ignores it
_NEG = ScalarFn.of("neg")
_OK = Cmp("<", Col("x"), Lit(1))
_ELEM = Cmp("<", Col("e"), Lit(1))


def _bad(case_id, node, message, schemas=(_INNER,)):
    return pytest.param(node, schemas, message, id=case_id)


# one malformed node for each SchemaError that node_schema raises, its own
# or through _check_targets, _check_call and _check_calls, with the message
NODE_SCHEMA_ERRORS = [
    _bad("join-mixed-kinds", Join(_R, RelVar("S")),
         "join column 'a' has mixed kinds",
         (Schema.of("abcd"), Schema.of((), "abcd"))),
    _bad("relvar", _R, "not a term: RelVar(name='R')"),
    _bad("filter-references", Filter(Cmp("<", Col("z"), Col("q")), _R),
         "filter references ['q', 'z']"),
    _bad("filter-unknown-function",
         Filter(Cmp("<", Apply(ScalarFn.of("nope"), (Col("x"),)), Lit(1)),
                _R),
         "unknown function 'nope'"),
    _bad("filter-nested-arity",
         Filter(Not(And((_OK, Or((_OK, Cmp(
             "<", Col("x"), Apply(_NEG, (Apply(_NEG, ()),)))))))), _R),
         "neg: wrong arity"),
    _bad("project-duplicate", Project(("k", "v", "k"), _R),
         "project: duplicate column"),
    _bad("project-unknown", Project(("k", "z", "q"), _R),
         "project: unknown column 'z'"),
    _bad("arrayjoin-no-target", ArrayJoin((), _R),
         "arrayJoin needs at least one target"),
    _bad("arrayjoin-duplicate-source", ArrayJoin((("v", "e"), ("v", "f")), _R),
         "arrayJoin: duplicate source"),
    _bad("arrayjoin-duplicate-alias", ArrayJoin((("v", "e"), ("w", "e")), _R),
         "arrayJoin: duplicate alias"),
    _bad("arrayjoin-scalar-source", ArrayJoin((("v", "e"), ("k", "f")), _R),
         "arrayJoin: source 'k' is not an array column"),
    _bad("arrayjoin-unknown-source", ArrayJoin((("z", "e"),), _R),
         "arrayJoin: source 'z' is not an array column"),
    _bad("arrayjoin-alias-shadows", ArrayJoin((("v", "e"), ("w", "x")), _R),
         "arrayJoin: alias 'x' shadows an unrelated column"),
    _bad("arrayfilter-no-target", ArrayFilter((), _ELEM, _R),
         "arrayFilter needs at least one target"),
    _bad("arrayfilter-duplicate-source",
         ArrayFilter((("v", "e"), ("v", "f")), _ELEM, _R),
         "arrayFilter: duplicate source"),
    _bad("arrayfilter-duplicate-alias",
         ArrayFilter((("v", "e"), ("w", "e")), _ELEM, _R),
         "arrayFilter: duplicate alias"),
    _bad("arrayfilter-scalar-source", ArrayFilter((("x", "e"),), _ELEM, _R),
         "arrayFilter: source 'x' is not an array column"),
    _bad("arrayfilter-alias-shadows",
         ArrayFilter((("v", "w"),), Cmp("<", Col("w"), Lit(1)), _R),
         "arrayFilter: alias 'w' shadows an unrelated column"),
    _bad("arrayfilter-stray",
         ArrayFilter((("v", "e"),),
                     And((Cmp("<", Col("y"), Col("e")), Cmp("<", Col("k"),
                                                            Lit(1)))), _R),
         "arrayFilter predicate may only use element aliases; got ['k', 'y']"),
    _bad("arrayfilter-arity",
         ArrayFilter((("v", "e"),), Cmp("<", Col("e"), Apply(_NEG, ())), _R),
         "neg: wrong arity"),
    _bad("derive-unknown-function",
         Derive("z", ScalarFn.of("nope"), ("x",), _R),
         "unknown function 'nope'"),
    _bad("derive-arity", Derive("z", _NEG, ("x", "y"), _R),
         "neg: wrong arity"),
    _bad("derive-unknown-column",
         Derive("z", ScalarFn.of("add"), ("x", "q"), _R),
         "derive references unknown column 'q'"),
    _bad("derive-map-without-array", Derive("z", _NEG, ("x",), _R, True),
         "map derive needs at least one array argument"),
    _bad("aggregate-duplicate-key", Aggregate(("k", "x", "k"), (), _R),
         "aggregate: duplicate key"),
    _bad("aggregate-unknown-key", Aggregate(("k", "q"), (), _R),
         "unknown column 'q'"),
    _bad("aggregate-unknown-function",
         Aggregate(("k",), (AggSpec("median", "x", "m"),), _R),
         "unknown aggregate 'median'"),
    _bad("aggregate-unknown-column",
         Aggregate(("k",), (AggSpec("sum", "q", "s"),), _R),
         "aggregate references unknown column 'q'"),
    _bad("aggregate-foreach-scalar",
         Aggregate(("k",), (AggSpec("sumForEach", "x", "s"),), _R),
         "sumForEach needs an array column"),
    _bad("aggregate-alias-is-key",
         Aggregate(("k",), (AggSpec("sum", "x", "k"),), _R),
         "aggregate alias 'k' collides"),
    _bad("aggregate-alias-twice",
         Aggregate((), (AggSpec("sum", "x", "s"), AggSpec("max", "v", "s")),
                   _R),
         "aggregate alias 's' collides"),
]


@pytest.mark.parametrize("node, schemas, message", NODE_SCHEMA_ERRORS)
def test_node_schema_rejects_each_malformed_node_with_its_message(
        node, schemas, message):
    with pytest.raises(SchemaError) as err:
        node_schema(node, *schemas)
    assert str(err.value) == message


def test_node_schema_shares_the_column_set_a_node_leaves_unchanged():
    plus = ScalarFn.of("add")
    scalar = node_schema(Derive("z", plus, ("x", "y"), _R), _INNER)
    assert scalar.scalars == {"k", "x", "y", "z"}
    assert scalar.arrays is _INNER.arrays
    array = node_schema(Derive("z", _NEG, ("v",), _R, True), _INNER)
    assert array.arrays == {"v", "w", "z"}
    assert array.scalars is _INNER.scalars
    elems = node_schema(ArrayFilter((("v", "e"),), _ELEM, _R), _INNER)
    assert elems == Schema.of(("k", "x", "y"), ("e", "w"))
    assert elems.scalars is _INNER.scalars
    assert node_schema(Filter(_OK, _R), _INNER) is _INNER


def test_footprint_agrees_with_node_schema():
    seen: set = set()
    for join in (False, True):
        rng = random.Random(31000 + join)
        for _ in range(200):
            rels, db = random_db(rng, join=join)
            term = random_term(rng, rels, n_ops=rng.randint(1, 6))
            _check_footprints(term, {n: r.schema for n, r in db.items()},
                              seen)
    for case in CASES.values():
        term, schemas, stats, corr, opt_kw, _ = case()
        _check_footprints(term, schemas, seen)
        plan = optimize(term, schemas, stats=stats, correspondences=corr,
                        **opt_kw).term
        _check_footprints(plan, schemas, seen)
    assert seen == set(UNARY_TYPES)


############################################################
# differential: interpreter vs the naive oracle
############################################################

@pytest.mark.parametrize("join", [False, True])
def test_random_terms_match_naive_oracle(join):
    rng = random.Random(20240 + join)
    for trial in range(120):
        rels, db = random_db(rng, join=join)
        term = random_term(rng, rels, n_ops=rng.randint(1, 5))
        try:
            mine = evaluate(term, db)
        except EvalError:
            continue  # ragged data hit a hard-error path; oracle agrees below
        theirs = naive_eval(term, db)
        assert rows_equal_bag(list(mine.rows), theirs), (
            f"seed trial {trial}: interpreter disagrees with oracle\n{term}")
        # schema inference must match what actually came out
        if mine.rows:
            sch = output_schema(term, {n: r.schema for n, r in db.items()})
            assert set(mine.rows[0]) == set(sch.columns)


def test_schema_matches_rows_on_fixed_cases():
    rng = random.Random(7)
    tr = build_relation(
        rng, "t",
        [("t_s0", INT), ("k", INT)],
        [[("t_a0", INT), ("t_a1", INT)]],
        6,
    )
    db = {"t": tr.relation}
    term = ArrayJoin((("t_a0", "e0"), ("t_a1", "e1")), RelVar("t"))
    out = evaluate(term, db)
    sch = output_schema(term, {"t": tr.schema})
    assert sch.scalars == frozenset({"t_s0", "k", "e0", "e1"})
    assert sch.arrays == frozenset()
    for r in out.rows:
        assert set(r) == set(sch.columns)


def test_format_term_prints_each_operator_label_above_its_inputs():
    term = Filter(Cmp(">", Col("y"), Lit(3)),
                  Derive("y", ScalarFn.of("affine", a=2, b=1), ("e",),
                         ArrayJoin((("v", "e"),),
                                   Join(RelVar("R"), RelVar("S")))))
    assert format_term(term) == (
        "σ y > 3\n"
        "  δ y := affine[a=2,b=1](e)\n"
        "    μ v→e\n"
        "      ⋈\n"
        "        R\n"
        "        S")
