import dataclasses
import itertools
import random

import pytest

from a3d.algebra import (
    Aggregate,
    AggSpec,
    ArrayFilter,
    ArrayJoin,
    Derive,
    Filter,
    Join,
    Project,
    RelVar,
    Relation,
    Schema,
    SchemaError,
    output_schema,
    replace_at,
    walk,
)
from a3d.functions import ScalarFn
from a3d.planner import MODES, OracleLimitError, optimize
from a3d.predicates import And, Apply, Cmp, Col, Lit, Not, Or
from a3d.stats import (
    ArrayInfo,
    ArrayStats,
    CostModel,
    DEFAULT_EQ_SELECTIVITY,
    DEFAULT_RANGE_SELECTIVITY,
    ScalarStats,
    TableStats,
    build_scalar_stats,
    build_table_stats,
    join_cost,
    join_divisor,
    key_ndvs,
    pred_selectivity,
)

from gen_utils import (
    default_relation, inner_query, random_pred, random_query, random_term,
)


############################################################
# statistics construction
############################################################

def test_exact_stats_small_domain():
    st = build_scalar_stats([1, 1, 2, None, 3, 1], 6)
    assert st.kind == "exact"
    assert st.ndv == 3
    assert st.null_fraction == pytest.approx(1 / 6)
    freqs = dict(st.freqs)
    assert freqs[1] == pytest.approx(3 / 6)
    assert sum(freqs.values()) == pytest.approx(1 - st.null_fraction)


def test_uniform_stats_flat_frequencies():
    values = list(range(100)) * 2  # 100 distinct, all with count 2, CV = 0
    st = build_scalar_stats(values, len(values))
    assert st.kind == "uniform"
    assert st.ndv == 100
    assert (st.lo, st.hi) == (0, 99)


def test_text_high_ndv_falls_back_to_uniform():
    rng = random.Random(3)
    values = ["w%d" % i for i in range(80) for _ in range(rng.randint(1, 6))]
    st = build_scalar_stats(values, len(values))
    assert st.kind == "uniform"
    assert not st.numeric
    assert st.lo is None


def test_clustered_stats_deterministic_and_sane():
    rng = random.Random(11)
    values = []
    for _ in range(500):
        if rng.random() < 0.7:
            values.append(rng.randrange(0, 80))
        else:
            values.append(rng.randrange(900, 1000))
    st1 = build_scalar_stats(values, len(values))
    st2 = build_scalar_stats(list(values), len(values))
    assert st1 == st2  # byte-for-byte deterministic
    assert st1.kind == "clustered"
    assert 1 <= len(st1.clusters) <= 16
    total_weight = sum(w for _, _, w, _ in st1.clusters)
    assert total_weight == pytest.approx(1.0)
    assert sum(n for _, _, _, n in st1.clusters) == st1.ndv
    # the two modes end up in disjoint clusters
    assert all(hi <= 80 or lo >= 900 for lo, hi, _, _ in st1.clusters)


def test_array_stats_average_over_all_rows():
    rel = Relation.build(
        Schema.of((), ("a",)),
        [{"a": (1, 2, 3, 4)}, {"a": ()}, {"a": (5, 6)}, {"a": ()}],
    )
    ts = build_table_stats(rel)
    ast = ts.arrays["a"]
    assert ast.avg_len == pytest.approx(6 / 4)   # empties included
    assert ast.empty_fraction == pytest.approx(0.5)
    assert ast.elem is not None and ast.elem.ndv == 6


############################################################
# selectivity
############################################################

def test_exact_eq_and_range_selectivity():
    st = build_scalar_stats([1, 1, 2, 3], 4)
    stats = {"x": st}
    assert pred_selectivity(Cmp("=", Col("x"), Lit(1)), stats, {}) == pytest.approx(0.5)
    assert pred_selectivity(Cmp("=", Col("x"), Lit(9)), stats, {}) == 0.0
    assert pred_selectivity(Cmp("<", Col("x"), Lit(3)), stats, {}) == pytest.approx(0.75)
    assert pred_selectivity(Cmp("!=", Col("x"), Lit(2)), stats, {}) == pytest.approx(0.75)


def test_uniform_range_interpolation():
    st = ScalarStats("uniform", 100, 0.0, lo=0, hi=100)
    stats = {"x": st}
    assert pred_selectivity(Cmp("<", Col("x"), Lit(25)), stats, {}) == pytest.approx(0.25)
    assert pred_selectivity(Cmp(">=", Col("x"), Lit(25)), stats, {}) == pytest.approx(0.75)
    assert pred_selectivity(Cmp("=", Col("x"), Lit(7)), stats, {}) == pytest.approx(0.01)


def test_null_literal_matches_nothing():
    st = build_scalar_stats([1, 2], 2)
    stats = {"x": st}
    assert pred_selectivity(Cmp("=", Col("x"), Lit(None)), stats, {}) == 0.0


def test_boolean_combinators():
    st = ScalarStats("uniform", 10, 0.0, lo=0, hi=10)
    stats = {"x": st, "y": st}
    p = Cmp("=", Col("x"), Lit(1))     # 0.1
    q = Cmp("<", Col("y"), Lit(5))     # 0.5
    assert pred_selectivity(And((p, q)), stats, {}) == pytest.approx(0.05)
    assert pred_selectivity(Or((p, q)), stats, {}) == pytest.approx(1 - 0.9 * 0.5)
    assert pred_selectivity(Not(q), stats, {}) == pytest.approx(0.5)


def test_defaults_when_stats_missing():
    assert pred_selectivity(Cmp("=", Col("x"), Lit(1)), {}, {}) == DEFAULT_EQ_SELECTIVITY
    assert pred_selectivity(Cmp("<", Col("x"), Lit(1)), {}, {}) == DEFAULT_RANGE_SELECTIVITY
    assert pred_selectivity(Cmp("=", Col("x"), Col("y")), {}, {}) == DEFAULT_EQ_SELECTIVITY


def test_empty_array_comparison_uses_empty_fraction():
    info = {"a": ArrayInfo(4.0, 4.0, 0.3, None)}
    assert pred_selectivity(Cmp("!=", Col("a"), Lit(())), {}, info) == pytest.approx(0.7)
    assert pred_selectivity(Cmp("=", Col("a"), Lit(())), {}, info) == pytest.approx(0.3)


def test_affine_comparison_estimated_through_inverse():
    st = ScalarStats("uniform", 100, 0.0, lo=-50, hi=50)
    stats = {"x": st}
    # 3 - x < 15  <=>  x > -12
    fn = ScalarFn.of("affine", a=-1, b=3)
    sel = pred_selectivity(Cmp("<", Apply(fn, (Col("x"),)), Lit(15)), stats, {})
    direct = pred_selectivity(Cmp(">", Col("x"), Lit(-12)), stats, {})
    assert sel == pytest.approx(direct)
    assert sel == pytest.approx(62 / 100)


############################################################
# cost model pins (hand-derived)
############################################################

def _fixture_model():
    schema = Schema.of(scalars=("x", "k"), arrays=("a",))
    elem = ScalarStats("uniform", 20, 0.0, lo=0, hi=20)
    ts = TableStats(
        rows=100,
        scalars={
            "x": ScalarStats("uniform", 50, 0.0, lo=0, hi=50),
            "k": ScalarStats("uniform", 10, 0.0, lo=0, hi=10),
        },
        arrays={"a": ArrayStats(4.0, 0.25, elem)},
    )
    return CostModel({"R": ts}, {"R": schema})


def test_base_and_filter_cost():
    cm = _fixture_model()
    res = cm.term_cost(Filter(Cmp("<", Col("x"), Lit(25)), RelVar("R")))
    # scan 100 + filter 100; selectivity 0.5
    assert res.cost == pytest.approx(200.0)
    assert res.state.rows == pytest.approx(50.0)


def test_array_join_cost_and_expansion():
    cm = _fixture_model()
    res = cm.term_cost(ArrayJoin((("a", "e"),), RelVar("R")))
    assert res.cost == pytest.approx(100 + 4.0 * 100)
    assert res.state.rows == pytest.approx(400.0)
    # unnested alias inherits element statistics
    assert res.state.scalar_stats["e"].ndv == 20


def test_array_filter_thins_lengths_not_rows():
    cm = _fixture_model()
    pred = Cmp("<", Col("e"), Lit(5))  # elements uniform over [0,20): 0.25
    res = cm.term_cost(ArrayFilter((("a", "e"),), pred, RelVar("R")))
    assert res.cost == pytest.approx(100 + 4.0 * 100)
    assert res.state.rows == pytest.approx(100.0)
    assert res.state.array_info["e"].length == pytest.approx(1.0)


def test_empty_prune_filter_keeps_length():
    # the a != [] guard: rows scale by 1 - ef, lengths are left alone
    cm = _fixture_model()
    res = cm.term_cost(Filter(Cmp("!=", Col("a"), Lit(())), RelVar("R")))
    assert res.state.rows == pytest.approx(75.0)
    assert res.state.array_info["a"].length == pytest.approx(4.0)


def test_repeated_emptiness_guard_has_selectivity_one():
    cm = _fixture_model()
    guard = Cmp("!=", Col("a"), Lit(()))
    once = cm.term_cost(Filter(guard, RelVar("R")))
    twice = cm.term_cost(Filter(guard, Filter(guard, RelVar("R"))))
    assert once.state.array_info["a"].empty_fraction == 0.0
    assert twice.state.rows == pytest.approx(once.state.rows)
    assert twice.cost == pytest.approx(once.cost + once.state.rows)


def test_emptiness_test_and_guard_leave_no_rows_in_either_order():
    cm = _fixture_model()
    empty = Cmp("=", Col("a"), Lit(()))
    guard = Cmp("!=", Col("a"), Lit(()))
    guard_first = Filter(empty, Filter(guard, RelVar("R")))
    empty_first = Filter(guard, Filter(empty, RelVar("R")))
    r1, r2 = cm.term_cost(guard_first), cm.term_cost(empty_first)
    assert cm.term_cost(Filter(empty, RelVar("R"))).state \
        .array_info["a"].empty_fraction == 1.0
    assert r1.state.rows == r2.state.rows == 0.0
    # each filter is charged its input rows: scan 100, the first filter
    # 100, the second the 75 (guard first) or 25 (empty test first)
    # rows the first one lets through
    assert r1.cost == pytest.approx(100 + 100 + 75)
    assert r2.cost == pytest.approx(100 + 100 + 25)
    # so what runs above the pair costs the same in both orders: nothing
    for top in (lambda t: ArrayJoin((("a", "e"),), t),
                lambda t: Filter(Cmp("<", Col("x"), Lit(25)), t)):
        assert cm.term_cost(top(guard_first)).cost - r1.cost == 0.0
        assert cm.term_cost(top(empty_first)).cost - r2.cost == 0.0


def test_term_cost_equal_for_equal_terms_and_repeated_calls():
    cm = _fixture_model()

    def build():
        return Filter(Cmp("<", Col("x"), Lit(25)),
                      ArrayJoin((("a", "e"),), RelVar("R")))

    t1, t2 = build(), build()
    assert t1 == t2 and t1 is not t2
    first = cm.term_cost(t1)
    assert cm.term_cost(t1) == first
    assert cm.term_cost(t2) == first
    # cost other terms in between, then cost both again
    for other in (RelVar("R"), Project(("x",), RelVar("R")), build()):
        cm.term_cost(other)
    assert cm.term_cost(t1) == first
    assert cm.term_cost(t2) == first
    assert CostModel(cm.stats, cm.schemas).term_cost(t2) == first


def test_join_cost_formula():
    cm_schema = Schema.of(scalars=("k", "u"), arrays=())
    cm_schema2 = Schema.of(scalars=("k", "v"), arrays=())
    ts1 = TableStats(100, {"k": ScalarStats("uniform", 20, 0.0, lo=0, hi=20),
                           "u": ScalarStats("uniform", 5, 0.0, lo=0, hi=5)}, {})
    ts2 = TableStats(50, {"k": ScalarStats("uniform", 10, 0.0, lo=0, hi=10),
                          "v": ScalarStats("uniform", 5, 0.0, lo=0, hi=5)}, {})
    cm = CostModel({"A": ts1, "B": ts2}, {"A": cm_schema, "B": cm_schema2})
    res = cm.term_cost(Join(RelVar("A"), RelVar("B")))
    out_rows = 100 * 50 / 20  # divisor: max ndv over the shared key
    assert res.state.rows == pytest.approx(out_rows)
    assert res.cost == pytest.approx(100 + 50 + (100 + 50 + out_rows))


def test_aggregate_selectivity_is_position_independent():
    cm = _fixture_model()
    agg = Aggregate(("k",), (AggSpec("sum", "x", "s"),), RelVar("R"))
    direct = cm.term_cost(agg)
    # rows_unf stays 100 whether or not a filter ran first
    assert direct.state.rows == pytest.approx(100 * (10 / 100))
    filtered = cm.term_cost(
        Aggregate(("k",), (AggSpec("sum", "x", "s"),),
                  Filter(Cmp("<", Col("x"), Lit(25)), RelVar("R"))))
    assert filtered.state.rows == pytest.approx(50 * (10 / 100))


def test_state_is_order_independent_costs_are_not():
    cm = _fixture_model()
    f = Cmp("<", Col("x"), Lit(25))
    phi = (("a", "e"),)
    ep = Cmp("<", Col("e"), Lit(5))
    t1 = ArrayFilter(phi, ep, Filter(f, RelVar("R")))
    t2 = Filter(f, ArrayFilter(phi, ep, RelVar("R")))
    r1, r2 = cm.term_cost(t1), cm.term_cost(t2)
    assert r1.state == r2.state
    assert r1.cost < r2.cost  # filter first: the arrayFilter scans fewer rows


def test_project_is_free_and_trims_state():
    cm = _fixture_model()
    res = cm.term_cost(Project(("x",), RelVar("R")))
    assert res.cost == pytest.approx(100.0)
    assert "a" not in res.state.array_info and "k" not in res.state.scalar_stats


def test_map_derive_cost_and_new_array():
    cm = _fixture_model()
    res = cm.term_cost(Derive("b", ScalarFn.of("neg"), ("a",), RelVar("R"),
                              is_map=True))
    assert res.cost == pytest.approx(100 + 4.0 * 100)
    assert res.state.array_info["b"].length == pytest.approx(4.0)
    # identity map copies element stats; other functions do not
    res2 = cm.term_cost(Derive("b", ScalarFn.of("identity"), ("a",),
                               RelVar("R"), is_map=True))
    assert res2.state.array_info["b"].elem is not None
    assert res.state.array_info["b"].elem is None
    # a map that overwrites a scalar column leaves no scalar statistics
    over = cm.term_cost(Derive("x", ScalarFn.of("neg"), ("a",), RelVar("R"),
                               is_map=True))
    assert "x" in over.state.array_info and "x" not in over.state.scalar_stats


def test_scalar_derive_costs_one_per_row():
    cm = _fixture_model()
    res = cm.term_cost(Derive("y", ScalarFn.of("neg"), ("x",), RelVar("R")))
    assert res.cost == pytest.approx(200.0)
    assert "y" in res.state.scalar_stats


def test_fold_derive_costs_array_length():
    cm = _fixture_model()
    res = cm.term_cost(Derive("s", ScalarFn.of("arraySum"), ("a",), RelVar("R")))
    assert res.cost == pytest.approx(100 + 4.0 * 100)
    assert "s" in res.state.scalar_stats and "s" not in res.state.array_info


def test_op_effect_shares_the_dicts_a_node_leaves_unchanged():
    # states are read-only, so an operator that leaves the scalar
    # statistics or the array infos as they are hands its input's dict on
    cm = _fixture_model()
    state = cm.base_state("R")
    _, out = cm.op_effect(Filter(Cmp("<", Col("x"), Lit(25)), RelVar("R")),
                          state)
    assert out.scalar_stats is state.scalar_stats
    assert out.array_info is state.array_info
    _, out = cm.op_effect(Derive("y", ScalarFn.of("neg"), ("x",), RelVar("R")),
                          state)
    assert set(out.scalar_stats) == {"x", "k", "y"}
    assert out.array_info is state.array_info
    _, out = cm.op_effect(Derive("b", ScalarFn.of("neg"), ("a",), RelVar("R"),
                                 is_map=True), state)
    assert set(out.array_info) == {"a", "b"}
    assert out.scalar_stats is state.scalar_stats
    elems = ArrayFilter((("a", "e"),), Cmp("<", Col("e"), Lit(5)), RelVar("R"))
    _, out = cm.op_effect(elems, state)
    assert set(out.array_info) == {"e"}
    assert out.scalar_stats is state.scalar_stats
    assert set(state.scalar_stats) == {"x", "k"}
    assert set(state.array_info) == {"a"}


############################################################
# plan state and schema agree
############################################################

@pytest.mark.parametrize("corpus", ["random", "inner"])
def test_fold_state_keys_are_the_schema_columns(corpus, monkeypatch):
    # at every node CostModel.fold visits while planning the corpus in
    # every mode, the state tracks exactly the schema's scalars and arrays
    gen, seeds = {"random": (random_query, range(1200)),
                  "inner": (inner_query, range(6000, 7000))}[corpus]
    real = CostModel.fold
    folds, mismatched = [0], []

    def checking(self, term, known):
        res = real(self, term, known)
        _, state, schema = res
        folds[0] += 1
        if set(state.scalar_stats) != schema.scalars or \
                set(state.array_info) != schema.arrays:
            mismatched.append(term)
        return res

    monkeypatch.setattr(CostModel, "fold", checking)
    for seed in seeds:
        term, schemas, stats = gen(seed)
        for mode in MODES:
            try:
                optimize(term, schemas, stats=stats, mode=mode)
            except OracleLimitError:
                assert mode == "oracle"
    assert folds[0] and mismatched == []


############################################################
# premises of the enumerator's dominance pruning
############################################################

@pytest.fixture(scope="module")
def planned_effects():
    """The (cost model, node, input state) of every ``op_effect`` call,
    and the (left rows, right rows, divisor) of every ``join_cost`` call,
    made while planning 300 random queries in enumerate and oracle mode
    (statistics on odd seeds)."""
    effects, joins = [], []
    real_effect = CostModel.op_effect
    real_join_effect = CostModel.join_effect

    def op_effect(self, node, state):
        effects.append((self, node, state))
        return real_effect(self, node, state)

    def join_effect(self, left, right, shared, div=None):
        if div is None:
            div = join_divisor(key_ndvs(left, shared),
                               key_ndvs(right, shared))
        joins.append((left.rows, right.rows, div))
        return real_join_effect(self, left, right, shared, div)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CostModel, "op_effect", op_effect)
        mp.setattr(CostModel, "join_effect", join_effect)
        for seed in range(300):
            term, schemas, stats = random_query(seed)
            for mode in ("enumerate", "oracle"):
                try:
                    optimize(term, schemas, stats=stats, mode=mode)
                except OracleLimitError:
                    pass
    kinds = {type(node) for _, node, _ in effects}
    assert {Filter, ArrayFilter, ArrayJoin, Derive, Aggregate} <= kinds
    assert joins
    return effects, joins


def _is_emptiness_test(pred):
    return isinstance(pred, Cmp) and pred.op in ("=", "!=") \
        and pred.rhs == Lit(())


def test_a_filter_only_scales_rows(planned_effects):
    # a row filter never raises rows and leaves rows_unf and the scalar
    # statistics as they are; the array infos too, but for the empty
    # fraction of the column an emptiness test reads
    effects, _ = planned_effects
    filters = 0
    for cm, node, state in effects:
        if type(node) is not Filter:
            continue
        filters += 1
        _, out = cm.op_effect(node, state)
        assert out.rows <= state.rows
        assert out.rows_unf == state.rows_unf
        assert out.scalar_stats == state.scalar_stats
        if not _is_emptiness_test(node.pred):
            assert out.array_info == state.array_info
            continue
        col = node.pred.lhs.name
        assert out.array_info.keys() == state.array_info.keys()
        for c, info in state.array_info.items():
            if c != col:
                assert out.array_info[c] == info
            else:
                assert dataclasses.replace(
                    out.array_info[c],
                    empty_fraction=info.empty_fraction) == info
    assert filters > 100


def test_a_filter_selectivity_does_not_read_rows(planned_effects):
    # the rows a filter lets through are its input rows times a factor
    # that is the same for every input row count
    effects, _ = planned_effects
    for cm, node, state in effects:
        if type(node) is not Filter:
            continue
        _, unit = cm.op_effect(node, dataclasses.replace(state, rows=1.0))
        for rows in (0.0, 0.5, state.rows, 3.0 * state.rows + 7.0):
            _, out = cm.op_effect(node, dataclasses.replace(state, rows=rows))
            assert out == dataclasses.replace(unit, rows=rows * unit.rows)


def test_costs_never_fall_when_rows_grow(planned_effects):
    # every operator's cost and output rows, and a join's cost, are
    # non-decreasing in the input rows: a plan with fewer rows never
    # pays more for what runs above it
    effects, joins = planned_effects
    for cm, node, state in effects:
        cost, out = cm.op_effect(node, state)
        for more in (state.rows * 1.5, state.rows + 1.0, state.rows * 10.0):
            more_cost, more_out = cm.op_effect(
                node, dataclasses.replace(state, rows=more))
            assert more_cost >= cost, node
            assert more_out.rows >= out.rows, node
    for left, right, div in joins:
        cost = join_cost(left, right, div)
        for grow in (1.5, 10.0):
            assert join_cost(left * grow, right, div) >= cost
            assert join_cost(left, right * grow, div) >= cost


############################################################
# metamorphic checks: equivalent plans get equal states
############################################################

# statistics from build_table_stats on odd seeds, none on even ones
METAMORPHIC_SEEDS = range(600)


def _metamorphic_query(seed, nrel):
    """(rng, cost model, column types, leaf terms) of a seeded query: one
    ``random_term`` per relation over `nrel` relations that share the
    never-null key ``k`` when there are several."""
    rng = random.Random(seed)
    rels = [default_relation(rng, "r%d" % i, with_key=nrel > 1, min_rows=1)
            for i in range(nrel)]
    leaves = [random_term(rng, [tr], n_ops=rng.randint(0, 3)) for tr in rels]
    schemas = {tr.name: tr.schema for tr in rels}
    stats = {tr.name: build_table_stats(tr.relation) for tr in rels} \
        if seed % 2 else {}
    types = {c: t for tr in rels for c, t in tr.types.items()}
    return rng, CostModel(stats, schemas), types, leaves


def _close(a, b):
    return abs(a - b) <= 1e-9 * max(abs(a), abs(b))


def _assert_equal_statistics(s1, s2):
    assert s1.scalar_stats == s2.scalar_stats
    assert s1.array_info == s2.array_info
    assert _close(s1.rows, s2.rows) and _close(s1.rows_unf, s2.rows_unf)


def _swapped(term):
    """Every term that swaps the inputs of one join of `term`."""
    for path, node in walk(term):
        if isinstance(node, Join):
            yield replace_at(term, path, Join(node.right, node.left))


@pytest.mark.parametrize("nrel", (2, 3))
def test_joins_give_one_state_in_every_order(nrel):
    # the joins of two or three leaves, each leaf a random term over its
    # relation: swapping one join's inputs gives an equal state, and every
    # association gives equal statistics, rows up to rounding
    checked = 0
    for seed in METAMORPHIC_SEEDS:
        _, cm, _, leaves = _metamorphic_query(seed, nrel)
        shapes = [Join(*leaves)] if nrel == 2 else \
            [Join(Join(a, b), c) for a, b, c in
             itertools.permutations(leaves)] + \
            [Join(a, Join(b, c)) for a, b, c in
             itertools.permutations(leaves)]
        try:
            first = cm.term_cost(shapes[0]).state
        except SchemaError:
            continue    # two leaves derived one column name in two kinds
        for shape in shapes:
            state = cm.term_cost(shape).state
            _assert_equal_statistics(state, first)
            for swapped in _swapped(shape):
                assert cm.term_cost(swapped).state == state
        checked += 1
    assert checked > 300


def _random_filter(rng, term, schemas, types):
    """A filter over `term`'s columns of known type, None when there is
    no such scalar column."""
    schema = output_schema(term, schemas)
    scalars = sorted(c for c in schema.scalars if c in types)
    if not scalars:
        return None
    return random_pred(rng, scalars, types, array_cols=sorted(schema.arrays))


def _opposite_emptiness_tests(p1, p2):
    """Whether `p1` and `p2` are  c != []  and  c = []  on one column."""
    return _is_emptiness_test(p1) and _is_emptiness_test(p2) \
        and p1.lhs == p2.lhs and p1.op != p2.op


@pytest.mark.parametrize("nrel", (1, 2, 3))
def test_filters_give_one_state_in_either_order_and_never_add_rows(nrel):
    # two random filters put in either order at a random node of a random
    # term give the root equal statistics, rows up to rounding; and
    # putting one there never raises the root's rows
    checked = 0
    for seed in METAMORPHIC_SEEDS:
        rng, cm, types, leaves = _metamorphic_query(seed, nrel)
        term = leaves[0]
        for leaf in leaves[1:]:
            term = Join(term, leaf)
        try:
            base = cm.term_cost(term).state
        except SchemaError:
            continue    # two leaves derived one column name in two kinds
        path, node = rng.choice(list(walk(term)))
        p1 = _random_filter(rng, node, cm.schemas, types)
        p2 = _random_filter(rng, node, cm.schemas, types)
        if p1 is None:
            continue
        one = cm.term_cost(replace_at(term, path, Filter(p1, node))).state
        assert one.rows <= base.rows
        s12 = cm.term_cost(replace_at(
            term, path, Filter(p1, Filter(p2, node)))).state
        s21 = cm.term_cost(replace_at(
            term, path, Filter(p2, Filter(p1, node)))).state
        assert s12.rows <= one.rows
        if _opposite_emptiness_tests(p1, p2):
            # both orders leave 0 rows, and only the empty fraction of the
            # filter applied last differs: every cost above reads rows, so
            # none can differ (test_emptiness_test_and_guard_leave_no_rows_
            # in_either_order)
            assert s12.rows == s21.rows == 0.0
            continue
        _assert_equal_statistics(s12, s21)
        checked += 1
    assert checked > 300
