"""Planner pipeline: decomposition, scheduling, enumeration, modes.

Structure pins are hand-derived from the cost formulas; optimality claims
are checked against independent brute-force baselines written here (full
permutation loops, the exhaustive `oracle` mode), and every stage is
required to preserve evaluation results on randomized queries.  [DERIVED]
"""

import collections
import dataclasses
import gc
import importlib.util
import itertools
import random
from pathlib import Path

import pytest

from a3d.algebra import (
    A3DError,
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
    children,
    evaluate,
    output_schema,
    walk,
)
from a3d.functions import ScalarFn
from a3d.predicates import And, Cmp, Col, Lit, split_conjuncts
from a3d.planner import (
    DisconnectedJoinGraphError,
    FixpointCapError,
    InfeasibleQueryError,
    JoinEdge,
    MalformedQueryError,
    OpProfile,
    OracleLimitError,
    QueryDecomposition,
    RankableOp,
    build_precedence,
    collapse_idempotent_reaggregation,
    decompose,
    enumerate_plans,
    leq,
    optimize,
    optimize_greedy,
    oracle_enumerate,
    postprocess,
    precedence_for,
    preprocess,
    sort_ops,
)
from a3d import planner
from a3d.planner import enumeration
from a3d.planner.enumeration import Enumerator, MemoEntry, join_entries
from a3d.planner.precedence import find_n_structure, sp_tree
from a3d import rewrite
from a3d.rewrite import RuleContext
from a3d.stats import (
    DEFAULT_JOIN_NDV, ArrayStats, CostModel, ScalarStats, TableStats,
    build_table_stats, join_cost,
)
from a3d.testkit import ScalarColumn, make_pattern, pattern_schemas

from gen_utils import (
    default_relation, inner_query, random_query, random_term,
    with_inner_project,
)
from naive_interp import naive_eval, rows_equal_bag

# the stage modules, whose names the package gives to its functions
greedy_stage = importlib.import_module("a3d.planner.greedy")
postprocess_stage = importlib.import_module("a3d.planner.postprocess")


############################################################
# fixtures
############################################################

def _uniform(ndv, lo=0, hi=None):
    return ScalarStats("uniform", ndv, 0.0, lo=lo, hi=hi if hi is not None
                       else lo + ndv)


def one_rel_model(arrays=("a",), avg_len=4.0, ef=0.0):
    """R(u0..u2, k, arrays...) with uniform stats, 100 rows."""
    scalars = ("u0", "u1", "u2", "k")
    schema = Schema.of(scalars=scalars, arrays=tuple(arrays))
    ts = TableStats(
        rows=100,
        scalars={c: _uniform(100, 0, 100) for c in scalars},
        arrays={a: ArrayStats(avg_len, ef, _uniform(20, 0, 20))
                for a in arrays},
    )
    return CostModel({"R": ts}, {"R": schema})


def two_rel_model(rows_l=1000, rows_r=10, ndv_k=10):
    sl = Schema.of(scalars=("k", "x"), arrays=())
    sr = Schema.of(scalars=("k", "y"), arrays=())
    tl = TableStats(rows_l, {"k": _uniform(ndv_k, 0, ndv_k),
                             "x": _uniform(100, 0, 100)}, {})
    tr = TableStats(rows_r, {"k": _uniform(ndv_k, 0, ndv_k),
                             "y": _uniform(100, 0, 100)}, {})
    return CostModel({"L": tl, "R": tr}, {"L": sl, "R": sr})


def ctx_for(cm):
    return RuleContext(cm)


def lt(col, c):
    return Cmp("<", Col(col), Lit(c))


############################################################
# decomposition
############################################################

def test_decompose_collects_ops_and_edges():
    cm = two_rel_model()
    term = Filter(lt("x", 50), Join(RelVar("L"), RelVar("R")))
    d = decompose(term, cm)
    assert [name for name, _ in d.leaves] == ["L", "R"]
    assert len(d.edges) == 1
    e = d.edges[0]
    assert e.col == "k" and e.producers == frozenset()
    assert [op.kind for op in d.ops] == ["filter"]
    assert d.ops[0].requires == frozenset({"x"})
    assert d.ops[0].base_rels == frozenset({0})
    assert d.source is term


def test_decompose_derive_then_filter_precedence_edge():
    cm = one_rel_model()
    term = Filter(lt("y", 10), Derive("y", ScalarFn.of("neg"), ("u0",),
                                      RelVar("R")))
    d = decompose(term, cm)
    kinds = {op.idx: op.kind for op in d.ops}
    producer = next(i for i, k in kinds.items() if k == "derive")
    consumer = next(i for i, k in kinds.items() if k == "filter")
    assert (producer, consumer) in d.prec_edges


def test_decompose_derived_join_key_records_producer():
    sl = Schema.of(scalars=("x", "u"), arrays=())
    sr = Schema.of(scalars=("j", "v"), arrays=())
    cm = CostModel({}, {"L": sl, "R": sr})
    term = Join(Derive("j", ScalarFn.of("neg"), ("x",), RelVar("L")),
                RelVar("R"))
    d = decompose(term, cm)
    assert len(d.edges) == 1
    e = d.edges[0]
    assert e.col == "j"
    didx = next(op.idx for op in d.ops if op.kind == "derive")
    assert e.producers == frozenset({didx})


def test_decompose_keeps_column_creators_above_an_aggregate():
    # the derive reads only a group key, but below the aggregate its output
    # would be dropped; a filter creates nothing and may move freely
    cm = one_rel_model()
    agg = Aggregate(("k",), (AggSpec("sum", "u0", "s"),), RelVar("R"))
    term = Filter(lt("k", 5), Derive("v", ScalarFn.of("neg"), ("k",), agg))
    d = decompose(term, cm)
    idx = {op.kind: op.idx for op in d.ops}
    assert (idx["aggregate"], idx["derive"]) in d.prec_edges
    assert (idx["aggregate"], idx["filter"]) not in d.prec_edges
    for mode in ("enumerate", "oracle"):
        res = optimize(term, cm.schemas, stats=cm.stats, mode=mode)
        assert output_schema(res.term, cm.schemas) == \
            output_schema(term, cm.schemas)


def _destroys_queries():
    """(name, term, schemas, statistics): patterns A and B, then the
    first 200 queries of the random and inner corpora."""
    for kind in "AB":
        for n in (1, 2, 3, 5, 8, 13, 24):
            yield f"{kind}{n}", make_pattern(kind, n), \
                pattern_schemas(kind, n), None
    for seed in range(200):
        yield (f"random/{seed}", *random_query(seed))
    for seed in range(6000, 6200):
        yield (f"inner/{seed}", *inner_query(seed))


def test_decompose_destroys_what_the_schema_step_removes():
    # an operator destroys the input columns its output lacks and the
    # input columns it writes anew, read off the schemas of its original
    # input and output subterms
    for name, term, schemas, stats in _destroys_queries():
        cm = CostModel(dict(stats or {}), dict(schemas))
        d = decompose(preprocess(term, RuleContext(cm)), cm)
        for op in d.ops:
            cols_in = output_schema(op.node.child, schemas).columns
            cols_out = output_schema(op.node, schemas).columns
            assert op.destroys == (cols_in - cols_out) | \
                (op.produces & cols_in), (name, op.idx)


def test_decompose_strips_top_projection():
    cm = one_rel_model()
    term = Project(("u0",), Filter(lt("u0", 10), RelVar("R")))
    d = decompose(term, cm)
    assert d.had_top_project and d.out_cols == ("u0",)
    assert [op.kind for op in d.ops] == ["filter"]


def test_kept_inner_projection_is_an_opaque_leaf():
    # dropping x on the left takes it out of the join key, so the pull-up
    # keeps the projection and decomposition treats it as one leaf
    schemas = {"L": Schema.of(scalars=("k", "x", "a")),
               "R": Schema.of(scalars=("k", "x", "b"))}
    db = {"L": Relation.build(schemas["L"], [
              {"k": k, "x": x, "a": k + x} for k in range(3)
              for x in range(2)]),
          "R": Relation.build(schemas["R"], [
              {"k": k % 3, "x": 1 - k % 2, "b": k} for k in range(5)])}
    inner = Project(("a", "k"), RelVar("L"))
    term = Filter(lt("b", 3), Filter(lt("a", 2), Join(inner, RelVar("R"))))
    cm = CostModel({}, schemas)
    d = decompose(preprocess(term, RuleContext(cm)), cm)
    assert [t for name, t in d.leaves if name.startswith("~")] == [inner]
    want = list(evaluate(term, db).rows)
    assert want
    for mode in planner.MODES:
        res = optimize(term, schemas, mode=mode)
        assert rows_equal_bag(want, list(evaluate(res.term, db).rows)), mode


############################################################
# precedence graphs
############################################################

def test_precedence_cycle_is_malformed():
    with pytest.raises(MalformedQueryError):
        build_precedence(2, [(0, 1), (1, 0)])


def test_precedence_transitive_closure():
    g = build_precedence(3, [(0, 1), (1, 2)])
    assert g.before(0, 2) and g.before(0, 1) and g.before(1, 2)
    assert not g.before(2, 0)


def sequence_cost(cost_model, state, nodes) -> float:
    """Cost of applying unary operator nodes in order over `state`."""
    total = 0.0
    for node in nodes:
        cost, state = cost_model.op_effect(node, state)
        total += cost
    return total


def _has_induced_n(graph):
    """Independent N-shape scan over the closed order (quartic, test-only)."""
    n = graph.n
    for a, b, c, d in itertools.permutations(range(n), 4):
        if (graph.before(a, c) and graph.before(b, c) and graph.before(b, d)
                and not graph.comparable(a, b)
                and not graph.comparable(c, d)
                and not graph.comparable(a, d)):
            return True
    return False


def test_z_repair_yields_series_parallel():
    # a < c, b < c, b < d is the forbidden N; prefer lower index first
    g = build_precedence(4, [(0, 2), (1, 2), (1, 3)], leq=lambda i, j: i <= j)
    assert find_n_structure(g) is None
    assert not _has_induced_n(g)
    assert g.added == [(0, 1)]          # oriented by the preference
    # the original comparabilities survive
    for i, j in [(0, 2), (1, 2), (1, 3)]:
        assert g.before(i, j)
    sp_tree(g)                          # decomposable without error


def test_z_repair_orientation_respects_preference():
    g = build_precedence(4, [(0, 2), (1, 2), (1, 3)], leq=lambda i, j: i >= j)
    assert g.added == [(1, 0)]
    assert not _has_induced_n(g)


@pytest.mark.parametrize("seed", range(12))
def test_z_repair_random_dags(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 8)
    edges = set()
    for _ in range(rng.randint(2, n * 2)):
        i, j = rng.sample(range(n), 2)
        edges.add((min(i, j), max(i, j)))   # forward edges: always acyclic
    g = build_precedence(n, sorted(edges), leq=lambda i, j: i <= j)
    assert not _has_induced_n(g)
    for i, j in edges:
        assert g.before(i, j)
    sp_tree(g)


def _pairwise_n_structure(graph):
    """``find_n_structure`` as a scan of every ordered pair (c, d)."""
    n, succ, pred = graph.n, graph.succ, graph.pred
    full = (1 << n) - 1
    for c in range(n):
        for d in range(n):
            if c == d or graph.comparable(c, d):
                continue
            both = pred[c] & pred[d]
            only_c = pred[c] & ~pred[d] & ~succ[d] & ~(1 << d) & full
            if not (both and only_c):
                continue
            for b in range(n):
                if not both >> b & 1:
                    continue
                free_a = only_c & ~pred[b] & ~succ[b] & ~(1 << b)
                if free_a:
                    a = (free_a & -free_a).bit_length() - 1
                    return a, b, c, d
    return None


def _chains_dag(rng, n):
    """Forward edges over `n` operators: short chains, as pattern A's
    unnest -> derive -> filter blocks, and a few edges across them."""
    edges, start = [], 0
    while start < n:
        end = min(n, start + rng.randint(1, 4))
        edges += [(i, i + 1) for i in range(start, end - 1)]
        start = end
    for _ in range(rng.randint(0, 4)):
        i, j = sorted(rng.sample(range(n), 2))
        edges.append((i, j))
    return edges


def test_find_n_structure_matches_the_pairwise_scan():
    # the same N, or None, as a scan of every pair, on closed random DAGs:
    # dense small ones, then sparse ones of many short chains, where most
    # operators incomparable to `c` share no predecessor with it
    rng = random.Random(7_001)
    found = 0
    for _ in range(600):
        n = rng.randint(2, 12)
        density = rng.choice((0.1, 0.2, 0.35, 0.6))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < density]
        perm = rng.sample(range(n), n)      # not only forward indices
        g = build_precedence(n, [(perm[i], perm[j]) for i, j in edges])
        want = _pairwise_n_structure(g)
        assert find_n_structure(g) == want, (n, edges, perm)
        found += want is not None
    assert 100 < found < 500
    found = 0
    for _ in range(120):
        n = rng.randint(20, 48)
        edges = _chains_dag(rng, n)
        perm = rng.sample(range(n), n)
        g = build_precedence(n, [(perm[i], perm[j]) for i, j in edges])
        want = _pairwise_n_structure(g)
        assert find_n_structure(g) == want, (n, edges, perm)
        found += want is not None
    assert 10 < found < 110


def test_sp_tree_shapes():
    chain = build_precedence(3, [(0, 1), (1, 2)])
    assert sp_tree(chain) == (
        "series", [("leaf", 0), ("series", [("leaf", 1), ("leaf", 2)])])
    free = build_precedence(2, [])
    assert sp_tree(free) == ("parallel", [("leaf", 0), ("leaf", 1)])


############################################################
# rank scheduling
############################################################

def _mk_op(idx, node, kind, requires, produces, s_row, c_t, h_sel=1.0,
           destroys=frozenset()):
    return RankableOp(idx, node, kind, frozenset(requires),
                      frozenset(produces), frozenset(destroys),
                      frozenset({0}), 0, OpProfile(s_row, c_t, h_sel))


def _filter_op(idx, col, sel):
    return _mk_op(idx, Filter(lt(col, 0), RelVar("_x")), "filter",
                  {col}, (), sel, 1.0)


def test_sort_independent_filters_descending_rank():
    # ranks: (1-s)/c = 0.8, 0.5, 0.1
    ops = (_filter_op(0, "u0", 0.5), _filter_op(1, "u1", 0.2),
           _filter_op(2, "u2", 0.9))
    g = build_precedence(3, [])
    assert [o.idx for o in sort_ops(ops, g)] == [1, 0, 2]


def test_filter_precedes_expanding_array_join():
    # arrayJoin over an 8-long array has vertical rank (1-8)/8 = -0.875;
    # any real filter outranks it
    aj = _mk_op(0, ArrayJoin((("a", "e"),), RelVar("_x")), "arrayJoin",
                {"a"}, {"e"}, 8.0, 8.0, destroys={"a"})
    f = _filter_op(1, "u0", 0.9)
    g = build_precedence(2, [])
    assert [o.idx for o in sort_ops((aj, f), g)] == [1, 0]


def test_chain_fusion_lifts_profitable_pair():
    # derive (s=1, c=1) -> filter (s=1/3): block rank (1-1/3)/(1+1) = 1/3
    # beats the weak independent filter's 0.1, so the chain jumps it.
    d = _mk_op(0, Derive("y", ScalarFn.of("neg"), ("u0",), RelVar("_x")),
               "derive", {"u0"}, {"y"}, 1.0, 1.0)
    dep = _filter_op(1, "y", 1 / 3)
    weak = _filter_op(2, "u1", 0.9)
    g = build_precedence(3, [(0, 1)])
    assert [o.idx for o in sort_ops((d, dep, weak), g)] == [0, 1, 2]
    # but a weak *chain* stays behind a strong independent filter
    dep2 = _filter_op(1, "y", 0.9)
    strong = _filter_op(2, "u1", 1 / 3)
    assert [o.idx for o in sort_ops((d, dep2, strong), g)] == [2, 0, 1]


def _term_of(ops, order):
    term = RelVar("R")
    for i in order:
        term = ops[i].apply(term)
    return term


def _op_pool(rng, cm):
    """Independent rankable ops over distinct columns of R."""
    pool = []
    cols = ["u0", "u1", "u2"]
    rng.shuffle(cols)
    arrays = ["a", "b", "c"]
    rng.shuffle(arrays)
    idx = 0
    for _ in range(rng.randint(3, 6)):
        pick = rng.random()
        if pick < 0.45 and cols:
            col = cols.pop()
            node = Filter(lt(col, rng.randrange(5, 100)), RelVar("_x"))
            pool.append((idx, node))
        elif pick < 0.65 and arrays:
            src = arrays.pop()
            node = ArrayJoin(((src, "e_" + src),), RelVar("_x"))
            pool.append((idx, node))
        elif pick < 0.85 and arrays:
            src = arrays.pop()
            node = ArrayFilter(((src, src),), lt(src, rng.randrange(2, 20)),
                               RelVar("_x"))
            pool.append((idx, node))
        elif cols:
            col = cols.pop()
            node = Derive("d_" + col, ScalarFn.of("neg"), (col,),
                          RelVar("_x"))
            pool.append((idx, node))
        else:
            continue
        idx += 1
    return pool


@pytest.mark.parametrize("seed", range(20))
def test_sort_ops_matches_exhaustive_minimum(seed):
    """On independent operators the scheduled order is a global optimum
    over every precedence-valid permutation (brute force <= 6! cases)."""
    rng = random.Random(seed)
    cm = one_rel_model(arrays=("a", "b", "c"),
                       avg_len=rng.choice((2.0, 4.0, 8.0)))
    pool = _op_pool(rng, cm)
    term = RelVar("R")
    for _, node in pool:
        if isinstance(node, Filter):
            term = Filter(node.pred, term)
        elif isinstance(node, ArrayJoin):
            term = ArrayJoin(node.targets, term)
        elif isinstance(node, ArrayFilter):
            term = ArrayFilter(node.targets, node.pred, term)
        else:
            term = Derive(node.output, node.fn, node.args, term)
    d = decompose(term, cm)
    graph = precedence_for(d)
    order = sort_ops(d.ops, graph)
    state = cm.base_state("R")
    got = sequence_cost(cm, state, [op.node for op in order])
    best = min(
        sequence_cost(cm, state, [d.ops[i].node for i in perm])
        for perm in itertools.permutations(range(len(d.ops)))
        if all(not graph.before(perm[b], perm[a])
               for a in range(len(perm)) for b in range(a + 1, len(perm))))
    assert got == pytest.approx(best, rel=1e-12)


@pytest.mark.parametrize("seed", range(30))
def test_adjacent_interchange_inequality(seed):
    """leq(i, j) implies swapping i before j never costs more, in any
    surrounding context (the pairwise-interchange property)."""
    rng = random.Random(1000 + seed)
    cm = one_rel_model(arrays=("a", "b", "c"),
                       avg_len=rng.choice((2.0, 3.0, 6.0)))
    pool = _op_pool(rng, cm)
    if len(pool) < 2:
        pytest.skip("degenerate pool")
    term = RelVar("R")
    for _, node in pool:
        if isinstance(node, Filter):
            term = Filter(node.pred, term)
        elif isinstance(node, ArrayJoin):
            term = ArrayJoin(node.targets, term)
        elif isinstance(node, ArrayFilter):
            term = ArrayFilter(node.targets, node.pred, term)
        else:
            term = Derive(node.output, node.fn, node.args, term)
    d = decompose(term, cm)
    ops = list(d.ops)
    rng.shuffle(ops)
    i, j = ops[0], ops[1]
    context = ops[2:]
    u = context[:len(context) // 2]
    v = context[len(context) // 2:]
    state = cm.base_state("R")
    for op in u:
        _, state = cm.op_effect(op.node, state)
    if not leq(i, j):
        i, j = j, i
    fwd = sequence_cost(cm, state, [i.node, j.node] + [o.node for o in v])
    rev = sequence_cost(cm, state, [j.node, i.node] + [o.node for o in v])
    assert fwd <= rev + 1e-9


############################################################
# join/operator enumeration
############################################################

def test_single_relation_filters_in_rank_order():
    cm = one_rel_model()
    # selectivities 0.1, 0.5, 0.9 -> apply u0 first (innermost)
    term = Filter(lt("u2", 90), Filter(lt("u1", 50),
                                       Filter(lt("u0", 10), RelVar("R"))))
    res = optimize(term, cm.schemas, stats=cm.stats)
    want = Filter(lt("u2", 90), Filter(lt("u1", 50),
                                       Filter(lt("u0", 10), RelVar("R"))))
    assert res.term == want
    # writing them in the worst order changes nothing
    worst = Filter(lt("u0", 10), Filter(lt("u1", 50),
                                        Filter(lt("u2", 90), RelVar("R"))))
    assert optimize(worst, cm.schemas, stats=cm.stats).term == want


def test_derived_join_key_is_planned_below_join():
    sl = Schema.of(scalars=("x", "u"), arrays=())
    sr = Schema.of(scalars=("j", "v"), arrays=())
    schemas = {"L": sl, "R": sr}
    term = Join(Derive("j", ScalarFn.of("neg"), ("x",), RelVar("L")),
                RelVar("R"))
    res = optimize(term, schemas)
    join = res.term
    assert isinstance(join, Join)
    assert any(isinstance(s, Derive) for _, s in walk(join.left))


def test_selective_filter_descends_to_its_side():
    cm = two_rel_model()
    term = Filter(lt("x", 10), Join(RelVar("L"), RelVar("R")))
    res = optimize(term, cm.schemas, stats=cm.stats)
    assert isinstance(res.term, Join)
    assert any(isinstance(s, Filter) for _, s in walk(res.term.left))


def test_memo_single_leaf_tables_hold_only_base_entries():
    cm = two_rel_model()
    term = Filter(lt("x", 10), Join(RelVar("L"), RelVar("R")))
    ctx = ctx_for(cm)
    pre = preprocess(term, ctx)
    d = decompose(pre, cm)
    graph = precedence_for(d)
    order = sort_ops(d.ops, graph)
    best, enum = enumerate_plans(d, graph, order, cm)
    assert set(enum.memo[0b01]) == {0}
    assert set(enum.memo[0b10]) == {0}
    assert best.rels == 0b11
    for c in ("entries", "partitions", "candidates"):
        assert enum.counters[c] > 0


def test_disconnected_join_needs_cross_flag():
    sl = Schema.of(scalars=("x",), arrays=())
    sr = Schema.of(scalars=("y",), arrays=())
    schemas = {"L": sl, "R": sr}
    term = Join(RelVar("L"), RelVar("R"))
    with pytest.raises(DisconnectedJoinGraphError):
        optimize(term, schemas)
    res = optimize(term, schemas, allow_cross_products=True)
    assert isinstance(res.term, Join)


def test_infeasible_op_is_reported():
    schema = Schema.of(scalars=("x",), arrays=())
    cm = CostModel({}, {"R": schema})
    ghost = _mk_op(0, Filter(lt("ghost", 1), RelVar("_x")), "filter",
                   {"ghost"}, (), 0.5, 1.0)
    d = QueryDecomposition(RelVar("R"), (("R", RelVar("R")),), (), (ghost,),
                           frozenset(), ("x",), False)
    graph = build_precedence(1, [])
    with pytest.raises(InfeasibleQueryError) as exc:
        enumerate_plans(d, graph, [ghost], cm)
    assert "filter#0" in str(exc.value.blocking_op)


def test_an_unplaceable_join_key_producer_is_reported():
    # the join key k of R and S must be produced below the join by the
    # ghost filter #0, which reads a column neither side has: no pair of
    # entries can run it, so the full table stays empty and the error
    # names it
    schemas = {"R": Schema.of(scalars=("k", "x")),
               "S": Schema.of(scalars=("k", "y"))}
    cm = CostModel({}, schemas)
    ghost = _mk_op(0, Filter(lt("ghost", 1), RelVar("_x")), "filter",
                   {"ghost"}, (), 0.5, 1.0)
    d = QueryDecomposition(
        Join(RelVar("R"), RelVar("S")),
        (("R", RelVar("R")), ("S", RelVar("S"))),
        (JoinEdge(0, 1, "k", frozenset({0})),), (ghost,), frozenset(),
        ("k", "x", "y"), False)
    with pytest.raises(InfeasibleQueryError) as exc:
        enumerate_plans(d, build_precedence(1, []), [ghost], cm)
    assert exc.value.blocking_op == "filter#0"


def test_a_feasible_query_never_scans_for_a_blocker(monkeypatch):
    # the first join key of the chain is derived below its join, so
    # three partitions have a mandatory operator; the query plans, so no
    # pair of their entries is ever scanned for a blocker (``fill`` only
    # records the partitions, ``first_blocker`` resolves them on failure)
    schemas = {"R0": Schema.of(scalars=("w", "x0"), arrays=("a0",)),
               "R1": Schema.of(scalars=("k1", "k2", "x1"), arrays=("a1",)),
               "R2": Schema.of(scalars=("k2", "k3", "x2"), arrays=("a2",)),
               "R3": Schema.of(scalars=("k3", "x3"), arrays=("a3",))}
    term = Derive("k1", ScalarFn.of("neg"), ("w",), RelVar("R0"))
    for i in range(1, 4):
        term = Join(term, RelVar("R%d" % i))
    for i in range(4):
        term = ArrayJoin((("a%d" % i, "e%d" % i),), term)
        term = Filter(Cmp(">", Col("e%d" % i), Lit(1)), term)
        term = Filter(Cmp("<", Col("x%d" % i), Lit(80)), term)
    scans = []
    find_blocker = Enumerator.find_blocker

    def recorded(self, p1, p2, need):
        scans.append((p1, p2, need))
        return find_blocker(self, p1, p2, need)

    monkeypatch.setattr(Enumerator, "find_blocker", recorded)
    enum = _enumerator(term, schemas)
    best = enum.run()
    assert best.ops == (1 << len(enum.q.ops)) - 1
    assert scans == []
    assert len([rec for rec in enum.blockers if type(rec) is tuple]) == 3


def test_oracle_rejects_oversized_queries():
    cm = one_rel_model()
    term = RelVar("R")
    for k, col in enumerate(["u0", "u1", "u2"] * 3):
        term = Filter(lt(col, 5 + k), term)
    ctx = ctx_for(cm)
    pre = preprocess(term, ctx)
    d = decompose(pre, cm)
    assert len(d.ops) == 9
    with pytest.raises(OracleLimitError):
        oracle_enumerate(d, precedence_for(d), cm)


def test_oracle_counts_orderings_of_independent_filters():
    cm = one_rel_model()
    term = Filter(lt("u2", 90), Filter(lt("u1", 50),
                                       Filter(lt("u0", 10), RelVar("R"))))
    d = decompose(term, cm)
    graph = precedence_for(d)
    best, info = oracle_enumerate(d, graph, cm)
    assert info["orderings"] == 6        # 3! interleavings of free filters
    assert best.cost <= cm.term_cost(term).cost


def test_ops_readable_on_both_join_sides_still_optimal():
    # Derives on the shared join key are applicable on either side; the
    # enumerator must still find the oracle's placement (left, after the
    # filter) even though that skips mid-list entries on the right.
    srcs = {"r0": Schema.of(scalars=("k", "s0"), arrays=()),
            "r1": Schema.of(scalars=("k",), arrays=("a0",))}
    term = Join(RelVar("r0"), RelVar("r1"))
    term = ArrayJoin((("a0", "v1"),), term)
    term = Derive("v2", ScalarFn.of("neg"), ("k",), term)
    term = Derive("v3", ScalarFn.of("neg"), ("v2",), term)
    term = Filter(lt("s0", 30), term)
    cm = CostModel({}, srcs)
    ctx = RuleContext(cm)
    pre = preprocess(term, ctx)
    d = decompose(pre, cm)
    graph = precedence_for(d)
    order = sort_ops(d.ops, graph)
    ent, _ = enumerate_plans(d, graph, order, cm)
    orc, _ = oracle_enumerate(d, graph, cm)
    assert ent.cost <= orc.cost + 1e-9


# the first 25 run without statistics; the rest use build_table_stats
# statistics, on odd seeds as in the random identity runs.  On seeds 219
# and 1029 the oracle read 35.02 and 35.53 and enumerate 33.06 and 35.11
# while a join's key statistics depended on its join order: the oracle
# kept the cheaper of two plans per (relations, operators) whose states
# differed, not the one the cheapest completion needed
ORACLE_CASES = [pytest.param(7000 + i, False, id=str(i)) for i in range(25)] \
    + [pytest.param(seed, True, id="stats-%d" % seed)
       for seed in range(7001, 7051, 2)] \
    + [pytest.param(seed, True, id="stats-%d" % seed) for seed in (219, 1029)] \
    + [pytest.param(1005, True, id="stats-1005", marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 2: enumerate runs r0_a1 = [] "
        "below the guard r0_a1 != [] and plans at 23.0, the oracle at "
        "17.0"))]


def _assert_enumerate_equals_oracle(term, schemas, stats):
    """Enumerate and the oracle plan the preprocessed `term` over one
    decomposition at one cost, within 1e-9 relative.  Both keep one plan
    per (relations, operators), which is exact up to rounding unless an
    operator reads a join key (the ``stats`` module docstring)."""
    cm = CostModel(stats or {}, schemas)
    ctx = RuleContext(cm)
    pre = preprocess(term, ctx)
    d = decompose(pre, cm)
    graph = precedence_for(d)
    order = sort_ops(d.ops, graph)
    assert cm.term_cost(pre).schema == output_schema(pre, schemas)
    ent, _ = enumerate_plans(d, graph, order, cm)
    assert ent.columns == output_schema(ent.term, schemas).columns
    try:
        orc, _ = oracle_enumerate(d, graph, cm)
    except OracleLimitError:
        pytest.skip("query exceeds oracle limits")
    assert orc.columns == output_schema(orc.term, schemas).columns
    assert ent.cost == pytest.approx(orc.cost, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("seed,with_stats", ORACLE_CASES)
def test_enumerate_is_never_beaten_by_oracle(seed, with_stats):
    rng = random.Random(seed)
    nrel = rng.choice((1, 1, 2))
    rels = [default_relation(rng, "r%d" % i, with_key=(nrel > 1), min_rows=1)
            for i in range(nrel)]
    term = random_term(rng, rels, n_ops=rng.randint(1, 5))
    schemas = {tr.name: tr.schema for tr in rels}
    stats = {tr.name: build_table_stats(tr.relation) for tr in rels} \
        if with_stats else None
    _assert_enumerate_equals_oracle(term, schemas, stats)


@pytest.mark.parametrize("seed", (6389, 6735))
def test_enumerate_equals_oracle_under_an_inner_projection(seed):
    # ``inner_query`` seeds with statistics: on 6389 enumerate planned
    # 24.5 and the oracle 24.0, on 6735 enumerate 10.80 and the oracle
    # 10.84, while a join's key statistics depended on its join order
    _assert_enumerate_equals_oracle(*inner_query(seed))


class _RecordingEnumerator(Enumerator):
    """The enumerator, remembering the cost each memo winner had when it
    won its place: for a leaf, its base plan's cost; for a join, the cost
    of its DeferredJoin record, read once the table's candidates are all
    in; whether any memo entry got a chain with its either-side operators
    banned; and the (relations, ops) key of every closed plan, since
    ``run`` drops the closed tables."""

    def __init__(self, *args):
        super().__init__(*args)
        self.inserted: dict = {}     # (id of table, ops mask) -> cost
        self.pinned_variants = False
        self.closed_keys: set = set()  # (rels, ops) of every closed plan

    def enumerate_mask(self, mask):
        table = super().enumerate_mask(mask)
        if mask.bit_count() == 1:
            self.inserted[id(table), 0] = table[0].cost
        return table

    def fill(self, table, mask):
        super().fill(table, mask)
        for ops, entry in table.items():
            self.inserted[id(table), ops] = entry.cost

    def prefixes(self, entry):
        chains = super().prefixes(entry)
        self.pinned_variants |= len(chains) > 1
        return chains

    def close(self, mask):
        closed = super().close(mask)
        self.closed_keys.update((mask, e.ops) for e in closed)
        return closed


class _EagerEnumerator(_RecordingEnumerator):
    """The reference enumeration, with no closed tables and nothing shared
    between join candidates.  Every partition pairs every memo entry of
    one side with every one of the other; each pair of entries joins
    every prefix of one entry's applicable operators with every prefix of
    the other's whose operator set is disjoint from it, built anew as
    memo entries, where an operator that must run below the join forces
    the prefix that holds it to reach it.  The operators of each entry's
    list that the other entry has run or may run are also banned from
    one side's list, from the other's, and from both, and the (ops, ops)
    pairs of one pair of entries are deduplicated.  Every candidate is
    built in full by ``join_entries`` and offered to ``insert``.  No plan
    is dropped as dominated: the memo holds every table's winner for
    every key.

    ``reached`` collects the (relations, ops) key of every prefix built,
    and ``ties`` the plans (as ``repr``) offered for a (relations, ops)
    key at the cost of the incumbent they did not replace, with that
    incumbent: the enumerator offers the plans of one key in another
    order and may keep another of them."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reached: set = set()
        self.ties: dict = {}         # (rels, ops) -> {repr of plan}

    def insert(self, table, entry):
        """Keep `entry` when it is the first for its operator set or
        cheaper than the incumbent, recording a tie with the incumbent."""
        old = table.get(entry.ops)
        if old is None or entry.cost < old.cost:
            table[entry.ops] = entry
            self.counters["entries"] += 1
        elif entry.cost == old.cost:
            self.ties.setdefault((entry.rels, entry.ops), set()).update(
                (repr(old.term), repr(entry.term)))

    def undominated(self, plans, mask):
        return plans

    def fill(self, table, mask):
        low = mask & -mask
        sub = (mask - 1) & mask
        while sub:
            p1, p2 = sub, mask ^ sub
            sub = (sub - 1) & mask
            if not (p1 & low):
                continue
            if not (self.connected(p1) and self.connected(p2)):
                continue
            keys, producers = enumeration.crossing(self.q.edges, p1, p2)
            if not keys and not self.allow_cross:
                continue
            producers = sorted(producers)
            if not self.valid(p1, p2, producers):
                continue
            self.counters["partitions"] += 1
            lefts = list(self.enumerate_mask(p1).values())
            if not lefts:
                continue
            rights = [(t, self.applicable(t))
                      for t in self.enumerate_mask(p2).values()]
            for s in lefts:
                s_ops = self.applicable(s)
                for t, t_ops in rights:
                    self.combine(table, s, s_ops, t, t_ops, keys,
                                 producers)
        for ops, entry in table.items():
            self.inserted[id(table), ops] = entry.cost

    def combine(self, table, s, s_ops, t, t_ops, keys, producers):
        s_mask = enumeration.mask_of(s_ops)
        t_mask = enumeration.mask_of(t_ops)
        s_shared = s_mask & (t.ops | t_mask)
        t_shared = t_mask & (s.ops | s_mask)
        variants = [(s_ops, t_ops, True)]
        if s_shared or t_shared:
            self.pinned_variants = True
            s_banned = self.applicable(s, s_shared)
            t_banned = self.applicable(t, t_shared)
            variants.append((s_ops, t_banned, False))
            variants.append((s_banned, t_ops, False))
            variants.append((s_banned, t_banned, False))
        seen = set()
        done = s.ops | t.ops
        for v1, v2, strict in variants:
            oi1 = oi2 = 0
            feasible = True
            for m in producers:
                if done >> m & 1:
                    continue
                if m in v1:
                    oi1 = max(oi1, v1.index(m) + 1)
                elif m in v2:
                    oi2 = max(oi2, v2.index(m) + 1)
                else:
                    if strict:
                        self.blockers.append(
                            enumeration.describe_op(self.q.ops[m]))
                    feasible = False
                    break
            if not feasible:
                continue
            for left in self.chain(s, v1)[oi1:]:
                for right in self.chain(t, v2)[oi2:]:
                    if left.ops & right.ops or \
                            (left.ops, right.ops) in seen:
                        continue
                    seen.add((left.ops, right.ops))
                    self.counters["candidates"] += 1
                    joined = join_entries(left, right, keys, self.cm)
                    if joined is None:
                        self.counters["capture_skips"] += 1
                    else:
                        self.insert(table, joined)

    def chain(self, entry, ops):
        """`entry` with the first k of the operators `ops` applied, for
        every k."""
        out = [entry]
        for oi in ops:
            out.append(enumeration.apply_op(self.q.ops[oi], out[-1],
                                            self.cm))
        self.reached.update((e.rels, e.ops) for e in out)
        return out


def _enumerator(term, schemas, stats=None, cls=Enumerator):
    """An unrun `cls` over `term` after preprocess and decompose."""
    cm = CostModel(dict(stats or {}), dict(schemas))
    pre = preprocess(term, RuleContext(cm))
    d = decompose(pre, cm)
    graph = precedence_for(d)
    return cls(d, graph, sort_ops(d.ops, graph), cm)


def _plan_view(plan):
    """(plan, cost, columns) of the finished plan `plan`."""
    return repr(plan.term), plan.cost, plan.columns


def _outcome(search):
    """``_plan_view`` of `search()`, or (error type, message)."""
    try:
        best = search()
    except A3DError as exc:
        return type(exc).__name__, str(exc)
    return _plan_view(best)


def _built_full_table(enum):
    """The full memo table of `enum`, after its DeferredJoin records, which
    ``run`` leaves unbuilt, are built in place by ``join_entries``."""
    table = enum.enumerate_mask(enum.full)
    for ops, e in table.items():
        if type(e) is enumeration.DeferredJoin:
            table[ops] = join_entries(e.left, e.right, e.keys, enum.cm)
    return table


def _enumerated(cls, term, schemas, stats=None):
    """((memo view, outcome, whether any either-side operator was pinned
    to one side), the run enumerator) of enumerating `term` with
    `cls`."""
    enum = _enumerator(term, schemas, stats, cls)
    outcome = _outcome(enum.run)
    if enum.full in enum.memo:
        _built_full_table(enum)
    memo = {rels: {ops: (repr(e.term), e.cost, e.columns)
                   for ops, e in table.items()}
            for rels, table in enum.memo.items()}
    # entries that never win are checked here only: the search replays
    # recorded column effects instead of deriving them, and inferring the
    # term checks the kinds it does not carry.  Every deferred join has
    # been built, at exactly the cost it won its place with.
    for table in enum.memo.values():
        for ops, e in table.items():
            assert type(e) is MemoEntry, type(e)
            assert e.cost == enum.inserted[id(table), ops], repr(e.term)
            assert e.columns == output_schema(e.term, schemas).columns, \
                repr(e.term)
    return (memo, outcome, enum.pinned_variants), enum


def _assert_prunes_the_eager_memo(fast, enum, eager, ref):
    """Compare the memo of `enum`, which drops dominated plans, with the
    reference memo of `ref`, which keeps every winner (the views and
    enumerators of ``_enumerated``), and return the number of reference
    entries the memo lacks:

    - every kept entry is the reference's entry for its key, or another
      plan the reference was offered for the key at the same cost
      (``_EagerEnumerator.ties``), with the same columns; but in the
      complete table, which is not pruned, a key whose cheapest plan was
      built from a dropped one keeps a costlier plan, which a kept plan
      dominates;
    - every reference entry the memo lacks is dominated by a kept one
      (``enumeration.dominates``);
    - both fail alike, or choose plans of the same cost and columns: the
      same plan unless some key kept another tied plan;
    - either both pin an either-side operator to one side of some join or
      neither does: the extra filters of a dominating plan are never
      either-side operators, so a dropped plan's banned chain is its
      dominator's."""
    (memo, outcome, pinned), (ref_memo, ref_outcome, ref_pinned) = \
        fast, eager
    assert memo.keys() == ref_memo.keys()
    assert pinned == ref_pinned

    def dominated(entry, kept):
        filters = enum.local_filters(entry.rels)
        return any(enumeration.dominates(better, entry, filters)
                   for better in kept)

    missing = tied = 0
    for rels, ref_table in ref.memo.items():
        table = enum.memo[rels]
        kept = list(table.values())
        for ops, view in memo[rels].items():
            ref_view = ref_memo[rels].get(ops)
            if ref_view is not None and view[1:] == ref_view[1:] and \
                    view[0] in ref.ties.get((rels, ops), ()):
                tied += view != ref_view
            elif ref_view != view:
                assert rels == enum.full and ops in ref_table, (rels, ops)
                assert table[ops].cost >= ref_table[ops].cost
                assert dominated(table[ops], kept), (rels, ops)
        for ops, entry in ref_table.items():
            if ops not in table:
                missing += 1
                assert dominated(entry, kept), (rels, ops)
    assert outcome == ref_outcome or \
        (tied and len(outcome) == 3 and outcome[1:] == ref_outcome[1:])
    return missing


def _bench_workloads():
    """``bench/workloads.py``, loaded as a module."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _bench_join_queries():
    """chain4/star4/cycle4 of the join_enum benchmark: (name, term,
    schemas)."""
    workloads = _bench_workloads()
    schemas = {name: Schema.of(
        scalars=[c for c, s in cols.items() if isinstance(s, ScalarColumn)],
        arrays=[c for c, s in cols.items()
                if not isinstance(s, ScalarColumn)])
        for name, (_, cols) in workloads.JOIN_ENUM.relations.items()}
    return [(shape, workloads.join_query(shape), schemas)
            for shape in ("chain", "star", "cycle")]


BENCH_JOIN_QUERIES = _bench_join_queries()


@pytest.mark.parametrize("name,term,schemas", BENCH_JOIN_QUERIES,
                         ids=[q[0] for q in BENCH_JOIN_QUERIES])
def test_enumerator_memo_matches_eager_enumeration_on_bench_joins(
        name, term, schemas):
    fast, enum = _enumerated(_RecordingEnumerator, term, schemas)
    eager, ref = _enumerated(_EagerEnumerator, term, schemas)
    assert _assert_prunes_the_eager_memo(fast, enum, eager, ref) > 0
    assert ref.counters["candidates"] > enum.counters["candidates"] \
        > enum.counters["entries"] > 0


@pytest.fixture(scope="module")
def bench_join_stats():
    """``build_table_stats`` over the join_enum benchmark's data (seed 1),
    so the join keys have the generated data's distinct counts."""
    workloads = _bench_workloads()
    db = workloads.generate_db(workloads.JOIN_ENUM, 1)
    return {name: build_table_stats(rel) for name, rel in db.items()}


@pytest.mark.parametrize("name,term,schemas", BENCH_JOIN_QUERIES,
                         ids=[q[0] for q in BENCH_JOIN_QUERIES])
def test_enumerator_memo_matches_eager_enumeration_on_bench_joins_with_stats(
        name, term, schemas, bench_join_stats):
    # real key ndvs: the candidate loop's divisors come from its cache,
    # the eager path's from join_effect on the built join
    stats = {rel: bench_join_stats[rel] for rel in schemas}
    key_ndvs = {st.ndv for rel in schemas for col, st in
                stats[rel].scalars.items() if col.startswith("k")}
    assert len(key_ndvs) > 1 and DEFAULT_JOIN_NDV not in key_ndvs
    fast, enum = _enumerated(_RecordingEnumerator, term, schemas, stats)
    eager, ref = _enumerated(_EagerEnumerator, term, schemas, stats)
    assert _assert_prunes_the_eager_memo(fast, enum, eager, ref) > 0
    assert ref.counters["candidates"] > enum.counters["candidates"] \
        > enum.counters["entries"] > 0


@pytest.mark.parametrize("block", range(4))
def test_enumerator_memo_matches_eager_enumeration_on_random_joins(block):
    # 4 x 60 two-relation queries, statistics on odd seeds; some of them
    # have an operator runnable on both sides, so the banned chains and
    # the reference's pinned-operator variants run too.  Each non-full
    # table holds one base plan, so no plan is dominated and the memo is
    # the reference's
    pinned = missing = 0
    for seed in range(8000 + 60 * block, 8000 + 60 * (block + 1)):
        rng = random.Random(seed)
        rels = [default_relation(rng, "r%d" % i, with_key=True, min_rows=1)
                for i in range(2)]
        term = random_term(rng, rels, n_ops=rng.randint(1, 5))
        schemas = {tr.name: tr.schema for tr in rels}
        stats = {tr.name: build_table_stats(tr.relation) for tr in rels} \
            if seed % 2 else None
        fast, enum = _enumerated(_RecordingEnumerator, term, schemas, stats)
        eager, ref = _enumerated(_EagerEnumerator, term, schemas, stats)
        missing += _assert_prunes_the_eager_memo(fast, enum, eager, ref)
        pinned += fast[2]
    assert pinned > 0 and missing == 0


def _keep_dominated_plans(monkeypatch):
    """Turn dominance pruning off: every enumerator keeps every plan."""
    monkeypatch.setattr(Enumerator, "undominated",
                        lambda self, plans, mask: plans)


@pytest.mark.parametrize("name,term,schemas", BENCH_JOIN_QUERIES,
                         ids=[q[0] for q in BENCH_JOIN_QUERIES])
def test_closed_tables_hold_the_keys_the_prefix_chains_reach(
        monkeypatch, name, term, schemas):
    # without dominance pruning, the closure of a memo table reaches the
    # (relations, ops) keys of every operator prefix of every entry, no
    # more and no fewer; with it, a strict subset of them
    _, ref = _enumerated(_EagerEnumerator, term, schemas)
    _, pruned = _enumerated(_RecordingEnumerator, term, schemas)
    _keep_dominated_plans(monkeypatch)
    _, enum = _enumerated(_RecordingEnumerator, term, schemas)
    assert enum.closed_keys == ref.reached
    assert len(enum.closed_keys) > len(enum.memo)
    assert pruned.closed_keys < ref.reached


def _either_side_join(seed):
    """(term, schemas, statistics, number of relations) of a random
    two- or three-relation join under one or two filters that read only
    the join key k, so they may run on any side of any join."""
    rng = random.Random(seed)
    nrel = rng.choice((2, 3))
    rels = [default_relation(rng, "r%d" % i, with_key=True, min_rows=1)
            for i in range(nrel)]
    term = random_term(rng, rels[:2], n_ops=rng.randint(1, 4))
    if nrel == 3:
        term = Join(term, RelVar("r2"))
    for _ in range(rng.randint(1, 2)):
        term = Filter(Cmp(rng.choice(("<", ">=", "!=")), Col("k"),
                          Lit(rng.randrange(-2, 8))), term)
    schemas = {tr.name: tr.schema for tr in rels}
    stats = {tr.name: build_table_stats(tr.relation) for tr in rels} \
        if seed % 2 else None
    return term, schemas, stats, nrel


@pytest.mark.parametrize("block", range(2))
def test_either_side_filters_plan_at_the_eager_cost(block):
    # a two-relation join has one partition and one entry per side, so
    # its banned chains are exactly the reference's pinned variants and
    # the memo matches the reference's but for the plans it drops as
    # dominated.  With three relations both searches pair every plan of
    # one side with each plan of the other that ran none of its operators,
    # also with a side whose key filter is banned because the other ran it
    # below one of its own joins; their memos may keep other plans of
    # equal cost below the full table, so only the outcomes are compared,
    # and the chosen plans have exactly the reference's cost and columns
    pinned = 0
    for seed in range(8500 + 100 * block, 8500 + 100 * (block + 1)):
        term, schemas, stats, nrel = _either_side_join(seed)
        try:
            output_schema(term, schemas)
        except SchemaError:
            continue                 # k was consumed below the filter
        fast, enum = _enumerated(_RecordingEnumerator, term, schemas, stats)
        eager, ref = _enumerated(_EagerEnumerator, term, schemas, stats)
        pinned += fast[2]
        if nrel == 2:
            _assert_prunes_the_eager_memo(fast, enum, eager, ref)
        else:
            assert fast[1] == eager[1] or \
                (len(fast[1]) == 3 and fast[1][1:] == eager[1][1:]), seed
    assert pinned > 50


def _random_join(seed, nrel):
    """(term, schemas, statistics) of a random query over two relations,
    with a third joined on k above it when `nrel` is 3; statistics on odd
    seeds."""
    rng = random.Random(seed)
    rels = [default_relation(rng, "r%d" % i, with_key=True, min_rows=1)
            for i in range(nrel)]
    term = random_term(rng, rels[:2], n_ops=rng.randint(1, 5))
    if nrel == 3:
        term = Join(term, RelVar("r2"))
    schemas = {tr.name: tr.schema for tr in rels}
    stats = {tr.name: build_table_stats(tr.relation) for tr in rels} \
        if seed % 2 else None
    return term, schemas, stats


def _pruning_corpus(name, bench_join_stats):
    """The (term, schemas, statistics) queries of one corpus of
    ``test_dominance_pruning_never_changes_the_chosen_plan``."""
    if name == "bench":
        return [(term, schemas, stats) for _, term, schemas in
                BENCH_JOIN_QUERIES for stats in
                (None, {rel: bench_join_stats[rel] for rel in schemas})]
    if name == "either-side":
        return [_either_side_join(seed)[:3] for seed in range(8500, 8700)]
    # a two-relation query has one plan per non-full table, so only its
    # three-relation counterpart can drop any
    return [_random_join(seed, nrel) for seed in range(9700, 9900)
            for nrel in (2, 3)]


def _offer_disjoint_pairs_only(monkeypatch):
    """Make ``Enumerator.candidates`` see, for each left record, only the
    right records whose operator masks are disjoint from it."""
    candidates = Enumerator.candidates

    def disjoint(self, table, lefts, rights, cut):
        for left in lefts:
            candidates(self, table, [left],
                       [r for r in rights if not left.ops & r.ops], cut)

    monkeypatch.setattr(Enumerator, "candidates", disjoint)


@pytest.mark.parametrize("pairs", ("all", "disjoint"))
@pytest.mark.parametrize("corpus", ("random", "either-side", "bench"))
def test_dominance_pruning_never_changes_the_chosen_plan(
        monkeypatch, corpus, pairs, bench_join_stats):
    # 2- and 3-relation random joins, statistics on odd seeds and on
    # every bench join once; the plan, its cost (bit for bit) and any
    # error are those of the enumerator that keeps every dominated
    # plan.  With `pairs` "disjoint" the overlapping records are taken
    # out before ``candidates`` sees them: the enumerator pairs only
    # disjoint operator sets, so neither the plans nor the number of
    # candidates move, and the pruning stays exact
    queries = _pruning_corpus(corpus, bench_join_stats)

    def outcomes():
        dropped, out, offered = 0, [], 0
        for term, schemas, stats in queries:
            try:
                enum = _enumerator(term, schemas, stats)
            except SchemaError:
                continue             # k was consumed below a key filter
            out.append(_outcome(enum.run))
            dropped += enum.counters["dominated"]
            offered += enum.counters["candidates"]
        return out, dropped, offered

    if pairs == "disjoint":
        every_pair = outcomes()
        _offer_disjoint_pairs_only(monkeypatch)
        assert outcomes() == every_pair
    pruned, dropped, _ = outcomes()
    _keep_dominated_plans(monkeypatch)
    kept_all, none, _ = outcomes()
    assert pruned == kept_all
    assert dropped > 0 and none == 0


def _operator_nodes(term, leaves) -> int:
    """The number of operator nodes of `term` above the leaf terms
    `leaves` (matched by identity): every node but the joins and the
    final projection."""
    if any(term is leaf for leaf in leaves):
        return 0
    if isinstance(term, Join):
        return _operator_nodes(term.left, leaves) + \
            _operator_nodes(term.right, leaves)
    return (not isinstance(term, Project)) + \
        _operator_nodes(term.child, leaves)


@pytest.mark.parametrize("corpus", ("random", "either-side"))
def test_no_operator_runs_twice(corpus, bench_join_stats):
    # the plan space is (leaves joined, operators applied), each operator
    # applied once: every memo entry and every chosen plan has one
    # operator node per operator of its set.  A join of two plans that
    # share an operator, say a filter on the join key run on both sides,
    # has more, and counts the operator's effect twice
    plans = 0
    for term, schemas, stats in _pruning_corpus(corpus, bench_join_stats):
        try:
            enum = _enumerator(term, schemas, stats)
        except SchemaError:
            continue                 # k was consumed below a key filter
        leaves = [leaf for _, leaf in enum.q.leaves]
        try:
            chosen = [enum.run()]
        except A3DError:
            chosen = []
        if enum.full in enum.memo:
            _built_full_table(enum)
        for entry in chosen + [e for table in enum.memo.values()
                               for e in table.values()]:
            assert _operator_nodes(entry.term, leaves) == \
                entry.ops.bit_count(), repr(entry.term)
            plans += 1
    assert plans > 1000


def test_dominance_keeps_a_plan_whose_partner_runs_the_extra_filter(
        monkeypatch):
    # A joins B on k1 (ten times B's rows out) and B joins C on k2; C is
    # large, its array long.  The filter on k2 is cheap on B, so A with
    # the filtered B would dominate A with B in the table of {A, B} if
    # the filter could be an extra operator there.  But the cheapest
    # plan that runs each operator once filters C before its array
    # filter and joins it with the unfiltered A-B join.  The filter also
    # runs over C, so it is no extra operator for {A, B}, and that plan
    # stays
    uniform = _uniform(10, 0, 10)
    schemas = {"A": Schema.of(scalars=("k1", "a")),
               "B": Schema.of(scalars=("k1", "k2", "b")),
               "C": Schema.of(scalars=("k2", "c"), arrays=("arr",))}
    stats = {
        "A": TableStats(100, {"k1": uniform, "a": uniform}, {}),
        "B": TableStats(1000, {c: uniform for c in ("k1", "k2", "b")}, {}),
        "C": TableStats(100_000, {"k2": uniform, "c": uniform},
                        {"arr": ArrayStats(100.0, 0.0, _uniform(20, 0, 20))}),
    }
    term = Join(Join(RelVar("A"), RelVar("B")), RelVar("C"))
    term = ArrayFilter((("arr", "v"),), Cmp(">", Col("v"), Lit(5)), term)
    term = Filter(Cmp("<", Col("k2"), Lit(1)), term)
    enum = _enumerator(term, schemas, stats)
    best = enum.run()
    assert enum.counters["dominated"] > 0
    assert best.term.left == Join(RelVar("A"), RelVar("B"))
    assert best.term.right.child == Filter(term.pred, RelVar("C"))
    _keep_dominated_plans(monkeypatch)
    assert _outcome(_enumerator(term, schemas, stats).run) == \
        _outcome(lambda: best)


def test_dominance_needs_every_condition_of_the_rule():
    # ops 0 and 1 are row filters only these leaves can apply, op 2 is
    # not; `worse` applied op 2, `better` op 2 and the filter op 0
    cm = one_rel_model()
    base, schema = cm.base_state("R"), cm.schemas["R"]

    def plan(ops, cost, rows, schema=schema, **state):
        return MemoEntry(RelVar("R"), 1, ops, cost,
                         dataclasses.replace(base, rows=rows, **state),
                         schema.columns)

    def dominates(better, worse, filters=0b011):
        return enumeration.dominates(better, worse, filters)

    worse = plan(0b100, 10.0, 5.0)
    better = plan(0b101, 9.0, 5.0)
    assert dominates(better, worse) and not dominates(worse, better)
    # a filter that a plan over other leaves may apply
    assert not dominates(better, worse, filters=0b010)
    elem = base.array_info["a"]
    for other in (
            plan(0b100, 9.0, 4.0),           # no extra operator
            plan(0b001, 9.0, 4.0),           # lacks op 2
            plan(0b111, 9.0, 4.0),           # fine: filters 0 and 1
            plan(0b101, 10.0, 4.0),          # not strictly cheaper
            plan(0b101, 9.0, 6.0),           # more rows
            plan(0b101, 9.0, 4.0, rows_unf=base.rows_unf / 2),
            plan(0b101, 9.0, 4.0, scalar_stats={
                **base.scalar_stats, "k": _uniform(5, 0, 100)}),
            plan(0b101, 9.0, 4.0, array_info={
                "a": dataclasses.replace(elem, empty_fraction=0.5)}),
            plan(0b101, 9.0, 4.0, schema=Schema.of(
                scalars=("u0", "u1", "k"), arrays=("a",)))):
        assert dominates(other, worse) == (other.ops == 0b111), other
    # an extra operator that is not a row filter
    assert not dominates(plan(0b101, 9.0, 4.0), plan(0b001, 10.0, 5.0))
    # one pass keeps the undominated plans in their order
    plans = [worse, plan(0b111, 8.0, 4.0), better, plan(0b010, 1.0, 1.0)]
    assert enumeration.undominated(plans, 0b011) == plans[1:2] + plans[3:]


def test_local_filters_are_those_no_other_leaf_set_can_apply():
    # B joins A on x and C on y.  Over B's leaf set, the filter on x
    # alone may also run over A, and x < y over the join of A and C,
    # though over neither leaf alone; only the filter on b is local.
    # Over A and C together, no filter is local
    schemas = {"A": Schema.of(scalars=("x", "a")),
               "B": Schema.of(scalars=("x", "y", "b")),
               "C": Schema.of(scalars=("y", "c"))}
    term = Join(Join(RelVar("A"), RelVar("B")), RelVar("C"))
    for pred in (Cmp(">", Col("x"), Lit(1)), Cmp("<", Col("x"), Col("y")),
                 Cmp(">", Col("b"), Lit(2))):
        term = Filter(pred, term)
    enum = _enumerator(term, schemas)
    leaf = {name: 1 << i for i, (name, _) in enumerate(enum.q.leaves)}
    local = enum.local_filters(leaf["B"])
    assert [op.node.pred for op in enum.q.ops if local >> op.idx & 1] == \
        [Cmp(">", Col("b"), Lit(2))]
    assert enum.either_side(leaf["B"]) & ~local == \
        enum.either_side(leaf["B"])
    assert enum.local_filters(leaf["A"] | leaf["C"]) == 0


def test_candidate_loop_costs_each_pair_with_its_own_divisor():
    # records of one partition whose join key has a different distinct
    # count on each (unknown on one): every candidate gets the divisor of
    # its own pair of key-ndv tuples, so it is costed as join_entries
    # builds it
    schemas = {"L": Schema.of(scalars=("k", "x")),
               "R": Schema.of(scalars=("k", "y"))}
    cm = CostModel({}, schemas)
    enum = _enumerator(Join(RelVar("L"), RelVar("R")), schemas)

    def entry(rel, bit, ops, ndv):
        state = cm.base_state(rel)
        key = None if ndv is None else ScalarStats("uniform", ndv, 0.0)
        state = dataclasses.replace(
            state, scalar_stats={**state.scalar_stats, "k": key})
        return MemoEntry(RelVar(rel), bit, ops, 1000.0, state,
                         schemas[rel].columns)

    cut = enumeration.Cut(frozenset({"k"}), ["k"], 0, {})
    lefts = [entry("L", 1, 1 << i, ndv) for i, ndv in enumerate((20, 200))]
    rights = [entry("R", 2, 4 << i, ndv)
              for i, ndv in enumerate((5, 50, None))]
    table: dict = {}
    enum.candidates(table, [enumeration.Prefix.of(e, cut) for e in lefts],
                    [enumeration.Prefix.of(e, cut) for e in rights], cut)
    assert len(table) == 6 and len(cut.divisors) == 2
    for left in lefts:
        for right in rights:
            built = join_entries(left, right, cut.keys, cm)
            assert table[built.ops].cost == built.cost


def test_a_partition_with_an_empty_side_offers_no_candidates():
    # a chain R0 - R1 - R2 whose table for {R1, R2} holds no plan: the
    # partition ({R0}, {R1, R2}) is skipped, and the full table holds the
    # joins of {R0, R1} with R2 alone
    schemas = {"R0": Schema.of(scalars=("k1", "x0")),
               "R1": Schema.of(scalars=("k1", "k2")),
               "R2": Schema.of(scalars=("k2", "x2"))}
    term = Join(Join(RelVar("R0"), RelVar("R1")), RelVar("R2"))
    enum = _enumerator(term, schemas)
    enum.memo[0b110] = {}
    table = _built_full_table(enum)
    assert table and all(e.term.right == RelVar("R2")
                         for e in table.values())
    assert enum.run().cost == min(e.cost for e in table.values())


def test_chain4_enumeration_work_counts(monkeypatch):
    # each non-full memo table drops its dominated plans once it is
    # filled: its 138 join records are built (138 join effects) and 57 of
    # them are dropped as dominated.  The closure of the tables that
    # remain costs 88 operator steps for the 97 (relations, ops) keys it
    # reaches, one plan per key, and builds (applies) only the 12 steps
    # that beat the incumbent of their node; the other 76 lose to a plan
    # the closure already holds (88 applied when every step was built).
    # Each partition pairs the closed tables of its two sides once, 489
    # candidates for 370 memo wins.  Without the pruning, the closure
    # applied 249 operators for 192 keys holding 260 plans (105 of them
    # dominated), the partitions paired 1,344 candidates for 732 wins,
    # and 176 join records were built; pairing every prefix of every pair
    # of memo entries took 7,984 candidates, 2,556 wins and 1,464
    # operator applications.  ``run`` starts finishing 6 of the 135
    # complete plans, best-first by cost plus the exact cost of each
    # plan's next operator: it builds only those 6 (6 join effects) and
    # applies 5 operators, one per step of the partial plan with the
    # lowest such key (97 plans and 101 operators keyed by cost alone; 113
    # of 256 and 117 operators without the pruning as well); building
    # every chain and candidate anew and finishing every complete plan
    # took 9,069 operator applications and 8,005 join effects.
    # Preprocess rejects its R2.3 guards locally, so it never costs the
    # chain's root, and its one sweep round folds the chain's 3 joins
    # once, not once per attempt (9 join effects in all)
    calls = {"apply_op": 0, "join_effect": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(enumeration, "apply_op",
                        counted("apply_op", enumeration.apply_op))
    monkeypatch.setattr(CostModel, "join_effect",
                        counted("join_effect", CostModel.join_effect))
    _, term, schemas = BENCH_JOIN_QUERIES[0]
    res = optimize(term, schemas, mode="enumerate")
    assert (res.counters["entries"], res.counters["candidates"],
            res.counters["dominated"]) == (370, 489, 57)
    assert calls == {"apply_op": 12 + 5, "join_effect": 138 + 6 + 9}
    assert (res.counters["finished"], res.counters["finish_ops"]) == \
        (6, 5)


def _eager_close(enum, mask):
    """The reference closure of the leaves in `mask`: ``Enumerator.close``
    with every step applied (``apply_op``) before it is offered, and the
    cheaper plan kept per (operator set, remaining chain) node and per
    operator set (``keep``)."""
    todo = {}
    for entry in enum.enumerate_mask(mask).values():
        nodes = todo.setdefault(entry.ops.bit_count(), {})
        for chain in enum.prefixes(entry):
            nodes[entry.ops, chain] = entry
    best = {}
    for count in range(min(todo, default=0), len(enum.q.ops) + 1):
        for (ops, rest), entry in todo.pop(count, {}).items():
            enumeration.keep(best, ops, entry)
            if rest:
                nxt = enumeration.apply_op(enum.q.ops[rest[0]], entry,
                                           enum.cm)
                enumeration.keep(todo.setdefault(count + 1, {}),
                                 (nxt.ops, rest[1:]), nxt)
    assert not todo
    return list(best.values())


def _closure_queries():
    """(name, term, schemas, statistics) of the benchmark's join shapes,
    without and with ``build_table_stats`` statistics, and of the
    multi-relation ``random_query`` seeds below 400 (statistics on odd
    seeds)."""
    workloads = _bench_workloads()
    db = workloads.generate_db(workloads.JOIN_ENUM, 1)
    for name, term, schemas in BENCH_JOIN_QUERIES:
        yield name, term, schemas, None
        yield name + "/stats", term, schemas, {
            rel: build_table_stats(db[rel]) for rel in schemas}
    for seed in range(400):
        term, schemas, stats = random_query(seed)
        if len(schemas) > 1:
            yield "random/%d" % seed, term, schemas, stats


def test_closure_costs_each_step_before_it_builds_it(monkeypatch):
    # ``close`` builds a step only when its cost beats the incumbent of
    # its node; on every connected non-full leaf set it closes to the
    # reference's table, which builds every step: the same plans in the
    # same order, bit-equal costs and states, and the same recipes
    applied = collections.Counter()
    real_apply = enumeration.apply_op

    def apply_op(op, entry, cm):
        applied[side] += 1
        return real_apply(op, entry, cm)

    monkeypatch.setattr(enumeration, "apply_op", apply_op)
    masks = queries = 0
    for name, term, schemas, stats in _closure_queries():
        queries += 1
        enum = _enumerator(term, schemas, stats)
        for mask in range(1, enum.full):
            if not enum.connected(mask):
                continue
            masks += 1
            side = "close"
            got = enum.close(mask)
            side = "reference"
            want = _eager_close(enum, mask)
            assert [(e.ops, e.cost, e.state, e.columns, e.plan)
                    for e in got] == \
                [(e.ops, e.cost, e.state, e.columns, e.plan)
                 for e in want], (name, mask)
    assert queries > 100 and masks > 250
    assert 0 < applied["close"] < applied["reference"]


def test_closure_keeps_the_first_of_two_steps_that_tie(monkeypatch):
    # R0 - R1 - R2 with a filter on each of R0 and R1, and a memo table
    # for {R0, R1} that holds the two joins with one filter below each:
    # each applies the other's filter above the join, and the two steps
    # reach one node at one cost.  As ``keep`` does, the step offered
    # first stays, and the closure builds only that one
    schemas = {"R0": Schema.of(scalars=("k1", "x0")),
               "R1": Schema.of(scalars=("k1", "k2", "x1")),
               "R2": Schema.of(scalars=("k2", "x2"))}
    term = Filter(Cmp("<", Col("x0"), Lit(5)), Filter(
        Cmp("<", Col("x1"), Lit(5)),
        Join(Join(RelVar("R0"), RelVar("R1")), RelVar("R2"))))
    enum = _enumerator(term, schemas)
    by_col = {op.node.pred.lhs.name: op for op in enum.q.ops}
    r0, r1 = enum.bases[:2]
    keys = frozenset({"k1"})
    firsts = [
        join_entries(enumeration.apply_op(by_col["x0"], r0, enum.cm), r1,
                     keys, enum.cm),
        join_entries(r0, enumeration.apply_op(by_col["x1"], r1, enum.cm),
                     keys, enum.cm)]
    enum.memo[0b011] = {e.ops: e for e in firsts}
    want = _eager_close(enum, 0b011)
    built = []
    real_apply = enumeration.apply_op
    monkeypatch.setattr(enumeration, "apply_op",
                        lambda *args: built.append(args) or real_apply(*args))
    got = enum.close(0b011)
    assert [entry for _, entry, _ in built] == firsts[:1]
    both = firsts[0].ops | firsts[1].ops
    steps = [enumeration.apply_op(by_col[col], e, enum.cm)
             for col, e in zip(("x1", "x0"), firsts)]
    assert steps[0].cost == steps[1].cost and steps[0].plan != steps[1].plan
    assert [(e.ops, e.cost, e.plan) for e in got] == \
        [(e.ops, e.cost, e.plan) for e in want]
    assert [e.plan for e in got if e.ops == both] == [steps[0].plan]


def _finish(enum, entry, applied):
    """(`entry` with its remaining operators applied in sorted order and
    re-projected, None), or (None, the blocker) when an operator or the
    projection cannot run; each operator applied is appended to
    `applied`."""
    cur = entry
    for op in enum.order:
        if cur.ops >> op.idx & 1:
            continue
        if not enumeration.op_applicable(op, cur.ops, cur.columns,
                                         cur.rels, enum.graph):
            return None, enumeration.describe_op(op)
        cur = enumeration.apply_op(op, cur, enum.cm)
        applied.append(op.idx)
    final = enumeration.reproject(cur, enum.q, enum.cm)
    return (None, "projection") if final is None else (final, None)


def _finish_each_entry(enum, applied):
    """(finished plans, blockers) of finishing every entry of the full
    table in ascending operator-mask order, each in full (``_finish``,
    which appends the operators it applies to `applied`): each finished
    plan as (cost, the entry's operator mask, plan), and the blocker of
    each entry that does not finish."""
    table = _built_full_table(enum)
    plans, blocked = [], []
    for ops in sorted(table):
        finished, blocker = _finish(enum, table[ops], applied)
        if finished is None:
            blocked.append(blocker)
        else:
            plans.append((finished.cost, ops, finished))
    return plans, blocked


def _finish_every_entry(enum, applied):
    """``Enumerator.run`` without its bound: finish every entry of the
    full table (``_finish_each_entry``) and keep the cheapest finished
    plan, the one of the lowest operator mask among equal costs."""
    plans, blocked = _finish_each_entry(enum, applied)
    if not plans:
        name = blocked[0] if blocked else enum.first_blocker()
        raise InfeasibleQueryError(f"no valid plan: blocked by {name}", name)
    return min(plans, key=lambda plan: plan[:2])[2]


def _bounded_and_every(enum):
    """(outcome of ``run``, outcome of finishing every entry, number of
    operators the latter applied) on one memo."""
    applied: list = []
    return (_outcome(enum.run),
            _outcome(lambda: _finish_every_entry(enum, applied)),
            len(applied))


@pytest.mark.parametrize("name,term,schemas", BENCH_JOIN_QUERIES,
                         ids=[q[0] for q in BENCH_JOIN_QUERIES])
def test_bounded_finish_matches_finishing_every_entry_on_bench_joins(
        name, term, schemas):
    enum = _enumerator(term, schemas)
    bounded, every, eager_ops = _bounded_and_every(enum)
    assert bounded == every
    # started and complete plans; (97, 135), (105, 162) and (81, 189)
    # when the heap was keyed by cost alone, without the next operator's
    # cost, and (113, 256) on every shape before the memo dropped
    # dominated plans, which pair into fewer complete ones
    assert (enum.counters["finished"], len(enum.memo[enum.full])) == \
        {"chain": (6, 135), "star": (6, 162), "cycle": (6, 189)}[name]
    # the best-first search steps only the cheapest partial plans
    assert enum.counters["finish_ops"] < eager_ops


@pytest.mark.parametrize("name,term,schemas", BENCH_JOIN_QUERIES,
                         ids=[q[0] for q in BENCH_JOIN_QUERIES])
def test_bounded_finish_matches_finishing_every_entry_on_bench_joins_with_stats(
        name, term, schemas, bench_join_stats):
    stats = {rel: bench_join_stats[rel] for rel in schemas}
    enum = _enumerator(term, schemas, stats)
    bounded, every, eager_ops = _bounded_and_every(enum)
    assert bounded == every
    # on chain and star every complete plan is started, yet most are
    # dropped before their last operator
    assert enum.counters["finish_ops"] < eager_ops


@pytest.mark.parametrize("nrel", (2, 3))
def test_bounded_finish_matches_finishing_every_entry_on_random_joins(nrel):
    # statistics on odd seeds; a third relation joins on k above the rest
    finished = complete = stepped = every_ops = 0
    for seed in range(9000, 9150):
        enum = _enumerator(*_random_join(seed, nrel))
        if not enum.connected(enum.full):
            continue
        bounded, every, eager_ops = _bounded_and_every(enum)
        assert bounded == every, seed
        assert enum.counters["finish_ops"] <= eager_ops, seed
        finished += enum.counters["finished"]
        complete += len(enum.memo[enum.full])
        stepped += enum.counters["finish_ops"]
        every_ops += eager_ops
    assert 0 < finished < complete
    assert stepped < every_ops


@pytest.mark.parametrize("corpus", ("bench", "bench-stats", "random"))
def test_finished_streams_every_finished_plan_in_cost_then_mask_order(
        corpus, bench_join_stats):
    # ``finished``, read to the end, yields exactly the plans that
    # finishing every complete plan in full gives, in ascending (cost,
    # operator mask) order, the mask that of the full-table record a plan
    # is finished from
    if corpus == "random":
        queries = [_random_join(seed, nrel) for seed in range(9000, 9150)
                   for nrel in (2, 3)]
    else:
        queries = [(term, schemas,
                    {rel: bench_join_stats[rel] for rel in schemas}
                    if corpus == "bench-stats" else None)
                   for _, term, schemas in BENCH_JOIN_QUERIES]
    streamed = 0
    for query in queries:
        enum = _enumerator(*query)
        if not enum.connected(enum.full):
            continue
        stream = [_plan_view(plan) for plan in enum.finished()]
        plans, _ = _finish_each_entry(enum, [])
        assert stream == [_plan_view(plan) for _, _, plan in
                          sorted(plans, key=lambda plan: plan[:2])], query
        streamed += len(stream)
    # every complete plan finishes: 135 + 162 + 189 on the bench joins
    # without statistics
    assert streamed == {"bench": 486, "bench-stats": 701,
                        "random": 1758}[corpus]


@pytest.mark.parametrize("corpus", ("bench", "random"))
def test_finish_lookahead_is_the_cost_the_next_step_charges(
        corpus, bench_join_stats):
    # ``run`` keys a partial plan by its cost plus the cost of its next
    # operator, read for an unbuilt record from its stored rows and its
    # inputs' array infos.  On every complete-plan record, and on every
    # later step of its finish, that lookahead is exactly what
    # ``op_effect`` charges for the step on the built plan: the bound is
    # never above the cost finishing adds, nor below it
    if corpus == "bench":
        queries = [(term, schemas, stats) for _, term, schemas in
                   BENCH_JOIN_QUERIES for stats in
                   (None, {rel: bench_join_stats[rel] for rel in schemas})]
    else:
        queries = [_random_join(seed, nrel) for seed in range(9000, 9150)
                   for nrel in (2, 3)]
    records = steps = 0
    for query in queries:
        enum = _enumerator(*query)
        if not enum.connected(enum.full):
            continue
        order = enum.order
        for rec in enum.enumerate_mask(enum.full).values():
            records += 1
            pos, ahead = enum.lookahead(rec)
            cur = rec.build(enum.cm) if type(rec) is \
                enumeration.DeferredJoin else rec
            while pos < len(order):
                op = order[pos]
                assert [o.idx for o in order[:pos + 1]
                        if not cur.ops >> o.idx & 1] == [op.idx]
                assert ahead == enum.cm.op_effect(op.node, cur.state)[0]
                steps += 1
                if not enumeration.op_applicable(
                        op, cur.ops, cur.columns, cur.rels, enum.graph):
                    break
                key = cur.cost + ahead
                cur = enumeration.apply_op(op, cur, enum.cm)
                assert cur.cost == key
                pos, ahead = enum.lookahead(cur, pos + 1)
            else:
                assert ahead == 0.0
    # 1,187 records and 6,528 steps on the bench joins, 1,758 and 3,753
    # on the random ones
    assert records > 1000 and steps > 2 * records


def _recipe_parts(plan):
    """Every object a plan recipe holds, itself included."""
    yield plan
    if type(plan) is tuple:
        for part in plan:
            yield from _recipe_parts(part)


class _ClosureKeepingEnumerator(Enumerator):
    """The enumerator, keeping every closed table it makes, which ``run``
    drops once the full table is filled."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.kept_closed: dict = {}

    def close(self, mask):
        closed = super().close(mask)
        self.kept_closed[mask] = closed
        return closed


@pytest.mark.parametrize("with_stats", (False, True))
def test_memo_recipes_materialize_to_plans_of_the_entries_cost_and_schema(
        with_stats, bench_join_stats):
    # every memo and closed-table entry of the bench joins and of the
    # ``_random_join`` corpus holds its plan as a recipe of terms and
    # operators only; its materialized term, inferred and costed node by
    # node, has exactly the entry's cost and columns, and inferring it
    # checks the kinds the search does not carry
    queries = [(term, schemas,
                {rel: bench_join_stats[rel] for rel in schemas}
                if with_stats else None)
               for _, term, schemas in BENCH_JOIN_QUERIES]
    # ``_random_join`` has statistics on odd seeds
    queries += [_random_join(seed, nrel)
                for seed in range(9000 + with_stats, 9100, 2)
                for nrel in (2, 3)]
    entries = closed = 0
    for term, schemas, stats in queries:
        enum = _enumerator(term, schemas, stats, _ClosureKeepingEnumerator)
        if _outcome(enum.run)[0] == "DisconnectedJoinGraphError":
            continue
        _built_full_table(enum)
        leaves = [leaf for _, leaf in enum.q.leaves]
        tables = [list(table.values()) for table in enum.memo.values()]
        closed += sum(map(len, enum.kept_closed.values()))
        for entry in [e for table in tables + list(
                enum.kept_closed.values()) for e in table]:
            assert all(type(part) in (tuple, RankableOp) or
                       any(part is leaf for leaf in leaves)
                       for part in _recipe_parts(entry.plan))
            plan = entry.term
            res = enum.cm.term_cost(plan)
            assert (res.cost, res.schema.columns) == \
                (entry.cost, entry.columns)
            assert output_schema(plan, schemas).columns == entry.columns
            entries += 1
    assert entries > 800 and closed > 200


def _two_filter_enumerator(full_table):
    """A one-relation query with filters on u0 (op 0) and u1 (op 1), whose
    complete memo table is `full_table`: {ops mask: (cost, rows)}."""
    cm = one_rel_model(arrays=())
    term = Filter(lt("u1", 50), Filter(lt("u0", 50), RelVar("R")))
    d = decompose(term, cm)
    graph = precedence_for(d)
    enum = Enumerator(d, graph, sort_ops(d.ops, graph), cm)
    base = cm.base_state("R")
    table = {}
    for ops, (cost, rows) in full_table.items():
        applied = RelVar("R")
        for op in d.ops:
            if ops >> op.idx & 1:
                applied = op.apply(applied)
        table[ops] = MemoEntry(applied, 1, ops, cost,
                               dataclasses.replace(base, rows=rows),
                               cm.schemas["R"].columns)
    enum.memo[enum.full] = table
    return enum


def test_bounded_finish_breaks_cost_ties_by_lowest_ops_mask():
    # a filter costs its input's rows, so both one-filter plans finish at
    # 15.0, and both are keyed 15.0 by their memo cost plus that filter.
    # The plan over ops 0b01 pops first by its lower mask, finishes and,
    # back on the heap at (15.0, 0b01), pops again before the plan over
    # ops 0b10: it wins the tie, and the other plan is never started.  The
    # complete plan at 20.0 exceeds 15.0 and is never started either.
    enum = _two_filter_enumerator({0b01: (15.0, 0.0), 0b10: (5.0, 10.0),
                                   0b11: (20.0, 1.0)})
    assert [op.node.pred.lhs.name for op in enum.q.ops] == ["u0", "u1"]
    bounded, every, _ = _bounded_and_every(enum)
    assert bounded == every
    assert bounded[0] == repr(Filter(lt("u1", 50),
                                     Filter(lt("u0", 50), RelVar("R"))))
    assert bounded[1] == 15.0
    assert enum.counters["finished"] == 1


def test_best_first_finish_steps_only_plans_within_the_best_cost(
        monkeypatch):
    # the plan over ops 0 is cheapest (6.0), but its first filter costs
    # its 50 rows, so its key is 56.0 and it is never started.  The two
    # one-filter plans each finish at 10.0 with one more filter over 0
    # rows, their keys 10.0.  The plan over ops 0b01 pops first by its
    # lower mask, and once finished it pops again before the plan over
    # ops 0b10, which is never started: the tie goes to the lowest mask.
    applied = []
    apply_op = enumeration.apply_op

    def recorded(op, entry, cost_model):
        applied.append((entry.ops, op.idx))
        return apply_op(op, entry, cost_model)

    monkeypatch.setattr(enumeration, "apply_op", recorded)
    enum = _two_filter_enumerator({0b00: (6.0, 50.0), 0b01: (10.0, 0.0),
                                   0b10: (10.0, 0.0)})
    best = enum.run()
    assert (best.ops, best.cost) == (0b11, 10.0)
    assert best.term == Filter(lt("u1", 50),
                               Filter(lt("u0", 50), RelVar("R")))
    assert applied == [(0b01, 1)]
    assert (enum.counters["finished"], enum.counters["finish_ops"]) == \
        (1, 1)
    # finishing every plan in full applies three more operators, and agrees
    monkeypatch.undo()
    every: list = []
    assert _finish_every_entry(enum, every).term == best.term
    assert len(every) == 4


def test_bounded_finish_names_the_blocker_of_the_lowest_ops_mask():
    # every plan is blocked: the cheapest (ops 0b10) by the ghost filter
    # #2, the one over ops 0 by the ghost filter #1, which is reported
    schema = Schema.of(scalars=("x",), arrays=())
    cm = CostModel({}, {"R": schema})
    ops = [_mk_op(0, Filter(lt("x", 1), RelVar("_x")), "filter", {"x"},
                  (), 0.5, 1.0)]
    ops += [_mk_op(i, Filter(lt("ghost%d" % i, 1), RelVar("_x")), "filter",
                   {"ghost%d" % i}, (), 0.5, 1.0) for i in (1, 2)]
    d = QueryDecomposition(RelVar("R"), (("R", RelVar("R")),), (),
                           tuple(ops), frozenset(), ("x",), False)
    enum = Enumerator(d, build_precedence(3, []), ops, cm)
    state, cols = cm.base_state("R"), schema.columns
    enum.memo[enum.full] = {
        0b000: MemoEntry(RelVar("R"), 1, 0b000, 20.0, state, cols),
        0b010: MemoEntry(RelVar("R"), 1, 0b010, 5.0, state, cols)}
    bounded, every, _ = _bounded_and_every(enum)
    assert bounded == every == ("InfeasibleQueryError",
                                "no valid plan: blocked by filter#1")
    assert enum.counters["finished"] == 2
    # the stream raises the same error before it yields any plan
    assert _outcome(lambda: next(enum.finished())) == bounded


@pytest.mark.parametrize("with_stats", (False, True))
def test_operator_and_join_costs_are_never_negative_or_nan(monkeypatch,
                                                           with_stats):
    # ``Enumerator.run`` stops finishing plans once the cheapest partial
    # plan costs more than the best finished one, which is exact only
    # under this premise
    costs = []

    def recorded(fn, cost_of=lambda out: out[0]):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            costs.append(cost_of(out))
            return out
        return wrapper

    monkeypatch.setattr(CostModel, "op_effect",
                        recorded(CostModel.op_effect))
    # join_effect and the enumerator's candidate loop both cost a join
    # through join_cost
    recorded_join_cost = recorded(join_cost, lambda out: out)
    monkeypatch.setattr("a3d.stats.join_cost", recorded_join_cost)
    monkeypatch.setattr(enumeration, "join_cost", recorded_join_cost)
    for seed in range(9500, 9650):
        rng = random.Random(seed)
        nrel = rng.choice((1, 2, 3))
        rels = [default_relation(rng, "r%d" % i, with_key=(nrel > 1),
                                 min_rows=1) for i in range(nrel)]
        term = random_term(rng, rels[:2], n_ops=rng.randint(1, 5))
        if nrel == 3:
            term = Join(term, RelVar("r2"))
        schemas = {tr.name: tr.schema for tr in rels}
        stats = {tr.name: build_table_stats(tr.relation) for tr in rels} \
            if with_stats else None
        for mode in planner.MODES:
            try:
                optimize(term, schemas, stats=stats, mode=mode)
            except A3DError:
                pass
    assert len(costs) > 1000
    # NaN fails the comparison as well
    assert [c for c in costs if not c >= 0.0] == []


############################################################
# preprocess
############################################################

def test_conjunction_splits_into_stacked_filters():
    cm = one_rel_model()
    term = Filter(And((lt("u0", 10), lt("u1", 50))), RelVar("R"))
    pre = preprocess(term, ctx_for(cm))
    assert isinstance(pre, Filter) and isinstance(pre.child, Filter)
    assert not isinstance(pre.child.child, Filter)


def test_alias_filter_becomes_element_filter():
    cm = one_rel_model()
    term = Filter(lt("e", 5), ArrayJoin((("a", "e"),), RelVar("R")))
    pre = preprocess(term, ctx_for(cm))
    assert isinstance(pre, ArrayJoin)
    assert isinstance(pre.child, ArrayFilter)


def test_mid_tree_projections_are_hoisted():
    cm = one_rel_model()
    term = Filter(lt("u0", 10), Project(("u0", "u1"), RelVar("R")))
    pre = preprocess(term, ctx_for(cm))
    assert isinstance(pre, Project)
    assert not any(isinstance(s, Project) for _, s in walk(pre.child))


def test_filter_moved_onto_a_kept_projection_is_pulled_under_it():
    # the projection hides y, which the derive writes, so it stays under
    # the derive; R13.1 then moves the filter below the derive, onto the
    # projection, and a pull-up in a later round puts the filter under it
    schemas = {"r": Schema.of(scalars=["k", "x", "y"])}
    neg = ScalarFn.of("neg")
    term = Filter(lt("k", 5), Derive("y", neg, ("x",),
                                     Project(("k", "x"), RelVar("r"))))
    pre = preprocess(term, ctx_for(CostModel({}, schemas)))
    assert pre == Derive("y", neg, ("x",),
                         Project(("k", "x"), Filter(lt("k", 5), RelVar("r"))))


def test_empty_guard_inserted_only_when_profitable():
    favorable = one_rel_model(avg_len=4.0, ef=0.6)
    term = ArrayJoin((("a", "e"),), RelVar("R"))
    pre = preprocess(term, ctx_for(favorable))
    assert isinstance(pre, ArrayJoin) and isinstance(pre.child, Filter)
    assert pre.child.pred == Cmp("!=", Col("a"), Lit(()))

    never_empty = one_rel_model(avg_len=4.0, ef=0.0)
    pre2 = preprocess(term, ctx_for(never_empty))
    assert pre2 == term


def test_unused_derive_is_dropped():
    cm = one_rel_model()
    term = Project(("u0",), Derive("y", ScalarFn.of("neg"), ("u1",),
                                   RelVar("R")))
    pre = preprocess(term, ctx_for(cm))
    assert not any(isinstance(s, Derive) for _, s in walk(pre))


@pytest.mark.parametrize("n", range(1, 17))
def test_pattern_b_conjuncts_fuse_into_one_element_filter(n):
    # R2.2 turns each conjunct into its own arrayFilter over all n arrays;
    # R2.4 fuses them as they stack, inner (last) conjunct first
    cm = CostModel({}, pattern_schemas("B", n))
    pre = preprocess(make_pattern("B", n), ctx_for(cm))
    phis = [s for _, s in walk(pre) if isinstance(s, ArrayFilter)]
    assert len(phis) == 1
    assert split_conjuncts(phis[0].pred) == \
        [Cmp(">", Col(f"e{i}"), Lit(i)) for i in range(n, 0, -1)]


@pytest.mark.parametrize("pattern,steps,fires", [("A", 161, 32),
                                                  ("B", 68, 32)])
def test_preprocess_work_on_the_bench_patterns(monkeypatch, pattern, steps,
                                               fires):
    # resume rounds retry from the rewrite's parent, not from the root:
    # restarting there took 964 step calls on A16 and 178 on B16 for the
    # same rewrites.  One resume stage for the conjunct split, the
    # projection pull-ups and the descent took A16 from 259 calls to 161;
    # B16's conjunct split is now a step, and its 32nd record
    stage = importlib.import_module("a3d.planner.preprocess")
    calls = [0]
    real = stage.rewrite_to_fixpoint

    def counting(term, step, *args, **kwargs):
        def counted(*at):
            calls[0] += 1
            return step(*at)
        return real(term, counted, *args, **kwargs)

    monkeypatch.setattr(stage, "rewrite_to_fixpoint", counting)
    ctx = RuleContext(CostModel({}, pattern_schemas(pattern, 16)), (), [])
    preprocess(make_pattern(pattern, 16), ctx)
    assert (calls[0], len(ctx.trace)) == (steps, fires)


@pytest.mark.parametrize("mode", ["greedy", "enumerate", "preprocess"])
def test_a256_plans_within_the_default_recursion_limit(mode):
    # 768 unary operators.  The recursive conjunct split overflowed from
    # about 170 blocks up; as a step of preprocess's rounds it recurses
    # over nothing, and A310 still plans (see ROADMAP item 23)
    term, schemas = make_pattern("A", 256), pattern_schemas("A", 256)
    if mode == "preprocess":  # the stage alone
        ctx = RuleContext(CostModel({}, schemas))
        out = preprocess(term, ctx)
        assert output_schema(out, schemas) == output_schema(term, schemas)
    else:
        res = optimize(term, schemas, mode=mode)
        assert not any(isinstance(s, Filter) for _, s in walk(res.term))


@pytest.mark.parametrize("seed", range(30))
def test_preprocess_preserves_evaluation(seed):
    rng = random.Random(2000 + seed)
    nrel = rng.choice((1, 2))
    rels = [default_relation(rng, "r%d" % i, with_key=(nrel > 1), min_rows=1)
            for i in range(nrel)]
    term = random_term(rng, rels, n_ops=rng.randint(1, 5))
    schemas = {tr.name: tr.schema for tr in rels}
    db = {tr.name: tr.relation for tr in rels}
    cm = CostModel({}, schemas)
    pre = preprocess(term, RuleContext(cm))
    assert rows_equal_bag(naive_eval(term, db), list(evaluate(pre, db).rows))


############################################################
# postprocess (pre-aggregation)
############################################################

def _preagg_query():
    cm = two_rel_model(rows_l=1000, rows_r=10, ndv_k=10)
    term = Aggregate(("k",), (AggSpec("sum", "x", "s"),),
                     Join(RelVar("L"), RelVar("R")))
    return cm, term


def test_preaggregation_pushes_partial_below_join():
    cm, term = _preagg_query()
    out = postprocess(term, ctx_for(cm))
    assert out != term
    join = next(s for _, s in walk(out) if isinstance(s, Join))
    assert any(isinstance(s, Aggregate) for _, s in walk(join))
    assert cm.term_cost(out).cost < cm.term_cost(term).cost


def test_preaggregation_preserves_results():
    cm, term = _preagg_query()
    rng = random.Random(5)
    lrows = [{"k": rng.randrange(10), "x": rng.randrange(100)}
             for _ in range(60)]
    rrows = [{"k": k, "y": rng.randrange(100)} for k in range(10)]
    db = {"L": Relation.build(cm.schemas["L"], lrows),
          "R": Relation.build(cm.schemas["R"], rrows)}
    out = postprocess(term, ctx_for(cm))
    assert rows_equal_bag(naive_eval(term, db), list(evaluate(out, db).rows))


def test_postprocess_leaves_a_non_condensing_aggregate_to_the_guard():
    # without statistics the four keys estimate as many groups as the
    # unnested rows: each pre-aggregation rule whose shape matches is
    # attempted once, and the cost guard rejects every partial aggregate,
    # as it does in greedy's rounds
    schema = Schema.of(scalars=("k1", "k2", "k3", "k4"), arrays=("v",))
    cm = CostModel({}, {"R": schema})
    term = Aggregate(("k1", "k2", "k3", "k4"), (AggSpec("sum", "e", "s"),),
                     ArrayJoin((("v", "e"),), RelVar("R")))
    groups = cm.term_cost(term).state.rows
    assert groups == cm.term_cost(term.child).state.rows
    ctx = ctx_for(cm)
    assert postprocess(term, ctx) == term
    assert ctx.rule_counts == {rule_id: [1, 0] for rule_id in
                               ("R17.1", "R17.2", "R17.3", "R20")}


def test_postprocess_cap_raises(monkeypatch):
    cm, term = _preagg_query()
    monkeypatch.setattr(postprocess_stage, "REWRITE_CAP", 0)
    with pytest.raises(FixpointCapError, match="^postprocess: "):
        postprocess(term, ctx_for(cm))


def test_postprocess_fuses_stacked_array_filters():
    cm = one_rel_model(arrays=("a", "b"))
    inner = ArrayFilter((("a", "ea"), ("b", "eb")), lt("ea", 5), RelVar("R"))
    term = ArrayFilter((("ea", "ea"), ("eb", "eb")), lt("eb", 9), inner)
    out = postprocess(term, ctx_for(cm))
    assert out == ArrayFilter((("a", "ea"), ("b", "eb")),
                              And((lt("ea", 5), lt("eb", 9))), RelVar("R"))
    assert cm.term_cost(out).cost < cm.term_cost(term).cost


def test_no_greedy_or_enumerate_plan_keeps_a_fusable_stack():
    # seeds 11, 35, 60, 108, 141, 173 and 262 place such a stack in
    # enumerate mode; postprocess fuses it.  The oracle, a baseline, keeps
    # its plans as placed.
    r2_4 = rewrite.RULES_BY_ID["R2.4"]
    for seed in range(300):
        term, schemas, stats = random_query(seed)
        for mode in ("greedy", "enumerate"):
            try:
                res = optimize(term, schemas, stats=stats, mode=mode)
            except A3DError:
                continue
            assert not [s for _, s in walk(res.term)
                        if r2_4.matches(s) and r2_4.fn(s, None) is not None
                        ], (seed, mode)


def test_collapse_reaggregation_fuses_identity_pairs():
    inner = Aggregate(("k",), (AggSpec("sum", "x", "s"),), RelVar("L"))
    outer = Aggregate(("k",), (AggSpec("sum", "s", "s"),), inner)
    assert collapse_idempotent_reaggregation(outer) == \
        Aggregate(("k",), (AggSpec("sum", "x", "s"),), RelVar("L"))
    # count over a singleton group is 1, not the value: no fusion
    outer_count = Aggregate(("k",), (AggSpec("count", "s", "n"),), inner)
    assert collapse_idempotent_reaggregation(outer_count) == outer_count
    # different keys: no fusion
    other = Aggregate(("x",), (AggSpec("sum", "s", "s"),), inner)
    assert collapse_idempotent_reaggregation(other) == other


def test_postprocess_returns_its_input_where_nothing_fires():
    # neither a rule nor the collapse rebuilds a node: the plan comes back
    # as the same object, down to its leaves
    inner = Aggregate(("k",), (AggSpec("sum", "x", "s"),), RelVar("L"))
    outer = Aggregate(("k",), (AggSpec("count", "s", "n"),), inner)
    term = Filter(lt("n", 3), Join(outer, RelVar("R")))
    assert collapse_idempotent_reaggregation(term) is term
    assert postprocess(term, ctx_for(two_rel_model())) is term
    # nor where the guard rejects each pre-aggregation it is offered
    schema = Schema.of(scalars=("k1", "k2", "k3", "k4"), arrays=("v",))
    term = Aggregate(("k1", "k2", "k3", "k4"), (AggSpec("sum", "e", "s"),),
                     ArrayJoin((("v", "e"),), RelVar("R")))
    ctx = ctx_for(CostModel({}, {"R": schema}))
    assert postprocess(term, ctx) is term
    assert ctx.rule_counts["R20"] == [1, 0]


############################################################
# greedy mode
############################################################

def test_greedy_pushes_filter_below_join():
    cm = two_rel_model()
    term = Filter(lt("x", 10), Join(RelVar("L"), RelVar("R")))
    out = optimize_greedy(term, ctx_for(cm))
    assert isinstance(out, Join)
    assert any(isinstance(s, Filter) for _, s in walk(out.left))
    assert cm.term_cost(out).cost < cm.term_cost(term).cost


def test_greedy_step_cap_raises(monkeypatch):
    cm = two_rel_model()
    term = Filter(lt("x", 10), Join(RelVar("L"), RelVar("R")))
    monkeypatch.setattr(greedy_stage, "REWRITE_CAP", 0)
    with pytest.raises(FixpointCapError, match="^greedy: "):
        optimize_greedy(term, ctx_for(cm))


@pytest.mark.parametrize("seed", range(20))
def test_greedy_never_worsens_cost(seed):
    rng = random.Random(3000 + seed)
    nrel = rng.choice((1, 2))
    rels = [default_relation(rng, "r%d" % i, with_key=(nrel > 1), min_rows=1)
            for i in range(nrel)]
    term = random_term(rng, rels, n_ops=rng.randint(1, 4))
    schemas = {tr.name: tr.schema for tr in rels}
    cm = CostModel({}, schemas)
    out = optimize_greedy(term, RuleContext(cm))
    assert cm.term_cost(out).cost <= cm.term_cost(term).cost + 1e-9


############################################################
# the optimize() facade
############################################################

def test_optimize_result_contract():
    cm = two_rel_model()
    term = Filter(lt("x", 10), Join(RelVar("L"), RelVar("R")))
    res = optimize(term, cm.schemas, stats=cm.stats, trace=True)
    assert res.mode == "enumerate"
    assert res.cost == pytest.approx(cm.term_cost(res.term).cost)
    assert {"preprocess", "enumerate", "postprocess", "total"} <= \
        set(res.timings_ms)
    # the set-up before the search is a stage of its own, and the stages
    # are disjoint
    stages = dict(res.timings_ms)
    total = stages.pop("total")
    assert set(stages) == {"preprocess", "decompose", "enumerate",
                           "postprocess"}
    assert total == pytest.approx(sum(stages.values()))
    assert res.counters["relations"] == 2
    assert res.counters["rankable_ops"] >= 1
    assert isinstance(res.trace, list)
    assert all({"stage", "rule"} <= set(r) for r in res.trace)


def _golden_trace_queries():
    """name -> (cost model, statistics, term); together the traces in
    GOLDEN_TRACES hold every kind of record the pipeline writes."""
    # projection pull-up, then a filter pushed below an arrayJoin
    pull = Filter(lt("u0", 5), Project(("k", "u0", "e"),
                                       ArrayJoin((("a", "e"),), RelVar("R"))))
    # every filter descends: past derives (R13.1), through an affine
    # derive (R13.2), past an arrayFilter, below an arrayJoin (R2.1) or
    # into it (R2.2); z is dead and greedy then drops it as well (R14)
    t = ArrayJoin((("a", "e"),), RelVar("R"))
    t = ArrayFilter((("b", "f"),), lt("f", 3), t)
    t = Derive("z", ScalarFn.of("neg"), ("k",), t)
    t = Derive("y", ScalarFn.of("affine", a=2, b=1), ("u0",), t)
    t = Filter(lt("u2", 7), t)
    t = Filter(lt("e", 5), t)
    t = Filter(Cmp(">", Col("y"), Lit(41)), t)
    descend = Project(("e", "f", "k", "u0", "y"), t)
    # keys spill over the join: eager partial aggregation (R21)
    join_agg = Aggregate(("y",), (AggSpec("sum", "x", "s"),),
                         Join(RelVar("L"), RelVar("R")))
    # aggregate over unnested elements without unnesting (R17.1)
    foreach = Aggregate(("k",), (AggSpec("sum", "e", "s"),),
                        ArrayJoin((("a", "e"),), RelVar("R")))
    guarded = one_rel_model(ef=0.6)
    two = one_rel_model(arrays=("a", "b"), ef=0.6)
    joined = two_rel_model()
    plain = one_rel_model()
    return {
        "pull": (guarded, guarded.stats, pull),
        "descend": (two, two.stats, descend),
        "join_agg": (joined, joined.stats, join_agg),
        "foreach": (plain, None, foreach),
    }


GOLDEN_TRACES = {
    ("pull", "enumerate"): [
        ("preprocess", "project-pull", [], 900.0, 900.0),
        ("preprocess", "R2.1", [0], 900.0, 220.0),
        ("preprocess", "R2.3", [0], 220.0, 213.0),
        ("enumerate", "placement", [], 213.0, 213.0),
    ],
    ("descend", "greedy"): [
        ("preprocess", "R13.1", [0, 0, 0], 3335.0, 2963.0),
        ("preprocess", "R13.1", [0, 0], 2963.0, 2942.0),
        ("preprocess", "R13.2", [0], 2942.0, 2940.6),
        ("preprocess", "R13.1", [0, 0, 0, 0], 2940.6, 2568.6),
        ("preprocess", "R13.1", [0, 0, 0], 2568.6, 2547.6),
        ("preprocess", "R13.1", [0, 0], 2547.6, 2546.2),
        ("preprocess", "filter-past-arrayFilter", [0, 0, 0, 0, 0],
         2546.2, 1058.2),
        ("preprocess", "filter-past-arrayFilter", [0, 0, 0, 0],
         1058.2, 974.2),
        ("preprocess", "filter-past-arrayFilter", [0, 0, 0], 974.2, 968.6),
        ("preprocess", "R2.1", [0, 0, 0, 0, 0, 0], 968.6, 296.6),
        ("preprocess", "R2.2", [0, 0, 0, 0, 0], 296.6, 275.6),
        ("preprocess", "R2.1", [0, 0, 0, 0], 275.6, 274.2),
        ("preprocess", "filter-past-arrayFilter", [0, 0, 0, 0, 0],
         274.2, 268.6),
        ("preprocess", "R2.3", [0, 0, 0, 0], 268.6, 250.68),
        ("preprocess", "dead-derive", [], 250.68, 248.44),
        ("greedy", "R14", [], 248.44, 248.44),
    ],
    ("join_agg", "greedy"): [
        ("greedy", "R21", [], 4020.0, 2050.0),
    ],
    ("join_agg", "enumerate"): [
        ("enumerate", "placement", [], 4020.0, 4020.0),
        ("postprocess", "R21", [], 4020.0, 2050.0),
    ],
    ("foreach", "enumerate"): [
        ("enumerate", "placement", [], 9000.0, 9000.0),
        ("postprocess", "R17.1", [], 9000.0, 6050.0),
    ],
}


@pytest.mark.parametrize("name, mode", list(GOLDEN_TRACES))
def test_trace_records_are_golden(name, mode):
    cm, stats, term = _golden_trace_queries()[name]
    res = optimize(term, cm.schemas, stats=stats, mode=mode, trace=True)
    got = [(r["stage"], r["rule"], r["path"], round(r["before_cost"], 6),
            round(r["after_cost"], 6)) for r in res.trace]
    assert got == GOLDEN_TRACES[name, mode]
    assert all(set(r) == {"stage", "rule", "path", "before_cost",
                          "after_cost"} for r in res.trace)


def _trace_chain_queries():
    """(name, term, schemas, statistics) of the queries whose greedy traces
    must chain from the input's cost to the plan's."""
    for seed in range(300):
        yield (f"random/{seed}", *random_query(seed))
    for seed in range(6000, 6300):
        yield (f"inner/{seed}", *inner_query(seed))
    for kind in "AB":
        yield f"{kind}16", make_pattern(kind, 16), pattern_schemas(kind, 16), \
            None


def _assert_trace_chains(trace, before: float, after: float, name) -> None:
    """`trace`'s costs chain from `before`, record by record, to `after`."""
    for rec in trace:
        assert rec["before_cost"] == before, (name, rec)
        before = rec["after_cost"]
    assert before == after, name


def test_the_trace_accounts_for_every_rewrite():
    # every change of the plan is a record, the conjunct split, the
    # reaggregation collapse and the search's placement among them: the
    # first record starts at the input's cost, each starts where the last
    # ended, and the last ends at the plan's
    for mode in planner.MODES:
        chains = 0
        for name, term, schemas, stats in _trace_chain_queries():
            try:
                res = optimize(term, schemas, stats=stats, mode=mode,
                               trace=True)
            except A3DError:
                continue
            cost = CostModel(dict(stats or {}), schemas).term_cost(term).cost
            _assert_trace_chains(res.trace, cost, res.cost, (name, mode))
            placements = [rec for rec in res.trace
                          if rec["rule"] == "placement"]
            assert len(placements) == (mode != "greedy"), (name, mode)
            chains += bool(res.trace)
        # in greedy mode 488 of the 602 plans rewrite at least once
        assert chains > 450, mode


def test_a_traced_preprocess_chains_from_its_input_to_its_output():
    for name, term, schemas, stats in _trace_chain_queries():
        cm = CostModel(dict(stats or {}), schemas)
        ctx = RuleContext(cm, (), [])
        out = preprocess(term, ctx)
        _assert_trace_chains(ctx.trace, cm.term_cost(term).cost,
                             cm.term_cost(out).cost, name)


def test_optimize_rejects_a_plan_that_changes_the_output_schema(
        monkeypatch):
    cm = two_rel_model()
    term = Filter(lt("x", 10), Join(RelVar("L"), RelVar("R")))

    def lossy_placement(pre, ctx):
        return Project(("k", "x"), pre)  # loses the output column y

    monkeypatch.setattr(planner, "optimize_greedy", lossy_placement)
    with pytest.raises(SchemaError, match="output schema"):
        optimize(term, cm.schemas, stats=cm.stats, mode="greedy")


def test_optimize_rejects_unknown_mode_and_bad_schema():
    cm = two_rel_model()
    with pytest.raises(ValueError):
        optimize(RelVar("L"), cm.schemas, mode="metaheuristic")
    with pytest.raises(SchemaError):
        optimize(Filter(lt("nope", 1), RelVar("L")), cm.schemas)


@pytest.mark.parametrize("seed", range(20))
def test_all_modes_preserve_evaluation(seed):
    rng = random.Random(4000 + seed)
    nrel = rng.choice((1, 2))
    rels = [default_relation(rng, "r%d" % i, with_key=(nrel > 1), min_rows=1)
            for i in range(nrel)]
    term = random_term(rng, rels, n_ops=rng.randint(1, 4))
    schemas = {tr.name: tr.schema for tr in rels}
    db = {tr.name: tr.relation for tr in rels}
    want = naive_eval(term, db)
    for mode in ("greedy", "enumerate"):
        res = optimize(term, schemas, mode=mode)
        assert rows_equal_bag(want, list(evaluate(res.term, db).rows)), mode


@pytest.mark.parametrize("seed", (19, 69, 87, 621, 623, 710))
def test_every_mode_plans_former_failures(seed):
    # built as in test_enumerate_is_never_beaten_by_oracle, with statistics
    # on odd seeds; greedy used to stack emptiness guards without end (19,
    # 69, 87, 623) and enumerate/oracle to schedule a derive below the
    # aggregate that drops its output (621, 710)
    rng = random.Random(seed)
    nrel = rng.choice((1, 1, 2))
    rels = [default_relation(rng, "r%d" % i, with_key=(nrel > 1), min_rows=1)
            for i in range(nrel)]
    term = random_term(rng, rels, n_ops=rng.randint(1, 5))
    schemas = {tr.name: tr.schema for tr in rels}
    db = {tr.name: tr.relation for tr in rels}
    stats = {tr.name: build_table_stats(tr.relation) for tr in rels} \
        if seed % 2 else None
    want = list(evaluate(term, db).rows)
    for mode in ("greedy", "enumerate", "oracle"):
        try:
            res = optimize(term, schemas, stats=stats, mode=mode)
        except OracleLimitError:
            assert mode == "oracle"
            continue
        assert rows_equal_bag(want, list(evaluate(res.term, db).rows)), mode
        guards = [n.pred for _, n in walk(res.term)
                  if isinstance(n, Filter) and isinstance(n.pred, Cmp)
                  and n.pred.op == "!=" and n.pred.rhs == Lit(())]
        assert len(guards) == len(set(guards)), mode


def _overwritten_join_key(case):
    """(term, schemas, db) of a join with an operator above it that
    rewrites its key column: from another column, from itself, or, for a
    join on an array, by unnesting it in place."""
    keyed = {"R": Schema.of(scalars=("k", "x")),
             "S": Schema.of(scalars=("k", "y"))}
    keyed_db = {"R": Relation.build(keyed["R"], [
                    {"k": i % 3, "x": i - 2} for i in range(5)]),
                "S": Relation.build(keyed["S"], [
                    {"k": j - 1, "y": j} for j in range(4)])}
    join = Join(RelVar("R"), RelVar("S"))
    arrays = {"R": Schema.of(scalars=("x",), arrays=("a",)),
              "S": Schema.of(scalars=("y",), arrays=("a",))}
    arrays_db = {"R": Relation.build(arrays["R"], [
                     {"x": 1, "a": (1, 2)}, {"x": 2, "a": (3,)}]),
                 "S": Relation.build(arrays["S"], [
                     {"y": 5, "a": (1, 2)}, {"y": 6, "a": (4,)}])}
    neg = ScalarFn.of("neg")
    return {
        "derive-from-other": (Derive("k", neg, ("x",), join), keyed,
                              keyed_db),
        "derive-from-itself": (Derive("k", neg, ("k",), join), keyed,
                               keyed_db),
        "unnest-in-place": (ArrayJoin((("a", "a"),), join), arrays,
                            arrays_db)}[case]


@pytest.mark.parametrize("case", ("derive-from-other", "derive-from-itself",
                                  "unnest-in-place"))
@pytest.mark.parametrize("mode", ("greedy", "enumerate", "oracle"))
def test_an_operator_rewriting_a_join_key_stays_above_the_join(mode, case):
    # the operator overwrites the column its join matches on, so below the
    # join it would change what matches (or give the key two kinds, which
    # ``Schema`` rejects); every mode keeps it above the join, and the
    # result equal
    term, schemas, db = _overwritten_join_key(case)
    want = list(evaluate(term, db).rows)
    assert want
    res = optimize(term, schemas, mode=mode)
    got = list(evaluate(res.term, db).rows)
    assert rows_equal_bag(want, got), repr(res.term)
    assert type(res.term) is type(term), repr(res.term)


def test_inner_projections_plan_to_equal_results():
    # with_inner_project puts a projection under a Project, Join, Aggregate
    # or unary node, so every branch of the pull-up runs
    parents = set()
    for seed in range(400):
        rng = random.Random(6000 + seed)
        nrel = rng.choice((1, 2))
        rels = [default_relation(rng, "r%d" % i, with_key=(nrel > 1),
                                 min_rows=1) for i in range(nrel)]
        schemas = {tr.name: tr.schema for tr in rels}
        term = random_term(rng, rels, n_ops=rng.randint(1, 5))
        term = with_inner_project(rng, term, schemas)
        parents |= {type(sub) for _, sub in walk(term)
                    if any(isinstance(k, Project) for k in children(sub))}
        db = {tr.name: tr.relation for tr in rels}
        stats = {tr.name: build_table_stats(tr.relation) for tr in rels} \
            if seed % 2 else None
        want = list(evaluate(term, db).rows)
        for mode in planner.MODES:
            try:
                res = optimize(term, schemas, stats=stats, mode=mode)
            except OracleLimitError:
                assert mode == "oracle"
                continue
            got = list(evaluate(res.term, db).rows)
            assert rows_equal_bag(want, got), (seed, mode)
    assert {Project, Join, Aggregate} <= parents
    assert parents & {Filter, ArrayJoin, ArrayFilter, Derive}


def test_every_exported_planner_error_is_an_a3d_error():
    errors = [obj for obj in map(planner.__dict__.get, planner.__all__)
              if isinstance(obj, type) and issubclass(obj, BaseException)]
    assert len(errors) == 5  # one FixpointCapError serves both stages
    for err in errors:
        assert issubclass(err, A3DError), err.__name__


def test_enumerate_cost_at_most_oracle_cost():
    cm = two_rel_model()
    term = Aggregate(("k",), (AggSpec("sum", "x", "s"),),
                     Filter(lt("x", 50), Join(RelVar("L"), RelVar("R"))))
    fast = optimize(term, cm.schemas, stats=cm.stats, mode="enumerate")
    base = optimize(term, cm.schemas, stats=cm.stats, mode="oracle")
    assert fast.cost <= base.cost + 1e-9
    assert base.counters["states"] > 0 and base.counters["orderings"] > 0


def test_optimize_is_idempotent_on_cost():
    cm = two_rel_model()
    term = Filter(lt("x", 10), Join(RelVar("L"), RelVar("R")))
    once = optimize(term, cm.schemas, stats=cm.stats)
    twice = optimize(once.term, cm.schemas, stats=cm.stats)
    assert twice.cost == pytest.approx(once.cost)


@pytest.mark.parametrize("mode", planner.MODES)
def test_rule_counters_count_calls_and_kept_rewrites(monkeypatch, mode):
    calls = collections.Counter()

    def counted(rule):
        def fn(sub, ctx):
            # the engine never calls a rule off its shapes
            assert rule.matches(sub), (rule.rule_id, type(sub))
            calls[rule.rule_id] += 1
            return rule.fn(sub, ctx)
        return dataclasses.replace(rule, fn=fn)

    catalog = list(rewrite.CATALOG)
    # rules_at resolves ids through RULES_BY_ID; the catalog list is
    # patched in place too, so no reader of either sees an uncounted rule
    rewrite.CATALOG[:] = [counted(rule) for rule in catalog]
    attempts = 0
    try:
        for rule in rewrite.CATALOG:
            monkeypatch.setitem(rewrite.RULES_BY_ID, rule.rule_id, rule)
        for cm, stats, term in _golden_trace_queries().values():
            calls.clear()
            res = optimize(term, cm.schemas, stats=stats, mode=mode,
                           trace=True)
            rules = res.counters["rules"]
            assert {r: n[0] for r, n in rules.items()} == calls
            attempts += sum(calls.values())
            fired = collections.Counter(
                rec["rule"] for rec in res.trace
                if rec["rule"] in rewrite.RULES_BY_ID)
            assert {r: n[1] for r, n in rules.items() if n[1]} == fired
    finally:
        rewrite.CATALOG[:] = catalog
    assert attempts


def test_a16_greedy_attempts_only_rules_on_their_shapes():
    # Preprocess inverts each of the 16 filters through its derive (R13.2)
    # and turns it into an arrayFilter (R2.2), one attempt per fire, then
    # tries one emptiness guard per arrayJoin (R2.3).  Greedy's one round
    # finds nothing: at each of the 16 levels it tries R5.1 and R5.2 on the
    # derive over the arrayJoin and R2.3 on the arrayJoin, and on 15 levels
    # R11.1 and R11.2 on the arrayFilter over the level below's derive.
    # 16 * 3 + 16 * 3 + 15 * 2 = 126; a scan of the whole catalog at every
    # node made 1,679.
    res = optimize(make_pattern("A", 16), pattern_schemas("A", 16),
                   mode="greedy")
    assert res.counters["rules"] == {
        "R13.2": [16, 16], "R2.2": [16, 16], "R2.3": [32, 0],
        "R5.1": [16, 0], "R5.2": [16, 0], "R11.1": [15, 0], "R11.2": [15, 0]}
    assert sum(n[0] for n in res.counters["rules"].values()) == 126


def test_planning_leaves_no_reference_cycles():
    # only the cyclic collector frees a cycle, so a planning call that left
    # one would make the planner's memory peak move with collector timing
    import plan_digest

    cases = [(t, s, st, m, c) for _, t, s, c, m, st
             in plan_digest.bench_queries(1)]
    for seed in range(150):
        term, schemas, stats = random_query(seed)
        cases += [(term, schemas, stats, mode, None)
                  for mode in planner.MODES]
    gc.collect()
    gc.disable()
    try:
        for term, schemas, stats, mode, corr in cases:
            try:
                plan_digest.plan(term, schemas, stats, mode, corr)
            except OracleLimitError:
                assert mode == "oracle"
        assert gc.collect() == 0
    finally:
        gc.enable()
