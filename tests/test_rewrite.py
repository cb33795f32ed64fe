"""Rewrite catalog: equivalence, guards, and engine invariants.

The core property: every rule, applied anywhere it matches, preserves the
bag of result rows.  Expected values come from evaluating both sides with
the package interpreter and cross-checking the rewritten side against the
independent naive interpreter.  [DERIVED]
"""

import gc
import importlib
import itertools
import random
import weakref
from pathlib import Path

import pytest

from a3d import algebra, rewrite
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
    format_term,
    output_schema,
    replace_at,
    walk,
    with_children,
)
from a3d.functions import ScalarFn
from a3d.planner import optimize
from a3d.predicates import And, Cmp, Col, Lit, format_pred
from a3d.rewrite import (
    CATALOG,
    RULES_BY_ID,
    Rule,
    RuleContext,
    RewriteError,
    guard_cost_improves,
    rules_at,
    try_apply,
)
from a3d.stats import CostModel, CostResult, build_table_stats
from a3d.testkit import make_pattern, pattern_schemas

from gen_utils import (
    default_relation, inner_query, random_query, random_term, subterm_at,
)
from naive_interp import naive_eval, rows_equal_bag
from rule_instances import GENS, _rel_t

SEED0 = 411_000
N_INSTANCES = 60

RULE_KIND = {r.rule_id: r.kind for r in CATALOG}


def _stable(rule_id):
    return sum(ord(ch) * (i + 1) for i, ch in enumerate(rule_id))


def _ctx(inst):
    return RuleContext(CostModel({}, inst.schemas), inst.correspondences)


def _applied(rule, root, path, sub, ctx):
    """``try_apply`` at `path` of `root`, with `root` bound as a round
    binds it: the rewritten root, or None."""
    new = try_apply(rule, path, sub, ctx.bind_root(root))
    return None if new is None else replace_at(root, path, new)


def _guarded(rule, root, path, sub, ctx):
    """``guard_cost_improves`` as ``_applied`` runs ``try_apply``."""
    new = guard_cost_improves(rule, path, sub, ctx.bind_root(root))
    return None if new is None else replace_at(root, path, new)


def _apply(rule_id, inst):
    new_root = _applied(RULES_BY_ID[rule_id], inst.term, inst.path,
                        subterm_at(inst.term, inst.path), _ctx(inst))
    assert new_root is not None, f"{rule_id} failed to match"
    return new_root


############################################################
# catalog shape
############################################################

def test_catalog_is_complete():
    assert len(CATALOG) == 32
    kinds = {}
    for r in CATALOG:
        kinds.setdefault(r.kind, set()).add(r.rule_id)
    assert len(kinds["rule"]) == 12
    assert len(kinds["cost"]) == 20
    assert set(GENS) == set(RULES_BY_ID)


def test_rule_ids_unique_and_titled():
    assert len({r.rule_id for r in CATALOG}) == len(CATALOG)
    assert all(r.title for r in CATALOG)


# the paper's pairwise matrix: (node type, child type) -> rule ids in
# catalog order; a child type of None matches any child
PAIRWISE_MATRIX = {
    (Filter, Filter): ["R1"],
    (Filter, ArrayJoin): ["R2.1", "R2.2"],
    (Filter, Join): ["R6"],
    (Filter, Derive): ["R13.1", "R13.2"],
    (Filter, Aggregate): ["R15"],
    (ArrayJoin, None): ["R2.3"],
    (ArrayJoin, Join): ["R4.1", "R4.2"],
    (ArrayJoin, ArrayJoin): ["R12"],
    (ArrayFilter, ArrayFilter): ["R2.4", "R10.3"],
    (ArrayFilter, Join): ["R10.1"],
    (ArrayFilter, Derive): ["R11.1", "R11.2"],
    (Derive, ArrayFilter): ["R11.1"],
    (Derive, Join): ["R8"],
    (Derive, ArrayJoin): ["R5.1", "R5.2"],
    (Project, Filter): ["R3"],
    (Project, Join): ["R9"],
    (Project, Derive): ["R14"],
    (Join, None): ["R7", "R10.2"],
    (Aggregate, Join): ["R16", "R18", "R21", "R19"],
    (Aggregate, ArrayJoin): ["R17.1", "R17.2", "R17.3", "R20"],
}


def test_rule_shapes_form_the_pairwise_matrix():
    matrix = {}
    for rule in CATALOG:
        for shape in rule.shapes:
            matrix.setdefault(shape, []).append(rule.rule_id)
    assert matrix == PAIRWISE_MATRIX


def _node(node_type, child):
    """A node of `node_type` over `child`, with placeholder fields."""
    pred = Cmp("<", Col("x"), Lit(0))
    return {
        Filter: lambda: Filter(pred, child),
        Project: lambda: Project(("x",), child),
        ArrayJoin: lambda: ArrayJoin((("a", "e"),), child),
        ArrayFilter: lambda: ArrayFilter((("a", "e"),), pred, child),
        Derive: lambda: Derive("y", ScalarFn.of("neg"), ("x",), child),
        Aggregate: lambda: Aggregate(("x",), (), child),
        Join: lambda: Join(child, RelVar("u")),
        RelVar: lambda: RelVar("t"),
    }[node_type]()


NODE_TYPES = (Filter, Project, ArrayJoin, ArrayFilter, Derive, Aggregate,
              Join, RelVar)


def test_rules_at_returns_the_matching_rules_in_the_given_order():
    for node_type in NODE_TYPES:
        for child_type in NODE_TYPES:
            sub = _node(node_type, _node(child_type, RelVar("t")))
            want = [rule for rule in CATALOG
                    if (node_type, None) in rule.shapes
                    or (node_type, child_type) in rule.shapes
                    and node_type not in (Join, RelVar)]
            assert rules_at(sub) == want, (node_type, child_type)
            assert [r for r in CATALOG if r.matches(sub)] == want
            ids = tuple(reversed([r.rule_id for r in CATALOG]))
            assert rules_at(sub, ids) == want[::-1]
    # the order of the ids given, not the catalog's
    sub = _node(ArrayJoin, _node(Join, RelVar("t")))
    assert [r.rule_id for r in rules_at(sub)] == ["R2.3", "R4.1", "R4.2"]
    assert [r.rule_id for r in rules_at(sub, ("R4.2", "R6", "R2.3"))] == \
        ["R4.2", "R2.3"]


def test_rules_at_serves_the_rule_now_registered(monkeypatch):
    sub = _node(Filter, _node(Filter, RelVar("t")))
    assert rules_at(sub) == [RULES_BY_ID["R1"]]
    assert rules_at(sub, ("R1",)) == [RULES_BY_ID["R1"]]
    swapped = Rule("R1", "cost", "swapped", lambda s, ctx: None,
                   ((Filter, Filter),))
    monkeypatch.setitem(rewrite.RULES_BY_ID, "R1", swapped)
    assert rules_at(sub)[0] is swapped
    assert rules_at(sub, ("R1",))[0] is swapped


def test_off_shape_rule_is_neither_called_nor_counted():
    def boom(sub, ctx):
        raise AssertionError("called off its shapes")

    rule = Rule("X3", "cost", "filters over filters only", boom,
                ((Filter, Filter),))
    t = _rel_t(random.Random(SEED0), nmin=1)
    ctx = RuleContext(CostModel({}, {"t": t.schema}))
    term = Filter(Cmp("<", Col("x"), Lit(0)), RelVar("t"))
    assert _applied(rule, term, (), term, ctx) is None
    assert _guarded(rule, term, (), term, ctx) is None
    assert rewrite._attempt(rule, term, ctx) is None
    assert ctx.rule_counts == {}


@pytest.mark.parametrize("rule_id", sorted(GENS))
def test_rule_instances_have_their_rule_shape(rule_id):
    # every planted instance sits on one of its rule's shapes
    rule = RULES_BY_ID[rule_id]
    for i in range(N_INSTANCES):
        inst = GENS[rule_id](random.Random(SEED0 + 1000 * i))
        sub = subterm_at(inst.term, inst.path)
        assert rule.matches(sub), (rule_id, i, type(sub))
        assert rule in rules_at(sub)


############################################################
# the core equivalence property
############################################################

@pytest.mark.parametrize("rule_id", sorted(GENS))
def test_rule_preserves_results(rule_id):
    gen = GENS[rule_id]
    for i in range(N_INSTANCES):
        seed = SEED0 + 1000 * i + _stable(rule_id)
        rng = random.Random(seed)
        inst = gen(rng)
        new_root = _apply(rule_id, inst)
        before = evaluate(inst.term, inst.db)
        after = evaluate(new_root, inst.db)
        assert rows_equal_bag(before.rows, after.rows), \
            f"{rule_id} changed results (seed {seed})"
        # cross-check the rewritten plan against the naive interpreter
        assert rows_equal_bag(after.rows, naive_eval(new_root, inst.db)), \
            f"{rule_id} disagrees with naive eval (seed {seed})"


@pytest.mark.parametrize("rule_id", sorted(GENS))
def test_rule_application_is_deterministic(rule_id):
    rng = random.Random(SEED0 + 7)
    inst = GENS[rule_id](rng)
    assert _apply(rule_id, inst) == _apply(rule_id, inst)


# the pre-aggregation rules, each with the aggregate functions it accepts
PREAGG_FNS = {"R16": {"distinct"}, "R19": {"sum", "min", "max"},
              **{r: {"min", "max", "sum", "count", "avg"} for r in
                 ("R17.1", "R17.2", "R17.3", "R18", "R20", "R21")}}
PREAGG_GOLDEN = Path(__file__).parent / "golden" / "preagg_rewrites.txt"
N_GOLDEN = 20


def _preagg_golden_text():
    """Each pre-aggregation rule's rewrite of its first `N_GOLDEN`
    instances, seeded as in ``test_rule_preserves_results``: a ``#`` line
    naming the rule and seed, then ``format_term`` of the rewritten root.
    To write the file again, run ``PREAGG_GOLDEN.write_text(...)`` of this
    text with ``src`` and ``tests`` on the path."""
    blocks = []
    for rule_id in sorted(PREAGG_FNS):
        for i in range(N_GOLDEN):
            seed = SEED0 + 1000 * i + _stable(rule_id)
            inst = GENS[rule_id](random.Random(seed))
            blocks.append(f"# {rule_id} seed {seed}\n"
                          + format_term(_apply(rule_id, inst)) + "\n")
    return "".join(blocks)


def test_preagg_instances_cover_every_accepted_function():
    for rule_id, fns in PREAGG_FNS.items():
        seen = set()
        for i in range(N_GOLDEN):
            seed = SEED0 + 1000 * i + _stable(rule_id)
            inst = GENS[rule_id](random.Random(seed))
            agg = subterm_at(inst.term, inst.path)
            seen |= {s.fn for s in agg.aggs}
        assert seen == fns, rule_id


def test_preagg_rewrites_match_the_golden_file():
    # pins every term and fresh name the shared partial/final split builds
    assert _preagg_golden_text() == PREAGG_GOLDEN.read_text()


def test_set_mode_spot_checks():
    # dedup-everywhere semantics also holds for the structural rules; the
    # pre-aggregation family is bag-only (partials from different groups may
    # collide and dedup away), so it stays out of this list.
    for rule_id in ("R2.2", "R3", "R6", "R9", "R13.2"):
        for i in range(20):
            rng = random.Random(SEED0 + 31 * i)
            inst = GENS[rule_id](rng)
            new_root = _apply(rule_id, inst)
            before = evaluate(inst.term, inst.db, mode="set")
            after = evaluate(new_root, inst.db, mode="set")
            assert rows_equal_bag(before.rows, after.rows), (rule_id, i)


# the rules whose column conditions come from algebra.footprint
FOOTPRINT_RULES = ("R1", "R2.1", "R4.1", "R5.1", "R6", "R7", "R8", "R10.1",
                   "R10.2", "R11.1", "R12", "R13.1", "R15")


def test_footprint_rules_preserve_results_on_random_plans():
    # every node of 300 random terms and of their greedy and enumerate
    # plans; try_apply raises RewriteError on a schema change
    fired = dict.fromkeys(FOOTPRINT_RULES, 0)
    for seed in range(300):
        rng = random.Random(9100 + seed)
        nrel = rng.choice((1, 2))
        rels = [default_relation(rng, "r%d" % i, with_key=(nrel > 1),
                                 min_rows=1) for i in range(nrel)]
        term = random_term(rng, rels, n_ops=rng.randint(1, 5))
        schemas = {tr.name: tr.schema for tr in rels}
        db = {tr.name: tr.relation for tr in rels}
        stats = {tr.name: build_table_stats(tr.relation) for tr in rels} \
            if seed % 2 else None
        roots = [term] + [optimize(term, schemas, stats=stats, mode=m).term
                          for m in ("greedy", "enumerate")]
        ctx = RuleContext(CostModel({}, schemas))
        for root in roots:
            want = evaluate(root, db)
            for path, sub in walk(root):
                for rule_id in FOOTPRINT_RULES:
                    new = _applied(RULES_BY_ID[rule_id], root, path, sub, ctx)
                    if new is None:
                        continue
                    fired[rule_id] += 1
                    got = evaluate(new, db)
                    assert got.schema == want.schema
                    assert rows_equal_bag(want.rows, got.rows), \
                        (seed, rule_id, path)
    assert all(fired.values()), fired


############################################################
# engine invariants
############################################################

def applicable(root, ctx, kinds=("rule", "cost")):
    """Yield (rule, path) pairs that fire somewhere in `root`."""
    ctx.bind_root(root)
    for path, sub in walk(root):
        for rule in CATALOG:
            if rule.kind not in kinds:
                continue
            try:
                new_sub = rewrite._attempt(rule, sub, ctx)
            except SchemaError:
                continue
            if new_sub is not None:
                yield rule, path


def test_applicable_reports_planted_matches():
    rng = random.Random(SEED0)
    inst = GENS["R17.1"](rng)
    hits = {(r.rule_id, path)
            for r, path in applicable(inst.term, _ctx(inst))}
    assert ("R17.1", ()) in hits


def test_applicable_respects_kind_filter():
    rng = random.Random(SEED0)
    inst = GENS["R6"](rng)
    only_rules = {r.rule_id
                  for r, _ in applicable(inst.term, _ctx(inst), ("rule",))}
    assert "R6" in only_rules
    assert all(RULE_KIND[rid] == "rule" for rid in only_rules)


def test_schema_breaking_rule_is_rejected():
    bad = Rule("X0", "rule", "drops a column",
               lambda sub, ctx: Project(("k",), sub)
               if isinstance(sub, RelVar) else None, ((RelVar, None),))
    t = _rel_t(random.Random(SEED0), nmin=1)
    ctx = RuleContext(CostModel({}, {"t": t.schema}))
    with pytest.raises(RewriteError):
        _applied(bad, RelVar("t"), (), RelVar("t"), ctx)


def test_noop_rewrite_counts_as_no_match():
    ident = Rule("X1", "rule", "identity", lambda sub, ctx: sub,
                 ((RelVar, None),))
    t = _rel_t(random.Random(SEED0), nmin=1)
    ctx = RuleContext(CostModel({}, {"t": t.schema}))
    assert _applied(ident, RelVar("t"), (), RelVar("t"), ctx) is None


def test_fresh_names_never_capture_existing_columns():
    # a base column squatting on the gensym pool must be skipped over
    schema = Schema.of(scalars=["k", "__p0"], arrays=[])
    rel = Relation.build(schema, [{"k": 1, "__p0": 5}, {"k": 1, "__p0": 7}])
    other = Schema.of(scalars=["k", "z"], arrays=[])
    orel = Relation.build(other, [{"k": 1, "z": 2}])
    term = Aggregate(("z",), (AggSpec("sum", "__p0", "tot"),),
                     Join(RelVar("r"), RelVar("o")))
    ctx = RuleContext(CostModel({}, {"r": schema, "o": other}))
    new_root = _applied(RULES_BY_ID["R21"], term, (), term, ctx)
    assert new_root is not None
    introduced = set()
    for _, node in walk(new_root):
        if isinstance(node, Aggregate):
            introduced |= {s.alias for s in node.aggs}
    assert "__p0" not in introduced - {"tot"}
    before = evaluate(term, {"r": rel, "o": orel})
    after = evaluate(new_root, {"r": rel, "o": orel})
    assert rows_equal_bag(before.rows, after.rows)


def _count_collect_names(monkeypatch):
    calls = []
    real = rewrite.collect_names

    def counting(term, schemas):
        calls.append(term)
        return real(term, schemas)

    monkeypatch.setattr(rewrite, "collect_names", counting)
    return calls


def test_fresh_collects_names_once_per_bind(monkeypatch):
    calls = _count_collect_names(monkeypatch)
    schema = Schema.of(scalars=["k", "__p0"], arrays=[])
    ctx = RuleContext(CostModel({}, {"r": schema})).bind_root(RelVar("r"))
    assert calls == []
    assert ctx.fresh("__p") == "__p1"
    assert ctx.fresh("__p") == "__p2"
    assert len(calls) == 1
    # a new bind forgets the names handed out for the old root
    ctx.bind_root(RelVar("r"))
    assert len(calls) == 1
    assert ctx.fresh("__p") == "__p1"
    assert len(calls) == 2
    # with no root bound, no name is in use
    assert RuleContext(CostModel({}, {"r": schema})).fresh("__p") == "__p0"
    assert len(calls) == 2


def test_greedy_collects_no_names_when_no_rule_asks_for_one(monkeypatch):
    # no rule that fires on pattern A needs a fresh name
    calls = _count_collect_names(monkeypatch)
    optimize(make_pattern("A", 16), pattern_schemas("A", 16), mode="greedy")
    assert calls == []


############################################################
# guards and refusals
############################################################

def _mk_cost_model(inst):
    stats = {name: build_table_stats(rel) for name, rel in inst.db.items()}
    return CostModel(stats, inst.schemas)


def test_r2_3_guard_prunes_only_when_emptiness_pays():
    schema = Schema.of(scalars=["k"], arrays=["a"])
    mostly_empty = [{"k": i, "a": ()} for i in range(75)] + \
                   [{"k": i, "a": (1, 2, 3, 4, 5, 6)} for i in range(25)]
    never_empty = [{"k": i, "a": (1, 2)} for i in range(100)]
    term = ArrayJoin((("a", "ea"),), RelVar("r"))
    for rows, expect in ((mostly_empty, True), (never_empty, False)):
        rel = Relation.build(schema, rows)
        cm = CostModel({"r": build_table_stats(rel)}, {"r": schema})
        ctx = RuleContext(cm)
        out = _guarded(RULES_BY_ID["R2.3"], term, (), term, ctx)
        assert (out is not None) == expect


def test_guard_costs_an_unchanged_root_once(monkeypatch):
    # arrays are never empty, so every R2.3 attempt is rejected
    schema = Schema.of(scalars=["k"], arrays=["a"])
    rel = Relation.build(schema, [{"k": i, "a": (1, 2)} for i in range(100)])
    cm = CostModel({"r": build_table_stats(rel)}, {"r": schema})
    root = Filter(Cmp("<", Col("k"), Lit(50)),
                  ArrayJoin((("a", "ea"),),
                            Derive("y", ScalarFn.of("neg"), ("k",),
                                   RelVar("r"))))
    path, sub = next((p, n) for p, n in walk(root)
                     if isinstance(n, ArrayJoin))
    calls = []
    real = cm.op_effect

    def counting(node, state):
        calls.append(node)
        return real(node, state)

    monkeypatch.setattr(cm, "op_effect", counting)
    ctx = RuleContext(cm)
    attempts = 5
    for _ in range(attempts):
        assert _guarded(RULES_BY_ID["R2.3"], root, path, sub, ctx) is None
    # per attempt, sub's 2 operators with the derive marked and the
    # candidate's 2 above it; the guard leaves the state as it was, so the
    # attempt is rejected without costing the root
    assert len(calls) == attempts * 4


def test_r2_3_guard_above_a_derive_is_not_repeated():
    # R2.3 fires again past the derive; the cost model knows the guarded
    # arrays are no longer empty and rejects the second guard
    schema = Schema.of(scalars=["k"], arrays=["a"])
    rows = [{"k": i, "a": ()} for i in range(75)] + \
           [{"k": i, "a": (1, 2, 3, 4, 5, 6)} for i in range(25)]
    cm = CostModel({"r": build_table_stats(Relation.build(schema, rows))},
                   {"r": schema})
    guard = Cmp("!=", Col("a"), Lit(()))
    term = ArrayJoin((("a", "ea"),),
                     Derive("y", ScalarFn.of("neg"), ("k",),
                            Filter(guard, RelVar("r"))))
    ctx = RuleContext(cm)
    assert _applied(RULES_BY_ID["R2.3"], term, (), term, ctx) is not None
    assert _guarded(RULES_BY_ID["R2.3"], term, (), term, ctx) is None


def test_r2_3_does_not_stack_guards():
    # the rule stacks a second guard over the first, directly or past a
    # scalar filter; the cost guard rejects it, because after  a != []  no
    # array is empty (``stats._filter_state``), so the second guard keeps
    # every row and only adds cost
    rule = RULES_BY_ID["R2.3"]
    schema = Schema.of(scalars=["k"], arrays=["a"])
    rows = [{"k": i, "a": ()} for i in range(75)] + \
           [{"k": i, "a": (1, 2, 3, 4, 5, 6)} for i in range(25)]
    cm = CostModel({"r": build_table_stats(Relation.build(schema, rows))},
                   {"r": schema})
    targets, guard = (("a", "ea"),), Cmp("!=", Col("a"), Lit(()))
    term = ArrayJoin(targets, RelVar("r"))
    once = _guarded(rule, term, (), term, RuleContext(cm))
    assert once == ArrayJoin(targets, Filter(guard, RelVar("r")))
    past = ArrayJoin(targets, Filter(Cmp("<", Col("k"), Lit(50)),
                                     Filter(guard, RelVar("r"))))
    for guarded in (once, past):
        assert _applied(rule, guarded, (), guarded, RuleContext(cm)) \
            is not None
        assert _guarded(rule, guarded, (), guarded, RuleContext(cm)) is None
    inst = GENS["R2.3"](random.Random(SEED0))
    once = _apply("R2.3", inst)
    sub = subterm_at(once, inst.path)
    assert _applied(rule, once, inst.path, sub, _ctx(inst)) is not None
    assert _guarded(rule, once, inst.path, sub, _ctx(inst)) is None


def test_r14_push_reaches_fixpoint():
    rng = random.Random(SEED0 + 1)
    inst = GENS["R14"](rng)
    term = inst.term
    for _ in range(4):
        nxt = _applied(RULES_BY_ID["R14"], term, (), term, _ctx(inst))
        if nxt is None:
            break
        term = nxt
    else:
        pytest.fail("R14 kept firing at the same position")


def test_r11_2_rewinds_the_documented_example():
    # n = map (3 - x) over a; keep elements with n < 15  =>  keep x > -12
    term = ArrayFilter(
        (("ym", "na"),), Cmp("<", Col("na"), Lit(15)),
        Derive("ym", ScalarFn.of("affine", a=-1, b=3), ("a",), RelVar("t"),
               is_map=True))
    t = _rel_t(random.Random(SEED0), nmin=1)
    new_root = _applied(RULES_BY_ID["R11.2"], term, (), term,
                        RuleContext(CostModel({}, {"t": t.schema})))
    assert new_root is not None
    inner_filters = [n for _, n in walk(new_root) if isinstance(n, ArrayFilter)]
    assert len(inner_filters) == 1
    assert format_pred(inner_filters[0].pred) == "__inv_0 > -12"


def _phi(targets, alias, child):
    return ArrayFilter(targets, Cmp("!=", Col(alias), Lit(0)), child)


REFUSALS = [
    # (rule_id, build(term over t/u join), reason)
    ("R6", lambda j: Filter(Cmp("=", Col("x"), Col("z")), j),
     "predicate spans both sides"),
    ("R9", lambda j: Project(("x", "z"), j), "join key not kept"),
    ("R4.1", lambda j: ArrayJoin((("a", "ea"), ("d", "ed")), j),
     "targets on both sides without declared correspondence"),
    ("R4.1", lambda j: ArrayJoin((("d", "ed"),), Join(
        Derive("d", ScalarFn.of("identity"), ("a",), j.left), j.right)),
     "unnests a join key"),
    ("R8", lambda j: Derive("z", ScalarFn.of("neg"), ("x",), j),
     "output is a column of the other side"),
    ("R10.2", lambda j: Join(j.left, ArrayFilter(
        (("d", "a"),), Cmp(">", Col("a"), Lit(0)), j.right)),
     "alias is a column of the other side"),
    ("R4.2", lambda j: ArrayJoin((("a", "ea"), ("d", "ed")), j),
     "no declared correspondence"),
    ("R19", lambda j: Aggregate(("x",), (AggSpec("count", "w", "g0"),), j),
     "count cannot be rescaled by multiplying"),
    ("R18", lambda j: Aggregate(("z",), (AggSpec("sum", "w", "g0"),), j),
     "keys not local to the aggregated side"),
    ("R21", lambda j: Aggregate(("x",), (AggSpec("sum", "w", "g0"),), j),
     "keys local: the fully one-sided variant owns this shape"),
    ("R2.4", lambda j: _phi((("fa", "fa"),), "fa", _phi(
        (("a", "fa"), ("b", "fb")), "fb", j.left)),
     "outer filters a proper subset of the inner arrays"),
    ("R2.4", lambda j: _phi((("fa", "fa"), ("c", "fc")), "fc", _phi(
        (("a", "fa"),), "fa", j.left)),
     "outer filters one more array"),
    ("R2.4", lambda j: _phi((("c", "fc"),), "fc", _phi(
        (("a", "fa"),), "fa", j.left)),
     "outer filters another array"),
]


@pytest.mark.parametrize("rule_id,build,reason",
                         REFUSALS, ids=[r[0] + ":" + r[2] for r in REFUSALS])
def test_targeted_refusals(rule_id, build, reason):
    rng = random.Random(SEED0 + 5)
    inst = GENS["R6"](rng)        # any t/u join database works here
    term = build(Join(RelVar("t"), RelVar("u")))
    assert _applied(RULES_BY_ID[rule_id], term, (), term, _ctx(inst)) is None


def test_r13_2_refuses_non_invertible_fn():
    term = Filter(Cmp("<", Col("y"), Lit(3)),
                  Derive("y", ScalarFn.of("abs"), ("x",), RelVar("t")))
    t = _rel_t(random.Random(SEED0), nmin=1)
    assert _applied(RULES_BY_ID["R13.2"], term, (), term,
                    RuleContext(CostModel({}, {"t": t.schema}))) is None


def test_r10_3_refuses_corresponding_targets():
    # a (left) and d (right) are declared equal-length companions; splitting
    # their stacked filters is refused even though the sides line up.
    pa = Cmp(">", Col("fa"), Lit(0))
    pd = Cmp("<", Col("fd"), Lit(5))
    term = ArrayFilter((("a", "fa"),), pa,
                       ArrayFilter((("d", "fd"),), pd,
                                   Join(RelVar("t"), RelVar("u"))))
    inst = GENS["R4.2"](random.Random(SEED0 + 6))
    ctx = _ctx(inst)      # declares ("a", "b", "d") corresponding
    assert _applied(RULES_BY_ID["R10.3"], term, (), term, ctx) is None
    # the same shape splits once the correspondence is withdrawn
    free = RuleContext(CostModel({}, inst.schemas), [])
    assert _applied(RULES_BY_ID["R10.3"], term, (), term, free) is not None


def test_r2_4_keeps_the_schema_of_every_valid_stack():
    # Fusing would keep an inner alias that is a column of X other than a
    # source, which the stack drops.  node_schema rejects such an inner
    # arrayFilter (its alias shadows a surviving column), so on every valid
    # stack the fused filter has the stack's schema: try_apply never raises.
    schemas = {"t": Schema.of(scalars=("k", "x"), arrays=("a", "b", "c"))}
    ctx = RuleContext(CostModel({}, schemas))
    rule = RULES_BY_ID["R2.4"]
    names = ("a", "b", "c", "k", "fa", "fb")
    fused = shadowing = 0
    for n in (1, 2):
        for srcs in itertools.permutations(("a", "b"), n):
            for aliases in itertools.permutations(names, n):
                inner = _phi(tuple(zip(srcs, aliases)), aliases[0],
                             RelVar("t"))
                for renamed in itertools.permutations(names + ("g",), n):
                    term = _phi(tuple(zip(aliases, renamed)), renamed[0],
                                inner)
                    try:
                        output_schema(term, schemas)
                    except SchemaError:
                        shadowing += bool(set(aliases) & {"c", "k"})
                        continue
                    assert _applied(rule, term, (), term, ctx) is not None
                    fused += 1
    assert fused > 100 and shadowing > 100


def test_r2_4_never_raises_the_estimate():
    for i in range(N_INSTANCES):
        inst = GENS["R2.4"](random.Random(SEED0 + 13 * i))
        new_root = _apply("R2.4", inst)
        stats = {name: build_table_stats(rel)
                 for name, rel in inst.db.items()}
        for st in ({}, stats):
            cm = CostModel(st, inst.schemas)
            assert cm.term_cost(new_root).cost <= \
                cm.term_cost(inst.term).cost, i


def test_r2_4_conjoins_inner_conjuncts_first():
    inner = ArrayFilter((("a", "fa"), ("b", "fb")),
                        And((Cmp(">", Col("fa"), Lit(1)),
                             Cmp("<", Col("fb"), Lit(2)))), RelVar("t"))
    term = ArrayFilter((("fb", "a"), ("fa", "g")),
                       Cmp("=", Col("a"), Col("g")), inner)
    inst = GENS["R2.4"](random.Random(SEED0))
    new = _applied(RULES_BY_ID["R2.4"], term, (), term, _ctx(inst))
    assert new == ArrayFilter(
        (("a", "g"), ("b", "a")),
        And((Cmp(">", Col("g"), Lit(1)), Cmp("<", Col("a"), Lit(2)),
             Cmp("=", Col("a"), Col("g")))), RelVar("t"))


############################################################
# one pass per rule attempt: the guard against its three-pass form
############################################################

def _plain_apply(rule, root, path, ctx):
    """``try_apply`` as two passes: find `sub` from the root, then infer
    both schemas from the leaves up."""
    ctx.bind_root(root)
    sub = subterm_at(root, path)
    if not rule.matches(sub):
        return None
    new_sub = rule.fn(sub, ctx)
    if new_sub is None or new_sub == sub:
        return None
    before = output_schema(sub, ctx.schemas)
    after = output_schema(new_sub, ctx.schemas)
    if before != after:
        raise RewriteError(
            f"{rule.rule_id} changed the schema at {path}: "
            f"{sorted(before.columns)} -> {sorted(after.columns)}")
    return replace_at(root, path, new_sub)


def _three_pass_guard(rule, root, path, ctx, cm):
    """``guard_cost_improves`` as three passes: ``_plain_apply``, then
    cost the whole new root."""
    new_root = _plain_apply(rule, root, path, ctx)
    if new_root is None:
        return None
    old_cost = cm.term_cost(root).cost
    new_cost = cm.term_cost(new_root).cost
    return new_root if new_cost < old_cost - rewrite.GUARD_EPSILON \
        else None


def _outcome(fn, *args):
    try:
        return "term", fn(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _assert_guard_matches_three_passes(root, schemas, stats, corr=()):
    """Every catalog rule at every node of `root`: the same result, and an
    accepted root's cost (cached with the rewrite's fold injected) equal
    to a fresh costing, bit for bit."""
    old_cm, new_cm = CostModel(stats, schemas), CostModel(stats, schemas)
    accepted = 0
    for path, sub in walk(root):
        for rule in CATALOG:
            old = _outcome(_three_pass_guard, rule, root, path,
                           RuleContext(old_cm, corr), old_cm)
            new = _outcome(_guarded, rule, root, path, sub,
                           RuleContext(new_cm, corr))
            assert new == old, (rule.rule_id, path)
            if new[0] == "term" and new[1] is not None:
                accepted += 1
                fresh = CostModel(stats, schemas).term_cost(new[1])
                got = new_cm.term_cost(new[1])
                assert got == fresh and repr(got) == repr(fresh)
                assert got == old_cm.term_cost(old[1])
    return accepted


def test_guard_matches_three_passes_on_rule_instances():
    accepted = 0
    for rule_id in sorted(GENS):
        for i in range(4):
            inst = GENS[rule_id](random.Random(SEED0 + 97 * i))
            stats = {name: build_table_stats(rel)
                     for name, rel in inst.db.items()}
            for with_stats in (False, True):
                accepted += _assert_guard_matches_three_passes(
                    inst.term, inst.schemas, stats if with_stats else {},
                    inst.correspondences)
    assert accepted


def test_guard_matches_three_passes_on_random_plans():
    accepted = 0
    for seed in range(100):
        term, schemas, stats = random_query(seed)
        roots = [term] + [optimize(term, schemas, stats=stats, mode=m).term
                          for m in ("greedy", "enumerate")]
        for root in roots:
            accepted += _assert_guard_matches_three_passes(
                root, schemas, stats or {})
    assert accepted


def test_fold_with_an_injected_subterm_equals_a_fresh_term_cost():
    for seed in range(100):
        term, schemas, stats = random_query(seed)
        root = optimize(term, schemas, stats=stats, mode="greedy").term
        for _, sub in walk(root):
            res = CostModel(stats or {}, schemas).fold(sub, {})
            injected = CostResult(*CostModel(stats or {}, schemas).fold(
                root, {id(sub): res}))
            fresh = CostModel(stats or {}, schemas).term_cost(root)
            assert injected == fresh and repr(injected) == repr(fresh)


def _schema_guard_case():
    # the filter at the root reads y, which each rule below drops at path
    # (0,), so costing the new root would raise a SchemaError there
    t = _rel_t(random.Random(SEED0), nmin=1)
    base = RelVar("t")
    sub = Derive("y", ScalarFn.of("neg"), ("x",),
                 Filter(Cmp("<", Col("x"), Lit(5)),
                        Filter(Cmp(">", Col("w"), Lit(0)), base)))
    root = Filter(Cmp(">", Col("y"), Lit(0)), sub)
    return root, sub, base, {"t": t.schema}, \
        CostModel({"t": build_table_stats(t.relation)}, {"t": t.schema})


SCHEMA_CHANGES = {
    # shares no node with sub: an empty frontier
    "fresh": lambda sub, base: Filter(Cmp("<", Col("x"), Lit(5)),
                                      RelVar("t")),
    # keeps only a deep descendant of sub
    "deep": lambda sub, base: Project(("k", "x"), base),
    # keeps sub's child
    "child": lambda sub, base: sub.child,
}


@pytest.mark.parametrize("shape", sorted(SCHEMA_CHANGES))
def test_schema_changing_cost_rule_raises_the_same_rewrite_error(shape):
    root, sub, base, schemas, cm = _schema_guard_case()
    rule = Rule("X2", "cost", "drops y",
                lambda s, ctx: SCHEMA_CHANGES[shape](s, base)
                if s is sub else None, ((Derive, Filter),))
    with pytest.raises(RewriteError) as old:
        _three_pass_guard(rule, root, (0,), RuleContext(cm), cm)
    assert str(old.value).startswith("X2 changed the schema at (0,): ")
    with pytest.raises(RewriteError) as new:
        _guarded(rule, root, (0,), sub, RuleContext(cm))
    assert str(new.value) == str(old.value)
    with pytest.raises(RewriteError) as applied:
        _applied(rule, root, (0,), sub, RuleContext(cm))
    assert str(applied.value) == str(old.value)


############################################################
# greedy rounds: results held by the round, exact local rejects
############################################################

def _round(root, schemas, cm, corr, visit):
    """One greedy bottom-up round over `root` whose step calls
    ``visit(ctx, root, path, sub)`` at every node and matches nowhere.
    The round holds no result until a guard has marked one, and from the
    next visit on it holds the visited node's."""
    ctx = RuleContext(cm, corr)
    guarded = [False]  # whether a guard has marked a node in the table

    def step(path, sub):
        held = ctx.results.get(id(sub)) is not None
        assert held == guarded[0] and ctx.root() is root
        assert guarded[0] or not ctx.results
        visit(ctx, root, path, sub)
        guarded[0] = bool(ctx.results)
        return None

    assert rewrite.rewrite_to_fixpoint(root, step, "greedy", ctx,
                                       "bottom-up") is root
    assert ctx.results is None


def _assert_round_matches_plain_passes(root, schemas, stats, corr=()):
    """Every catalog rule at every node of a greedy round, through both
    ``try_apply`` and ``guard_cost_improves`` reading the round's results:
    the same outcome as ``_plain_apply`` and ``_three_pass_guard``."""
    cm, plain_cm = CostModel(stats, schemas), CostModel(stats, schemas)
    accepted = []

    def visit(ctx, root, path, sub):
        for rule in CATALOG:
            fresh = RuleContext(plain_cm, corr)
            assert _outcome(_applied, rule, root, path, sub, ctx) == \
                _outcome(_plain_apply, rule, root, path, fresh), \
                (rule.rule_id, path)
            new = _outcome(_guarded, rule, root, path, sub, ctx)
            assert new == _outcome(_three_pass_guard, rule, root, path,
                                   fresh, plain_cm), (rule.rule_id, path)
            if new[0] == "term" and new[1] is not None:
                accepted.append(rule.rule_id)

    _round(root, schemas, cm, corr, visit)
    return len(accepted)


def test_round_results_match_plain_passes_on_rule_instances():
    accepted = 0
    for rule_id in sorted(GENS):
        inst = GENS[rule_id](random.Random(SEED0))
        stats = {name: build_table_stats(rel)
                 for name, rel in inst.db.items()}
        for with_stats in (False, True):
            accepted += _assert_round_matches_plain_passes(
                inst.term, inst.schemas, stats if with_stats else {},
                inst.correspondences)
    assert accepted


def test_round_results_match_plain_passes_on_random_plans():
    accepted = 0
    for seed in range(100):
        term, schemas, stats = random_query(seed)
        roots = [term] + [optimize(term, schemas, stats=stats, mode=m).term
                          for m in ("greedy", "enumerate")]
        for root in roots:
            for with_stats in (False, True):
                accepted += _assert_round_matches_plain_passes(
                    root, schemas, (stats or {}) if with_stats else {})
    assert accepted


def _guard_case(rule_fn):
    """``guard_cost_improves`` of `rule_fn` at the root's child, and how
    often it folded a whole root (the old one or the rewritten one), under
    a guarded filter over `r`."""
    schema = Schema.of(scalars=["k"], arrays=["a"])
    cm = CostModel({}, {"r": schema})
    guard = Cmp("!=", Col("a"), Lit(()))
    sub = Filter(guard, Filter(guard, RelVar("r")))
    root = Filter(Cmp("<", Col("k"), Lit(50)), sub)
    rule = Rule("X", "cost", "test rewrite", rule_fn, ((Filter, Filter),))
    costed = []
    real = cm.fold

    def counting(term, known):
        if isinstance(term, Filter) and term.pred == root.pred:
            costed.append(term)
        return real(term, known)

    cm.fold = counting
    out = _guarded(rule, root, (0,), sub, RuleContext(cm))
    return out, len(costed)


def test_equal_state_rewrite_that_ties_is_rejected_locally():
    # an identity projection adds nothing to the cost and copies the state
    assert _guard_case(lambda s, ctx: Project(("a", "k"), s)
                       if isinstance(s.child, Filter) else None) == (None, 0)


def test_equal_state_rewrite_cheaper_by_less_than_epsilon_is_costed(
        monkeypatch):
    # the repeated guard has selectivity 1, so dropping it keeps the state
    # and saves one scan of the 1,000 default rows: the root is costed, and
    # the saving decides for the default epsilon below it and against an
    # epsilon above it
    def drop_repeat(s, ctx):
        return s.child if isinstance(s.child, Filter) else None
    out, costed = _guard_case(drop_repeat)
    assert out is not None and costed == 2
    monkeypatch.setattr(rewrite, "GUARD_EPSILON", 1e4)
    assert _guard_case(drop_repeat) == (None, 2)


# a cost rule that rewrites a relation into an identity projection of it:
# a guard of it at a round's first visit starts the round's folds
_PROJECT_RELATION = Rule(
    "X0", "cost", "identity projection",
    lambda s, ctx: Project(tuple(sorted(ctx.schema_of(s).columns)), s),
    ((RelVar, None),))


def _assert_round_holds_a_bounded_window(root, schemas):
    """At every visit of a greedy round whose first visit runs a guard,
    the results held are at most the visited node, its children and
    grandchildren, and the root and children of every finished subtree
    whose parent is still to come; returns the largest number held."""
    parent = {id(kid): node for _, node in walk(root)
              for kid in children(node)}
    visited, sizes = set(), []

    def ids(node, depth):
        out = {id(node)}
        if depth:
            for kid in children(node):
                out |= ids(kid, depth - 1)
        return out

    def visit(ctx, at, path, sub):
        if not visited:
            guard_cost_improves(_PROJECT_RELATION, path, sub, ctx)
        visited.add(id(sub))
        window = ids(sub, 2)
        for _, node in walk(root):
            up = parent.get(id(node))
            if id(node) in visited and node is not sub and \
                    (up is None or id(up) not in visited):
                window |= ids(node, 1)
        assert set(ctx.results) <= window
        sizes.append(len(ctx.results))

    _round(root, schemas, CostModel({}, schemas), (), visit)
    return max(sizes)


def test_greedy_round_holds_three_results_on_a_unary_chain():
    assert _assert_round_holds_a_bounded_window(
        make_pattern("A", 16), pattern_schemas("A", 16)) == 3


def test_greedy_round_holds_a_bounded_window_per_pending_subtree():
    def chain(name, x, a):
        return Filter(Cmp("<", Col(x), Lit(3)),
                      ArrayJoin(((a, f"e{a}"),),
                                Filter(Cmp(">", Col("k"), Lit(0)),
                                       RelVar(name))))

    schemas = {"r": Schema.of(scalars=["k", "x"], arrays=["a"]),
               "s": Schema.of(scalars=["k", "y"], arrays=["b"])}
    term = Project(("k",), Join(chain("r", "x", "a"), chain("s", "y", "b")))
    # walking the left chain, the right chain's root and child stay held
    assert _assert_round_holds_a_bounded_window(term, schemas) == 3 + 2


############################################################
# guarded attempts: every fold reads one table of results
############################################################

def _economy_case(shape):
    """A root whose join's left input is `sub`, two filters over `r`, and
    a cost rule that rewrites `sub` alone, keeping its grandchild
    (``swap``) or its child (``drop``, whose rewrite is that child)."""
    schemas = {"r": Schema.of(scalars=["k", "x"], arrays=["a"]),
               "s": Schema.of(scalars=["k", "y"])}
    if shape == "swap":
        # running the equality first is cheaper
        sub = Filter(Cmp("=", Col("x"), Lit(3)),
                     Filter(Cmp(">", Col("k"), Lit(0)), RelVar("r")))

        def fn(s):
            return Filter(s.child.pred, Filter(s.pred, s.child.child))
    else:
        # the repeated guard has selectivity 1: dropping it keeps the
        # state and saves a scan, so the guard folds both roots
        guard = Cmp("!=", Col("a"), Lit(()))
        sub = Filter(guard, Filter(guard, RelVar("r")))

        def fn(s):
            return s.child
    root = Project(("k",), Join(sub, RelVar("s")))
    rule = Rule("X", "cost", "test rewrite",
                lambda s, ctx: fn(s) if s is sub else None,
                ((Filter, Filter),))
    return root, sub, rule, CostModel({}, schemas)


def _counting(cm):
    """Count, per node id, the effects (``op_effect``, ``join_effect`` and
    ``base_state``) that `cm`'s folds compute; returns the live count."""
    computed, folding = {}, []
    real_fold = cm.fold

    def fold(term, known):
        folding.append(term)
        try:
            return real_fold(term, known)
        finally:
            folding.pop()

    def counted(real):
        def effect(*args):
            key = id(folding[-1])
            computed[key] = computed.get(key, 0) + 1
            return real(*args)
        return effect

    cm.fold = fold
    for name in ("op_effect", "join_effect", "base_state"):
        setattr(cm, name, counted(getattr(cm, name)))
    return computed


def _guard_in_round(shape, policy, started):
    """The case's guarded attempt at `sub` inside a `policy` round whose
    step matches nowhere, after a guard at the round's first visit when
    `started`: the root, `sub`, the effects the attempt computed per node
    id, the round's table before and after the attempt, and the rewrite
    the attempt returned."""
    root, sub, rule, cm = _economy_case(shape)
    computed = _counting(cm)
    ctx = RuleContext(cm)
    seen = []

    def step(path, node):
        if started and not ctx.results:
            guard_cost_improves(_PROJECT_RELATION, path, node, ctx)
        if node is sub:
            before = dict(ctx.results)
            computed.clear()
            new = guard_cost_improves(rule, path, sub, ctx)
            seen.append((dict(computed), before, dict(ctx.results), new))
        return None

    assert rewrite.rewrite_to_fixpoint(root, step, "test", ctx,
                                       policy) is root
    [(attempt, before, after, new)] = seen
    assert new is not None  # both shapes are cheaper
    return root, sub, attempt, before, after, new


def _two_levels(sub):
    """The ids of `sub`, its children and its grandchildren."""
    return {id(sub)} | {id(node) for kid in children(sub)
                        for node in (kid, *children(kid))}


@pytest.mark.parametrize("policy", ["bottom-up", "sweep"])
@pytest.mark.parametrize("shape", ["swap", "drop"])
def test_guard_in_a_held_round_computes_no_node_the_round_holds(
        shape, policy):
    # a second guard of the round, which holds `sub` and its child
    root, sub, computed, held, _, _ = _guard_in_round(shape, policy, True)
    # not rejected locally: the old root is folded, through the table
    assert computed.get(id(root)) == 1
    assert id(sub) in held and id(sub.child) in held
    assert not held.keys() & computed.keys()


@pytest.mark.parametrize("policy", ["bottom-up", "sweep"])
@pytest.mark.parametrize("shape", ["swap", "drop"])
def test_first_guard_of_a_held_round_computes_a_kept_node_once(
        shape, policy):
    root, sub, computed, held, _, _ = _guard_in_round(shape, policy, False)
    kept = sub.child.child if shape == "swap" else sub.child
    assert held == {} and computed.get(id(root)) == 1
    assert computed[id(sub)] == 1 and computed[id(kept)] == 1


def _assert_guard_only_marks_two_levels(sub, before, after, new):
    """The guard kept every result held before it, added keys only for
    `sub` and the two levels below it, and removed the injected rewrite."""
    assert all(after[key] is res for key, res in before.items())
    assert after.keys() - before.keys() <= _two_levels(sub)
    assert id(new) in _two_levels(sub) or id(new) not in after


@pytest.mark.parametrize("policy", ["bottom-up", "sweep"])
@pytest.mark.parametrize("shape", ["swap", "drop"])
def test_guard_leaves_the_rounds_table_as_it_found_it(shape, policy):
    # a second guard of the round holds `sub` and marks nothing
    _, sub, _, before, after, new = _guard_in_round(shape, policy, True)
    _assert_guard_only_marks_two_levels(sub, before, after, new)
    assert after.keys() == before.keys()


@pytest.mark.parametrize("policy", ["bottom-up", "sweep"])
@pytest.mark.parametrize("shape", ["swap", "drop"])
def test_first_guard_of_a_held_round_marks_sub_and_two_levels(
        shape, policy):
    _, sub, _, before, after, new = _guard_in_round(shape, policy, False)
    _assert_guard_only_marks_two_levels(sub, before, after, new)
    assert before == {} and after.keys() == _two_levels(sub)


@pytest.mark.parametrize("policy", ["bottom-up", "sweep"])
def test_held_round_in_which_no_guard_runs_computes_no_effect(policy):
    root, sub, rule, cm = _economy_case("swap")
    computed = _counting(cm)
    ctx = RuleContext(cm)
    visits = []

    def step(path, node):
        # an unguarded rewrite reads schemas, not results
        visits.append(try_apply(RULES_BY_ID["R1"], path, node, ctx))
        return None

    assert rewrite.rewrite_to_fixpoint(root, step, "test", ctx,
                                       policy) is root
    assert len(visits) == len(list(walk(root))) and any(visits)
    assert computed == {}


############################################################
# resume and sweep rounds: exact against restarting from the root
############################################################

preprocess_stage = importlib.import_module("a3d.planner.preprocess")
postprocess_stage = importlib.import_module("a3d.planner.postprocess")


def _rule_step(rule_id):
    return lambda sub, ctx: rewrite._attempt(RULES_BY_ID[rule_id], sub, ctx)


# what the two resume stages, pull_projections_up and descend_filters, try
RESUME_STEPS = {
    **{rule_id: _rule_step(rule_id)
       for rule_id in preprocess_stage._DESCEND_RULES},
    "project-pull": preprocess_stage._hoist_once,
    "filter-past-arrayFilter":
        lambda sub, ctx:
        preprocess_stage._commute_filter_past_array_filter(sub),
}


def _restart_driver(real):
    """``rewrite_to_fixpoint`` as it was before resume and sweep rounds:
    every round walks the root in preorder from the top, holding nothing,
    and its first hit fires, spliced in with ``replace_at``.  Bottom-up
    rounds go to `real`."""
    def driver(term, step, stage, ctx, policy, cap=None):
        if policy == "bottom-up":
            return real(term, step, stage, ctx, policy, cap)
        rewrites = 0
        while True:
            ctx.bind_root(term)
            for path, sub in walk(term):
                hit = step(path, sub)
                if hit is not None:
                    break
            else:
                return term
            rule_id, new_sub = hit
            new = replace_at(term, path, new_sub)
            rewrites += 1
            if cap is not None and rewrites > cap:
                raise rewrite.FixpointCapError(
                    f"{stage}: no fixpoint after {cap} rewrites (last rule "
                    f"{rule_id})")
            counts = ctx.rule_counts.get(rule_id)
            if counts is not None:
                counts[1] += 1
            if ctx.trace is not None:
                cost = ctx.cost_model.term_cost
                rewrite.trace_record(ctx, stage, rule_id, path,
                                     cost(term).cost, cost(new).cost)
            term = new
    return driver


def _restarting(monkeypatch):
    for stage in (preprocess_stage, postprocess_stage):
        monkeypatch.setattr(stage, "rewrite_to_fixpoint",
                            _restart_driver(rewrite.rewrite_to_fixpoint))


def _seeded_queries():
    # 423, 461, 623 and 1087 insert two guards in one preprocess stage
    for seed in (*range(200), 423, 461, 623, 1087):
        yield random_query(seed)
    for seed in range(6000, 6200):
        yield inner_query(seed)
    for pattern in "AB":
        yield make_pattern(pattern, 4), pattern_schemas(pattern, 4), None


def _planned(term, schemas, stats, mode, trace):
    """What a plan must keep under another fixpoint driver: the term, its
    cost, the trace (None untraced) and each rule's fires (attempts may
    differ), or the error planning raised."""
    try:
        res = optimize(term, schemas, stats=stats, mode=mode, trace=trace)
    except Exception as exc:  # the error is part of the outcome
        return type(exc).__name__, str(exc)
    fires = {rule_id: n for rule_id, (_, n) in res.counters["rules"].items()
             if n}
    return repr(res.term), res.cost, res.trace, fires


def test_resume_and_sweep_rounds_match_restarting_from_the_root(
        monkeypatch):
    # traced and untraced: a traced round reads the root after each hit,
    # an untraced resume round never builds it
    runs = [(*q, mode, trace) for q in _seeded_queries()
            for mode in ("greedy", "enumerate", "oracle")
            for trace in (True, False)]
    rounds = [_planned(*run) for run in runs]
    _restarting(monkeypatch)
    restarted = [_planned(*run) for run in runs]
    assert rounds == restarted
    assert sum(len(out[2] or ()) for out in rounds if len(out) == 4) > 300
    assert sum(1 for out in rounds if len(out) == 4 and out[2] is None) \
        == sum(1 for out in rounds if len(out) == 4) // 2


def _roots_of_resume_stages(term, schemas, monkeypatch):
    """Every root that pull_projections_up and descend_filters visit on
    `term`, as preprocess runs them, under the restarting driver."""
    roots = []
    real = _restart_driver(rewrite.rewrite_to_fixpoint)

    def recording(term, step, stage, ctx, policy, *args):
        def step_at(path, sub):
            if not path:
                roots.append(sub)
            return step(path, sub)
        if policy == "resume":
            return real(term, step_at, stage, ctx, policy, *args)
        return real(term, step, stage, ctx, policy, *args)

    with monkeypatch.context() as patched:
        patched.setattr(preprocess_stage, "rewrite_to_fixpoint", recording)
        preprocess_stage.preprocess(term, RuleContext(CostModel({}, schemas)))
    return roots


def _grandchildren_as_relvars(node, schemas):
    """`node` with each grandchild replaced by a relation of the same
    schema, and the catalog that declares those relations."""
    catalog = dict(schemas)
    kids = []
    for kid in children(node):
        grandkids = []
        for grandkid in children(kid):
            name = f"__g{len(catalog)}"
            catalog[name] = output_schema(grandkid, schemas)
            grandkids.append(RelVar(name))
        kids.append(with_children(kid, tuple(grandkids)))
    return with_children(node, tuple(kids)), catalog


def test_resume_steps_read_no_deeper_than_grandchildren_schemas(
        monkeypatch):
    # the resume policy's premise: a step decides from a node's fields,
    # its children's fields and the schemas of its grandchildren
    matched = dict.fromkeys(RESUME_STEPS, 0)
    for term, schemas, _ in _seeded_queries():
        for root in _roots_of_resume_stages(term, schemas, monkeypatch):
            ctx = RuleContext(CostModel({}, schemas))
            for _, node in walk(root):
                local, catalog = _grandchildren_as_relvars(node, schemas)
                local_ctx = RuleContext(CostModel({}, catalog))
                for name, step in RESUME_STEPS.items():
                    hit = step(node, ctx) is not None
                    assert hit == (step(local, local_ctx) is not None), \
                        (name, node)
                    matched[name] += hit
    assert all(matched.values()), matched


############################################################
# the schema memo of one rewrite_to_fixpoint call
############################################################

greedy_stage = importlib.import_module("a3d.planner.greedy")


def test_schema_memo_holds_exact_schemas_of_live_nodes(monkeypatch):
    # the memo is keyed by id(node): after every round of every policy,
    # each entry must be of a live node, with that node's schema, and the
    # memo must be gone once the call returns or raises
    calls, rounds = [], dict.fromkeys(rewrite.POLICIES, 0)
    real = rewrite.rewrite_to_fixpoint

    def fixpoint(term, step, stage, ctx, policy, *args, **kwargs):
        calls.append((ctx, policy))
        try:
            return real(term, step, stage, ctx, policy, *args, **kwargs)
        finally:
            calls.pop()
            assert ctx._memo is None

    def checked(run_round):
        def run(*args):
            hit = run_round(*args)
            ctx, policy = calls[-1]
            for key, entry in ctx._memo.items():
                node = entry()
                assert node is not None and id(node) == key
                assert entry.schema == output_schema(node, ctx.schemas)
            rounds[policy] += 1
            return hit
        return run

    monkeypatch.setattr(rewrite, "_walk_round",
                        checked(rewrite._walk_round))
    monkeypatch.setattr(rewrite, "_fold_round",
                        checked(rewrite._fold_round))
    for module in (preprocess_stage, postprocess_stage, greedy_stage):
        monkeypatch.setattr(module, "rewrite_to_fixpoint", fixpoint)
    for term, schemas, stats in _seeded_queries():
        for mode in ("greedy", "enumerate", "oracle"):
            try:
                optimize(term, schemas, stats=stats, mode=mode)
            except A3DError:  # not AssertionError: a failed check raises
                pass
    ctx = RuleContext(CostModel({}, pattern_schemas("A", 4)))
    monkeypatch.setattr(greedy_stage, "REWRITE_CAP", 0)
    with pytest.raises(rewrite.FixpointCapError, match="^greedy: "):
        greedy_stage.optimize_greedy(make_pattern("A", 4), ctx)
    assert not calls and all(n > 100 for n in rounds.values()), rounds


def test_schema_memo_entry_leaves_when_its_node_is_freed():
    # reference counting alone removes the entry: the collector is off
    ctx = RuleContext(CostModel({}, {"t": Schema.of(scalars=["x"])}))
    seen = []

    def step(path, sub):
        root = ctx.root()
        node = Project(("x",), root)  # a node no root holds
        key = id(node)
        ctx.schema_of(node)
        seen.append(key in ctx._memo)
        del node
        seen.append(key in ctx._memo)
        seen.append(id(root) in ctx._memo)
        return None

    term = Filter(Cmp("<", Col("x"), Lit(1)), RelVar("t"))
    gc.disable()
    try:
        rewrite.rewrite_to_fixpoint(term, step, "test", ctx, "sweep")
    finally:
        gc.enable()
    assert seen == [True, False, True] * 2
    assert ctx._memo is None
    assert ctx.schema_of(term) == output_schema(term, ctx.schemas)


############################################################
# the zipper of resume rounds
############################################################

@pytest.mark.parametrize("policy", ("resume", "sweep"))
def test_walk_rounds_visit_every_node_once_in_preorder(policy):
    # a sweep round visits them in reverse
    for seed in range(40):
        term, schemas, _ = random_query(seed)
        ctx = RuleContext(CostModel({}, schemas))
        seen = []

        def step(path, sub):
            seen.append((path, id(sub)))
            return None

        out = rewrite.rewrite_to_fixpoint(term, step, "test", ctx, policy)
        assert out is term
        preorder = [(path, id(node)) for path, node in walk(term)]
        assert seen == (preorder if policy == "resume" else preorder[::-1])


def test_resume_round_frees_a_replaced_subterm_at_once(monkeypatch):
    # on pattern A, R13.2 turns each filter over a derive into a derive
    # over a new filter, and R2.2 replaces that filter in a later round.
    # No frame may keep it alive: reference counting alone frees it before
    # the next step call (the collector is off)
    term = make_pattern("A", 8)
    kept = {id(node) for _, node in walk(term)}  # the caller holds `term`
    replaced = []
    real = preprocess_stage.rewrite_to_fixpoint

    def fixpoint(term, step, *args, **kwargs):
        def checked(path, sub):
            assert [ref for ref in replaced if ref() is not None] == []
            hit = step(path, sub)
            if hit is not None and id(sub) not in kept:
                replaced.append(weakref.ref(sub))
            return hit
        return real(term, checked, *args, **kwargs)

    monkeypatch.setattr(preprocess_stage, "rewrite_to_fixpoint", fixpoint)
    ctx = RuleContext(CostModel({}, pattern_schemas("A", 8)))
    gc.disable()
    try:
        preprocess_stage.descend_filters(term, ctx)
    finally:
        gc.enable()
    assert len(replaced) == 8
    assert all(ref() is None for ref in replaced)


def test_descend_filters_rebuilds_each_node_once(monkeypatch):
    # A16 is a 48-deep chain that takes 32 rewrites.  Rebuilding the root's
    # spine for every rewrite made 736 with_children calls; the zipper
    # rebuilds a rewrite's parent, and each ancestor once as the walk
    # climbs back.  Holes are frames' placeholders, not nodes of a term
    term = make_pattern("A", 16)
    depth = len(list(walk(term))) - 1
    calls = {"rebuilt": 0, "holed": 0}
    real = algebra.with_children

    def counting(node, kids):
        holed = any(kid is rewrite._HOLE for kid in kids)
        calls["holed" if holed else "rebuilt"] += 1
        return real(node, kids)

    for module in (algebra, rewrite):
        monkeypatch.setattr(module, "with_children", counting)
    ctx = RuleContext(CostModel({}, pattern_schemas("A", 16)))
    preprocess_stage.descend_filters(term, ctx)
    rewrites = sum(fires for _, fires in ctx.rule_counts.values())
    assert (rewrites, depth) == (32, 48)
    assert calls["rebuilt"] <= rewrites + depth
    assert calls["holed"] <= depth


def test_rewrite_to_fixpoint_rejects_an_unknown_policy():
    ctx = RuleContext(CostModel({}, {"t": Schema.of(scalars=["x"])}))
    with pytest.raises(ValueError, match="unknown policy"):
        rewrite.rewrite_to_fixpoint(RelVar("t"), lambda *a: None, "test",
                                    ctx, "top-down")


@pytest.mark.parametrize("policy", rewrite.POLICIES)
def test_traced_fixpoint_costs_each_root_once(policy):
    # each round peels the root filter: n rewrites, n + 1 roots
    n = 4
    term = RelVar("t")
    for i in range(n):
        term = Filter(Cmp("<", Col("x"), Lit(i)), term)

    def step(path, sub):
        if path == () and isinstance(sub, Filter):
            return "peel", sub.child
        return None

    for trace in (None, []):
        cm = CostModel({}, {"t": Schema.of(scalars=["x"])})
        costed = []
        real = cm.term_cost

        def counting(t):
            costed.append(t)
            return real(t)

        cm.term_cost = counting
        ctx = RuleContext(cm, trace=trace)
        out = rewrite.rewrite_to_fixpoint(term, step, "test", ctx, policy)
        assert out == RelVar("t")
        if trace is None:
            assert costed == []
            continue
        assert len(costed) == n + 1 and len(trace) == n
        roots = [term]
        while isinstance(roots[-1], Filter):
            roots.append(roots[-1].child)
        fresh = CostModel({}, cm.schemas)
        assert [(r["before_cost"], r["after_cost"]) for r in trace] == [
            (fresh.term_cost(a).cost, fresh.term_cost(b).cost)
            for a, b in zip(roots, roots[1:])]
