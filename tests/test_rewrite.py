"""Rewrite catalog: equivalence, guards, and engine invariants.

The core property: every rule, applied anywhere it matches, preserves the
bag of result rows.  Expected values come from evaluating both sides with
the package interpreter and cross-checking the rewritten side against the
independent naive interpreter.  [DERIVED]
"""

import importlib
import itertools
import random

import pytest

from a3d import rewrite
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
    children,
    evaluate,
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
    applicable,
    guard_cost_improves,
    try_apply,
)
from a3d.stats import CostModel, build_table_stats
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


def _apply(rule_id, inst):
    new_root = try_apply(RULES_BY_ID[rule_id], inst.term, inst.path,
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
                    new = try_apply(RULES_BY_ID[rule_id], root, path, sub,
                                    ctx)
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
               if isinstance(sub, RelVar) else None)
    t = _rel_t(random.Random(SEED0), nmin=1)
    ctx = RuleContext(CostModel({}, {"t": t.schema}))
    with pytest.raises(RewriteError):
        try_apply(bad, RelVar("t"), (), RelVar("t"), ctx)


def test_noop_rewrite_counts_as_no_match():
    ident = Rule("X1", "rule", "identity", lambda sub, ctx: sub)
    t = _rel_t(random.Random(SEED0), nmin=1)
    ctx = RuleContext(CostModel({}, {"t": t.schema}))
    assert try_apply(ident, RelVar("t"), (), RelVar("t"), ctx) is None


def test_fresh_names_never_capture_existing_columns():
    # a base column squatting on the gensym pool must be skipped over
    schema = Schema.of(scalars=["k", "__p0"], arrays=[])
    rel = Relation.build(schema, [{"k": 1, "__p0": 5}, {"k": 1, "__p0": 7}])
    other = Schema.of(scalars=["k", "z"], arrays=[])
    orel = Relation.build(other, [{"k": 1, "z": 2}])
    term = Aggregate(("z",), (AggSpec("sum", "__p0", "tot"),),
                     Join(RelVar("r"), RelVar("o")))
    ctx = RuleContext(CostModel({}, {"r": schema, "o": other}))
    new_root = try_apply(RULES_BY_ID["R21"], term, (), term, ctx)
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
        out = guard_cost_improves(RULES_BY_ID["R2.3"], term, (), term, ctx)
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
        assert guard_cost_improves(RULES_BY_ID["R2.3"], root, path, sub,
                                   ctx) is None
    # per attempt, sub's 2 operators with the derive marked and the
    # candidate's 2 above it; the guard leaves the state as it was, so the
    # attempt is rejected without costing the root
    assert len(calls) == attempts * 4


def test_r2_3_guard_above_a_derive_is_not_repeated():
    # R2.3 only probes the filters directly under the arrayJoin, so it fires
    # again past the derive; the cost model knows the guarded arrays are no
    # longer empty and rejects the second guard
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
    assert try_apply(RULES_BY_ID["R2.3"], term, (), term, ctx) is not None
    assert guard_cost_improves(RULES_BY_ID["R2.3"], term, (), term,
                               ctx) is None


def test_r2_3_does_not_stack_guards():
    rng = random.Random(SEED0)
    inst = GENS["R2.3"](rng)
    once = _apply("R2.3", inst)
    again = try_apply(RULES_BY_ID["R2.3"], once, inst.path,
                      subterm_at(once, inst.path), _ctx(inst))
    assert again is None


def test_r14_push_reaches_fixpoint():
    rng = random.Random(SEED0 + 1)
    inst = GENS["R14"](rng)
    term = inst.term
    for _ in range(4):
        nxt = try_apply(RULES_BY_ID["R14"], term, (), term, _ctx(inst))
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
    new_root = try_apply(RULES_BY_ID["R11.2"], term, (), term,
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
    assert try_apply(RULES_BY_ID[rule_id], term, (), term,
                     _ctx(inst)) is None


def test_r13_2_refuses_non_invertible_fn():
    term = Filter(Cmp("<", Col("y"), Lit(3)),
                  Derive("y", ScalarFn.of("abs"), ("x",), RelVar("t")))
    t = _rel_t(random.Random(SEED0), nmin=1)
    assert try_apply(RULES_BY_ID["R13.2"], term, (), term,
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
    assert try_apply(RULES_BY_ID["R10.3"], term, (), term, ctx) is None
    # the same shape splits once the correspondence is withdrawn
    free = RuleContext(CostModel({}, inst.schemas), [])
    assert try_apply(RULES_BY_ID["R10.3"], term, (), term, free) is not None


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
                    assert try_apply(rule, term, (), term, ctx) is not None
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
    new = try_apply(RULES_BY_ID["R2.4"], term, (), term, _ctx(inst))
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


def _three_pass_guard(rule, root, path, ctx, cm, epsilon=1e-9):
    """``guard_cost_improves`` as three passes: ``_plain_apply``, then
    cost the whole new root."""
    new_root = _plain_apply(rule, root, path, ctx)
    if new_root is None:
        return None
    old_cost = cm.term_cost(root).cost
    new_cost = cm.term_cost(new_root).cost
    return new_root if new_cost < old_cost - epsilon else None


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
            new = _outcome(guard_cost_improves, rule, root, path, sub,
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
            injected = CostModel(stats or {}, schemas).term_cost(
                root, {id(sub): res})
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
                if s is sub else None)
    with pytest.raises(RewriteError) as old:
        _three_pass_guard(rule, root, (0,), RuleContext(cm), cm)
    assert str(old.value).startswith("X2 changed the schema at (0,): ")
    with pytest.raises(RewriteError) as new:
        guard_cost_improves(rule, root, (0,), sub, RuleContext(cm))
    assert str(new.value) == str(old.value)
    with pytest.raises(RewriteError) as applied:
        try_apply(rule, root, (0,), sub, RuleContext(cm))
    assert str(applied.value) == str(old.value)


############################################################
# greedy rounds: results held by the round, exact local rejects
############################################################

def _round(root, schemas, cm, corr, visit):
    """One greedy bottom-up round over `root` whose step calls
    ``visit(ctx, root, path, sub)`` at every node and matches nowhere."""
    ctx = RuleContext(cm, corr)

    def step(at, path, sub):
        assert ctx.held(sub) is not None
        visit(ctx, at, path, sub)
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
            assert _outcome(try_apply, rule, root, path, sub, ctx) == \
                _outcome(_plain_apply, rule, root, path, fresh), \
                (rule.rule_id, path)
            new = _outcome(guard_cost_improves, rule, root, path, sub, ctx)
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


def _guard_case(rule_fn, epsilon=1e-9):
    """``guard_cost_improves`` of `rule_fn` at the root's child, and how
    often it called ``term_cost``, under a guarded filter over `r`."""
    schema = Schema.of(scalars=["k"], arrays=["a"])
    cm = CostModel({}, {"r": schema})
    guard = Cmp("!=", Col("a"), Lit(()))
    sub = Filter(guard, Filter(guard, RelVar("r")))
    root = Filter(Cmp("<", Col("k"), Lit(50)), sub)
    rule = Rule("X", "cost", "test rewrite", rule_fn)
    costed = []
    real = cm.term_cost

    def counting(*args):
        costed.append(args)
        return real(*args)

    cm.term_cost = counting
    out = guard_cost_improves(rule, root, (0,), sub, RuleContext(cm), epsilon)
    return out, len(costed)


def test_equal_state_rewrite_that_ties_is_rejected_locally():
    # an identity projection adds nothing to the cost and copies the state
    assert _guard_case(lambda s, ctx: Project(("a", "k"), s)
                       if isinstance(s.child, Filter) else None) == (None, 0)


def test_equal_state_rewrite_cheaper_by_less_than_epsilon_is_costed():
    # the repeated guard has selectivity 1, so dropping it keeps the state
    # and saves one scan of the 1,000 default rows: the root is costed, and
    # the saving decides against an epsilon above it and for one below it
    def drop_repeat(s, ctx):
        return s.child if isinstance(s.child, Filter) else None
    assert _guard_case(drop_repeat, epsilon=1e4) == (None, 2)
    out, costed = _guard_case(drop_repeat)
    assert out is not None and costed == 2


def _assert_round_holds_a_bounded_window(root, schemas):
    """At every visit of a greedy round, the results held are at most the
    visited node, its children and grandchildren, and the root and
    children of every finished subtree whose parent is still to come;
    returns the largest number held."""
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
# resume and sweep rounds: exact against restarting from the root
############################################################

preprocess_stage = importlib.import_module("a3d.planner.preprocess")
postprocess_stage = importlib.import_module("a3d.planner.postprocess")


def _rule_step(rule_id):
    return lambda sub, ctx: rewrite._attempt(RULES_BY_ID[rule_id], sub, ctx)


# what the two resume stages, pull_projections_up and descend_filters, try
RESUME_STEPS = {
    **{rule_id: _rule_step(rule_id)
       for rule_id in preprocess_stage._FILTER_RULES + ("R2.4",)},
    "project-pull": preprocess_stage._hoist_once,
    "filter-past-arrayFilter":
        lambda sub, ctx:
        preprocess_stage._commute_filter_past_array_filter(sub),
}


def _restart_driver(real):
    """``rewrite_to_fixpoint`` as it was before resume and sweep rounds:
    every round walks the root in preorder from the top, holding nothing,
    and its first hit fires.  Bottom-up rounds go to `real`."""
    def driver(term, step, stage, ctx, policy, cap=None, cap_error=None):
        if policy == "bottom-up":
            return real(term, step, stage, ctx, policy, cap, cap_error)
        rewrites = 0
        while True:
            for path, sub in walk(term):
                hit = step(term, path, sub)
                if hit is not None:
                    break
            else:
                return term
            rule_id, new = hit
            rewrites += 1
            if cap is not None and rewrites > cap:
                raise cap_error(f"{stage}: no fixpoint after {cap} "
                                f"rewrites (last rule {rule_id})")
            counts = ctx.rule_counts.get(rule_id)
            if counts is not None:
                counts[1] += 1
            rewrite.trace_record(ctx, stage, rule_id, path, term, new)
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


def _planned(term, schemas, stats, mode):
    """What a plan must keep under another fixpoint driver: the term, its
    cost, the trace and each rule's fires (attempts may differ), or the
    error planning raised."""
    try:
        res = optimize(term, schemas, stats=stats, mode=mode, trace=True)
    except Exception as exc:  # the error is part of the outcome
        return type(exc).__name__, str(exc)
    fires = {rule_id: n for rule_id, (_, n) in res.counters["rules"].items()
             if n}
    return repr(res.term), res.cost, res.trace, fires


def test_resume_and_sweep_rounds_match_restarting_from_the_root(
        monkeypatch):
    queries = list(_seeded_queries())
    modes = ("greedy", "enumerate", "oracle")
    rounds = [_planned(*q, mode) for q in queries for mode in modes]
    _restarting(monkeypatch)
    restarted = [_planned(*q, mode) for q in queries for mode in modes]
    assert rounds == restarted
    assert sum(len(out[2]) for out in rounds if len(out) == 4) > 300


def _roots_of_resume_stages(term, schemas, monkeypatch):
    """Every root that pull_projections_up and descend_filters visit on
    `term`, as preprocess runs them, under the restarting driver."""
    roots = []
    real = _restart_driver(rewrite.rewrite_to_fixpoint)

    def recording(term, step, stage, ctx, policy, *args):
        def step_at(root, path, sub):
            if not path:
                roots.append(root)
            return step(root, path, sub)
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


def test_resume_rounds_keep_only_exact_schemas_of_the_root(monkeypatch):
    # a kept schema is keyed by id(node), so every entry must be of a node
    # of the current root, with that node's schema
    checked = []
    real = rewrite._keep_schemas

    def checking(ctx, old, new, path):
        real(ctx, old, new, path)
        nodes = {id(node): node for _, node in walk(new)}
        assert set(ctx.kept) <= set(nodes)
        for key, schema in ctx.kept.items():
            assert schema == output_schema(nodes[key], ctx.schemas)
        checked.append(len(ctx.kept))

    monkeypatch.setattr(rewrite, "_keep_schemas", checking)
    for term, schemas, stats in _seeded_queries():
        optimize(term, schemas, stats=stats, mode="greedy")
    assert len(checked) > 100


def test_rewrite_to_fixpoint_rejects_an_unknown_policy():
    ctx = RuleContext(CostModel({}, {"t": Schema.of(scalars=["x"])}))
    with pytest.raises(ValueError, match="unknown policy"):
        rewrite.rewrite_to_fixpoint(RelVar("t"), lambda *a: None, "test",
                                    ctx, "top-down")
