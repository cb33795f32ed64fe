"""The rewrite-rule catalog and its application engine.

Every rule is a pure function from a subterm (plus context) to a rewritten
subterm or None.  Rules never change the output schema: ``try_apply`` and
``guard_cost_improves`` verify schema preservation on every hit and raise
``RewriteError`` if a rule breaks it.

Rules come in two kinds:

``rule``  equivalence-preserving reshapes that are always worth doing in a
          bottom-up pass (pushdowns, fission into element form, inversions);
``cost``  reshapes that can help or hurt (commutations, expansion placement,
          pre-aggregation) and therefore apply only under
          ``guard_cost_improves``.

Where a rule moves one unary operator past another, or below or above a
join, its column conditions come from ``algebra.footprint``, through three
helpers: ``_swap`` (R1, R2.1, R5.1, R11.1, R12, R13.1, R15),
``_push_below_join`` (R4.1, R6, R8, R10.1) and ``_pull_above_join`` (R7,
R10.2).

R2.4 fuses an arrayFilter stacked on another over the same target set into
one conjunctive arrayFilter, so the arrays are rebuilt once, not once per
filter.  Preprocess applies it as R2.2 converts filters one conjunct at a
time, greedy through the catalog, and postprocess to the stacks that
enumerate's placement creates.

A rule attempt costs what the rewrite changes.  ``try_apply`` and
``guard_cost_improves`` take the subterm that ``rewrite_to_fixpoint``
already holds.  A rewrite keeps most of that subterm by identity; the
maximal kept subterms (its frontier) have their schemas and costs inferred
once and reused for both sides of the comparison.  The cost guard rejects,
without costing any ancestor, a rewrite that leaves the subterm's plan
state as it was and is no cheaper; otherwise it costs the new root with
the rewrite's result injected.

``rewrite_to_fixpoint`` runs a stage in rounds of one of four policies.
Greedy's ``bottom-up`` rounds and the cost-guarded ``sweep`` rounds keep
each node's ``(cost, state, schema)`` until its grandparent has been
visited (``RuleContext.results``), so `sub` and a frontier up to two levels
down are read, not folded; no result outlives its round.  A sweep fires
the hit first in preorder, as a top-down round would.  The rule-only
preprocess stages run ``resume`` rounds: after a rewrite the next round
starts at the rewrite's parent, since every node before it in preorder
would miss again, and schemas stay kept across rounds
(``RuleContext.kept``) for the nodes still in the root, so a hit infers
only the nodes it creates.  Postprocess runs ``restart`` rounds from the
root, holding nothing.

One ``RuleContext`` per ``optimize`` call carries the cost model, the trace
and ``rule_counts``: each rule's attempts and the rewrites
``rewrite_to_fixpoint`` kept.  The engine and every stage take it whole.

Naming: R<n> identifiers are stable API surface; sub-variants share a family
number.  Fresh internal columns use the ``__idx_<k>`` / ``__inv_<k>`` /
``__p<k>`` gensym pools and are always projected away by the same rule that
introduced them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Optional

from .algebra import (
    Aggregate,
    AggSpec,
    ArrayFilter,
    ArrayJoin,
    Derive,
    Filter,
    Join,
    Project,
    RelVar,
    Schema,
    SchemaError,
    Term,
    UNARY_TYPES,
    children,
    footprint,
    node_schema,
    output_schema,
    replace_at,
    walk,
    walk_from,
    with_children,
)
from .functions import ARRAY_ARG_FNS, REAGGREGATE, ScalarFn, affine_form
from .predicates import (
    Cmp,
    Col,
    Lit,
    Pred,
    conjoin,
    invert_pred_through_fn,
    pred_columns,
    rename_columns,
    split_conjuncts,
)


class RewriteError(Exception):
    """A rule produced a term with a different schema (engine bug guard)."""


############################################################
# context and rule records
############################################################

@dataclass(frozen=True)
class Rule:
    rule_id: str
    kind: str            # "rule" | "cost"
    title: str
    fn: Callable         # (sub: Term, ctx: RuleContext) -> Optional[Term]


class RuleContext:
    """The context of one ``optimize`` call: the cost model, whose catalog
    is ``schemas``, declared correspondences, the trace (the records list
    ``trace_record`` appends to, or None), a gensym pool for one term, and
    per-rule counters.

    The pool is lazy: ``bind_root`` only records the root, and the set of
    names already in use is collected from it the first time ``fresh`` runs
    after a bind.  Rule attempts that never ask for a fresh name therefore
    never walk the whole term.

    ``rule_counts`` maps a rule id to ``[attempts, fires]``: an attempt is
    a call of the rule's function, a fire a rewrite that
    ``rewrite_to_fixpoint`` kept.

    ``results`` is None except during a ``bottom-up`` or ``sweep`` round
    of ``rewrite_to_fixpoint``, where it maps ``id(node)`` to the node's
    ``(cost, state, schema)`` for the nodes of the bound root that the
    round holds; ``schema_of``, ``try_apply`` and ``guard_cost_improves``
    read from it.  ``kept`` is None except during ``resume`` rounds, where
    it maps ``id(node)`` to the schema of a node of the current root;
    ``schema_of`` and ``try_apply`` read from it and record every schema
    they infer there, so in those rounds they take nodes of the bound root
    only, as every rule does with the parts of `sub`.
    """

    def __init__(self, cost_model, correspondences=(),
                 trace: Optional[list] = None):
        self.cost_model = cost_model
        self.schemas: Mapping[str, Schema] = cost_model.schemas
        self.correspondences = [frozenset(g) for g in correspondences]
        self.trace = trace
        self.rule_counts: dict = {}
        self.results: Optional[dict] = None
        self.kept: Optional[dict] = None
        self._root: Optional[Term] = None
        self._used: Optional[set] = set()

    def bind_root(self, root: Term) -> "RuleContext":
        self._root = root
        self._used = None  # stale until the next fresh()
        return self

    def schema_of(self, term: Term) -> Schema:
        res = self.held(term)
        if res is not None:
            return res[2]
        if self.kept is not None:
            return _schema(term, self.schemas, self.kept, keep=True)
        return output_schema(term, self.schemas)

    def held(self, term: Term) -> Optional[tuple]:
        """`term`'s ``(cost, state, schema)`` when the round holds it."""
        return None if self.results is None else self.results.get(id(term))

    def corresponding(self, cols) -> bool:
        cols = frozenset(cols)
        return any(cols <= g for g in self.correspondences)

    def fresh(self, prefix: str) -> str:
        """A name `prefix<k>` (smallest k) used nowhere in the bound root
        nor handed out since the bind."""
        if self._used is None:
            self._used = collect_names(self._root, self.schemas)
        k = 0
        while f"{prefix}{k}" in self._used:
            k += 1
        name = f"{prefix}{k}"
        self._used.add(name)
        return name


def collect_names(term: Term, schemas: Mapping[str, Schema]) -> set:
    names: set = set()
    for _, node in walk(term):
        if isinstance(node, RelVar):
            if node.name in schemas:
                names |= schemas[node.name].columns
        elif not isinstance(node, Join):
            for cols in footprint(node):
                names |= cols
    return names


CATALOG: list = []
RULES_BY_ID: dict = {}


def _rule(rule_id: str, kind: str, title: str):
    def register(fn):
        r = Rule(rule_id, kind, title, fn)
        CATALOG.append(r)
        RULES_BY_ID[rule_id] = r
        return fn
    return register


def _aliases(targets):
    return frozenset(a for _, a in targets)


def _sources(targets):
    return frozenset(s for s, _ in targets)


def _not_empty(col: str) -> Pred:
    return Cmp("!=", Col(col), Lit(()))


############################################################
# commutation tests, all from ``footprint``
############################################################

def _swap(upper: Term, lower: Term) -> Optional[Term]:
    """upper(lower(X)) -> lower(upper(X)) when neither writes or consumes a
    column the other reads, writes or consumes."""
    ur, uw, uc = footprint(upper)
    lr, lw, lc = footprint(lower)
    if (uw | uc) & (lr | lw | lc) or (lw | lc) & (ur | uw | uc):
        return None
    return with_children(lower, (with_children(upper, (lower.child,)),))


def _push_below_join(sub: Term, ctx) -> Optional[Term]:
    """Move unary `sub` onto the side of the join below it that holds every
    column it reads, left first, when it writes nothing the other side has
    and consumes no join key."""
    join = sub.child
    reads, writes, consumes = footprint(sub)
    lcols = ctx.schema_of(join.left).columns
    rcols = ctx.schema_of(join.right).columns
    if consumes & lcols & rcols:
        return None  # consuming a join key changes the join
    if reads <= lcols and not writes & rcols:
        return Join(with_children(sub, (join.left,)), join.right)
    if reads <= rcols and not writes & lcols:
        return Join(join.left, with_children(sub, (join.right,)))
    return None


def _pull_above_join(join: Join, kind: type, ctx) -> Optional[Term]:
    """Lift a `kind` operator from under either side of `join`, left first,
    when it writes and consumes nothing the other side has."""
    for i, (op, other) in enumerate(((join.left, join.right),
                                     (join.right, join.left))):
        if not isinstance(op, kind):
            continue
        _, writes, consumes = footprint(op)
        moved = writes | consumes
        if moved and moved & ctx.schema_of(other).columns:
            continue
        kids = (op.child, other) if i == 0 else (other, op.child)
        return with_children(op, (Join(*kids),))
    return None


############################################################
# filters vs array operators (R1, R2.x)
############################################################

@_rule("R1", "cost", "commute adjacent filters")
def r1(sub, ctx):
    if isinstance(sub, Filter) and isinstance(sub.child, Filter):
        return _swap(sub, sub.child)
    return None


@_rule("R2.1", "rule", "push filter below arrayJoin (alias-independent)")
def r2_1(sub, ctx):
    if isinstance(sub, Filter) and isinstance(sub.child, ArrayJoin):
        return _swap(sub, sub.child)
    return None


@_rule("R2.2", "rule", "filter on unnested elements becomes arrayFilter")
def r2_2(sub, ctx):
    if not (isinstance(sub, Filter) and isinstance(sub.child, ArrayJoin)):
        return None
    mu = sub.child
    aliases = _aliases(mu.targets)
    if not pred_columns(sub.pred) <= aliases:
        return None
    phi = ArrayFilter(mu.targets, sub.pred, mu.child)
    return ArrayJoin(tuple((a, a) for _, a in mu.targets), phi)


@_rule("R2.3", "cost", "prune empty arrays before arrayJoin")
def r2_3(sub, ctx):
    if not isinstance(sub, ArrayJoin):
        return None
    guard = _not_empty(sub.targets[0][0])
    probe = sub.child
    while isinstance(probe, Filter):
        if probe.pred == guard:
            return None  # already guarded
        probe = probe.child
    return ArrayJoin(sub.targets, Filter(guard, sub.child))


@_rule("R2.4", "rule", "fuse stacked arrayFilters over one target set")
def r2_4(sub, ctx):
    """phi[t2 | p2](phi[t1 | p1](X)), where t2's sources are t1's aliases,
    -> phi[(s, t2(a)) for (s, a) in t1 | p1 renamed through t2, then p2](X).

    An index survives the stack exactly when it passes both predicates, so
    one pass keeps the same elements.  The schema cannot change: an inner
    alias that is a column of X is one of X's sources (``node_schema``
    rejects an alias that shadows a surviving column), so the fused filter
    drops what the stack drops.
    """
    if not (isinstance(sub, ArrayFilter)
            and isinstance(sub.child, ArrayFilter)):
        return None
    inner = sub.child
    if _sources(sub.targets) != _aliases(inner.targets):
        return None
    renamed = dict(sub.targets)
    pred = conjoin(split_conjuncts(rename_columns(inner.pred, renamed))
                   + split_conjuncts(sub.pred))
    return ArrayFilter(tuple((s, renamed[a]) for s, a in inner.targets),
                       pred, inner.child)


############################################################
# projections (R3, R9, R14)
############################################################

@_rule("R3", "rule", "push projection below filter")
def r3(sub, ctx):
    if not (isinstance(sub, Project) and isinstance(sub.child, Filter)):
        return None
    f = sub.child
    if not pred_columns(f.pred) <= set(sub.cols):
        return None
    return Filter(f.pred, Project(sub.cols, f.child))


@_rule("R9", "rule", "split projection across a join")
def r9(sub, ctx):
    if not (isinstance(sub, Project) and isinstance(sub.child, Join)):
        return None
    join = sub.child
    lsch = ctx.schema_of(join.left)
    rsch = ctx.schema_of(join.right)
    shared = lsch.columns & rsch.columns
    keep = frozenset(sub.cols)
    if not shared <= keep:
        return None
    lcols = tuple(sorted(keep & lsch.columns))
    rcols = tuple(sorted(keep & rsch.columns))
    if frozenset(lcols) == lsch.columns and frozenset(rcols) == rsch.columns:
        return None  # nothing to trim
    return Join(Project(lcols, join.left), Project(rcols, join.right))


@_rule("R14", "rule", "push projection below derive / drop dead derive")
def r14(sub, ctx):
    if not (isinstance(sub, Project) and isinstance(sub.child, Derive)):
        return None
    d = sub.child
    keep = frozenset(sub.cols)
    if d.output not in keep:
        return Project(sub.cols, d.child)           # derive result unused
    if not set(d.args) <= keep:
        return None
    inner = tuple(sorted((keep - {d.output}) | set(d.args)))
    if frozenset(inner) >= ctx.schema_of(d.child).columns:
        return None  # nothing to trim: inserting would be a no-op forever
    return Project(sub.cols,
                   Derive(d.output, d.fn, d.args, Project(inner, d.child),
                          d.is_map))


############################################################
# operators vs join (R4.x, R6, R7, R8, R10.x)
############################################################

def _side_schemas(ctx, join):
    return ctx.schema_of(join.left), ctx.schema_of(join.right)


@_rule("R4.1", "cost", "push arrayJoin below join (one-sided targets)")
def r4_1(sub, ctx):
    if isinstance(sub, ArrayJoin) and isinstance(sub.child, Join):
        return _push_below_join(sub, ctx)
    return None


@_rule("R4.2", "cost", "split cross-relation coordinated arrayJoin by index")
def r4_2(sub, ctx):
    if not (isinstance(sub, ArrayJoin) and isinstance(sub.child, Join)):
        return None
    join = sub.child
    lsch, rsch = _side_schemas(ctx, join)
    shared = lsch.columns & rsch.columns
    srcs = _sources(sub.targets)
    if srcs & shared:
        return None
    left_t = tuple(t for t in sub.targets if t[0] in lsch.arrays)
    right_t = tuple(t for t in sub.targets if t[0] in rsch.arrays)
    if not left_t or not right_t:
        return None                        # single-sided: R4.1 territory
    if not ctx.corresponding(srcs):
        return None                        # lengths not promised equal
    if _aliases(left_t) & rsch.columns or _aliases(right_t) & lsch.columns:
        return None
    out_schema = ctx.schema_of(sub)
    idx = ctx.fresh("__idx_")

    def indexed(side_term, side_targets):
        first_src = side_targets[0][0]
        enum = Derive(idx, ScalarFn.of("arrayEnumerate"), (first_src,),
                      side_term)
        return ArrayJoin(side_targets + ((idx, idx),), enum)

    joined = Join(indexed(join.left, left_t), indexed(join.right, right_t))
    return Project(tuple(sorted(out_schema.columns)), joined)


@_rule("R6", "rule", "push filter below join")
def r6(sub, ctx):
    if isinstance(sub, Filter) and isinstance(sub.child, Join):
        return _push_below_join(sub, ctx)
    return None


@_rule("R7", "cost", "pull filter above join")
def r7(sub, ctx):
    if isinstance(sub, Join):
        return _pull_above_join(sub, Filter, ctx)
    return None


@_rule("R8", "rule", "push derive below join")
def r8(sub, ctx):
    if isinstance(sub, Derive) and isinstance(sub.child, Join):
        return _push_below_join(sub, ctx)
    return None


@_rule("R10.1", "cost", "push arrayFilter below join")
def r10_1(sub, ctx):
    if isinstance(sub, ArrayFilter) and isinstance(sub.child, Join):
        return _push_below_join(sub, ctx)
    return None


@_rule("R10.2", "cost", "pull arrayFilter above join")
def r10_2(sub, ctx):
    if isinstance(sub, Join):
        return _pull_above_join(sub, ArrayFilter, ctx)
    return None


@_rule("R10.3", "cost", "split stacked independent arrayFilters across a join")
def r10_3(sub, ctx):
    if not (isinstance(sub, ArrayFilter) and len(sub.targets) == 1
            and isinstance(sub.child, ArrayFilter)
            and len(sub.child.targets) == 1
            and isinstance(sub.child.child, Join)):
        return None
    outer, inner = sub, sub.child
    join = inner.child
    lsch, rsch = _side_schemas(ctx, join)
    shared = lsch.columns & rsch.columns
    src_o, alias_o = outer.targets[0]
    src_i, alias_i = inner.targets[0]
    if {src_o, src_i} & shared:
        return None
    if ctx.corresponding((src_o, src_i)):
        return None  # declared corresponding: element positions are coupled
    for first, second in ((outer, inner), (inner, outer)):
        fs, fa = first.targets[0]
        ss, sa = second.targets[0]
        if fs in lsch.arrays and ss in rsch.arrays and \
                not {fa} & rsch.columns and not {sa} & lsch.columns:
            return Join(ArrayFilter(first.targets, first.pred, join.left),
                        ArrayFilter(second.targets, second.pred, join.right))
    return None


############################################################
# derive vs array operators (R5.x, R11.x, R12, R13.x)
############################################################

@_rule("R5.1", "rule", "push scalar derive below arrayJoin")
def r5_1(sub, ctx):
    if isinstance(sub, Derive) and isinstance(sub.child, ArrayJoin) \
            and not sub.is_map:
        return _swap(sub, sub.child)
    return None


@_rule("R5.2", "cost", "derive on unnested element becomes arrayMap below")
def r5_2(sub, ctx):
    if not (isinstance(sub, Derive) and isinstance(sub.child, ArrayJoin)
            and not sub.is_map):
        return None
    mu = sub.child
    als = _aliases(mu.targets)
    alias_args = [c for c in sub.args if c in als]
    if len(alias_args) != 1 or sub.fn.name in ARRAY_ARG_FNS:
        return None
    below = ctx.schema_of(mu.child)
    y = sub.output
    if y in below.columns or y in als or y in _sources(mu.targets):
        return None
    if any(c not in below.scalars for c in sub.args if c not in als):
        return None
    src_by_alias = {a: s for s, a in mu.targets}
    mapped_args = tuple(src_by_alias.get(c, c) for c in sub.args)
    inner = Derive(y, sub.fn, mapped_args, mu.child, is_map=True)
    return ArrayJoin(mu.targets + ((y, y),), inner)


@_rule("R11.1", "cost", "commute independent arrayFilter and map derive")
def r11_1(sub, ctx):
    if isinstance(sub, ArrayFilter) and isinstance(sub.child, Derive) \
            and sub.child.is_map:
        return _swap(sub, sub.child)
    if isinstance(sub, Derive) and sub.is_map \
            and isinstance(sub.child, ArrayFilter):
        return _swap(sub, sub.child)
    return None


@_rule("R11.2", "rule", "rewind arrayFilter through an invertible map")
def r11_2(sub, ctx):
    if not (isinstance(sub, ArrayFilter) and len(sub.targets) == 1
            and isinstance(sub.child, Derive) and sub.child.is_map
            and len(sub.child.args) == 1):
        return None
    d = sub.child
    src_arr, out_alias = sub.targets[0]
    if src_arr != d.output:
        return None
    if affine_form(d.fn) is None:
        return None
    below = ctx.schema_of(d.child)
    if out_alias in below.columns:
        return None
    out_cols = tuple(sorted(ctx.schema_of(sub).columns))
    g = ctx.fresh("__inv_")
    inverted = invert_pred_through_fn(sub.pred, d.fn, source=g,
                                      output=out_alias)
    if inverted is None:
        return None
    copied = Derive(g, ScalarFn.of("identity"), (d.args[0],), d.child)
    filtered = ArrayFilter(((g, g),), inverted, copied)
    remapped = Derive(out_alias, d.fn, (g,), filtered, is_map=True)
    return Project(out_cols, remapped)


@_rule("R12", "cost", "commute independent arrayJoins")
def r12(sub, ctx):
    if isinstance(sub, ArrayJoin) and isinstance(sub.child, ArrayJoin):
        return _swap(sub, sub.child)
    return None


@_rule("R13.1", "rule", "push filter below independent derive")
def r13_1(sub, ctx):
    if isinstance(sub, Filter) and isinstance(sub.child, Derive):
        return _swap(sub, sub.child)
    return None


@_rule("R13.2", "rule", "invert filter through an affine derive")
def r13_2(sub, ctx):
    if not (isinstance(sub, Filter) and isinstance(sub.child, Derive)):
        return None
    d = sub.child
    if d.is_map or len(d.args) != 1:
        return None
    if pred_columns(sub.pred) != {d.output}:
        return None
    inverted = invert_pred_through_fn(sub.pred, d.fn, source=d.args[0],
                                      output=d.output)
    if inverted is None:
        return None
    return Derive(d.output, d.fn, d.args, Filter(inverted, d.child), d.is_map)


############################################################
# aggregates (R15, R16, R17.x, R18-R21)
############################################################

@_rule("R15", "cost", "push filter on group keys below aggregate")
def r15(sub, ctx):
    if isinstance(sub, Filter) and isinstance(sub.child, Aggregate):
        return _swap(sub, sub.child)
    return None


def _partial_final_specs(aggs, fresh):
    """Split aggregate specs into partial and final stages.

    Returns (inner_specs, outer_specs, finishers, drop) where finishers are
    (alias, sum_col, count_col) triples realizing avg as a final division and
    drop lists the scratch columns a wrapping projection must remove.
    """
    inner, outer, finishers, drop = [], [], [], []
    for spec in aggs:
        if spec.fn == "avg":
            ps, pc = fresh("__p"), fresh("__p")
            fs, fc = fresh("__p"), fresh("__p")
            inner += [AggSpec("sum", spec.arg, ps),
                      AggSpec("count", spec.arg, pc)]
            outer += [AggSpec("sum", ps, fs), AggSpec("sum", pc, fc)]
            finishers.append((spec.alias, fs, fc))
            drop += [fs, fc]
        elif spec.fn in REAGGREGATE:
            p = fresh("__p")
            inner.append(AggSpec(spec.fn, spec.arg, p))
            outer.append(AggSpec(REAGGREGATE[spec.fn], p, spec.alias))
        elif spec.fn == "distinct":
            p = fresh("__p")
            inner.append(AggSpec("distinct", spec.arg, p))
            outer.append(AggSpec("distinct", p, spec.alias))
        else:
            return None
    return inner, outer, finishers, drop


def _finish(term, keys_and_aliases, finishers, drop):
    """Apply avg finishers and project scratch columns away."""
    for alias, fs, fc in finishers:
        term = Derive(alias, ScalarFn.of("div"), (fs, fc), term)
    if drop:
        term = Project(tuple(sorted(keys_and_aliases)), term)
    return term


def _eager_join_agg(sub, ctx, *, require_distinct, local_keys):
    """Shared skeleton of R16 / R18 / R21: partial-aggregate one join side.

    ``local_keys`` selects between the variant whose group keys live entirely
    on the aggregated side (True), the variant where they spill onto the
    other side (False), or either (None, used for distinct).
    """
    if not (isinstance(sub, Aggregate) and isinstance(sub.child, Join)):
        return None
    join = sub.child
    lsch, rsch = _side_schemas(ctx, join)
    shared = lsch.columns & rsch.columns
    fns = {s.fn for s in sub.aggs}
    if not sub.aggs:
        return None
    if require_distinct and fns != {"distinct"}:
        return None
    if not require_distinct and "distinct" in fns:
        return None
    for side_schema, mk in (
        (lsch, lambda inner: Join(inner, join.right)),
        (rsch, lambda inner: Join(join.left, inner)),
    ):
        args = {s.arg for s in sub.aggs}
        if not args <= side_schema.columns - shared:
            continue
        keys = set(sub.keys)
        if local_keys is not None and local_keys != \
                (keys <= side_schema.columns):
            continue
        split = _partial_final_specs(sub.aggs, ctx.fresh)
        if split is None:
            continue
        inner_specs, outer_specs, finishers, drop = split
        inner_keys = tuple(sorted((keys & side_schema.columns) | shared))
        side_term = join.left if side_schema is lsch else join.right
        inner = Aggregate(inner_keys, tuple(inner_specs), side_term)
        outer = Aggregate(sub.keys, tuple(outer_specs), mk(inner))
        out_cols = set(sub.keys) | {s.alias for s in sub.aggs}
        return _finish(outer, out_cols, finishers, drop)
    return None


@_rule("R16", "cost", "push distinct aggregation below join")
def r16(sub, ctx):
    return _eager_join_agg(sub, ctx, require_distinct=True, local_keys=None)


@_rule("R18", "cost", "push fully one-sided aggregation below join")
def r18(sub, ctx):
    return _eager_join_agg(sub, ctx, require_distinct=False, local_keys=True)


@_rule("R21", "cost", "eager partial aggregation below join (keys spill over)")
def r21(sub, ctx):
    return _eager_join_agg(sub, ctx, require_distinct=False, local_keys=False)


@_rule("R19", "cost", "pre-count one join side, scale the other's aggregates")
def r19(sub, ctx):
    if not (isinstance(sub, Aggregate) and isinstance(sub.child, Join)):
        return None
    join = sub.child
    lsch, rsch = _side_schemas(ctx, join)
    shared = lsch.columns & rsch.columns
    if not sub.aggs or not shared:
        return None
    if not {s.fn for s in sub.aggs} <= {"sum", "min", "max"}:
        return None
    for agg_schema, cnt_schema, mk in (
        (lsch, rsch, lambda counted: Join(join.left, counted)),
        (rsch, lsch, lambda counted: Join(counted, join.right)),
    ):
        args = {s.arg for s in sub.aggs}
        if not args <= agg_schema.columns - shared:
            continue
        if not set(sub.keys) <= agg_schema.columns | shared:
            continue
        one = ctx.fresh("__p")
        cnt = ctx.fresh("__p")
        cnt_side = join.right if agg_schema is lsch else join.left
        counted = Aggregate(tuple(sorted(shared)),
                            (AggSpec("count", one, cnt),),
                            Derive(one, ScalarFn.of("const", value=1), (),
                                   cnt_side))
        joined = mk(counted)
        specs = []
        for spec in sub.aggs:
            if spec.fn == "sum":
                w = ctx.fresh("__p")
                joined = Derive(w, ScalarFn.of("mul"), (spec.arg, cnt), joined)
                specs.append(AggSpec("sum", w, spec.alias))
            else:
                specs.append(spec)
        return Aggregate(sub.keys, tuple(specs), joined)
    return None


@_rule("R17.1", "cost", "aggregate over unnested elements without unnesting")
def r17_1(sub, ctx):
    if not (isinstance(sub, Aggregate) and isinstance(sub.child, ArrayJoin)):
        return None
    mu = sub.child
    als = _aliases(mu.targets)
    if not sub.aggs or set(sub.keys) & als:
        return None
    if not {s.arg for s in sub.aggs} <= als:
        return None
    if not {s.fn for s in sub.aggs} <= {"min", "max", "sum", "count", "avg"}:
        return None
    src_by_alias = {a: s for s, a in mu.targets}
    fold_fn = {"min": "arrayMin", "max": "arrayMax", "sum": "arraySum",
               "count": "arraySum"}
    inner_specs, folds, finishers = [], [], []
    for spec in sub.aggs:
        src = src_by_alias[spec.arg]
        if spec.fn == "avg":
            ns, nc = ctx.fresh("__p"), ctx.fresh("__p")
            ss, cc = ctx.fresh("__p"), ctx.fresh("__p")
            inner_specs += [AggSpec("sumForEach", src, ns),
                            AggSpec("countForEach", src, nc)]
            folds += [(ss, "arraySum", ns), (cc, "arraySum", nc)]
            finishers.append((spec.alias, ss, cc))
        else:
            n = ctx.fresh("__p")
            inner_specs.append(AggSpec(f"{spec.fn}ForEach", src, n))
            folds.append((spec.alias, fold_fn[spec.fn], n))
    inner = Aggregate(sub.keys, tuple(inner_specs), mu.child)
    guarded = Filter(_not_empty(inner_specs[0].alias), inner)
    term: Term = guarded
    for out, fn, arr in folds:
        term = Derive(out, ScalarFn.of(fn), (arr,), term)
    for alias, ss, cc in finishers:
        term = Derive(alias, ScalarFn.of("div"), (ss, cc), term)
    out_cols = tuple(sorted(set(sub.keys) | {s.alias for s in sub.aggs}))
    return Project(out_cols, term)


@_rule("R17.2", "cost", "group by unnested element: pre-aggregate per array")
def r17_2(sub, ctx):
    if not (isinstance(sub, Aggregate) and isinstance(sub.child, ArrayJoin)):
        return None
    mu = sub.child
    als = _aliases(mu.targets)
    key_aliases = [k for k in sub.keys if k in als]
    if len(key_aliases) != 1 or not sub.aggs:
        return None
    if {s.arg for s in sub.aggs} & als:
        return None  # aggregating another element: R17.3's shape
    if not {s.fn for s in sub.aggs} <= {"min", "max", "sum", "count", "avg"}:
        return None
    a = key_aliases[0]
    src = {al: s for s, al in mu.targets}[a]
    scalar_keys = tuple(k for k in sub.keys if k != a)
    split = _partial_final_specs(sub.aggs, ctx.fresh)
    if split is None:
        return None
    inner_specs, outer_specs, finishers, drop = split
    inner = Aggregate(tuple(sorted(set(scalar_keys) | {src})),
                      tuple(inner_specs), mu.child)
    mid = ArrayJoin(((src, a),), inner)
    outer = Aggregate(sub.keys, tuple(outer_specs), mid)
    out_cols = set(sub.keys) | {s.alias for s in sub.aggs}
    return _finish(outer, out_cols, finishers, drop)


@_rule("R17.3", "cost", "group by one element, aggregate its corresponding one")
def r17_3(sub, ctx):
    if not (isinstance(sub, Aggregate) and isinstance(sub.child, ArrayJoin)):
        return None
    mu = sub.child
    als = _aliases(mu.targets)
    key_aliases = [k for k in sub.keys if k in als]
    if len(key_aliases) != 1 or not sub.aggs:
        return None
    a1 = key_aliases[0]
    arg_aliases = {s.arg for s in sub.aggs}
    if not arg_aliases or not arg_aliases <= als - {a1}:
        return None
    if not {s.fn for s in sub.aggs} <= {"min", "max", "sum", "count", "avg"}:
        return None
    src_by_alias = {al: s for s, al in mu.targets}
    a1_src = src_by_alias[a1]
    scalar_keys = tuple(k for k in sub.keys if k != a1)
    foreach = {"min": "minForEach", "max": "maxForEach", "sum": "sumForEach",
               "count": "countForEach"}
    inner_specs, unnest_extra, outer_specs, finishers, drop = [], [], [], [], []
    for spec in sub.aggs:
        src = src_by_alias[spec.arg]
        if spec.fn == "avg":
            ns, nc = ctx.fresh("__p"), ctx.fresh("__p")
            es, ec = ctx.fresh("__p"), ctx.fresh("__p")
            fs, fc = ctx.fresh("__p"), ctx.fresh("__p")
            inner_specs += [AggSpec("sumForEach", src, ns),
                            AggSpec("countForEach", src, nc)]
            unnest_extra += [(ns, es), (nc, ec)]
            outer_specs += [AggSpec("sum", es, fs), AggSpec("sum", ec, fc)]
            finishers.append((spec.alias, fs, fc))
            drop += [fs, fc]
        else:
            n = ctx.fresh("__p")
            e = ctx.fresh("__p")
            inner_specs.append(AggSpec(foreach[spec.fn], src, n))
            unnest_extra.append((n, e))
            outer_specs.append(
                AggSpec(REAGGREGATE[spec.fn], e, spec.alias))
    inner = Aggregate(tuple(sorted(set(scalar_keys) | {a1_src})),
                      tuple(inner_specs), mu.child)
    mid = ArrayJoin(((a1_src, a1),) + tuple(unnest_extra), inner)
    outer = Aggregate(sub.keys, tuple(outer_specs), mid)
    out_cols = set(sub.keys) | {s.alias for s in sub.aggs}
    return _finish(outer, out_cols, finishers, drop)


@_rule("R20", "cost", "pre-aggregate below arrayJoin (alias-independent)")
def r20(sub, ctx):
    if not (isinstance(sub, Aggregate) and isinstance(sub.child, ArrayJoin)):
        return None
    mu = sub.child
    als = _aliases(mu.targets)
    if not sub.aggs or set(sub.keys) & als or {s.arg for s in sub.aggs} & als:
        return None
    if not {s.fn for s in sub.aggs} <= {"min", "max", "sum", "count", "avg"}:
        return None
    split = _partial_final_specs(sub.aggs, ctx.fresh)
    if split is None:
        return None
    inner_specs, outer_specs, finishers, drop = split
    srcs = tuple(sorted(_sources(mu.targets)))
    inner = Aggregate(tuple(sorted(set(sub.keys) | set(srcs))),
                      tuple(inner_specs), mu.child)
    mid = ArrayJoin(mu.targets, inner)
    outer = Aggregate(sub.keys, tuple(outer_specs), mid)
    out_cols = set(sub.keys) | {s.alias for s in sub.aggs}
    return _finish(outer, out_cols, finishers, drop)


############################################################
# engine
############################################################

def _attempt(rule: Rule, sub: Term, ctx: RuleContext) -> Optional[Term]:
    """Call `rule` on `sub`, counting one attempt in ``ctx.rule_counts``;
    the rewrite, or None when the rule does not match or changes nothing."""
    counts = ctx.rule_counts.get(rule.rule_id)
    if counts is None:
        counts = ctx.rule_counts[rule.rule_id] = [0, 0]
    counts[0] += 1
    new_sub = rule.fn(sub, ctx)
    if new_sub is None or new_sub == sub:
        return None
    return new_sub


def _node_ids(term: Term, ids: set) -> set:
    ids.add(id(term))
    for kid in children(term):
        _node_ids(kid, ids)
    return ids


def _frontier(new_sub: Term, ids: set, out: dict) -> dict:
    """Mark in `out`, with None, the id of every maximal subterm of
    `new_sub` whose id is in `ids`: the nodes a rewrite kept."""
    if id(new_sub) in ids:
        out[id(new_sub)] = None
    else:
        for kid in children(new_sub):
            _frontier(kid, ids, out)
    return out


def _shared(sub: Term, new_sub: Term, ctx: RuleContext,
            schema_only: bool = False) -> dict:
    """The frontier of `new_sub` in `sub`, as a ``known`` dict that lives
    for one rule attempt: a node the round holds maps to its result (to
    its schema alone with `schema_only`), any other node to None."""
    known = _frontier(new_sub, _node_ids(sub, set()), {})
    if ctx.results:
        for key in known:
            res = ctx.results.get(key)
            if res is not None:
                known[key] = res[2] if schema_only else res
    return known


def _schema(term: Term, schemas: Mapping[str, Schema], known: dict,
            keep: bool = False) -> Schema:
    """``output_schema`` of `term`, reading a node's schema from `known` by
    id and recording it there where the node is marked with None, or with
    `keep` for every node it infers."""
    key = id(term)
    schema = known.get(key)
    if schema is not None:
        return schema
    if isinstance(term, Join):
        schema = node_schema(term, _schema(term.left, schemas, known, keep),
                             _schema(term.right, schemas, known, keep))
    elif isinstance(term, UNARY_TYPES):
        schema = node_schema(term, _schema(term.child, schemas, known, keep))
    else:
        schema = output_schema(term, schemas)
    if keep or key in known:
        known[key] = schema
    return schema


def _check_schema(rule: Rule, path: tuple, before: Schema, after: Schema):
    if before != after:
        raise RewriteError(
            f"{rule.rule_id} changed the schema at {path}: "
            f"{sorted(before.columns)} -> {sorted(after.columns)}")


def try_apply(rule: Rule, root: Term, path: tuple, sub: Term,
              ctx: RuleContext) -> Optional[Term]:
    """Apply `rule` to `sub`, the subterm of `root` at `path`, verifying
    schema preservation.

    The subterms the rewrite kept from `sub` (its frontier) have their
    schemas inferred once, while inferring `sub`'s, and reused for the
    rewrite's; in a bottom-up round `sub`'s and the frontier's schemas are
    read from ``ctx.results`` where it holds them.  In a resume round
    `sub`'s schema is read from ``ctx.kept``, or inferred into it, and the
    rewrite's reads the frontier's from there, so only the nodes the rule
    created are inferred.  Returns the rewritten root, or None when the
    rule doesn't match there.
    """
    ctx.bind_root(root)
    new_sub = _attempt(rule, sub, ctx)
    if new_sub is None:
        return None
    if ctx.kept is not None:
        before = ctx.schema_of(sub)
        after = _schema(new_sub, ctx.schemas, ctx.kept)
    else:
        known = _shared(sub, new_sub, ctx, schema_only=True)
        held = ctx.held(sub)
        before = _schema(sub, ctx.schemas, known) if held is None \
            else held[2]
        after = _schema(new_sub, ctx.schemas, known)
    _check_schema(rule, path, before, after)
    return replace_at(root, path, new_sub)


def applicable(root: Term, ctx: RuleContext, kinds=("rule", "cost")
               ) -> Iterator[tuple]:
    """Yield (rule, path) pairs that fire somewhere in `root`."""
    ctx.bind_root(root)
    for path, sub in walk(root):
        for rule in CATALOG:
            if rule.kind not in kinds:
                continue
            try:
                new_sub = _attempt(rule, sub, ctx)
            except SchemaError:
                continue
            if new_sub is not None:
                yield rule, path


def guard_cost_improves(rule: Rule, root: Term, path: tuple, sub: Term,
                        ctx: RuleContext, epsilon: float = 1e-9
                        ) -> Optional[Term]:
    """Apply a cost-based rule to `sub`, the subterm of `root` at `path`,
    only when it strictly lowers ``term_cost`` under ``ctx.cost_model``.

    `sub` is folded once with the rewrite's frontier marked, and the
    rewrite once with the frontier's results injected (``CostModel.fold``);
    in a bottom-up round both `sub`'s and the frontier's results are read
    from ``ctx.results`` where it holds them.  The schemas are then checked
    as in ``try_apply``, with the same error.

    A rewrite that leaves `sub`'s plan state as it was and is not cheaper
    than `sub` is rejected without costing any ancestor.  This is exact:
    every node above `path` reads only the state below it, so it adds the
    same costs to both roots, in the same order; float addition is
    monotone, so the new root's cost is not below the old root's, and
    ``new < old - epsilon`` cannot hold for a non-negative `epsilon`.  In
    every other case the new root is costed with the rewrite's result
    injected, so only the nodes above `path` are folded again.
    """
    ctx.bind_root(root)
    new_sub = _attempt(rule, sub, ctx)
    if new_sub is None:
        return None
    cost_model = ctx.cost_model
    known = _shared(sub, new_sub, ctx)
    old = ctx.held(sub)
    if old is None:
        old = cost_model.fold(sub, known)
    new = cost_model.fold(new_sub, known)
    _check_schema(rule, path, old[2], new[2])
    if new[0] >= old[0] and new[1] == old[1] and epsilon >= 0:
        return None
    new_root = replace_at(root, path, new_sub)
    old_cost = cost_model.term_cost(root).cost
    new_cost = cost_model.term_cost(new_root, {id(new_sub): new}).cost
    if new_cost < old_cost - epsilon:
        return new_root
    return None


############################################################
# fixpoint driver
############################################################

def trace_record(ctx: RuleContext, stage: str, rule_id: str, path,
                 before: Term, after: Term) -> None:
    """Append one rewrite to ``ctx.trace``, when tracing: stage, rule, path
    and the estimated cost of the root before and after."""
    if ctx.trace is None:
        return
    ctx.trace.append({"stage": stage, "rule": rule_id, "path": list(path),
                      "before_cost": ctx.cost_model.term_cost(before).cost,
                      "after_cost": ctx.cost_model.term_cost(after).cost})


POLICIES = ("bottom-up", "sweep", "resume", "restart")


def rewrite_to_fixpoint(term: Term, step: Callable, stage: str,
                        ctx: RuleContext, policy: str,
                        cap: Optional[int] = None,
                        cap_error: Optional[type] = None) -> Term:
    """Rewrite `term` in rounds until `step` matches nowhere.

    A round calls ``step(root, path, sub)`` at nodes of the root; `step`
    returns ``(rule_id, new_root)`` or None.  The hit a round fires is
    traced under `stage` (``trace_record``), counted as a fire of a catalog
    rule in ``ctx.rule_counts``, and becomes the root of the next round.
    With `cap`, rewrite number ``cap + 1`` raises `cap_error` instead.
    `policy` picks the rounds:

    ``bottom-up``  children before their parents (the reverse of preorder);
                   the first hit fires.  Each node is folded from its
                   children's results (``ctx.cost_model``) into
                   ``ctx.results`` before `step` runs.  A node's result is
                   kept only until its grandparent has been visited: a
                   pairwise rewrite at `sub` keeps nodes at most two levels
                   down, so `sub` and such a frontier are always held, and a
                   deeper frontier is folded as it would be without the
                   round.  The round thus holds, besides the visited node,
                   its children and grandchildren, only each finished
                   subtree's root and that root's children.
    ``sweep``      as ``bottom-up``, but every node is visited and the hit
                   first in preorder fires: the fixpoint of top-down rounds
                   for a step that may read the whole root, as a cost guard
                   does.  Every attempt of a round is judged against the
                   same root, so the order of the visits cannot change
                   which hit comes first in preorder.
    ``resume``     preorder, the first hit fires, and the next round
                   resumes from the parent of the rewritten path instead of
                   the root.  This is exact for a step that decides from a
                   node's own fields, its children's fields and the schemas
                   of its children and grandchildren: a rewrite keeps the
                   schema of every subterm that contains its path, so every
                   node before the parent in preorder sees what it saw when
                   it missed.  The schemas that ``ctx.schema_of`` and
                   ``try_apply`` infer stay in ``ctx.kept`` across rounds
                   while their node is in the root and off the rewritten
                   paths (``_keep_schemas``), so a hit infers only the
                   nodes it creates.
    ``restart``    preorder, the first hit fires, and every round starts
                   from the root and holds nothing.  A guarded step whose
                   stage rarely hits pays for the rounds' folds of
                   ``sweep`` without using them; postprocess is such a
                   stage.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of "
                         f"{POLICIES}")
    resume = policy == "resume"
    ctx.kept = {} if resume else None
    ctx.results = {} if policy in ("bottom-up", "sweep") else None
    rewrites, start = 0, ()
    try:
        while True:
            if policy in ("resume", "restart"):
                hit = _first_hit(term, step, walk_from(term, start))
            else:
                hit = _fold_round(term, step, ctx, policy == "bottom-up")
            if hit is None:
                return term
            path, (rule_id, new) = hit
            rewrites += 1
            if cap is not None and rewrites > cap:
                raise cap_error(f"{stage}: no fixpoint after {cap} "
                                f"rewrites (last rule {rule_id})")
            counts = ctx.rule_counts.get(rule_id)
            if counts is not None:
                counts[1] += 1
            trace_record(ctx, stage, rule_id, path, term, new)
            if resume:
                _keep_schemas(ctx, term, new, path)
                start = path[:-1]
            term = new
    finally:
        ctx.results = ctx.kept = None


def _first_hit(root: Term, step: Callable, nodes) -> Optional[tuple]:
    """``(path, hit)`` of the first of `nodes` where `step` hits."""
    for path, sub in nodes:
        hit = step(root, path, sub)
        if hit is not None:
            return path, hit
    return None


def _fold_round(root: Term, step: Callable, ctx: RuleContext,
                first: bool) -> Optional[tuple]:
    """One round of ``bottom-up`` (`first`) or ``sweep``: ``(path, hit)``
    of the first hit visited, or of the last one, which is first in
    preorder."""
    results, fold = ctx.results, ctx.cost_model.fold
    found = None
    for path, sub in reversed(list(walk(root))):
        results[id(sub)] = None
        fold(sub, results)
        hit = step(root, path, sub)
        if hit is not None:
            found = path, hit
            if first:
                break
        for kid in children(sub):
            for grandkid in children(kid):
                results.pop(id(grandkid), None)
    results.clear()  # the old root's nodes may be freed
    return found


def _keep_schemas(ctx: RuleContext, old: Term, new: Term, path: tuple
                  ) -> None:
    """Carry ``ctx.kept`` from root `old` to root `new`, which a rewrite
    at `path` made, in time linear in the region the rewrite changed.

    A kept schema is keyed by its node's ``id``, which a new object may
    reuse once the node is freed, so every entry is of a node of the
    current root.  The rewrite replaced two sets of nodes, whose entries
    are dropped: the path from the root down to `sub`, whose rebuilt nodes
    are inferred again when asked for, each from its kept child, and
    `sub`'s nodes outside the frontier, the maximal subterms the rewrite
    kept.  Once `sub` is kept whole, every old node of the rewrite is kept
    and no new one is, so the frontier is where a walk down the rewrite
    first meets a kept node.  The nodes the rewrite created are inferred
    last, so the new `sub` is kept whole in turn.
    """
    kept, schemas = ctx.kept, ctx.schemas
    sub, new_sub = old, new
    for i in path:
        kept.pop(id(sub), None)
        sub, new_sub = children(sub)[i], children(new_sub)[i]
    _schema(sub, schemas, kept, keep=True)
    frontier, stack = set(), [new_sub]
    while stack:
        node = stack.pop()
        if id(node) in kept:
            frontier.add(id(node))
        else:
            stack.extend(children(node))
    stack = [sub]
    while stack:
        node = stack.pop()
        if id(node) not in frontier:
            kept.pop(id(node), None)
            stack.extend(children(node))
    _schema(new_sub, schemas, kept, keep=True)
