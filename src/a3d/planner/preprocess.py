"""Pipeline stage one: normalize a term for decomposition.

Three passes, each semantics-preserving:

1. descend            -- one ``resume`` stage whose step tries, at each
   node and in this order:
   - conjunct split (``conjunct-split``): σ(p ∧ q) becomes σ(p)(σ(q)), so
     each conjunct ranks and moves independently;
   - projection pull-up (``project-pull``): an inner projection moves one
     level up, so column pruning never hides operators from the
     enumerator; blocked where removing the projection would change a
     join's key set or capture an alias, in which case it stays put;
   - the catalog rules of ``_DESCEND_RULES``: a filter over an affine
     derive's output is inverted onto the derive's source column (R13.2);
     filters are pushed down through derives and arrayJoins until a
     filter sits directly on unnest aliases and converts into an
     arrayFilter (R2.2); the arrayFilters that the conjuncts of one
     filter become over the same arrays are fused into one conjunctive
     arrayFilter (R2.4), so each array is rebuilt once;
   - a filter commutes past an arrayFilter (``filter-past-arrayFilter``).
   Only greedy mode rewinds an arrayFilter through an invertible map
   (R11.2).
2. emptiness guards   -- a filter dropping empty arrays is inserted under an
   arrayJoin when the cost model says it pays.
3. dead derive removal -- derives whose output nothing consumes are
   dropped, in one pass traced as one record.

Passes take ``(term, ctx)``; the ``RuleContext`` carries the cost model
that guards pass 2 and the trace.  Passes 1 and 2 name their catalog rules
as an ordered id tuple and try, at each node, those whose shapes match it
(``rewrite.rules_at``).  Pass 1 decides from a node, its children and its
grandchildren's schemas, so its rounds resume at the last rewrite's parent
(``rewrite_to_fixpoint``'s ``resume``); pass 2's guard reads the whole
term, so each of its rounds sweeps it (``sweep``).  Their steps take
``(path, sub)`` and return ``(rule_id, new_sub)``: the driver splices the
rewritten subterm in and traces it, rebuilding in a resume round only the
nodes above it that the walk climbs back past, and never keeping a
replaced subterm alive.
"""

from ..algebra import (
    Aggregate, ArrayFilter, ArrayJoin, Derive, Filter, Join, Project, RelVar,
    Term, children, footprint, with_children,
)
from ..predicates import split_conjuncts
from ..rewrite import (
    RuleContext, _swap, first_rewrite, rewrite_to_fixpoint, trace_record,
)


############################################################
# 1. conjunct split, projection pull-up, filter descent
############################################################

def _split_conjunction(term: Term):
    """σ(p1 ∧ … ∧ pn)(X) -> σ(p1)(…σ(pn)(X)); None if not a conjunction."""
    parts = split_conjuncts(term.pred) if isinstance(term, Filter) else ()
    if len(parts) < 2:
        return None
    out = term.child
    for pred in reversed(parts):
        out = Filter(pred, out)
    return out


def _hoist_once(term: Term, ctx: RuleContext):
    """Move a Project one level up through `term` if legal; None otherwise."""
    kids = children(term)
    if isinstance(term, Project) and kids and isinstance(kids[0], Project):
        inner = kids[0]
        return Project(term.cols, inner.child)

    if isinstance(term, Filter) and isinstance(term.child, Project):
        proj = term.child
        return Project(proj.cols, Filter(term.pred, proj.child))

    if isinstance(term, Join):
        for side in (0, 1):
            sub = kids[side]
            if not isinstance(sub, Project):
                continue
            other = kids[1 - side]
            inner_cols = ctx.schema_of(sub.child).columns
            other_cols = ctx.schema_of(other).columns
            if inner_cols & other_cols != set(sub.cols) & other_cols:
                continue  # dropping the projection would change the join key
            out = tuple(sorted(set(sub.cols) | other_cols))
            joined = Join(sub.child, other) if side == 0 \
                else Join(other, sub.child)
            return Project(out, joined)

    if isinstance(term, (ArrayJoin, ArrayFilter, Derive)) \
            and isinstance(term.child, Project):
        proj = term.child
        _, writes, consumes = footprint(term)
        hidden = ctx.schema_of(proj.child).columns - set(proj.cols)
        if writes & hidden:
            return None
        out = tuple(sorted((set(proj.cols) - consumes) | writes))
        return Project(out, with_children(term, (proj.child,)))

    if isinstance(term, Aggregate) and isinstance(term.child, Project):
        return with_children(term, (term.child.child,))

    return None


# R2.4 on stacked arrayFilters; the rest, in this order, on a filter
_DESCEND_RULES = ("R2.4", "R2.2", "R13.2", "R13.1", "R2.1")


def _commute_filter_past_array_filter(sub: Term):
    """σθ(φ(X)) -> φ(σθ(X)) when θ does not read the filtered aliases."""
    if isinstance(sub, Filter) and isinstance(sub.child, ArrayFilter):
        return _swap(sub, sub.child)
    return None


def _named(rule_id: str, new):
    """A step's hit, ``(rule_id, new)``, or None where `new` is None."""
    return None if new is None else (rule_id, new)


def descend_filters(term: Term, ctx: RuleContext) -> Term:
    """Split conjunctions, pull projections up and push filters toward
    arrayJoins; convert to arrayFilter on contact, and fuse the
    arrayFilters so stacked over one target set (R2.4)."""
    def step(path, sub):
        return (_named("conjunct-split", _split_conjunction(sub))
                or _named("project-pull", _hoist_once(sub, ctx))
                or first_rewrite(_DESCEND_RULES, path, sub, ctx)
                or _named("filter-past-arrayFilter",
                          _commute_filter_past_array_filter(sub)))

    return rewrite_to_fixpoint(term, step, "preprocess", ctx, "resume")


############################################################
# 2. emptiness guards before unnesting
############################################################

def insert_empty_guards(term: Term, ctx: RuleContext) -> Term:
    def step(path, sub):
        return first_rewrite(("R2.3",), path, sub, ctx)

    return rewrite_to_fixpoint(term, step, "preprocess", ctx, "sweep")


############################################################
# 3. dead derive removal
############################################################

def _child_needs(t: Term, needed: set) -> set:
    """Columns `t`'s child must supply when `needed` of `t`'s are used."""
    reads, writes, _ = footprint(t)
    return (needed - writes) | reads


def _prune(t: Term, needed: set, ctx: RuleContext) -> Term:
    # `needed` is always a subset of `t`'s columns, so the footprint rule
    # also covers Project and Aggregate, which drop what they do not output
    if isinstance(t, RelVar):
        return t
    if isinstance(t, Join):
        lcols = ctx.schema_of(t.left).columns
        rcols = ctx.schema_of(t.right).columns
        shared = lcols & rcols
        want = needed | shared
        return Join(_prune(t.left, want & lcols, ctx),
                    _prune(t.right, want & rcols, ctx))
    if isinstance(t, Derive) and t.output not in needed:
        return _prune(t.child, needed, ctx)
    return with_children(t, (_prune(t.child, _child_needs(t, needed), ctx),))


def drop_dead_derives(term: Term, ctx: RuleContext) -> Term:
    return _prune(term, set(ctx.schema_of(term).columns), ctx)


############################################################
# the stage
############################################################

def preprocess(term: Term, ctx: RuleContext) -> Term:
    """Normalize `term` for decomposition; semantics are preserved."""
    term = descend_filters(term, ctx)
    term = insert_empty_guards(term, ctx)
    pruned = drop_dead_derives(term, ctx)
    if ctx.trace is not None and pruned != term:
        cost = ctx.cost_model.term_cost
        trace_record(ctx, "preprocess", "dead-derive", (),
                     cost(term).cost, cost(pruned).cost)
    return pruned
