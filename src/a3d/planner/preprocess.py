"""Pipeline stage one: normalize a term for decomposition.

Five sub-passes, each semantics-preserving:

1. projection pull-up  -- inner projections bubble to the root so column
   pruning never hides operators from the enumerator; blocked only where
   removing the projection would change a join's key set or capture an
   alias, in which case the projection stays put.
2. conjunct split      -- σ(p ∧ q) becomes σ(p)(σ(q)) so each conjunct ranks
   and moves independently.
3. invert + descend    -- a filter over an affine derive's output is
   inverted onto the derive's source column (R13.2); filters are then pushed
   down through derives/arrayJoins until a filter sits directly on unnest
   aliases and converts into an arrayFilter (R2.2).  The arrayFilters that
   the conjuncts of one filter become over the same arrays are fused into
   one conjunctive arrayFilter (R2.4), so each array is rebuilt once.  Only
   greedy mode rewinds an arrayFilter through an invertible map (R11.2).
4. emptiness guards    -- a filter dropping empty arrays is inserted under an
   arrayJoin when the cost model says it pays.
5. dead derive removal -- derives whose output nothing consumes are dropped.

Sub-passes take ``(term, ctx)``; the ``RuleContext`` carries the cost model
that guards step 4 and the trace.  Steps 3 and 4 name their catalog rules
as an ordered id tuple and try, at each node, those whose shapes match it
(``rewrite.rules_at``).  Steps 1 and 3 decide from a node, its
children and its grandchildren's schemas, so their rounds resume at the
last rewrite's parent (``rewrite_to_fixpoint``'s ``resume``); step 4's
guard reads the whole term, so each of its rounds sweeps it (``sweep``).
Their steps take ``(path, sub)`` and return ``(rule_id, new_sub)``: the
driver splices the rewritten subterm in, rebuilding in a resume round
only the nodes above it that the walk climbs back past, and never keeping
a replaced subterm alive.
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
# 1. projection pull-up
############################################################

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


def pull_projections_up(term: Term, ctx: RuleContext) -> Term:
    def step(path, sub):
        lifted = _hoist_once(sub, ctx)
        return None if lifted is None else ("project-pull", lifted)

    return rewrite_to_fixpoint(term, step, "preprocess", ctx, "resume")


############################################################
# 2. conjunct split
############################################################

def split_filter_conjuncts(term: Term) -> Term:
    kids = tuple(split_filter_conjuncts(k) for k in children(term))
    term = with_children(term, kids) if kids else term
    if isinstance(term, Filter):
        parts = split_conjuncts(term.pred)
        if len(parts) > 1:
            out = term.child
            for pred in reversed(parts):
                out = Filter(pred, out)
            return out
    return term


############################################################
# 3. filter inversion and descent
############################################################

# R2.4 on stacked arrayFilters; the rest, in this order, on a filter
_DESCEND_RULES = ("R2.4", "R2.2", "R13.2", "R13.1", "R2.1")


def _commute_filter_past_array_filter(sub: Term):
    """σθ(φ(X)) -> φ(σθ(X)) when θ does not read the filtered aliases."""
    if isinstance(sub, Filter) and isinstance(sub.child, ArrayFilter):
        return _swap(sub, sub.child)
    return None


def descend_filters(term: Term, ctx: RuleContext) -> Term:
    """Push filters toward arrayJoins; convert to arrayFilter on contact,
    and fuse the arrayFilters so stacked over one target set (R2.4)."""
    def step(path, sub):
        hit = first_rewrite(_DESCEND_RULES, path, sub, ctx)
        if hit is not None:
            return hit
        swapped = _commute_filter_past_array_filter(sub)
        return None if swapped is None \
            else ("filter-past-arrayFilter", swapped)

    return rewrite_to_fixpoint(term, step, "preprocess", ctx, "resume")


############################################################
# 4. emptiness guards before unnesting
############################################################

def insert_empty_guards(term: Term, ctx: RuleContext) -> Term:
    def step(path, sub):
        return first_rewrite(("R2.3",), path, sub, ctx)

    return rewrite_to_fixpoint(term, step, "preprocess", ctx, "sweep")


############################################################
# 5. dead derive removal
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
    term = pull_projections_up(term, ctx)
    term = split_filter_conjuncts(term)
    term = descend_filters(term, ctx)
    # a projection kept under a derive that writes a column it hides may
    # now carry a filter that R13.1 moved below the derive
    term = pull_projections_up(term, ctx)
    term = insert_empty_guards(term, ctx)
    pruned = drop_dead_derives(term, ctx)
    if ctx.trace is not None and pruned != term:
        cost = ctx.cost_model.term_cost
        trace_record(ctx, "preprocess", "dead-derive", (),
                     cost(term).cost, cost(pruned).cost)
    return pruned
