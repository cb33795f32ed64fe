"""Pipeline stage three: cost-guarded pre-aggregation.

After join/operator placement is fixed, aggregates can still be split into a
partial pass that runs early (below a join or without unnesting) and a final
pass that combines partials.  These reshapes are applied top-down to a
fixpoint, each one accepted only when

* the cost model says the whole term gets strictly cheaper, and
* the aggregate actually condenses: estimated output groups stay below
  ``alpha`` times its input rows.  The default ``alpha=1.0`` only rules out
  degenerate non-reducing aggregates; lower values make pre-aggregation more
  reluctant.

The same pass fuses arrayFilters that operator placement stacked over one
target set (R2.4); the fused filter is never costlier, so it needs no guard.

A run is bounded by ``cap`` successful applications; exceeding it raises
:class:`PostprocessCapError` so a cycling guard surfaces as a diagnostic
instead of a hang.  The ``RuleContext`` carries the cost model and the trace.
"""

from ..algebra import (
    A3DError, Aggregate, AggSpec, ArrayFilter, Term, children, with_children,
)
from ..rewrite import (
    RULES_BY_ID, RuleContext, guard_cost_improves, rewrite_to_fixpoint,
    try_apply,
)
from ..stats import CostModel

# Order matters only for ties; the list is scanned first-match per node.
PRE_AGG_RULES = ("R17.1", "R17.2", "R17.3", "R18", "R19", "R20", "R21")

# Outer aggregates that return the value itself when a group has one row.
_SINGLETON_IDENTITY = {"min", "max", "sum", "avg"}


class PostprocessCapError(A3DError):
    """Pre-aggregation did not reach a fixpoint within the iteration cap."""


def _condenses(agg: Aggregate, cost_model: CostModel, alpha: float) -> bool:
    known = {id(agg.child): None}  # one fold yields both row counts
    groups = cost_model.fold(agg, known)[1].rows
    return groups < alpha * known[id(agg.child)][1].rows


def collapse_idempotent_reaggregation(term: Term) -> Term:
    """Fuse Γ_K(Γ_K(X)) into one aggregate.

    When an aggregate's child is another aggregate over the same key set,
    every inner group reaches the outer aggregate as exactly one row, so an
    outer min/max/sum/avg over an inner alias just passes the value through.
    The pair collapses to the inner aggregate with the outer's aliases.
    """
    kids = tuple(collapse_idempotent_reaggregation(k) for k in children(term))
    if kids:
        term = with_children(term, kids)
    if not (isinstance(term, Aggregate) and isinstance(term.child, Aggregate)):
        return term
    outer, inner = term, term.child
    if set(outer.keys) != set(inner.keys):
        return term
    by_alias = {s.alias: s for s in inner.aggs}
    fused = []
    for spec in outer.aggs:
        src = by_alias.get(spec.arg)
        if src is None or spec.fn not in _SINGLETON_IDENTITY:
            return term
        fused.append(AggSpec(src.fn, src.arg, spec.alias))
    return Aggregate(outer.keys, tuple(fused), inner.child)


def postprocess(term: Term, ctx: RuleContext, alpha: float = 1.0,
                cap: int = 32) -> Term:
    """Apply pre-aggregation rules top-down to a cost-guarded fixpoint."""
    def step(root, path, sub):
        if isinstance(sub, ArrayFilter):
            new = try_apply(RULES_BY_ID["R2.4"], root, path, sub, ctx)
            return None if new is None else ("R2.4", new)
        if not isinstance(sub, Aggregate) or \
                not _condenses(sub, ctx.cost_model, alpha):
            return None
        for rule_id in PRE_AGG_RULES:
            new = guard_cost_improves(RULES_BY_ID[rule_id], root, path, sub,
                                      ctx)
            if new is not None:
                return rule_id, new
        return None

    term = rewrite_to_fixpoint(term, step, "postprocess", ctx, "restart",
                               cap=cap, cap_error=PostprocessCapError)
    return collapse_idempotent_reaggregation(term)
