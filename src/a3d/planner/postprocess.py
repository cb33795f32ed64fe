"""Pipeline stage three: cost-guarded pre-aggregation.

After join/operator placement is fixed, aggregates can still be split into a
partial pass that runs early (below a join or without unnesting) and a final
pass that combines partials.  These reshapes are applied top-down to a
fixpoint, each one accepted only when the cost model says the whole term
gets strictly cheaper (``rewrite.guard_cost_improves``).  The guard alone
decides: a partial aggregate that does not condense its input costs rows
and saves none, so the guard rejects it, as it does in greedy's rounds.

The same pass fuses arrayFilters that operator placement stacked over one
target set (R2.4); the fused filter is never costlier, so it needs no guard.
At each node the pass tries only the rules whose shapes match it
(``rewrite.rules_at``), in the order of ``_RULES``, and last the collapse
of an aggregate over one with the same keys into one aggregate
(``reagg-collapse``), which needs no guard either.

The pass runs ``rewrite_to_fixpoint``'s ``sweep`` rounds, as the emptiness
guards of preprocess do: each round tries every node and fires the rewrite
that comes first in preorder, as a top-down pass begun again at the root
after each rewrite would.  A round folds no cost until its first guarded
rewrite.

A run is bounded by ``REWRITE_CAP`` successful applications; exceeding it
raises ``rewrite.FixpointCapError`` so a cycling guard surfaces as a
diagnostic instead of a hang.  The ``RuleContext`` carries the cost model
and the trace.
"""

from ..algebra import Aggregate, AggSpec, Term
from ..rewrite import RuleContext, first_rewrite, rewrite_to_fixpoint

# Order matters only for ties; the list is scanned first-match per node.
PRE_AGG_RULES = ("R17.1", "R17.2", "R17.3", "R18", "R19", "R20", "R21")
_RULES = ("R2.4",) + PRE_AGG_RULES

REWRITE_CAP = 32  # successful applications per run

# Outer aggregates that return the value itself when a group has one row.
_SINGLETON_IDENTITY = {"min", "max", "sum", "avg"}


def collapse_idempotent_reaggregation(term: Term) -> Term:
    """Fuse Γ_K(Γ_K(X)) at `term` into one aggregate.

    When an aggregate's child is another aggregate over the same key set,
    every inner group reaches the outer aggregate as exactly one row, so an
    outer min/max/sum/avg over an inner alias just passes the value through.
    The pair collapses to the inner aggregate with the outer's aliases.
    Only `term` itself is tried: where it does not fuse, it is returned.
    """
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


def postprocess(term: Term, ctx: RuleContext) -> Term:
    """Apply pre-aggregation rules top-down to a cost-guarded fixpoint."""
    def step(path, sub):
        fused = collapse_idempotent_reaggregation(sub)
        return first_rewrite(_RULES, path, sub, ctx) or (
            None if fused is sub else ("reagg-collapse", fused))

    return rewrite_to_fixpoint(term, step, "postprocess", ctx, "sweep",
                               cap=REWRITE_CAP)
