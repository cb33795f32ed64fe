"""Greedy optimization mode: local rewriting without join enumeration.

One bottom-up sweep repeated to a fixpoint.  Rewrites that are pure
improvements by construction (pushdowns, element-form conversions,
inversions) fire whenever they match; reshapes that can cut either way fire
only when the cost model approves.  The join tree is left as written — this
mode trades optimality for speed and serves as the baseline the enumerating
mode is measured against.  The ``RuleContext`` carries the cost model.
"""

from ..algebra import A3DError, Term
from ..rewrite import (
    CATALOG, RuleContext, guard_cost_improves, rewrite_to_fixpoint, try_apply,
)


class GreedyIterationCapError(A3DError):
    """Greedy rewriting did not reach a fixpoint within the step cap."""


def optimize_greedy(term: Term, ctx: RuleContext,
                    max_steps: int = 10_000) -> Term:
    """Rewrite `term` to a greedy fixpoint; semantics are preserved."""
    seen = {repr(term)}

    def step(root, path, sub):
        for rule in CATALOG:
            if rule.kind == "rule":
                new = try_apply(rule, root, path, sub, ctx)
            else:
                new = guard_cost_improves(rule, root, path, sub, ctx)
            if new is None:
                continue
            key = repr(new)
            if key in seen:
                continue  # don't re-enter a shape we already left
            seen.add(key)
            return rule.rule_id, new
        return None

    return rewrite_to_fixpoint(term, step, "greedy", ctx, "bottom-up",
                               cap=max_steps,
                               cap_error=GreedyIterationCapError)
