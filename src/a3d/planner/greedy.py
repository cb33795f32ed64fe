"""Greedy optimization mode: local rewriting without join enumeration.

One bottom-up sweep repeated to a fixpoint.  Rewrites that are pure
improvements by construction (pushdowns, element-form conversions,
inversions) fire whenever they match; reshapes that can cut either way fire
only when the cost model approves.  At each node only the catalog rules
whose shapes match it are tried, in catalog order (``rewrite.rules_at``),
so the first rule that fires is the one a scan of the whole catalog would
fire.  The join tree is left as written — this mode trades optimality for
speed and serves as the baseline the enumerating mode is measured against.
The ``RuleContext`` carries the cost model.  A run is bounded by
``REWRITE_CAP`` rewrites; exceeding it raises ``rewrite.FixpointCapError``.
"""

from ..algebra import Term
from ..rewrite import RuleContext, first_rewrite, rewrite_to_fixpoint

REWRITE_CAP = 10_000  # rewrites per run


def optimize_greedy(term: Term, ctx: RuleContext) -> Term:
    """Rewrite `term` to a greedy fixpoint; semantics are preserved."""
    seen: set = set()  # the roots left, as reprs

    def unseen(new):
        if not seen:
            # the first call: every kept rewrite passes here, so the root
            # is still `term`, and a plan that finds no rewrite never
            # prints it
            seen.add(repr(term))
        key = repr(new)
        if key in seen:
            return False  # don't re-enter a shape we already left
        seen.add(key)
        return True

    def step(path, sub):
        return first_rewrite(None, path, sub, ctx, unseen)

    return rewrite_to_fixpoint(term, step, "greedy", ctx, "bottom-up",
                               cap=REWRITE_CAP)
