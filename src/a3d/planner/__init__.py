"""The optimizer pipeline: preprocess -> place joins/operators -> pre-aggregate.

:func:`optimize` is the package's front door.  It validates the input term,
normalizes it (`preprocess`), picks operator and join positions in the chosen
mode, then layers pre-aggregation on top (`postprocess`).  Modes:

``enumerate``  rank- and precedence-aware memoized join enumeration; the
               default, and the mode with the optimality claim.
``greedy``     local rewriting to a fixpoint; keeps the written join shape.
``oracle``     exhaustive search over the full reorder space; only for small
               queries, used as the optimality baseline in tests.

Every stage preserves semantics; `OptimizeResult` carries the final term, its
modelled cost, per-stage timings and counters: mode-specific ones, and in
every mode ``counters["rules"]``, rule id -> ``[attempts, fires]`` (see
``RuleContext``).

The rewrite stages take ``(term, ctx)`` and no tuning parameter: one
``RuleContext`` per call carries the cost model and the trace, and the cost
guard alone decides each reshape that can help or hurt.  Greedy and
postprocess bound their rewrites by a module constant, ``REWRITE_CAP``, and
raise ``FixpointCapError`` past it.  The join search takes the cost model.
"""

import time
from dataclasses import dataclass, field
from typing import Mapping, Optional

from ..algebra import Schema, SchemaError, Term, output_schema
from ..rewrite import FixpointCapError, RuleContext, trace_record
from ..stats import CostModel, TableStats
from .decompose import (
    JoinEdge, OpProfile, QueryDecomposition, RankableOp, decompose,
)
from .enumeration import (
    DisconnectedJoinGraphError, InfeasibleQueryError, MemoEntry, Enumerator,
    enumerate_plans,
)
from .greedy import optimize_greedy
from .oracle import (
    MAX_ORACLE_OPS, MAX_ORACLE_RELATIONS, OracleLimitError, oracle_enumerate,
)
from .postprocess import collapse_idempotent_reaggregation, postprocess
from .precedence import MalformedQueryError, PrecedenceGraph, build_precedence
from .preprocess import preprocess
from .schedule import leq, sort_key, sort_ops

__all__ = [
    "DisconnectedJoinGraphError", "Enumerator", "FixpointCapError",
    "InfeasibleQueryError", "JoinEdge", "MAX_ORACLE_OPS",
    "MAX_ORACLE_RELATIONS", "MalformedQueryError", "MemoEntry", "OpProfile",
    "OptimizeResult", "OracleLimitError", "PrecedenceGraph",
    "QueryDecomposition", "RankableOp",
    "build_precedence", "collapse_idempotent_reaggregation", "decompose",
    "enumerate_plans", "leq", "optimize", "optimize_greedy",
    "oracle_enumerate", "postprocess", "preprocess", "sort_key", "sort_ops",
]

MODES = ("greedy", "enumerate", "oracle")


@dataclass
class OptimizeResult:
    term: Term
    cost: float
    mode: str
    timings_ms: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    trace: Optional[list] = None


def precedence_for(decomp: QueryDecomposition) -> PrecedenceGraph:
    """Build and repair the precedence graph for a decomposition."""
    ops = decomp.ops
    return build_precedence(
        len(ops), decomp.prec_edges,
        leq=lambda i, j: leq(ops[i], ops[j]))


def optimize(term: Term, schemas: Mapping[str, Schema],
             stats: Optional[Mapping[str, TableStats]] = None,
             correspondences=None, mode: str = "enumerate",
             allow_cross_products: bool = False,
             trace: bool = False) -> OptimizeResult:
    """Optimize `term` end to end; raises on malformed/infeasible queries.

    The plan must output the input's schema; a SchemaError says it did not.

    ``timings_ms`` holds one wall time per disjoint stage, and ``total``
    is their sum: ``preprocess``, then the placement stage named after
    `mode`, then ``postprocess``.  In enumerate and oracle mode the
    set-up before the search has a stage of its own, ``decompose``:
    ``decompose``, ``precedence_for`` and, in enumerate mode,
    ``sort_ops``.  The ``enumerate`` or ``oracle`` stage then times the
    search alone.

    With `trace`, ``trace`` holds one record per change of the plan, each
    costed before and after it, so that the records chain from the
    input's cost to the plan's.  Greedy mode records each rewrite; in
    enumerate and oracle mode one ``placement`` record, costed after
    the search, stands for the plan the search places.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    schema = output_schema(term, schemas)  # raises SchemaError

    cost_model = CostModel(dict(stats or {}), dict(schemas))
    ctx = RuleContext(cost_model, correspondences or (),
                      [] if trace else None)
    timings: dict = {}
    counters: dict = {}

    t0 = time.perf_counter()
    pre = preprocess(term, ctx)
    timings["preprocess"] = (time.perf_counter() - t0) * 1000.0

    t1 = time.perf_counter()
    if mode == "greedy":
        placed = optimize_greedy(pre, ctx)
    else:
        decomp = decompose(pre, cost_model)
        graph = precedence_for(decomp)
        if mode == "enumerate":
            order = sort_ops(decomp.ops, graph)
        counters["relations"] = len(decomp.leaves)
        counters["rankable_ops"] = len(decomp.ops)
        t_search = time.perf_counter()
        timings["decompose"] = (t_search - t1) * 1000.0
        t1 = t_search
        if mode == "enumerate":
            entry, enum = enumerate_plans(
                decomp, graph, order, cost_model,
                allow_cross_products=allow_cross_products)
            counters.update(enum.counters)
        else:
            entry, info = oracle_enumerate(
                decomp, graph, cost_model,
                allow_cross_products=allow_cross_products)
            counters.update(info)
        placed = entry.term
    timings[mode] = (time.perf_counter() - t1) * 1000.0
    if mode != "greedy" and ctx.trace is not None:
        trace_record(ctx, mode, "placement", (),
                     cost_model.term_cost(pre).cost,
                     cost_model.term_cost(placed).cost)

    t2 = time.perf_counter()
    final = placed
    if mode != "oracle":  # the oracle is a baseline: no pre-aggregation
        final = postprocess(placed, ctx)
    timings["postprocess"] = (time.perf_counter() - t2) * 1000.0

    counters["rules"] = ctx.rule_counts
    res = cost_model.term_cost(final)
    if res.schema != schema:
        raise SchemaError(f"the plan's output schema {res.schema} differs "
                          f"from the input's {schema}")
    timings["total"] = sum(timings.values())
    return OptimizeResult(final, res.cost, mode, timings, counters, ctx.trace)
