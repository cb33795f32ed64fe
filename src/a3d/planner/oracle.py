"""Exhaustive plan-space search used as the optimality baseline in tests.

States are (relation set, applied operator set) pairs; transitions apply any
legal operator anywhere (not just rank-sorted prefixes) or join any two
disjoint states connected in the join graph.  Plans with equal state are
interchangeable below any context: a plan's cost state depends only on its
relations and operators, not on their order, up to the rounding of its row
products, so keeping the cheapest plan per state is exact up to that
rounding, as it is for the enumerator.  The exception is an operator that
reads a join key, which is estimated from the key's statistics where it
runs (``stats``): there the plan kept may complete at a higher cost than
one dropped.  States are expanded strictly by level (relations + operators
applied) so every state is final before anything builds on it.
Deliberately small: refuses queries beyond 4 relations / 8 rankable
operators.
"""

from ..algebra import A3DError
from ..stats import CostModel
from .decompose import QueryDecomposition
from .enumeration import (
    InfeasibleQueryError, MemoEntry, apply_op, base_entry, crossing,
    join_entries, op_applicable, reproject,
)
from .precedence import PrecedenceGraph

MAX_ORACLE_RELATIONS = 4
MAX_ORACLE_OPS = 8


class OracleLimitError(A3DError):
    """The query is too large for exhaustive search."""


def oracle_enumerate(decomp: QueryDecomposition, graph: PrecedenceGraph,
                     cost_model: CostModel,
                     allow_cross_products: bool = False):
    """Minimum-cost plan over the full reorder space; returns (MemoEntry,
    {"states", "orderings"})."""
    nrel = len(decomp.leaves)
    nops = len(decomp.ops)
    if nrel > MAX_ORACLE_RELATIONS:
        raise OracleLimitError(
            f"{nrel} relations exceed the oracle limit of "
            f"{MAX_ORACLE_RELATIONS}")
    if nops > MAX_ORACLE_OPS:
        raise OracleLimitError(
            f"{nops} rankable operators exceed the oracle limit of "
            f"{MAX_ORACLE_OPS}")

    cuts: dict = {}      # (rels, rels) -> join key set; pairs recur
    best: dict = {}      # (rels, ops) -> MemoEntry (cheapest)
    npaths: dict = {}    # (rels, ops) -> number of distinct build orders
    levels: dict = {}    # level -> sorted-insertable list of keys

    def consider(entry: MemoEntry, paths: int) -> None:
        key = (entry.rels, entry.ops)
        old = best.get(key)
        if old is None:
            best[key] = entry
            npaths[key] = paths
            lvl = entry.rels.bit_count() + entry.ops.bit_count()
            levels.setdefault(lvl, []).append(key)
        else:
            if entry.cost < old.cost:
                best[key] = entry
            npaths[key] += paths

    for i in range(nrel):
        consider(base_entry(decomp, i, cost_model), 1)

    done: list = []      # keys already expanded, in processing order
    level = 1
    max_level = nrel + nops
    while level <= max_level:
        todo = sorted(levels.get(level, []))
        for key in todo:
            entry = best[key]
            paths = npaths[key]

            for op in decomp.ops:
                if op_applicable(op, entry.ops, entry.columns,
                                 entry.rels, graph):
                    consider(apply_op(op, entry, cost_model), paths)

            for pkey in done:
                if pkey[0] & key[0] or pkey[1] & key[1]:
                    continue
                pair = key[0], pkey[0]
                cols = cuts.get(pair)
                if cols is None:
                    cols = cuts[pair] = crossing(decomp.edges, *pair)[0]
                if not cols and not allow_cross_products:
                    continue
                joined = join_entries(entry, best[pkey], cols, cost_model)
                if joined is not None:
                    consider(joined, paths * npaths[pkey])

            done.append(key)
        level += 1

    full = ((1 << nrel) - 1, (1 << nops) - 1)
    final = best.get(full)
    if final is None:
        raise InfeasibleQueryError("oracle found no complete plan", "oracle")
    result = reproject(final, decomp, cost_model)
    if result is None:
        raise InfeasibleQueryError("oracle plan lacks an output column",
                                   "projection")
    return result, {"states": len(best), "orderings": npaths.get(full, 0)}
