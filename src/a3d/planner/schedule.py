"""Rank-based operator scheduling under series-parallel precedence.

Every rankable operator gets a rank (1 - selectivity) / per-tuple-cost; for
element-level operators the horizontal selectivity refines ties.  Sequencing
independent operators in descending rank order minimizes the cost model's
sequence cost; precedence chains that invert ranks are fused into blocks
whose aggregate rank decides their position (the classical series-parallel
scheduling construction of Monma & Sidney, 1979), which stays optimal for
series-parallel orders.  The chains of a parallel composition are merged by
one sort: each is already sorted, and block keys are unique because they
end in the block's lowest operator index.
"""

from .decompose import RankableOp
from .precedence import PrecedenceGraph, sp_tree

_ROW_LEVEL = ("filter", "aggregate")


def tier(op: RankableOp) -> int:
    """Row-level operators (filter/aggregate) go before array-level ones."""
    return 0 if op.kind in _ROW_LEVEL else 1


def vrank(op: RankableOp) -> float:
    """Vertical rank (1 - row selectivity) / per-row cost; the block
    algebra's ordering key."""
    c = max(op.profile.c_t, 1e-12)
    return (1.0 - op.profile.s_row) / c


def hrank(op: RankableOp) -> float:
    """Horizontal rank for element-level operators; 0 for row-level ones."""
    c = max(op.profile.c_t, 1e-12)
    if op.kind == "arrayFilter":
        return (1.0 - op.profile.h_sel) / c
    if op.kind == "arrayJoin":
        return (1.0 - op.profile.s_row) / c
    return 0.0


def sort_key(op: RankableOp) -> tuple:
    return (-vrank(op), tier(op), -hrank(op), op.idx)


def leq(i: RankableOp, j: RankableOp) -> bool:
    """The scheduling preference: may i run before j at no extra cost?"""
    return sort_key(i) <= sort_key(j)


############################################################
# block algebra
############################################################

class _Block:
    """A run of operators scheduled together, with its ordering key,
    computed once: descending block rank (1 - s) / c, then the first
    operator's tier and horizontal rank, then the lowest index."""
    __slots__ = ("ops", "s", "c", "key")

    def __init__(self, ops: tuple, s: float, c: float):
        self.ops = ops  # RankableOp, already internally ordered
        self.s = s      # product of row selectivities
        self.c = c      # expected cost per input row of the whole block
        first = ops[0]
        brank = (1.0 - s) / max(c, 1e-12)
        self.key = (-brank, tier(first), -hrank(first),
                    min(o.idx for o in ops))


def _block(op: RankableOp) -> _Block:
    return _Block((op,), op.profile.s_row, op.profile.c_t)


def _fuse(a: _Block, b: _Block) -> _Block:
    return _Block(a.ops + b.ops, a.s * b.s, a.c + a.s * b.c)


def _normalize(blocks: list) -> list:
    """Fuse adjacent rank inversions so the chain has descending ranks."""
    out: list = []
    for blk in blocks:
        out.append(blk)
        while len(out) >= 2 and out[-2].key > out[-1].key:
            hi = out.pop()
            out[-1] = _fuse(out[-1], hi)
    return out


def _schedule(tree, ops) -> list:
    shape = tree[0]
    if shape == "leaf":
        return [_block(ops[tree[1]])]
    parts = [_schedule(t, ops) for t in tree[1]]
    if shape == "series":
        chain: list = []
        for part in parts:
            chain.extend(part)
        return _normalize(chain)
    # the parts are sorted and block keys unique: one sort merges them
    return sorted((blk for part in parts for blk in part),
                  key=lambda blk: blk.key)


def sort_ops(ops, graph: PrecedenceGraph) -> list:
    """Order all operators by rank under the precedence graph.

    Returns RankableOps in execution order; optimal for the sequence cost
    among precedence-respecting orders.
    """
    if not ops:
        return []
    blocks = _schedule(sp_tree(graph), {op.idx: op for op in ops})
    out = []
    for blk in blocks:
        out.extend(blk.ops)
    return out
