"""Precedence graphs over rankable operators.

The raw edges come from column dependencies (decompose).  Here we close them
transitively, reject cycles (a malformed query), and repair the partial order
into a series-parallel one so the scheduler's chain-merging applies: whenever
four operators form the forbidden N-shape (A before C, B before C, B before D,
everything else incomparable), an edge is added between the two minimal
operators, oriented by the scheduling preference relation.  The scan for an
N rests on its shape: `c` and `d` share the predecessor `b`, so the only
candidates `d` for a given `c` are successors of `c`'s predecessors, and a
scan costs O(n · degree) bitmask operations, not one per pair of operators.

All node sets are int bitmasks over operator indices.
"""

from dataclasses import dataclass

from ..algebra import A3DError


class MalformedQueryError(A3DError):
    """Column dependencies of the query form a cycle."""


@dataclass
class PrecedenceGraph:
    n: int
    succ: list      # succ[i]: bitmask of strict successors (closed)
    pred: list      # pred[i]: bitmask of strict predecessors (closed)
    added: list     # repair edges (i, j) introduced on top of the raw ones

    def before(self, i: int, j: int) -> bool:
        return bool(self.succ[i] >> j & 1)

    def comparable(self, i: int, j: int) -> bool:
        return self.before(i, j) or self.before(j, i)


def _close(n: int, direct: list) -> list:
    """Transitive closure of adjacency bitmasks (iterate to fixpoint)."""
    succ = list(direct)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = succ[i]
            for j in _bits(acc):
                acc |= succ[j]
            if acc != succ[i]:
                succ[i] = acc
                changed = True
    return succ


def build_precedence(n: int, edges, leq=None) -> PrecedenceGraph:
    """Close `edges` over `n` operators; Z-repair when `leq` is given.

    `leq(i, j)` answers whether operator i may be scheduled before j at equal
    or better cost (the scheduler's preference relation).
    """
    direct = [0] * n
    for i, j in edges:
        direct[i] |= 1 << j
    succ = _close(n, direct)
    for i in range(n):
        if succ[i] >> i & 1:
            raise MalformedQueryError(
                f"operator dependencies form a cycle through op {i}")
    graph = PrecedenceGraph(n, succ, _invert(n, succ), [])
    if leq is not None:
        _repair(graph, leq)
    return graph


def _invert(n: int, succ: list) -> list:
    pred = [0] * n
    for i in range(n):
        for j in _bits(succ[i]):
            pred[j] |= 1 << i
    return pred


def find_n_structure(graph: PrecedenceGraph):
    """Find an induced N: (a, b, c, d) with a<c, b<c, b<d and no other
    relations between the four.  Returns None when series-parallel.

    Only a `c` with two or more predecessors can have both `a` and `b`
    below it.  Its candidates `d` share the predecessor `b` with it, so
    they are read, in increasing order, off the successors of `c`'s
    predecessors that are incomparable to `c`."""
    succ, pred = graph.succ, graph.pred
    for c in range(graph.n):
        below = pred[c]
        if below.bit_count() < 2:
            continue
        shared = 0
        for b in _bits(below):
            shared |= succ[b]
        for d in _bits(shared & ~(succ[c] | below | 1 << c)):
            both = below & pred[d]
            only_c = below & ~pred[d] & ~succ[d]
            if not (both and only_c):
                continue
            for b in _bits(both):
                free_a = only_c & ~pred[b] & ~succ[b] & ~(1 << b)
                if free_a:
                    a = (free_a & -free_a).bit_length() - 1
                    return a, b, c, d
    return None


def _repair(graph: PrecedenceGraph, leq) -> None:
    """Add edges between N-structure sources until series-parallel."""
    rounds = 0
    cap = graph.n * graph.n + 1
    while True:
        found = find_n_structure(graph)
        if found is None:
            return
        a, b, _, _ = found
        i, j = (a, b) if leq(a, b) else (b, a)
        graph.added.append((i, j))
        # re-close incrementally: everything before i now precedes all after j
        lo = graph.pred[i] | (1 << i)
        hi = graph.succ[j] | (1 << j)
        for k in _bits(lo):
            graph.succ[k] |= hi
        for k in _bits(hi):
            graph.pred[k] |= lo
        if graph.succ[i] >> i & 1:
            raise MalformedQueryError("repair produced a cycle")
        rounds += 1
        if rounds > cap:
            raise MalformedQueryError("precedence repair did not converge")


############################################################
# series-parallel decomposition
############################################################

def sp_tree(graph: PrecedenceGraph, members: int = None):
    """Decompose the (repaired) partial order into a series-parallel tree.

    Returns nested tuples: ("leaf", i) | ("series", [t...]) | ("parallel",
    [t...]).  Raises MalformedQueryError when the order is not
    series-parallel (cannot happen after repair).
    """
    if members is None:
        members = (1 << graph.n) - 1
    bits = _bits(members)
    if len(bits) == 1:
        return ("leaf", bits[0])

    comps = _components(graph, bits)
    if len(comps) > 1:
        return ("parallel", [sp_tree(graph, c) for c in comps])

    # connected: look for a series cut.  In any valid cut every member of the
    # lower part has fewer in-set predecessors than every upper member, so
    # sorting by that count exposes all candidate prefixes.
    bits.sort(key=lambda i: ((graph.pred[i] & members).bit_count(), i))
    below = 0
    for k in range(len(bits) - 1):
        below |= 1 << bits[k]
        upper_ok = all((graph.pred[j] & below) == below
                       for j in bits[k + 1:])
        if upper_ok:
            rest = members & ~below
            return ("series", [sp_tree(graph, below), sp_tree(graph, rest)])
    raise MalformedQueryError("precedence order is not series-parallel")


def _bits(mask: int) -> list:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def _components(graph: PrecedenceGraph, bits: list) -> list:
    """Weakly-connected components of the comparability graph within bits."""
    members = 0
    for i in bits:
        members |= 1 << i
    seen = 0
    comps = []
    for i in bits:
        if seen >> i & 1:
            continue
        comp = 1 << i
        frontier = [i]
        while frontier:
            k = frontier.pop()
            nb = (graph.succ[k] | graph.pred[k]) & members & ~comp
            for j in _bits(nb):
                comp |= 1 << j
                frontier.append(j)
        seen |= comp
        comps.append(comp)
    return comps
