"""Memoized top-down join enumeration with rank-sorted operator prefixes.

The enumerator works over a QueryDecomposition.  Plans for a relation subset
are memoized per applied-operator set: ``memo[rels][ops] -> entry``.  Each
join candidate combines two memoized subplans with a prefix of their sorted
applicable operators; an operator producing one of the join's key columns is
mandatory and forces the prefix to reach it.  Both masks are int bitsets.

A partition pairs every entry of one side's table with every entry of the
other's, so the work per pair is kept small.  Each entry's applicable
operators are listed once per partition, and the join keys sorted once.
Each operator-prefix chain is built once and turned into ``Prefix``
records: an entry's operator mask, cost, rows, non-key columns and the
distinct counts of the partition's join keys (``prefixes`` says how long a
chain is kept).  The candidate loop (``candidates``) reads only records:
per pair it makes one set test (the shared columns must be exactly the
keys), looks the join divisor up in a per-partition table keyed by the two
key-ndv tuples, costs the join with ``stats.join_cost`` and looks its
operator set up in the memo table.  A candidate that beats the incumbent
for its operator set is kept as a ``DeferredJoin`` record until its table
is complete; only the records that survive then get a merged state, a Join
node and a schema (``join_entries``), at exactly the cost they won with,
since ``join_effect`` costs a join with the same expression.  Equal
schemas are stored once per enumerator.  Applying an operator replays the
schema effect ``decompose`` recorded for it (``RankableOp.schema_after``),
so ``node_schema`` runs only for built joins and the final projection.

``run`` finishes the complete plans cheapest first and stops once a plan's
memo cost exceeds the best finished cost: every operator, join and
projection cost is non-negative, so finishing never makes a plan cheaper.

The same applicability/validity helpers drive the exhaustive oracle, so the
two searches agree on which plans are legal and differ only in coverage.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

from ..algebra import (
    A3DError, Join, Project, Schema, Term, node_schema,
)
from ..stats import (
    CostModel, PlanState, join_cost, join_divisor, key_ndvs,
)
from .decompose import QueryDecomposition, RankableOp
from .precedence import PrecedenceGraph, _bits


class DisconnectedJoinGraphError(A3DError):
    """The join graph needs a cross product; pass allow_cross_products."""


class InfeasibleQueryError(A3DError):
    def __init__(self, msg: str, blocking_op: str = ""):
        super().__init__(msg)
        self.blocking_op = blocking_op


@dataclass
class MemoEntry:
    term: Term
    rels: int          # bitmask of leaf indices
    ops: int           # bitmask of applied operator indices
    cost: float
    state: PlanState
    schema: Schema


class DeferredJoin:
    """A join candidate that beat its memo incumbent while the table was
    being filled: its cost (exactly the cost ``join_entries`` gives it)
    and what it takes to build it once the table is complete."""
    __slots__ = ("ops", "cost", "left", "right", "keys")

    def __init__(self, ops: int, cost: float, left: MemoEntry,
                 right: MemoEntry, keys):
        self.ops = ops
        self.cost = cost
        self.left = left
        self.right = right
        self.keys = keys


class Cut(NamedTuple):
    """One partition of a memo table's leaves: its join key set, the keys
    sorted, the sorted indices of the operators that must run below the
    join, and the join divisors computed so far, keyed by the left and
    then the right input's key-ndv tuple (``stats.key_ndvs``)."""
    keys: frozenset
    key_list: list
    producers: list
    divisors: dict


class Prefix(NamedTuple):
    """What the candidate loop reads of one operator-prefix entry for one
    partition: its operator mask, cost and rows, its non-key columns (None
    when it lacks a join key), its key-ndv tuple, and the entry itself."""
    ops: int
    cost: float
    rows: float
    extra: Optional[frozenset]
    ndvs: tuple
    entry: MemoEntry

    @staticmethod
    def of(entry: MemoEntry, cut: Cut) -> "Prefix":
        cols = entry.schema.columns
        keys = cut.keys
        return Prefix(entry.ops, entry.cost, entry.state.rows,
                      cols - keys if keys <= cols else None,
                      key_ndvs(entry.state, cut.key_list), entry)


def describe_op(op: RankableOp) -> str:
    return f"{op.kind}#{op.idx}"


############################################################
# shared plan-space semantics (used by the oracle too)
############################################################

def op_applicable(op: RankableOp, ops: int, cols, rels: int,
                  graph: PrecedenceGraph) -> bool:
    """Whether `op` may run on a plan over leaves `rels` that has applied
    the operators in `ops` and outputs the columns `cols`: not yet applied,
    inputs present, precedence predecessors applied, and an aggregate sees
    exactly the leaves it must group over."""
    if ops >> op.idx & 1:
        return False
    if not op.requires <= cols:
        return False
    if graph.pred[op.idx] & ~ops:
        return False
    if op.kind == "aggregate":
        mine = 0
        for r in op.min_rels:
            mine |= 1 << r
        if rels != mine:
            return False
    return True


def apply_op(op: RankableOp, entry: MemoEntry,
             cost_model: CostModel) -> MemoEntry:
    term = op.apply(entry.term)
    cost, state = cost_model.op_effect(op.node, entry.state)
    return MemoEntry(term, entry.rels, entry.ops | (1 << op.idx),
                     entry.cost + cost, state, op.schema_after(entry.schema))


def base_entry(decomp: QueryDecomposition, i: int,
               cost_model: CostModel) -> MemoEntry:
    _, term = decomp.leaves[i]
    res = cost_model.term_cost(term)
    return MemoEntry(term, 1 << i, 0, res.cost, res.state, res.schema)


def join_entries(left: MemoEntry, right: MemoEntry, expected_keys,
                 cost_model: CostModel):
    """Join two plans naturally; None when the shared columns are not
    exactly the join keys this cut calls for (a column was consumed below,
    or an operator introduced an accidental overlap)."""
    shared = left.schema.columns & right.schema.columns
    if shared != expected_keys:
        return None
    shared = sorted(shared)
    cost, state = cost_model.join_effect(left.state, right.state, shared)
    term = Join(left.term, right.term)
    return MemoEntry(term, left.rels | right.rels, left.ops | right.ops,
                     left.cost + right.cost + cost, state,
                     node_schema(term, left.schema, right.schema))


def crossing(edges, p1: int, p2: int, cache: dict):
    """(key column set, mandatory producer op indices) of the join edges
    between the leaf sets `p1` and `p2`, memoized in `cache`."""
    key = (min(p1, p2), max(p1, p2))
    hit = cache.get(key)
    if hit is None:
        cols, prods = set(), set()
        for e in edges:
            li, ri = 1 << e.left, 1 << e.right
            if (li & p1 and ri & p2) or (li & p2 and ri & p1):
                cols.add(e.col)
                prods |= e.producers
        hit = (frozenset(cols), frozenset(prods))
        cache[key] = hit
    return hit


def reproject(entry: MemoEntry, decomp: QueryDecomposition,
              cost_model: CostModel) -> Optional[MemoEntry]:
    """Put the query's top projection on a complete plan when it is needed;
    None when the plan lacks an output column."""
    out_cols = decomp.out_cols
    if set(out_cols) == entry.schema.columns and not decomp.had_top_project:
        return entry
    if not set(out_cols) <= entry.schema.columns:
        return None
    top = Project(tuple(out_cols), entry.term)
    cost, state = cost_model.op_effect(top, entry.state)
    return MemoEntry(top, entry.rels, entry.ops, entry.cost + cost, state,
                     node_schema(top, entry.schema))


############################################################
# the enumerator
############################################################

class Enumerator:
    def __init__(self, decomp: QueryDecomposition, graph: PrecedenceGraph,
                 order, cost_model: CostModel,
                 allow_cross_products: bool = False):
        self.q = decomp
        self.graph = graph
        self.order = list(order)           # RankableOps, globally sorted
        self.cm = cost_model
        self.allow_cross = allow_cross_products
        self.memo: dict = {}               # rels mask -> {ops mask: entry}
        self.interned_schemas: dict = {}   # one copy of each memo schema
        self.counters = {"entries": 0, "partitions": 0, "candidates": 0,
                         "capture_skips": 0, "finished": 0}
        self.blockers: list = []

        m = len(decomp.leaves)
        self.full = (1 << m) - 1
        self.adj = [0] * m
        self.cut_edges: dict = {}
        for e in decomp.edges:
            self.adj[e.left] |= 1 << e.right
            self.adj[e.right] |= 1 << e.left

    # -- join graph helpers -------------------------------------------------

    def connected(self, mask: int) -> bool:
        if mask == 0:
            return False
        if self.allow_cross:
            return True
        start = mask & -mask
        seen = start
        frontier = start
        while frontier:
            nxt = 0
            for i in _bits(frontier):
                nxt |= self.adj[i] & mask
            frontier = nxt & ~seen
            seen |= nxt
        return seen & mask == mask

    # -- algorithm ----------------------------------------------------------

    def applicable(self, entry: MemoEntry, banned=frozenset()):
        """Ops from the sorted order applicable on `entry`, closed under
        the productions of earlier list members (an arrayFilter's output
        array may be unnested by a later arrayJoin in the same prefix),
        as (list, {op index: position in the list}).

        `banned` drops operators from consideration entirely; anything
        that needed a banned operator's output column, or had it as a
        precedence predecessor, falls out of the closure with it."""
        out = []
        at = {}
        ops_mask = entry.ops
        schema = entry.schema
        cols = schema.columns
        for op in self.order:
            if op.idx in banned or not op_applicable(
                    op, ops_mask, cols, entry.rels, self.graph):
                continue
            at[op.idx] = len(out)
            out.append(op)
            ops_mask |= 1 << op.idx
            schema = op.schema_after(schema)
            cols = schema.columns
        return out, at

    def insert(self, table: dict, entry) -> None:
        """Keep `entry` when it is the first for its operator set or
        cheaper than the incumbent (``candidates`` does the same for its
        DeferredJoin records without the call)."""
        old = table.get(entry.ops)
        if old is None or entry.cost < old.cost:
            table[entry.ops] = entry
            self.counters["entries"] += 1

    def enumerate_mask(self, mask: int) -> dict:
        """The memo table of the leaves in `mask`, filled on first use.

        While the table is filled it holds DeferredJoin records; each one
        left at the end is built then (``join_entries``), and every schema
        in the table is interned."""
        hit = self.memo.get(mask)
        if hit is not None:
            return hit
        table: dict = {}
        self.memo[mask] = table
        if mask.bit_count() == 1:
            self.insert(table, base_entry(self.q, mask.bit_length() - 1,
                                          self.cm))
        else:
            self.fill(table, mask)
        for ops, entry in table.items():
            if type(entry) is DeferredJoin:
                entry = join_entries(entry.left, entry.right, entry.keys,
                                     self.cm)
            # many entries of one table share a schema; keep one copy
            entry.schema = self.interned_schemas.setdefault(entry.schema,
                                                            entry.schema)
            table[ops] = entry
        return table

    def fill(self, table: dict, mask: int) -> None:
        """Insert the join candidates of every valid partition of `mask`."""
        low = mask & -mask
        sub = (mask - 1) & mask
        while sub:
            p1, p2 = sub, mask ^ sub
            sub = (sub - 1) & mask
            if not (p1 & low):
                continue
            if not (self.connected(p1) and self.connected(p2)):
                continue
            keys, producers = crossing(self.q.edges, p1, p2,
                                       self.cut_edges)
            if not keys and not self.allow_cross:
                continue
            producers = sorted(producers)
            if not self.valid(p1, p2, producers):
                continue
            self.counters["partitions"] += 1
            lefts = list(self.enumerate_mask(p1).values())
            if not lefts:
                continue
            rights = [(t, self.applicable(t))
                      for t in self.enumerate_mask(p2).values()]
            cut = Cut(keys, sorted(keys), producers, {})
            # a right-hand chain serves every left-hand entry, so it is
            # worth keeping only when there is more than one (see prefixes)
            right_chains = {} if len(lefts) > 1 else None
            for s in lefts:
                s_ops = self.applicable(s)
                left_chains: dict = {}
                for t, t_ops in rights:
                    self.combine(table, s, s_ops, t, t_ops, cut,
                                 left_chains, right_chains)

    def valid(self, p1: int, p2: int, producers) -> bool:
        """Every operator that must precede the join fits on one side."""
        for oi in producers:
            op = self.q.ops[oi]
            support = 0
            for r in op.base_rels:
                support |= 1 << r
            if not (support & ~p1 == 0 or support & ~p2 == 0):
                self.blockers.append(describe_op(op))
                return False
        return True

    def combine(self, table: dict, s: MemoEntry, s_ops, t: MemoEntry,
                t_ops, cut: Cut, left_chains: dict,
                right_chains: Optional[dict]) -> None:
        """Insert the join candidates of `s` and `t` with prefixes of their
        applicable operators `s_ops` and `t_ops` (``applicable``)."""
        if right_chains is None:
            right_chains = {}           # kept for this call's variants
        shared = s_ops[1].keys() & t_ops[1].keys()
        variants = [(s_ops, t_ops, True)]
        seen = None
        if shared:
            # An operator runnable on either side (its inputs are join
            # keys present in both schemas) sits in the middle of both
            # sorted lists and blocks the prefixes of whichever side it
            # does not end up on.  Re-enumerate with those operators
            # pinned to one side at a time so "all on the left" and
            # "all on the right" splits stay reachable; the variants
            # share prefixes, so their pairs are deduplicated.
            variants.append((s_ops, self.applicable(t, shared), False))
            variants.append((self.applicable(s, shared), t_ops, False))
            seen = set()
        done = s.ops | t.ops
        for (v1, at1), (v2, at2), strict in variants:
            oi1 = oi2 = 0
            feasible = True
            for m in cut.producers:
                if done >> m & 1:
                    continue
                pos1 = at1.get(m)
                if pos1 is not None:
                    oi1 = max(oi1, pos1 + 1)
                    continue
                pos2 = at2.get(m)
                if pos2 is not None:
                    oi2 = max(oi2, pos2 + 1)
                else:
                    if strict:
                        # unapplicable on either side, full lists
                        self.blockers.append(describe_op(self.q.ops[m]))
                    feasible = False
                    break
            if feasible:
                self.candidates(table, self.prefixes(s, v1, oi1, cut,
                                                     left_chains),
                                self.prefixes(t, v2, oi2, cut, right_chains),
                                cut, seen)

    def candidates(self, table: dict, lefts: list, rights: list, cut: Cut,
                   seen: Optional[set]) -> None:
        """Offer `table` the join of every prefix record in `lefts` with
        every one in `rights` (``prefixes``), skipping the (ops, ops) pairs
        already in `seen` when it is given.

        A candidate whose shared columns are not the cut's keys is a
        capture skip (see ``join_entries``).  Any other is costed from the
        two records alone, with the cut's divisor for the pair of key-ndv
        tuples, and kept as a ``DeferredJoin`` when it beats the
        incumbent for its operator set."""
        keys = cut.keys
        divisors = cut.divisors
        n = skips = wins = 0
        for l_ops, l_cost, l_rows, l_extra, l_ndvs, left in lefts:
            l_divs = divisors.get(l_ndvs)
            if l_divs is None:
                l_divs = divisors[l_ndvs] = {}
            for r_ops, r_cost, r_rows, r_extra, r_ndvs, right in rights:
                if seen is not None:
                    pair = (l_ops, r_ops)
                    if pair in seen:
                        continue
                    seen.add(pair)
                n += 1
                if l_extra is None or r_extra is None or \
                        not l_extra.isdisjoint(r_extra):
                    skips += 1
                    continue
                div = l_divs.get(r_ndvs)
                if div is None:
                    div = l_divs[r_ndvs] = join_divisor(l_ndvs, r_ndvs)
                cost = l_cost + r_cost + join_cost(l_rows, r_rows, div)
                ops = l_ops | r_ops
                best = table.get(ops)
                if best is None or cost < best.cost:
                    table[ops] = DeferredJoin(ops, cost, left, right, keys)
                    wins += 1
        counters = self.counters
        counters["candidates"] += n
        counters["capture_skips"] += skips
        counters["entries"] += wins

    def prefixes(self, entry: MemoEntry, ops: list, start: int, cut: Cut,
                 chains: dict) -> list:
        """The ``Prefix`` records of `entry` with the first k of `ops`
        applied, for each k >= start, for the partition `cut`.

        The whole chain is built once, kept in `chains` under
        ``(entry.ops, op indices)``, which names it within one memo table,
        and sliced.  ``fill`` passes a dict per left-hand entry, dropped
        before the next one, and a dict per partition for the right-hand
        entries, which every left-hand entry pairs with.  A partition with
        a single left-hand entry pairs each right-hand entry in one
        ``combine`` call, so its right-hand chains are kept for that call
        only, where every left-hand prefix of every variant reads them.
        Keeping chains any longer holds more plan states than it saves
        work."""
        key = (entry.ops, tuple(op.idx for op in ops))
        chain = chains.get(key)
        if chain is None:
            chain = [Prefix.of(entry, cut)]
            for op in ops:
                entry = apply_op(op, entry, self.cm)
                chain.append(Prefix.of(entry, cut))
            chains[key] = chain
        return chain[start:]

    # -- final assembly -----------------------------------------------------

    def finish(self, entry: MemoEntry):
        """Append remaining operators in sorted order and re-project."""
        cur = entry
        for op in self.order:
            if cur.ops >> op.idx & 1:
                continue
            if not op_applicable(op, cur.ops, cur.schema.columns, cur.rels,
                                 self.graph):
                return None, describe_op(op)
            cur = apply_op(op, cur, self.cm)
        final = reproject(cur, self.q, self.cm)
        return (None, "projection") if final is None else (final, None)

    def run(self) -> MemoEntry:
        """The cheapest finished plan of the full memo table; among equal
        costs, the one finished from the lowest operator mask.

        Entries are finished cheapest first, and the search stops at the
        first entry whose memo cost exceeds the best finished cost: every
        operator, join and projection cost is non-negative (not NaN), and
        adding one never makes a sum smaller.  When no entry finishes, the
        error names the blocker of the lowest operator mask."""
        if not self.connected(self.full):
            raise DisconnectedJoinGraphError(
                "join graph is disconnected; a cross product is required "
                "(pass allow_cross_products to permit it)")
        table = self.enumerate_mask(self.full)
        best = best_key = None
        blocked: list = []                 # (ops mask, blocker)
        for entry in sorted(table.values(), key=lambda e: (e.cost, e.ops)):
            if best is not None and entry.cost > best.cost:
                break
            self.counters["finished"] += 1
            finished, blocker = self.finish(entry)
            if finished is None:
                blocked.append((entry.ops, blocker))
                continue
            key = (finished.cost, entry.ops)
            if best is None or key < best_key:
                best, best_key = finished, key
        if best is None:
            name = min(blocked)[1] if blocked else \
                (self.blockers or ["join graph"])[0]
            raise InfeasibleQueryError(f"no valid plan: blocked by {name}",
                                       name)
        return best


def enumerate_plans(decomp: QueryDecomposition, graph: PrecedenceGraph,
                    order, cost_model: CostModel,
                    allow_cross_products: bool = False):
    """Run Algorithm-style enumeration; returns (best MemoEntry, the
    Enumerator), whose memo and counters callers may audit."""
    enum = Enumerator(decomp, graph, order, cost_model, allow_cross_products)
    return enum.run(), enum
