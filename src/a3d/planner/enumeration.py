"""Memoized top-down join enumeration over closed, rank-sorted memo tables.

The enumerator works over a QueryDecomposition.  Plans for a relation subset
are memoized per applied-operator set: ``memo[rels][ops] -> entry``.  Both
masks are int bitsets.  A join candidate combines two subplans, each a memo
entry with a prefix of its rank-sorted applicable operators applied, whose
operator sets are disjoint: the plan space is (leaves joined, operators
applied), each operator applied once.  An operator producing one of the
join's key columns is mandatory, so one of the two sides must have applied
it.

Once a non-full memo table is complete it is closed (``close``): every
prefix of every entry's operator chain (``prefixes``) is reached, in one
pass by operator count in which the chains that meet share their work, and
the cheapest plan per operator set is kept.  A step is costed before it is
built: its cost is ``stats.op_cost`` over the plan's rows and array infos,
the expression ``op_effect`` charges, and only a step that beats the plan
its node already holds is applied.  An operator that may run on
either side of a join would block the prefixes of the side it does not run
on, so an entry with such operators also seeds a chain with them banned,
and the plans both kinds of chain reach compete for their operator sets.

Every table here, memo or closed, holds one plan per (leaves, operators)
key.  That is exact up to rounding: a plan's state depends only on its
leaves and the operators it applied, not on the order it joined or applied
them in (``stats``), up to the float rounding of the order its row products
associate in (at most 1e-12 relative), so two plans with one key cost the
same in every context that completes them, and the dearer one can be
dropped.  The ``stats`` module docstring names the one exception: an
operator that reads a join key is estimated from the key's statistics
where it runs, so a filter on the key leaves different rows below the join
than above it, and the plan kept for the key may complete at a higher cost
than the one dropped.  The oracle keeps one plan per key too.

A partition (``fill``) pairs its two sides' closed tables directly, each
closed entry turned once into a ``Prefix`` record: its operator mask, cost,
rows, non-key columns and the distinct counts of the partition's join
keys.  The candidate loop (``candidates``) reads only records: per pair it
tests that the two operator masks are disjoint and together hold every
mandatory operator, makes one set test (the shared columns must be exactly
the keys), looks the join divisor up in a per-partition table keyed by the
two key-ndv tuples, costs the join with
``stats.join_cost`` and looks its operator set up in the memo table.  A
candidate that beats the incumbent for its operator set is kept as a
``DeferredJoin`` record, with the divisor it was costed with, until its
table is complete; only the records that survive then are built into memo
entries (``join_entries``), at exactly the cost they won with, since
``join_effect`` costs a join with the same expression and that divisor,
and of those only the undominated ones (below) are kept.

A memo entry holds its plan as a recipe, not a term (``materialize``): a
leaf's term, ``(op, parent plan)`` for an applied operator, or ``(left
plan, right plan)`` for a join.  Only a finished plan is read as a term,
when the query's projection is put on it (``reproject``).  Of a plan's
schema the entry keeps only its column set, which is all that every
legality test here reads; equal sets are stored once per enumerator.
Applying an operator replays the column effect ``decompose`` recorded for
it (``RankableOp.columns_after``), and a join's columns are the union of
its inputs'.  Kinds are checked where the query enters (``decompose``
infers every operator's schema where the query placed it) and where the
plan leaves (``optimize`` infers every node of the chosen plan when it
costs it); in between, a column changes kind only through an operator that
rewrites it, which never runs below a join that matches on the column.

Each non-full memo table drops its dominated plans once it is filled
(``enumerate_mask``), so they seed no closure chain and never reach
``candidates``.  A plan E2 dominates E1, a plan over the same leaves, when
(``dominates``):

- E2 applied every operator E1 did, and more, each extra one a row filter
  that no plan over other leaves can apply (``local_filters``);
- their columns, ``rows_unf``, ``scalar_stats`` and ``array_info`` are
  equal, so only ``rows`` differs;
- E2 is strictly cheaper and has no more rows.

Dropping E1 loses no plan the search would choose.  In
``CostModel.op_effect`` a row filter changes only ``rows`` (and the empty
fraction an emptiness test sets, which the equal ``array_info`` covers),
scaling it by a selectivity that does not read ``rows``, so it commutes
with every other effect.  Every later operator, join and projection
multiplies ``rows`` by factors that do not read it, and costs no less for
more rows.  So from equal non-row states, E2 completed as E1 is, less the
extra filters, has no more rows than E1's completion at every step and
pays no more at every step; E1's completion also pays for the extra
filters, which E2's skips.  That completion exists: E2's prefix chains are
E1's less the extra filters, its banned chain bans the same either-side
operators, and no plan E1 joins with has applied an extra filter, since
none can run over the other side's leaves, so E2's operator set is
disjoint from each of theirs and ``candidates`` pairs E2 with each of them.
The tests check the premises on the cost model, and that dropping dominated
plans changes no chosen plan or cost.

The full table's records are left unbuilt.  ``finished`` yields the
complete plans in ascending (cost, operator mask) order from one best-first
heap of partial plans, each keyed by its cost plus the exact cost of its
next operator (``lookahead``), which an unbuilt record's stored rows and
its inputs' array infos give.  A finished plan goes back on the heap at its
final cost; costs are non-negative, so the heap alone orders the stream.
``run`` takes its first plan, so only the records whose memo cost plus next
step is within the best finished cost are ever built.

The same applicability/validity helpers drive the exhaustive oracle, so the
two searches agree on which plans are legal and differ only in coverage.
"""

import heapq
from dataclasses import dataclass
from typing import NamedTuple, Optional

from ..algebra import A3DError, Join, Project, Term
from ..stats import (
    CostModel, PlanState, join_array_info, join_cost, join_divisor, key_ndvs,
    op_cost,
)
from .decompose import QueryDecomposition, RankableOp
from .precedence import PrecedenceGraph, _bits


class DisconnectedJoinGraphError(A3DError):
    """The join graph needs a cross product; pass allow_cross_products."""


class InfeasibleQueryError(A3DError):
    def __init__(self, msg: str, blocking_op: str = ""):
        super().__init__(msg)
        self.blocking_op = blocking_op


@dataclass(slots=True)
class MemoEntry:
    plan: object       # the plan's recipe (``materialize``)
    rels: int          # bitmask of leaf indices
    ops: int           # bitmask of applied operator indices
    cost: float
    state: PlanState
    columns: frozenset  # the plan's output columns

    @property
    def term(self) -> Term:
        """The plan's term, materialized anew from its recipe."""
        return materialize(self.plan)


def materialize(plan) -> Term:
    """The term of the plan recipe `plan`: a term (a leaf's, or a plan's
    own), ``(op, parent plan)`` for the RankableOp `op` applied on top of
    the parent (``apply_op``), or ``(left plan, right plan)`` for their
    join (``join_entries``).  A recipe holds only terms, operators and
    recipes, so it keeps no memo entry or plan state alive."""
    if type(plan) is not tuple:
        return plan
    head, tail = plan
    if type(head) is RankableOp:
        return head.apply(materialize(tail))
    return Join(materialize(head), materialize(tail))


@dataclass(slots=True)
class DeferredJoin:
    """A join candidate that beat its memo incumbent while the table was
    being filled, not yet built: its cost and rows (exactly those
    ``join_entries`` gives it), the join divisor it was ranked with and
    what it takes to build it."""
    ops: int
    cost: float
    rows: float
    left: MemoEntry
    right: MemoEntry
    keys: frozenset
    div: float

    def build(self, cost_model: CostModel) -> MemoEntry:
        return join_entries(self.left, self.right, self.keys, cost_model,
                            self.div)


class Cut(NamedTuple):
    """One partition of a memo table's leaves: its join key set, the keys
    sorted, the mask of the operators that must run below the join, and
    the join divisors computed so far, keyed by the left and then the
    right input's key-ndv tuple (``stats.key_ndvs``)."""
    keys: frozenset
    key_list: list
    producers: int
    divisors: dict


class Prefix(NamedTuple):
    """What the candidate loop reads of one closed-table entry for one
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
        cols = entry.columns
        keys = cut.keys
        return Prefix(entry.ops, entry.cost, entry.state.rows,
                      cols - keys if keys <= cols else None,
                      key_ndvs(entry.state, cut.key_list), entry)


def describe_op(op: RankableOp) -> str:
    return f"{op.kind}#{op.idx}"


def mask_of(indices) -> int:
    """The bitset of the operator indices `indices`."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


############################################################
# shared plan-space semantics (used by the oracle too)
############################################################

def op_applicable(op: RankableOp, ops: int, cols, rels: int,
                  graph: PrecedenceGraph) -> bool:
    """Whether `op` may run on a plan over leaves `rels` that has applied
    the operators in `ops` and outputs the columns `cols`: not yet applied,
    inputs present, precedence predecessors applied, and the plan holds
    every leaf of ``op.min_rels`` (an aggregate exactly those leaves, the
    ones it must group over)."""
    if ops >> op.idx & 1:
        return False
    if not op.requires <= cols:
        return False
    if graph.pred[op.idx] & ~ops:
        return False
    if op.kind == "aggregate":
        return rels == op.min_rels
    return not op.min_rels & ~rels


def apply_op(op: RankableOp, entry: MemoEntry,
             cost_model: CostModel) -> MemoEntry:
    cost, state = cost_model.op_effect(op.node, entry.state)
    return MemoEntry((op, entry.plan), entry.rels, entry.ops | (1 << op.idx),
                     entry.cost + cost, state, op.columns_after(entry.columns))


def base_entry(decomp: QueryDecomposition, i: int,
               cost_model: CostModel) -> MemoEntry:
    _, term = decomp.leaves[i]
    res = cost_model.term_cost(term)
    return MemoEntry(term, 1 << i, 0, res.cost, res.state, res.schema.columns)


def join_entries(left: MemoEntry, right: MemoEntry, expected_keys,
                 cost_model: CostModel, div: Optional[float] = None):
    """Join two plans naturally; None when the shared columns are not
    exactly the join keys this cut calls for (a column was consumed below,
    or an operator introduced an accidental overlap).  `div`, when given,
    is the join divisor of the two plans' key-ndv tuples
    (``CostModel.join_effect``).

    The join's columns are the union of its inputs'.  A join key has one
    kind on both sides: its kind changes only through an operator that
    rewrites it, and such an operator runs above every join matching on
    the column (``RankableOp.min_rels``)."""
    lc, rc = left.columns, right.columns
    shared = lc & rc
    if shared != expected_keys:
        return None
    cost, state = cost_model.join_effect(left.state, right.state,
                                         sorted(shared), div)
    return MemoEntry((left.plan, right.plan), left.rels | right.rels,
                     left.ops | right.ops, left.cost + right.cost + cost,
                     state, lc | rc)


def crossing(edges, p1: int, p2: int):
    """(key column set, mandatory producer op indices) of the join edges
    between the leaf sets `p1` and `p2`."""
    cols, prods = set(), set()
    for e in edges:
        li, ri = 1 << e.left, 1 << e.right
        if (li & p1 and ri & p2) or (li & p2 and ri & p1):
            cols.add(e.col)
            prods |= e.producers
    return frozenset(cols), frozenset(prods)


def reproject(entry: MemoEntry, decomp: QueryDecomposition,
              cost_model: CostModel) -> Optional[MemoEntry]:
    """The complete plan `entry` with the query's top projection on it:
    `entry` itself when it outputs exactly the query's columns and the
    query had no top projection, None when it lacks an output column.  A
    projected plan's recipe is its term, materialized here, and its
    columns are the query's output columns."""
    out = frozenset(decomp.out_cols)
    if not out <= entry.columns:
        return None
    if out == entry.columns and not decomp.had_top_project:
        return entry
    top = Project(tuple(decomp.out_cols), entry.term)
    cost, state = cost_model.op_effect(top, entry.state)
    return MemoEntry(top, entry.rels, entry.ops, entry.cost + cost, state,
                     out)


def dominates(better: MemoEntry, entry: MemoEntry, filters: int) -> bool:
    """Whether the plan `better` dominates `entry`, a plan over the same
    leaves (see the module docstring for why dropping `entry` is exact):
    `better` applied every operator `entry` did and more, each extra one
    in the mask `filters` of row filters only these leaves can apply;
    their columns, ``rows_unf``, scalar statistics and array infos are
    equal; and `better` is strictly cheaper and has no more rows."""
    ops, b_ops = entry.ops, better.ops
    if ops & ~b_ops or b_ops & ~ops & ~filters or ops == b_ops:
        return False
    if not better.cost < entry.cost:
        return False
    state, b_state = entry.state, better.state
    return (b_state.rows <= state.rows
            and b_state.rows_unf == state.rows_unf
            and better.columns == entry.columns
            and b_state.scalar_stats == state.scalar_stats
            and b_state.array_info == state.array_info)


def undominated(plans: list, filters: int) -> list:
    """The plans of `plans`, plans over one leaf set, that no other plan
    dominates (``dominates``), in their order in `plans`.

    Extra filters change neither the other operators nor ``rows_unf``, so
    only plans that agree on both can dominate each other: each such
    bucket is scanned in ascending cost, every plan against the cheaper
    ones kept so far.  Dominance is transitive, so a plan that a dropped
    plan dominates is dominated by a kept one too."""
    buckets: dict = {}
    for i, entry in enumerate(plans):
        buckets.setdefault((entry.ops & ~filters, entry.state.rows_unf),
                           []).append(i)
    dropped = set()
    for members in buckets.values():
        if len(members) < 2:
            continue
        members.sort(key=lambda i: plans[i].cost)
        kept = []
        for i in members:
            entry = plans[i]
            for better in kept:
                if dominates(better, entry, filters):
                    dropped.add(i)
                    break
            else:
                kept.append(entry)
    if not dropped:
        return plans
    return [entry for i, entry in enumerate(plans) if i not in dropped]


def keep(nodes: dict, key, entry: MemoEntry) -> None:
    """Offer `entry` as the one plan kept under `key`: it is kept when no
    plan is, or when it is cheaper than the one that is.  Plans under one
    key have applied the same operators over the same leaves, so their
    states are equal up to rounding, but for the exception the module
    docstring names, and cost alone decides."""
    old = nodes.get(key)
    if old is None or entry.cost < old.cost:
        nodes[key] = entry


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
        self.closed: dict = {}             # rels mask -> ``close`` list
        self.interned_columns: dict = {}   # one copy of each column set
        self.counters = {"entries": 0, "partitions": 0, "candidates": 0,
                         "capture_skips": 0, "dominated": 0,
                         "finished": 0, "finish_ops": 0}
        self.blockers: list = []           # see ``first_blocker``

        m = len(decomp.leaves)
        self.full = (1 << m) - 1
        # each leaf's plan and the operators it can apply (``either_side``)
        self.bases = [base_entry(decomp, i, cost_model) for i in range(m)]
        self.leaf_ops = [mask_of(self.applicable(b)) for b in self.bases]
        self.adj = [0] * m
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

    def applicable(self, entry: MemoEntry, banned: int = 0) -> tuple:
        """The indices of the ops from the sorted order applicable on
        `entry`, closed under the productions of earlier list members (an
        arrayFilter's output array may be unnested by a later arrayJoin in
        the same prefix).

        The operators in the mask `banned` are dropped from consideration
        entirely; anything that needed a banned operator's output column,
        or had it as a precedence predecessor, falls out with it."""
        out = []
        ops_mask = entry.ops
        cols = entry.columns
        for op in self.order:
            if banned >> op.idx & 1 or not op_applicable(
                    op, ops_mask, cols, entry.rels, self.graph):
                continue
            out.append(op.idx)
            ops_mask |= 1 << op.idx
            cols = op.columns_after(cols)
        return tuple(out)

    def enumerate_mask(self, mask: int) -> dict:
        """The memo table of the leaves in `mask`, filled on first use.

        While the table is filled it holds DeferredJoin records.  In a
        table below the full one, the records left at the end are built
        (``join_entries``), the table's dominated plans are dropped
        (``undominated``), so that none of them seeds a closure chain or
        reaches ``candidates``, and every column set left in the table is
        interned.  A plan is dominated by a strictly cheaper one with no
        more rows that applied its operators plus row filters no plan
        over other leaves can apply, and an otherwise equal state; its
        every completion costs more than its dominator's same completion
        less the extra filters (module docstring), so no chosen plan is
        lost.  The full table keeps its records as they are: ``finished``
        builds only those it starts finishing."""
        hit = self.memo.get(mask)
        if hit is not None:
            return hit
        table: dict = {}
        self.memo[mask] = table
        if mask.bit_count() == 1:
            table[0] = self.bases[mask.bit_length() - 1]
            self.counters["entries"] += 1
        else:
            self.fill(table, mask)
        if mask == self.full:
            # no partition reads a closed table any more; the plans the
            # table's records join are held by the records
            self.closed.clear()
            return table
        plans = [entry.build(self.cm) if type(entry) is DeferredJoin
                 else entry for entry in table.values()]
        table.clear()
        intern = self.interned_columns.setdefault
        for entry in self.undominated(plans, mask):
            # many entries of one table share a column set; keep one copy
            entry.columns = intern(entry.columns, entry.columns)
            table[entry.ops] = entry
        return table

    def undominated(self, plans: list, mask: int) -> list:
        """``undominated`` over the plans of the leaves in `mask`, whose
        dominators may add the row filters no plan over the other leaves
        can apply, counting the plans it drops in
        ``counters["dominated"]``."""
        kept = undominated(plans, self.local_filters(mask))
        self.counters["dominated"] += len(plans) - len(kept)
        return kept

    def fill(self, table: dict, mask: int) -> None:
        """Insert the join candidates of every valid partition of `mask`:
        each pairs the closed table (``close``) of one side, as ``Prefix``
        records, with the other's in one ``candidates`` call.  A partition
        with mandatory operators is recorded in ``blockers``, to be
        scanned only if no plan finishes (``first_blocker``)."""
        low = mask & -mask
        sub = (mask - 1) & mask
        while sub:
            p1, p2 = sub, mask ^ sub
            sub = (sub - 1) & mask
            if not (p1 & low):
                continue
            if not (self.connected(p1) and self.connected(p2)):
                continue
            keys, producers = crossing(self.q.edges, p1, p2)
            if not keys and not self.allow_cross:
                continue
            producers = sorted(producers)
            if not self.valid(p1, p2, producers):
                continue
            self.counters["partitions"] += 1
            lefts = self.close(p1)
            if not lefts:
                continue
            rights = self.close(p2)
            if not rights:
                continue
            need = mask_of(producers)
            if need:
                self.blockers.append((p1, p2, need))
            cut = Cut(keys, sorted(keys), need, {})
            self.candidates(table, [Prefix.of(e, cut) for e in lefts],
                            [Prefix.of(e, cut) for e in rights], cut)

    def valid(self, p1: int, p2: int, producers) -> bool:
        """Every operator that must precede the join fits on one side;
        the first that does not is recorded in ``blockers``."""
        for oi in producers:
            op = self.q.ops[oi]
            support = 0
            for r in op.base_rels:
                support |= 1 << r
            if not (support & ~p1 == 0 or support & ~p2 == 0):
                self.blockers.append(describe_op(op))
                return False
        return True

    def find_blocker(self, p1: int, p2: int, need: int) -> Optional[str]:
        """The name of the first mandatory operator that some pair of
        entries of `p1` and `p2`, in table order, can apply on neither
        side: the lowest operator of `need` that neither entry has applied
        and neither's applicable list holds; None when there is none."""
        rights = [t.ops | mask_of(self.applicable(t))
                  for t in self.memo[p2].values()]
        for s in self.memo[p1].values():
            left = s.ops | mask_of(self.applicable(s))
            for right in rights:
                missing = need & ~(left | right)
                if missing:
                    oi = (missing & -missing).bit_length() - 1
                    return describe_op(self.q.ops[oi])
        return None

    def first_blocker(self) -> str:
        """The first blocker ``fill`` recorded, for the error of a query no
        plan finishes: an operator ``valid`` found fits on neither side,
        or what ``find_blocker`` finds in a partition ``(p1, p2, need)``,
        whose memo tables were final when it was recorded; "join graph"
        when there is none."""
        for rec in self.blockers:
            name = rec if type(rec) is str else self.find_blocker(*rec)
            if name is not None:
                return name
        return "join graph"

    def candidates(self, table: dict, lefts: list, rights: list,
                   cut: Cut) -> None:
        """Offer `table` the join of every prefix record in `lefts` with
        every one in `rights` (``Prefix``) whose operator set is disjoint
        from it, so no operator runs on both sides, and which together hold
        every operator of ``cut.producers``.

        A candidate whose shared columns are not the cut's keys is a
        capture skip (see ``join_entries``).  Any other is costed from the
        two records alone, with the cut's divisor for the pair of key-ndv
        tuples, and kept as a ``DeferredJoin`` when it beats the
        incumbent for its operator set."""
        keys = cut.keys
        producers = cut.producers
        divisors = cut.divisors
        n = skips = wins = 0
        for l_ops, l_cost, l_rows, l_extra, l_ndvs, left in lefts:
            need = producers & ~l_ops
            l_divs = divisors.get(l_ndvs)
            if l_divs is None:
                l_divs = divisors[l_ndvs] = {}
            for r_ops, r_cost, r_rows, r_extra, r_ndvs, right in rights:
                if need & ~r_ops or l_ops & r_ops:
                    continue
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
                    table[ops] = DeferredJoin(ops, cost,
                                              l_rows * r_rows / div,
                                              left, right, keys, div)
                    wins += 1
        counters = self.counters
        counters["candidates"] += n
        counters["capture_skips"] += skips
        counters["entries"] += wins

    def close(self, mask: int) -> tuple:
        """The closed table of the leaves in `mask`, made on first use:
        the memo entries with every prefix of each of their ``prefixes``
        chains applied, the cheapest plan kept per operator set, in one
        list in the order first reached (an empty memo table gives an
        empty list).  A plan a banned chain reaches lacks the banned
        either-side operators, so it pairs with the other side's plans
        that ran them, or with those that left them for above the join.

        The closure runs by operator count over nodes (operator set, the
        chain's remaining operator indices), one plan per node.  Each memo
        entry seeds one node per chain, and each node's plan steps only
        to the node's next operator, so chains that meet share the rest of
        their work.  Two plans with one operator set have one plan state,
        up to rounding and the exception the module docstring names, so
        they cost the same from there on and only the cheaper is kept
        (``keep``).  A step is costed before it is built, with
        ``op_cost`` as ``op_effect`` costs it, and applied (``apply_op``)
        only when it is strictly cheaper than the plan its node holds,
        so a step that loses builds no plan state."""
        hit = self.closed.get(mask)
        if hit is not None:
            return hit
        table = self.enumerate_mask(mask)
        if not table:
            self.closed[mask] = []
            return []
        ops_of = self.q.ops
        cm = self.cm
        todo: dict = {}             # op count -> {node: entry}
        for entry in table.values():
            nodes = todo.setdefault(entry.ops.bit_count(), {})
            for chain in self.prefixes(entry):
                nodes[entry.ops, chain] = entry
        best: dict = {}             # ops mask -> entry
        count = min(todo)
        while todo:
            nodes = todo.pop(count, None)
            count += 1
            if nodes is None:
                continue
            later = None
            for (ops, rest), entry in nodes.items():
                keep(best, ops, entry)
                if not rest:
                    continue
                op = ops_of[rest[0]]
                state = entry.state
                cost = entry.cost + op_cost(op.node, state.rows,
                                            state.array_info)
                if later is None:
                    later = todo.setdefault(count, {})
                node = ops | 1 << op.idx, rest[1:]
                old = later.get(node)
                if old is None or cost < old.cost:
                    later[node] = apply_op(op, entry, cm)
        closed = list(best.values())
        self.closed[mask] = closed
        return closed

    def prefixes(self, entry: MemoEntry) -> list:
        """The operator chains ``close`` applies the prefixes of to
        `entry`, as tuples of operator indices: its applicable list
        (``applicable``), then, when that list holds either-side operators
        (``either_side``), the list with them banned.

        An either-side operator may run on both sides of a join.  It sits
        in the middle of both sides' sorted lists, where it blocks the
        prefixes of whichever side it does not end up on; the banned chain
        keeps the operators after it reachable on this side while it runs
        on the other."""
        plain = self.applicable(entry)
        banned = mask_of(plain) & self.either_side(entry.rels)
        if not banned:
            return [plain]
        return [plain, self.applicable(entry, banned)]

    def local_filters(self, rels: int) -> int:
        """The mask of the row filters that no plan over the leaves
        outside `rels` can apply: each reads a column that is neither a
        column of such a leaf nor made from their columns by some
        operator (an over-approximation of what those plans can hold)."""
        cols = set()
        for i, base in enumerate(self.bases):
            if not rels >> i & 1:
                cols |= base.columns
        grown = True
        while grown:
            grown = False
            for op in self.q.ops:
                if op.requires <= cols and not op.produces <= cols:
                    cols |= op.produces
                    grown = True
        return mask_of(op.idx for op in self.q.ops
                       if op.kind == "filter" and not op.requires <= cols)

    def either_side(self, rels: int) -> int:
        """The mask of the operators applicable on the base plan of some
        leaf outside `rels`."""
        out = 0
        for i, ops in enumerate(self.leaf_ops):
            if not rels >> i & 1:
                out |= ops
        return out

    # -- final assembly -----------------------------------------------------

    def lookahead(self, plan, pos: int = 0) -> tuple:
        """(the position in ``order``, from `pos` on, of the next operator
        the plan `plan` has not applied, the cost ``op_effect`` charges for
        it on the plan); (``len(order)``, 0.0) when no operator remains.

        The cost is ``op_cost`` over the plan's rows and array infos.  A
        ``DeferredJoin`` record's rows are stored on it, and its array
        infos are its inputs' merged by ``join_array_info``, as
        ``join_effect`` merges them, so the record need not be built."""
        order = self.order
        n = len(order)
        ops = plan.ops
        while pos < n and ops >> order[pos].idx & 1:
            pos += 1
        if pos == n:
            return pos, 0.0
        if type(plan) is DeferredJoin:
            rows = plan.rows
            info = join_array_info(plan.left.state.array_info,
                                   plan.right.state.array_info, plan.keys)
        else:
            rows, info = plan.state.rows, plan.state.array_info
        return pos, op_cost(order[pos].node, rows, info)

    def finished(self):
        """Yield the finished plans of the full memo table in ascending
        (cost, operator mask) order, the mask that of the record a plan
        was finished from.

        A plan is finished by applying its remaining operators in sorted
        order and putting the query's projection on it (``reproject``).
        One heap holds a partial plan per full-table record, keyed by
        (cost so far plus the exact cost of its next operator, read by
        ``lookahead`` without building it, the record's mask).  A record
        is built (``join_entries``) when it is first popped, and every pop
        applies one more operator, or the projection.  A finished plan
        goes back on the heap keyed by (its cost, its mask), and is
        yielded when it is popped again.  Every operator, join and
        projection cost is non-negative (not NaN), so a key never exceeds
        the cost its plan finishes at: when a finished plan is popped, no
        plan left in the heap can finish before it in (cost, mask) order.

        When no plan finishes, the generator raises ``InfeasibleQueryError``
        naming the blocker of the lowest operator mask, or, when the full
        table is empty, the first blocker ``fill`` recorded
        (``first_blocker``).  ``counters["finished"]`` counts the records
        started and ``counters["finish_ops"]`` the operators applied."""
        if not self.connected(self.full):
            raise DisconnectedJoinGraphError(
                "join graph is disconnected; a cross product is required "
                "(pass allow_cross_products to permit it)")
        table = self.enumerate_mask(self.full)
        # (key, record's ops mask, position in self.order, plan); no two
        # items share a record, so the first two fields are unique
        heap = []
        for ops, rec in table.items():
            pos, ahead = self.lookahead(rec)
            heap.append((rec.cost + ahead, ops, pos, rec))
        heapq.heapify(heap)
        order = self.order
        done = len(order) + 1              # the position of a finished plan
        counters = self.counters
        intern = self.interned_columns.setdefault
        blocked: list = []                 # (ops mask, blocker)
        while heap:
            _, ops, pos, cur = heapq.heappop(heap)
            if pos == done:
                yield cur
                continue
            if cur is table[ops]:          # the record's first pop
                counters["finished"] += 1
                if type(cur) is DeferredJoin:
                    cur = cur.build(self.cm)
                    cur.columns = intern(cur.columns, cur.columns)
            if pos < len(order):
                op = order[pos]
                if not op_applicable(op, cur.ops, cur.columns, cur.rels,
                                     self.graph):
                    blocked.append((ops, describe_op(op)))
                    continue
                cur = apply_op(op, cur, self.cm)
                # partial plans in the heap often reach equal column sets;
                # a plan stepped alone has none to share its set with, and
                # interning it would only keep the set alive
                if heap:
                    cur.columns = intern(cur.columns, cur.columns)
                counters["finish_ops"] += 1
                pos, ahead = self.lookahead(cur, pos + 1)
                heapq.heappush(heap, (cur.cost + ahead, ops, pos, cur))
                continue
            cur = reproject(cur, self.q, self.cm)
            if cur is None:
                blocked.append((ops, "projection"))
                continue
            heapq.heappush(heap, (cur.cost, ops, done, cur))
        if len(blocked) == len(table):     # no record finished
            name = min(blocked)[1] if blocked else self.first_blocker()
            raise InfeasibleQueryError(f"no valid plan: blocked by {name}",
                                       name)

    def run(self) -> MemoEntry:
        """The cheapest finished plan of the full memo table; among equal
        costs, the one finished from the lowest operator mask: the first
        plan ``finished`` yields."""
        return next(self.finished())


def enumerate_plans(decomp: QueryDecomposition, graph: PrecedenceGraph,
                    order, cost_model: CostModel,
                    allow_cross_products: bool = False):
    """Run Algorithm-style enumeration; returns (best MemoEntry, the
    Enumerator), whose memo and counters callers may audit."""
    enum = Enumerator(decomp, graph, order, cost_model, allow_cross_products)
    return enum.run(), enum
