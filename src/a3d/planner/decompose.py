"""Query decomposition: split a term into base relations, join edges and
rankable unary operators.

The decomposition is the normal form the join enumerator consumes.  Each
unary operator (filter, arrayFilter, arrayJoin, derive, aggregate) becomes a
``RankableOp`` carrying what it reads, creates and removes
(``algebra.footprint``) and a cost profile, both measured at its original
position: ``node_schema`` validates the operator there once, so kinds are
checked where the query enters, and the searches replay only its column
effect (``RankableOp.columns_after``).  Joins become edges of a join graph
whose nodes are the base relations; the top projection is stripped and
remembered.  Ordering constraints between operators (read-after-write,
write-after-read) are collected as raw precedence edges while walking the
tree, and an operator that rewrites or removes a column some join below it
matches on must run above those joins (``RankableOp.min_rels``).

The walk keeps three version maps per subtree: the leaves each column comes
from, and the operators that wrote and read its current version.  An
operator updates its input's maps in place: that input is its child alone,
nothing else holds the maps, and the sets in them are frozensets that are
replaced, never changed.  Only a leaf, a join (which merges its two inputs'
maps) and an aggregate (which keeps only its keys and aliases) build new
maps, so the walk is linear in the number of unary operators.
"""

from dataclasses import dataclass, replace
from typing import Optional

from ..algebra import (
    Aggregate, ArrayFilter, ArrayJoin, Derive, Filter, Join, Project, RelVar,
    Schema, Term, footprint, node_schema, with_children,
)
from ..stats import CostModel, PlanState


############################################################
# operator records
############################################################

@dataclass(frozen=True)
class OpProfile:
    """Cost profile of one operator, frozen at its original position.

    s_row  -- output rows / input rows (above 1 for arrayJoin)
    c_t    -- cost per input row
    h_sel  -- horizontal (element) selectivity; 1.0 for row-level operators
    """

    s_row: float
    c_t: float
    h_sel: float


@dataclass(frozen=True)
class RankableOp:
    """One movable unary operator extracted from the query.  It records
    columns, not kinds: the searches carry only column sets."""

    idx: int                  # stable numbering; bit position in op sets
    node: Term                # the node where the query put it (child ignored)
    kind: str                 # filter | arrayFilter | arrayJoin | derive | aggregate
    requires: frozenset       # columns read
    produces: frozenset       # columns created
    destroys: frozenset       # columns removed (or overwritten in place)
    base_rels: frozenset      # leaf indices transitively feeding `requires`
    min_rels: int             # mask of the leaves joined before this op runs
    profile: OpProfile

    def apply(self, child: Term) -> Term:
        return with_children(self.node, (child,))

    def columns_after(self, cols: frozenset) -> frozenset:
        """The columns this operator outputs over the columns `cols`.

        It replays the column effect ``node_schema`` gave the operator
        where the query placed it, without validating again: the searches
        apply an operator only where ``op_applicable`` holds, and
        ``optimize`` checks the final plan's schema, kinds included,
        against the input's."""
        if not (self.destroys or self.produces):
            return cols
        return (cols - self.destroys) | self.produces


@dataclass(frozen=True)
class JoinEdge:
    """One join-graph edge: `left` and `right` are leaf indices, `col` the
    shared column, `producers` the operators that synthesize it (empty for
    plain base columns)."""

    left: int
    right: int
    col: str
    producers: frozenset


@dataclass(frozen=True)
class QueryDecomposition:
    source: Term
    leaves: tuple             # of (name, Term)
    edges: tuple              # of JoinEdge
    ops: tuple                # of RankableOp, ops[i].idx == i
    prec_edges: frozenset     # of (i, j): op i must run before op j
    out_cols: tuple           # output columns of the whole query
    had_top_project: bool


_OP_KINDS = {
    Filter: "filter",
    ArrayFilter: "arrayFilter",
    ArrayJoin: "arrayJoin",
    Derive: "derive",
    Aggregate: "aggregate",
}


############################################################
# tree walk
############################################################

@dataclass
class _Branch:
    """Mutable walk state for one subtree."""

    rels: frozenset           # leaf indices
    schema: Schema
    state: PlanState
    support: dict             # col -> frozenset of leaf indices
    producers: dict           # col -> frozenset of op idxs (current version)
    readers: dict             # col -> frozenset of readers of current version
    aggs: tuple = ()          # (op idx, keys | aliases) of aggregates below
    joined: frozenset = frozenset()  # cols some join below matches on


def _merge_col_maps(a: dict, b: dict) -> dict:
    out = dict(a)
    for col, val in b.items():
        out[col] = (out[col] | val) if col in out else val
    return out


class _Walk:
    """What one ``decompose`` call collects while it walks the tree."""

    def __init__(self, cost_model: CostModel):
        self.cost_model = cost_model
        self.schemas = cost_model.schemas
        self.leaves: list = []
        self.ops: list = []
        self.edges: list = []
        self.prec: set = set()
        self.seen_rel_names: set = set()

    def leaf(self, name: str, sub: Term, schema: Schema,
             state: PlanState) -> _Branch:
        i = len(self.leaves)
        self.leaves.append((name, sub))
        rels = frozenset((i,))
        return _Branch(rels, schema, state, dict.fromkeys(schema.columns, rels),
                       {}, {})

    def opaque(self, sub: Term) -> _Branch:
        res = self.cost_model.term_cost(sub)
        return self.leaf(f"~v{len(self.leaves)}", sub, res.schema, res.state)

    def go(self, sub: Term) -> _Branch:
        if isinstance(sub, RelVar):
            if sub.name in self.seen_rel_names:
                # self-join: second occurrence kept opaque
                return self.opaque(sub)
            self.seen_rel_names.add(sub.name)
            return self.leaf(sub.name, sub, self.schemas[sub.name],
                             self.cost_model.base_state(sub.name))

        if isinstance(sub, Join):
            left = self.go(sub.left)
            right = self.go(sub.right)
            shared = left.schema.columns & right.schema.columns
            for col in sorted(shared):
                prods = (left.producers.get(col, frozenset())
                         | right.producers.get(col, frozenset()))
                for li in sorted(left.support.get(col, left.rels)):
                    for ri in sorted(right.support.get(col, right.rels)):
                        self.edges.append(JoinEdge(li, ri, col, prods))
            _, state = self.cost_model.join_effect(left.state, right.state,
                                                   sorted(shared))
            return _Branch(
                left.rels | right.rels,
                node_schema(sub, left.schema, right.schema), state,
                _merge_col_maps(left.support, right.support),
                _merge_col_maps(left.producers, right.producers),
                _merge_col_maps(left.readers, right.readers),
                left.aggs + right.aggs, left.joined | right.joined | shared,
            )

        kind = _OP_KINDS.get(type(sub))
        if kind is None:
            # e.g. an inner projection the pull-up kept
            return self.opaque(sub)

        br = self.go(sub.child)
        idx = len(self.ops)
        requires, produces, consumes = footprint(sub)
        schema_in = br.schema
        schema_after = node_schema(sub, schema_in)
        # what the operator removes or overwrites: outside an aggregate,
        # which keeps only its keys and aliases, the consumed columns it
        # does not write back, plus the written columns the input holds
        overwritten = (produces & schema_in.scalars) \
            | (produces & schema_in.arrays)
        if kind == "aggregate":
            destroys = (schema_in.columns - schema_after.columns) | overwritten
        else:
            destroys = (consumes - produces) | overwritten

        # precedence: read-after-write, then write-after-read
        for col in sorted(requires):
            for p in sorted(br.producers.get(col, ())):
                self.prec.add((p, idx))
        for col in sorted(destroys):
            for r in sorted(br.readers.get(col, ())):
                if r != idx:
                    self.prec.add((r, idx))
            for p in sorted(br.producers.get(col, ())):
                self.prec.add((p, idx))
        # an aggregate keeps only its keys and aliases, so an operator above
        # it that creates any other column must stay above it
        for agg, kept in br.aggs:
            if not produces <= kept:
                self.prec.add((agg, idx))

        support = frozenset()
        for col in requires:
            support |= br.support.get(col, frozenset())
        # an aggregate groups exactly the leaves below it; any other
        # operator runs above every join below it that matches on a column
        # it rewrites or removes, or that join would match on the new
        # values; the leaves feeding such a column are those joins' leaves
        keyed = br.rels if kind == "aggregate" else frozenset().union(
            *(br.support.get(col, br.rels) for col in destroys & br.joined))
        min_rels = sum(1 << r for r in keyed)

        mcost, state_after = self.cost_model.op_effect(sub, br.state)
        # Profiles are per input row; a zero-row state (contradictory
        # filters upstream) would make every ratio degenerate, so measure
        # on a copy with rows floored at one.
        mstate, mafter = br.state, state_after
        if mstate.rows < 1.0:
            mstate = replace(mstate, rows=1.0,
                             rows_unf=max(mstate.rows_unf, 1.0))
            mcost, mafter = self.cost_model.op_effect(sub, mstate)
        h_sel = 1.0
        if isinstance(sub, ArrayFilter):
            h_sel = self.cost_model.element_selectivity(
                sub.pred, sub.targets, mstate)
        profile = OpProfile(s_row=max(mafter.rows, 0.0) / mstate.rows,
                            c_t=mcost / mstate.rows, h_sel=h_sel)

        self.ops.append(RankableOp(
            idx, sub, kind, requires, produces, destroys,
            support or frozenset(), min_rels, profile))

        # update the version maps in place (see the module docstring)
        col_support, producers, readers = br.support, br.producers, br.readers
        for col in destroys:
            col_support.pop(col, None)
            producers.pop(col, None)
            readers.pop(col, None)
        for col in requires:
            if col in schema_after.scalars or col in schema_after.arrays:
                readers[col] = readers.get(col, frozenset()) | {idx}
        for col in produces:
            producers[col] = frozenset((idx,))
            readers[col] = frozenset()
            col_support[col] = support or br.rels
        joined = br.joined - destroys
        if kind == "aggregate":
            keep = frozenset(sub.keys) | produces
            br.aggs += ((idx, keep),)
            br.support = {c: s for c, s in col_support.items() if c in keep}
            br.producers = {c: p for c, p in producers.items() if c in keep}
            br.readers = {c: r for c, r in readers.items() if c in keep}
            joined &= keep
        br.schema, br.state, br.joined = schema_after, state_after, joined
        return br


def decompose(term: Term, cost_model: CostModel) -> QueryDecomposition:
    """Break `term` into the enumerator's normal form."""
    # strip top projections into out_cols
    body = term
    top_cols: Optional[tuple] = None
    while isinstance(body, Project):
        if top_cols is None:
            top_cols = body.cols
        body = body.child

    walker = _Walk(cost_model)
    root = walker.go(body)
    if top_cols is None:
        top_cols = tuple(sorted(root.schema.columns))
    return QueryDecomposition(
        source=term, leaves=tuple(walker.leaves), edges=tuple(walker.edges),
        ops=tuple(walker.ops), prec_edges=frozenset(walker.prec),
        out_cols=top_cols,
        had_top_project=isinstance(term, Project),
    )
