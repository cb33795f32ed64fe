"""The rewrite-rule catalog and its application engine.

Every rule is a pure function from a subterm (plus context) to a rewritten
subterm or None.  Rules never change the output schema: ``try_apply`` and
``guard_cost_improves`` verify schema preservation on every hit and raise
``RewriteError`` if a rule breaks it.

Rules come in two kinds:

``rule``  equivalence-preserving reshapes that are always worth doing in a
          bottom-up pass (pushdowns, fission into element form, inversions);
``cost``  reshapes that can help or hurt (commutations, expansion placement,
          pre-aggregation) and therefore apply only under
          ``guard_cost_improves``.

The guard alone judges a ``cost`` rule: no rule body and no stage asks
whether a rewrite pays.  R2.3 puts an emptiness guard under an arrayJoin
even where one is already below it; after ``c != []`` no array is empty,
so the cost model rates a second guard as keeping every row, and the guard
rejects it.  A partial aggregate that condenses nothing is rejected the
same way.  A stage bounds its rewrites with ``rewrite_to_fixpoint``'s
``cap``, past which ``FixpointCapError`` names the stage.

Every rule declares, in ``_rule(...)``, the operator pairs it rewrites: its
``shapes``, each a ``(node type, child type)`` pair, with None for any
child.  The catalog is thus the paper's matrix of pairwise interactions
between relational and array operators, pinned as a table by
``test_rule_shapes_form_the_pairwise_matrix`` in ``tests/test_rewrite.py``.
A rule body tests only what its shapes do not express.  The engine does
the matching: ``_attempt`` neither calls nor counts a rule off its shapes,
and ``rules_at`` returns, per node shape, the rules of an ordered id tuple
that can fire there, which greedy and every rewrite stage dispatch through.

Where a rule moves one unary operator past another, or below or above a
join, its column conditions come from ``algebra.footprint``, through three
helpers: ``_swap`` (R1, R2.1, R5.1, R11.1, R12, R13.1, R15),
``_push_below_join`` (R4.1, R6, R8, R10.1) and ``_pull_above_join`` (R7,
R10.2).  The pre-aggregation rules are one transformation, eager
aggregation: ``_split_aggs`` splits each aggregate into a partial and a
final stage by ``functions.SPLITS``, and ``_preaggregate`` builds both
stages around the place a rule gives the partial one (R16, R17.2, R17.3,
R18, R20, R21).  R17.1 folds the final stage into array functions.

R2.4 fuses an arrayFilter stacked on another over the same target set into
one conjunctive arrayFilter, so the arrays are rebuilt once, not once per
filter.  Preprocess applies it as R2.2 converts filters one conjunct at a
time, greedy through the catalog, and postprocess to the stacks that
enumerate's placement creates.

A rule attempt costs what the rewrite changes.  ``try_apply`` and
``guard_cost_improves`` take the subterm that ``rewrite_to_fixpoint``
already holds, and return the rewritten subterm, not a new root: the
driver splices it in.  A rewrite keeps most of that subterm by identity.
Schemas come from one memo that lasts for a ``rewrite_to_fixpoint`` call
(``RuleContext.schema_of``), so a kept node's schema is read, and only
the nodes a rewrite creates are inferred.  The cost guard folds through
one table of results, the round's own where it holds one, so the nodes a
rewrite kept are costed once for both sides of its comparison.  It
rejects, without costing any ancestor, a rewrite that leaves the
subterm's plan state as it was and is no cheaper; otherwise it folds both
roots, the new one with the rewrite's result injected.  The cost model
caches nothing, and a traced ``rewrite_to_fixpoint`` costs each root it
records once.

``rewrite_to_fixpoint`` runs a stage in rounds of one of three policies.
The guarded stages hold results: greedy's ``bottom-up`` rounds, and the
``sweep`` rounds of the emptiness guards and of postprocess, which fire
the hit first in preorder, as a top-down round would.  A held round
folds nothing until a guard marks its subterm and the nodes two levels
down in the round's table (``RuleContext.results``); from the next visit
on it keeps each node's ``(cost, state, schema)`` until its grandparent
has been visited, so a later guard reads `sub` and the nodes it keeps.
No result outlives its round.  The rule-only preprocess
stages run ``resume`` rounds: after a rewrite the next round starts at
the rewrite's parent, since every node before it in preorder would miss
again.  They walk a zipper (``_Zipper``): the path from the root to the
visited node, so a rewrite rebuilds its parent alone and the root is
built only where it is read (``RuleContext.root``).  No frame of the path
keeps a replaced subterm alive.  The schema memo serves rounds of every
policy: it holds schemas only, each with a weak reference to its node,
and is dropped when the call returns.

One ``RuleContext`` per ``optimize`` call carries the cost model, the trace
and ``rule_counts``: each rule's attempts and the rewrites
``rewrite_to_fixpoint`` kept.  The engine and every stage take it whole.

Naming: R<n> identifiers are stable API surface; sub-variants share a family
number.  Fresh internal columns use the ``__idx_<k>`` / ``__inv_<k>`` /
``__p<k>`` gensym pools and are always projected away by the same rule that
introduced them.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from .algebra import (
    A3DError,
    Aggregate,
    AggSpec,
    ArrayFilter,
    ArrayJoin,
    Derive,
    Filter,
    Join,
    Project,
    RelVar,
    Schema,
    Term,
    UNARY_TYPES,
    children,
    footprint,
    node_schema,
    output_schema,
    replace_at,
    walk,
    with_children,
)
from .functions import (
    ARRAY_ARG_FNS, FOREACH_AGGS, SPLITS, ScalarFn, affine_form,
)
from .predicates import (
    Cmp,
    Col,
    Lit,
    Pred,
    conjoin,
    invert_pred_through_fn,
    pred_columns,
    rename_columns,
    split_conjuncts,
)


class RewriteError(Exception):
    """A rule produced a term with a different schema (engine bug guard)."""


class FixpointCapError(A3DError):
    """A rewrite stage did not reach a fixpoint within its rewrite cap."""


############################################################
# context and rule records
############################################################

@dataclass(frozen=True)
class Rule:
    """A catalog rule.  `shapes` holds the ``(node type, child type)``
    pairs it rewrites; a child type of None matches any child, and only a
    unary node type names one."""

    rule_id: str
    kind: str            # "rule" | "cost"
    title: str
    fn: Callable         # (sub: Term, ctx: RuleContext) -> Optional[Term]
    shapes: tuple

    def matches(self, sub: Term) -> bool:
        """Whether `sub` has one of the rule's shapes."""
        node_type = type(sub)
        for node_t, child_t in self.shapes:
            if node_type is node_t and (child_t is None
                                        or type(sub.child) is child_t):
                return True
        return False


class RuleContext:
    """The context of one ``optimize`` call: the cost model, whose catalog
    is ``schemas``, declared correspondences, the trace (the records list
    ``trace_record`` appends to, or None), a gensym pool for one term, and
    per-rule counters.

    ``bind_root`` binds the root that rule attempts rewrite: a term, or a
    function that builds it, as a ``resume`` round binds its zipper's
    ``root``; ``root`` reads it.  The pool is lazy: the set of names
    already in use is collected from the root the first time ``fresh`` runs
    in a rule attempt (``_attempt``).  Rule attempts that never ask for a
    fresh name therefore never build or walk the whole term.

    ``rule_counts`` maps a rule id to ``[attempts, fires]``: an attempt is
    a call of the rule's function, a fire a rewrite that
    ``rewrite_to_fixpoint`` kept.

    ``results`` is None except during a ``bottom-up`` or ``sweep`` round
    of ``rewrite_to_fixpoint``, where it maps ``id(node)`` to the node's
    ``(cost, state, schema)`` for the nodes of the bound root that the
    round holds; ``schema_of``, ``try_apply`` and ``guard_cost_improves``
    read from it.  It stays empty until the round's first guard marks
    its subterm there (``guard_cost_improves``).

    During a ``rewrite_to_fixpoint`` call, ``schema_of`` also reads and
    fills a memo that maps ``id(node)`` to the node's schema, in rounds of
    every policy.  Each entry holds its node only weakly, and leaves the
    memo when the node is freed, before a new object can reuse its id; the
    memo itself is dropped when the call returns.  Outside such a call,
    ``schema_of`` infers the whole schema with ``output_schema``.
    """

    def __init__(self, cost_model, correspondences=(),
                 trace: Optional[list] = None):
        self.cost_model = cost_model
        self.schemas: Mapping[str, Schema] = cost_model.schemas
        self.correspondences = [frozenset(g) for g in correspondences]
        self.trace = trace
        self.rule_counts: dict = {}
        self.results: Optional[dict] = None
        self._memo: Optional[dict] = None
        self._forget = _forgetter(weakref.ref(self))
        self._root = None
        self._used: Optional[set] = None

    def bind_root(self, root) -> "RuleContext":
        """Bind `root`, a term or a function of no arguments that builds
        it, as the root that rule attempts rewrite."""
        self._root = root
        self._used = None  # stale until the next fresh()
        return self

    def root(self) -> Optional[Term]:
        """The bound root, or None when none is bound."""
        root = self._root
        return root() if callable(root) else root

    def schema_of(self, term: Term) -> Schema:
        res = None if self.results is None else self.results.get(id(term))
        if res is not None:
            return res[2]
        memo = self._memo
        if memo is None:
            return output_schema(term, self.schemas)
        entry = memo.get(id(term))
        if entry is not None:
            return entry.schema
        if isinstance(term, Join):
            schema = node_schema(term, self.schema_of(term.left),
                                 self.schema_of(term.right))
        elif isinstance(term, UNARY_TYPES):
            schema = node_schema(term, self.schema_of(term.child))
        else:
            schema = output_schema(term, self.schemas)
        memo[id(term)] = _MemoEntry(term, self._forget, schema)
        return schema

    def corresponding(self, cols) -> bool:
        cols = frozenset(cols)
        return any(cols <= g for g in self.correspondences)

    def fresh(self, prefix: str) -> str:
        """A name `prefix<k>` (smallest k) used nowhere in the bound root
        nor handed out since the rule attempt began or the root was
        bound."""
        if self._used is None:
            root = self.root()
            self._used = set() if root is None \
                else collect_names(root, self.schemas)
        k = 0
        while f"{prefix}{k}" in self._used:
            k += 1
        name = f"{prefix}{k}"
        self._used.add(name)
        return name


class _MemoEntry(weakref.ref):
    """A schema memo entry: a weak reference to its node, keyed by the
    node's id, with the node's schema."""

    __slots__ = ("key", "schema")

    def __new__(cls, node: Term, forget: Callable, schema: Schema):
        self = super().__new__(cls, node, forget)
        self.key = id(node)
        self.schema = schema
        return self

    def __init__(self, node: Term, forget: Callable, schema: Schema):
        super().__init__(node, forget)


def _forgetter(ctx_ref: weakref.ref) -> Callable:
    """The callback that removes a freed node's entry from the memo of the
    context `ctx_ref` refers to.  It holds the context weakly, so a memo
    never reaches itself through its entries."""
    def forget(entry: _MemoEntry) -> None:
        ctx = ctx_ref()
        if ctx is not None and ctx._memo is not None:
            ctx._memo.pop(entry.key, None)
    return forget


def collect_names(term: Term, schemas: Mapping[str, Schema]) -> set:
    names: set = set()
    for _, node in walk(term):
        if isinstance(node, RelVar):
            if node.name in schemas:
                names |= schemas[node.name].columns
        elif not isinstance(node, Join):
            for cols in footprint(node):
                names |= cols
    return names


CATALOG: list = []
RULES_BY_ID: dict = {}


def _rule(rule_id: str, kind: str, title: str, *shapes):
    def register(fn):
        r = Rule(rule_id, kind, title, fn, shapes)
        CATALOG.append(r)
        RULES_BY_ID[rule_id] = r
        return fn
    return register


# (rule ids or None, node type, child type) -> the ids whose shapes match;
# a few id tuples times the pairs of node types bound its size
_BUCKETS: dict = {}


def rules_at(sub: Term, rule_ids: Optional[tuple] = None) -> list:
    """The rules of `rule_ids`, or of the whole catalog with None, that
    `sub`'s shape matches, in that order.

    Each bucket is built once per (ids, node type, child type) and holds
    rule ids, resolved through ``RULES_BY_ID`` on every call, so a rule
    replaced there is never served stale.
    """
    node_type = type(sub)
    key = (rule_ids, node_type,
           type(sub.child) if node_type in UNARY_TYPES else None)
    ids = _BUCKETS.get(key)
    if ids is None:
        pool = rule_ids if rule_ids is not None \
            else [r.rule_id for r in CATALOG]
        ids = _BUCKETS[key] = tuple(
            i for i in pool if RULES_BY_ID[i].matches(sub))
    return [RULES_BY_ID[i] for i in ids] if ids else []


def _aliases(targets):
    return frozenset(a for _, a in targets)


def _sources(targets):
    return frozenset(s for s, _ in targets)


def _not_empty(col: str) -> Pred:
    return Cmp("!=", Col(col), Lit(()))


############################################################
# commutation tests, all from ``footprint``
############################################################

def _swap(upper: Term, lower: Term) -> Optional[Term]:
    """upper(lower(X)) -> lower(upper(X)) when neither writes or consumes a
    column the other reads, writes or consumes."""
    ur, uw, uc = footprint(upper)
    lr, lw, lc = footprint(lower)
    if (uw | uc) & (lr | lw | lc) or (lw | lc) & (ur | uw | uc):
        return None
    return with_children(lower, (with_children(upper, (lower.child,)),))


def _push_below_join(sub: Term, ctx) -> Optional[Term]:
    """Move unary `sub` onto the side of the join below it that holds every
    column it reads, left first, when it writes nothing the other side has
    and consumes no join key."""
    join = sub.child
    reads, writes, consumes = footprint(sub)
    lcols = ctx.schema_of(join.left).columns
    rcols = ctx.schema_of(join.right).columns
    if consumes & lcols & rcols:
        return None  # consuming a join key changes the join
    if reads <= lcols and not writes & rcols:
        return Join(with_children(sub, (join.left,)), join.right)
    if reads <= rcols and not writes & lcols:
        return Join(join.left, with_children(sub, (join.right,)))
    return None


def _pull_above_join(join: Join, kind: type, ctx) -> Optional[Term]:
    """Lift a `kind` operator from under either side of `join`, left first,
    when it writes and consumes nothing the other side has."""
    for i, (op, other) in enumerate(((join.left, join.right),
                                     (join.right, join.left))):
        if not isinstance(op, kind):
            continue
        _, writes, consumes = footprint(op)
        moved = writes | consumes
        if moved and moved & ctx.schema_of(other).columns:
            continue
        kids = (op.child, other) if i == 0 else (other, op.child)
        return with_children(op, (Join(*kids),))
    return None


############################################################
# filters vs array operators (R1, R2.x)
############################################################

@_rule("R1", "cost", "commute adjacent filters", (Filter, Filter))
def r1(sub, ctx):
    return _swap(sub, sub.child)


@_rule("R2.1", "rule", "push filter below arrayJoin (alias-independent)",
       (Filter, ArrayJoin))
def r2_1(sub, ctx):
    return _swap(sub, sub.child)


@_rule("R2.2", "rule", "filter on unnested elements becomes arrayFilter",
       (Filter, ArrayJoin))
def r2_2(sub, ctx):
    mu = sub.child
    aliases = _aliases(mu.targets)
    if not pred_columns(sub.pred) <= aliases:
        return None
    phi = ArrayFilter(mu.targets, sub.pred, mu.child)
    return ArrayJoin(tuple((a, a) for _, a in mu.targets), phi)


@_rule("R2.3", "cost", "prune empty arrays before arrayJoin",
       (ArrayJoin, None))
def r2_3(sub, ctx):
    return ArrayJoin(sub.targets,
                     Filter(_not_empty(sub.targets[0][0]), sub.child))


@_rule("R2.4", "rule", "fuse stacked arrayFilters over one target set",
       (ArrayFilter, ArrayFilter))
def r2_4(sub, ctx):
    """phi[t2 | p2](phi[t1 | p1](X)), where t2's sources are t1's aliases,
    -> phi[(s, t2(a)) for (s, a) in t1 | p1 renamed through t2, then p2](X).

    An index survives the stack exactly when it passes both predicates, so
    one pass keeps the same elements.  The schema cannot change: an inner
    alias that is a column of X is one of X's sources (``node_schema``
    rejects an alias that shadows a surviving column), so the fused filter
    drops what the stack drops.
    """
    inner = sub.child
    if _sources(sub.targets) != _aliases(inner.targets):
        return None
    renamed = dict(sub.targets)
    pred = conjoin(split_conjuncts(rename_columns(inner.pred, renamed))
                   + split_conjuncts(sub.pred))
    return ArrayFilter(tuple((s, renamed[a]) for s, a in inner.targets),
                       pred, inner.child)


############################################################
# projections (R3, R9, R14)
############################################################

@_rule("R3", "rule", "push projection below filter", (Project, Filter))
def r3(sub, ctx):
    f = sub.child
    if not pred_columns(f.pred) <= set(sub.cols):
        return None
    return Filter(f.pred, Project(sub.cols, f.child))


@_rule("R9", "rule", "split projection across a join", (Project, Join))
def r9(sub, ctx):
    join = sub.child
    lsch = ctx.schema_of(join.left)
    rsch = ctx.schema_of(join.right)
    shared = lsch.columns & rsch.columns
    keep = frozenset(sub.cols)
    if not shared <= keep:
        return None
    lcols = tuple(sorted(keep & lsch.columns))
    rcols = tuple(sorted(keep & rsch.columns))
    if frozenset(lcols) == lsch.columns and frozenset(rcols) == rsch.columns:
        return None  # nothing to trim
    return Join(Project(lcols, join.left), Project(rcols, join.right))


@_rule("R14", "rule", "push projection below derive / drop dead derive",
       (Project, Derive))
def r14(sub, ctx):
    d = sub.child
    keep = frozenset(sub.cols)
    if d.output not in keep:
        return Project(sub.cols, d.child)           # derive result unused
    if not set(d.args) <= keep:
        return None
    inner = tuple(sorted((keep - {d.output}) | set(d.args)))
    if frozenset(inner) >= ctx.schema_of(d.child).columns:
        return None  # nothing to trim: inserting would be a no-op forever
    return Project(sub.cols,
                   Derive(d.output, d.fn, d.args, Project(inner, d.child),
                          d.is_map))


############################################################
# operators vs join (R4.x, R6, R7, R8, R10.x)
############################################################

def _side_schemas(ctx, join):
    return ctx.schema_of(join.left), ctx.schema_of(join.right)


@_rule("R4.1", "cost", "push arrayJoin below join (one-sided targets)",
       (ArrayJoin, Join))
def r4_1(sub, ctx):
    return _push_below_join(sub, ctx)


@_rule("R4.2", "cost", "split cross-relation coordinated arrayJoin by index",
       (ArrayJoin, Join))
def r4_2(sub, ctx):
    join = sub.child
    lsch, rsch = _side_schemas(ctx, join)
    shared = lsch.columns & rsch.columns
    srcs = _sources(sub.targets)
    if srcs & shared:
        return None
    left_t = tuple(t for t in sub.targets if t[0] in lsch.arrays)
    right_t = tuple(t for t in sub.targets if t[0] in rsch.arrays)
    if not left_t or not right_t:
        return None                        # single-sided: R4.1 territory
    if not ctx.corresponding(srcs):
        return None                        # lengths not promised equal
    if _aliases(left_t) & rsch.columns or _aliases(right_t) & lsch.columns:
        return None
    out_schema = ctx.schema_of(sub)
    idx = ctx.fresh("__idx_")

    def indexed(side_term, side_targets):
        first_src = side_targets[0][0]
        enum = Derive(idx, ScalarFn.of("arrayEnumerate"), (first_src,),
                      side_term)
        return ArrayJoin(side_targets + ((idx, idx),), enum)

    joined = Join(indexed(join.left, left_t), indexed(join.right, right_t))
    return Project(tuple(sorted(out_schema.columns)), joined)


@_rule("R6", "rule", "push filter below join", (Filter, Join))
def r6(sub, ctx):
    return _push_below_join(sub, ctx)


@_rule("R7", "cost", "pull filter above join", (Join, None))
def r7(sub, ctx):
    return _pull_above_join(sub, Filter, ctx)


@_rule("R8", "rule", "push derive below join", (Derive, Join))
def r8(sub, ctx):
    return _push_below_join(sub, ctx)


@_rule("R10.1", "cost", "push arrayFilter below join", (ArrayFilter, Join))
def r10_1(sub, ctx):
    return _push_below_join(sub, ctx)


@_rule("R10.2", "cost", "pull arrayFilter above join", (Join, None))
def r10_2(sub, ctx):
    return _pull_above_join(sub, ArrayFilter, ctx)


@_rule("R10.3", "cost", "split stacked independent arrayFilters across a join",
       (ArrayFilter, ArrayFilter))
def r10_3(sub, ctx):
    if not (len(sub.targets) == 1 and len(sub.child.targets) == 1
            and isinstance(sub.child.child, Join)):
        return None
    outer, inner = sub, sub.child
    join = inner.child
    lsch, rsch = _side_schemas(ctx, join)
    shared = lsch.columns & rsch.columns
    src_o, alias_o = outer.targets[0]
    src_i, alias_i = inner.targets[0]
    if {src_o, src_i} & shared:
        return None
    if ctx.corresponding((src_o, src_i)):
        return None  # declared corresponding: element positions are coupled
    for first, second in ((outer, inner), (inner, outer)):
        fs, fa = first.targets[0]
        ss, sa = second.targets[0]
        if fs in lsch.arrays and ss in rsch.arrays and \
                not {fa} & rsch.columns and not {sa} & lsch.columns:
            return Join(ArrayFilter(first.targets, first.pred, join.left),
                        ArrayFilter(second.targets, second.pred, join.right))
    return None


############################################################
# derive vs array operators (R5.x, R11.x, R12, R13.x)
############################################################

@_rule("R5.1", "rule", "push scalar derive below arrayJoin",
       (Derive, ArrayJoin))
def r5_1(sub, ctx):
    return None if sub.is_map else _swap(sub, sub.child)


@_rule("R5.2", "cost", "derive on unnested element becomes arrayMap below",
       (Derive, ArrayJoin))
def r5_2(sub, ctx):
    if sub.is_map:
        return None
    mu = sub.child
    als = _aliases(mu.targets)
    alias_args = [c for c in sub.args if c in als]
    if len(alias_args) != 1 or sub.fn.name in ARRAY_ARG_FNS:
        return None
    below = ctx.schema_of(mu.child)
    y = sub.output
    if y in below.columns or y in als or y in _sources(mu.targets):
        return None
    if any(c not in below.scalars for c in sub.args if c not in als):
        return None
    src_by_alias = {a: s for s, a in mu.targets}
    mapped_args = tuple(src_by_alias.get(c, c) for c in sub.args)
    inner = Derive(y, sub.fn, mapped_args, mu.child, is_map=True)
    return ArrayJoin(mu.targets + ((y, y),), inner)


@_rule("R11.1", "cost", "commute independent arrayFilter and map derive",
       (ArrayFilter, Derive), (Derive, ArrayFilter))
def r11_1(sub, ctx):
    # in either shape the derive is the one of the pair with ``is_map``
    if getattr(sub, "is_map", False) or getattr(sub.child, "is_map", False):
        return _swap(sub, sub.child)
    return None


@_rule("R11.2", "rule", "rewind arrayFilter through an invertible map",
       (ArrayFilter, Derive))
def r11_2(sub, ctx):
    if not (len(sub.targets) == 1 and sub.child.is_map
            and len(sub.child.args) == 1):
        return None
    d = sub.child
    src_arr, out_alias = sub.targets[0]
    if src_arr != d.output:
        return None
    if affine_form(d.fn) is None:
        return None
    below = ctx.schema_of(d.child)
    if out_alias in below.columns:
        return None
    out_cols = tuple(sorted(ctx.schema_of(sub).columns))
    g = ctx.fresh("__inv_")
    inverted = invert_pred_through_fn(sub.pred, d.fn, source=g,
                                      output=out_alias)
    if inverted is None:
        return None
    copied = Derive(g, ScalarFn.of("identity"), (d.args[0],), d.child)
    filtered = ArrayFilter(((g, g),), inverted, copied)
    remapped = Derive(out_alias, d.fn, (g,), filtered, is_map=True)
    return Project(out_cols, remapped)


@_rule("R12", "cost", "commute independent arrayJoins", (ArrayJoin, ArrayJoin))
def r12(sub, ctx):
    return _swap(sub, sub.child)


@_rule("R13.1", "rule", "push filter below independent derive",
       (Filter, Derive))
def r13_1(sub, ctx):
    return _swap(sub, sub.child)


@_rule("R13.2", "rule", "invert filter through an affine derive",
       (Filter, Derive))
def r13_2(sub, ctx):
    d = sub.child
    if d.is_map or len(d.args) != 1:
        return None
    if pred_columns(sub.pred) != {d.output}:
        return None
    inverted = invert_pred_through_fn(sub.pred, d.fn, source=d.args[0],
                                      output=d.output)
    if inverted is None:
        return None
    return Derive(d.output, d.fn, d.args, Filter(inverted, d.child), d.is_map)


############################################################
# aggregates (R15, R16, R17.x, R18-R21)
############################################################

@_rule("R15", "cost", "push filter on group keys below aggregate",
       (Filter, Aggregate))
def r15(sub, ctx):
    return _swap(sub, sub.child)


def _split_aggs(aggs, fresh, sources=None, unnest=False):
    """Split aggregate specs into a partial and a final stage, each spec
    by its ``SPLITS`` pairs.

    Returns (partial, final, finishers, elements).  With `sources`, a map
    from each argument to the array it was unnested from, the partial
    specs are the ForEach forms over those arrays.  With `unnest`, each
    partial result is unnested again between the stages: `elements` lists
    the (partial, element) column pairs, and the final specs read the
    elements.  A spec with one pair keeps its alias at the final stage;
    an avg gets two scratch columns there, and a finisher (alias,
    sum_col, count_col) that divides them.  Names are drawn per spec:
    partials, then elements, then the scratch pair.  None, before any
    name is drawn, when a spec has no split or, with `sources`, no
    ForEach form.
    """
    if any(s.fn not in SPLITS for s in aggs):
        return None
    if sources is not None and any(f"{p}ForEach" not in FOREACH_AGGS
                                   for s in aggs for p, _ in SPLITS[s.fn]):
        return None
    partial, final, finishers, elements = [], [], [], []
    for spec in aggs:
        pairs = SPLITS[spec.fn]
        arg = spec.arg if sources is None else sources[spec.arg]
        cols = [fresh("__p") for _ in pairs]
        partial += [AggSpec(p if sources is None else f"{p}ForEach", arg, c)
                    for (p, _), c in zip(pairs, cols)]
        if unnest:
            elems = [fresh("__p") for _ in pairs]
            elements += zip(cols, elems)
            cols = elems
        outs = [spec.alias] if len(pairs) == 1 \
            else [fresh("__p") for _ in pairs]
        final += [AggSpec(f, c, out)
                  for (_, f), c, out in zip(pairs, cols, outs)]
        if len(pairs) > 1:
            finishers.append((spec.alias, *outs))
    return partial, final, finishers, tuple(elements)


def _finish(term, sub, finishers, project):
    """Apply avg finishers, then, with `project`, project `term` onto the
    keys and aliases of `sub`, dropping the scratch columns."""
    for alias, fs, fc in finishers:
        term = Derive(alias, ScalarFn.of("div"), (fs, fc), term)
    if project:
        cols = set(sub.keys) | {s.alias for s in sub.aggs}
        term = Project(tuple(sorted(cols)), term)
    return term


def _preaggregate(sub, ctx, keys, below, place, sources=None, unnest=False):
    """Eager aggregation of the Aggregate `sub`: a partial aggregate of
    `below`, grouped by `keys`, that ``place(partial, elements)`` puts
    under a final aggregate grouped as `sub` is, followed by the avg
    finishers (``_split_aggs`` explains `sources`, `unnest` and
    `elements`).  None where ``_split_aggs`` returns None."""
    split = _split_aggs(sub.aggs, ctx.fresh, sources, unnest)
    if split is None:
        return None
    partial, final, finishers, elements = split
    inner = Aggregate(tuple(sorted(keys)), tuple(partial), below)
    outer = Aggregate(sub.keys, tuple(final), place(inner, elements))
    return _finish(outer, sub, finishers, bool(finishers))


def _eager_join_agg(sub, ctx, *, require_distinct, local_keys):
    """Shared skeleton of R16 / R18 / R21: partial-aggregate one join side.

    ``local_keys`` selects between the variant whose group keys live entirely
    on the aggregated side (True), the variant where they spill onto the
    other side (False), or either (None, used for distinct).
    """
    join = sub.child
    lsch, rsch = _side_schemas(ctx, join)
    shared = lsch.columns & rsch.columns
    fns = {s.fn for s in sub.aggs}
    if not sub.aggs:
        return None
    if require_distinct and fns != {"distinct"}:
        return None
    if not require_distinct and "distinct" in fns:
        return None
    for side_schema, side_term, mk in (
        (lsch, join.left, lambda inner, _: Join(inner, join.right)),
        (rsch, join.right, lambda inner, _: Join(join.left, inner)),
    ):
        args = {s.arg for s in sub.aggs}
        if not args <= side_schema.columns - shared:
            continue
        keys = set(sub.keys)
        if local_keys is not None and local_keys != \
                (keys <= side_schema.columns):
            continue
        # a spec that does not split fails on either side alike
        return _preaggregate(sub, ctx, (keys & side_schema.columns) | shared,
                             side_term, mk)
    return None


@_rule("R16", "cost", "push distinct aggregation below join",
       (Aggregate, Join))
def r16(sub, ctx):
    return _eager_join_agg(sub, ctx, require_distinct=True, local_keys=None)


@_rule("R18", "cost", "push fully one-sided aggregation below join",
       (Aggregate, Join))
def r18(sub, ctx):
    return _eager_join_agg(sub, ctx, require_distinct=False, local_keys=True)


@_rule("R21", "cost", "eager partial aggregation below join (keys spill over)",
       (Aggregate, Join))
def r21(sub, ctx):
    return _eager_join_agg(sub, ctx, require_distinct=False, local_keys=False)


@_rule("R19", "cost", "pre-count one join side, scale the other's aggregates",
       (Aggregate, Join))
def r19(sub, ctx):
    join = sub.child
    lsch, rsch = _side_schemas(ctx, join)
    shared = lsch.columns & rsch.columns
    if not sub.aggs or not shared:
        return None
    if not {s.fn for s in sub.aggs} <= {"sum", "min", "max"}:
        return None
    for agg_schema, mk in (
        (lsch, lambda counted: Join(join.left, counted)),
        (rsch, lambda counted: Join(counted, join.right)),
    ):
        args = {s.arg for s in sub.aggs}
        if not args <= agg_schema.columns - shared:
            continue
        if not set(sub.keys) <= agg_schema.columns | shared:
            continue
        one = ctx.fresh("__p")
        cnt = ctx.fresh("__p")
        cnt_side = join.right if agg_schema is lsch else join.left
        counted = Aggregate(tuple(sorted(shared)),
                            (AggSpec("count", one, cnt),),
                            Derive(one, ScalarFn.of("const", value=1), (),
                                   cnt_side))
        joined = mk(counted)
        specs = []
        for spec in sub.aggs:
            if spec.fn == "sum":
                w = ctx.fresh("__p")
                joined = Derive(w, ScalarFn.of("mul"), (spec.arg, cnt), joined)
                specs.append(AggSpec("sum", w, spec.alias))
            else:
                specs.append(spec)
        return Aggregate(sub.keys, tuple(specs), joined)
    return None


@_rule("R17.1", "cost", "aggregate over unnested elements without unnesting",
       (Aggregate, ArrayJoin))
def r17_1(sub, ctx):
    mu = sub.child
    als = _aliases(mu.targets)
    if not sub.aggs or set(sub.keys) & als:
        return None
    if not {s.arg for s in sub.aggs} <= als:
        return None
    split = _split_aggs(sub.aggs, ctx.fresh, {a: s for s, a in mu.targets})
    if split is None:
        return None
    partial, final, finishers, _ = split
    inner = Aggregate(sub.keys, tuple(partial), mu.child)
    term: Term = Filter(_not_empty(partial[0].alias), inner)
    for spec in final:
        # each final stage folds its partial array: sum -> arraySum, ...
        term = Derive(spec.alias, ScalarFn.of("array" + spec.fn.capitalize()),
                      (spec.arg,), term)
    return _finish(term, sub, finishers, True)


@_rule("R17.2", "cost", "group by unnested element: pre-aggregate per array",
       (Aggregate, ArrayJoin))
def r17_2(sub, ctx):
    mu = sub.child
    als = _aliases(mu.targets)
    key_aliases = [k for k in sub.keys if k in als]
    if len(key_aliases) != 1 or not sub.aggs:
        return None
    if {s.arg for s in sub.aggs} & als:
        return None  # aggregating another element: R17.3's shape
    if "distinct" in {s.fn for s in sub.aggs}:
        return None  # R16 alone pushes distinct
    a = key_aliases[0]
    src = {al: s for s, al in mu.targets}[a]
    return _preaggregate(sub, ctx, set(sub.keys) - {a} | {src}, mu.child,
                         lambda inner, _: ArrayJoin(((src, a),), inner))


@_rule("R17.3", "cost", "group by one element, aggregate its corresponding one",
       (Aggregate, ArrayJoin))
def r17_3(sub, ctx):
    mu = sub.child
    als = _aliases(mu.targets)
    key_aliases = [k for k in sub.keys if k in als]
    if len(key_aliases) != 1 or not sub.aggs:
        return None
    a1 = key_aliases[0]
    if not {s.arg for s in sub.aggs} <= als - {a1}:
        return None
    src_by_alias = {al: s for s, al in mu.targets}
    a1_src = src_by_alias[a1]
    return _preaggregate(
        sub, ctx, set(sub.keys) - {a1} | {a1_src}, mu.child,
        lambda inner, elements: ArrayJoin(((a1_src, a1),) + elements, inner),
        sources=src_by_alias, unnest=True)


@_rule("R20", "cost", "pre-aggregate below arrayJoin (alias-independent)",
       (Aggregate, ArrayJoin))
def r20(sub, ctx):
    mu = sub.child
    als = _aliases(mu.targets)
    if not sub.aggs or set(sub.keys) & als or {s.arg for s in sub.aggs} & als:
        return None
    if "distinct" in {s.fn for s in sub.aggs}:
        return None  # R16 alone pushes distinct
    return _preaggregate(sub, ctx, set(sub.keys) | _sources(mu.targets),
                         mu.child, lambda inner, _: ArrayJoin(mu.targets, inner))


############################################################
# engine
############################################################

def _attempt(rule: Rule, sub: Term, ctx: RuleContext) -> Optional[Term]:
    """Call `rule` on `sub`, counting one attempt in ``ctx.rule_counts``;
    the rewrite, or None when the rule does not match or changes nothing.
    A node outside the rule's shapes is neither attempted nor counted."""
    if not rule.matches(sub):
        return None
    counts = ctx.rule_counts.get(rule.rule_id)
    if counts is None:
        counts = ctx.rule_counts[rule.rule_id] = [0, 0]
    counts[0] += 1
    ctx._used = None  # the names an earlier attempt handed out are free
    new_sub = rule.fn(sub, ctx)
    if new_sub is None or new_sub == sub:
        return None
    return new_sub


def _check_schema(rule: Rule, path: tuple, before: Schema, after: Schema):
    if before != after:
        raise RewriteError(
            f"{rule.rule_id} changed the schema at {path}: "
            f"{sorted(before.columns)} -> {sorted(after.columns)}")


def try_apply(rule: Rule, path: tuple, sub: Term,
              ctx: RuleContext) -> Optional[Term]:
    """Apply `rule` to `sub`, the subterm at `path` of the root bound to
    `ctx`, verifying schema preservation.

    Both schemas come from ``ctx.schema_of``.  Within a
    ``rewrite_to_fixpoint`` call its memo keeps every schema it has
    inferred, so the subterms the rewrite kept are read, not inferred
    again.  Returns the rewritten subterm, or None when the rule doesn't
    match there; the caller splices it in.
    """
    new_sub = _attempt(rule, sub, ctx)
    if new_sub is None:
        return None
    _check_schema(rule, path, ctx.schema_of(sub), ctx.schema_of(new_sub))
    return new_sub


GUARD_EPSILON = 1e-9  # the root-cost saving a guard must exceed; >= 0


def guard_cost_improves(rule: Rule, path: tuple, sub: Term,
                        ctx: RuleContext) -> Optional[Term]:
    """Apply a cost-based rule to `sub`, the subterm at `path` of the root
    bound to `ctx`, only when it lowers the root's cost under
    ``ctx.cost_model`` by more than ``GUARD_EPSILON``; the rewritten
    subterm or None, as ``try_apply``.

    Every fold of an attempt reads and fills one table of results
    (``CostModel.fold``): ``ctx.results`` in a ``bottom-up`` or ``sweep``
    round, else a dict for this attempt.  Where the table does not hold
    `sub`, the attempt marks `sub`, its children and its grandchildren,
    where a pairwise rewrite keeps its nodes, so folding `sub` records
    them; in a round, that starts the round's own folds (``_fold_round``).
    The rewrite is folded reading them, and the schemas are then checked
    as in ``try_apply``, with the same error.

    A rewrite that leaves `sub`'s plan state as it was and is not cheaper
    than `sub` is rejected without costing any ancestor.  This is exact:
    every node above `path` reads only the state below it, so it adds the
    same costs to both roots, in the same order; float addition is
    monotone, so the new root's cost is not below the old root's, and
    ``new < old - GUARD_EPSILON`` cannot hold.  In every other case the
    guard reads the root (``ctx.root``), builds the new one and folds both
    through the table, the new one with the rewrite's result injected for
    as long as its fold lasts.
    """
    new_sub = _attempt(rule, sub, ctx)
    if new_sub is None:
        return None
    fold = ctx.cost_model.fold
    known = {} if ctx.results is None else ctx.results
    if id(sub) not in known:
        known[id(sub)] = None
        for kid in children(sub):
            known[id(kid)] = None
            known.update(dict.fromkeys(map(id, children(kid))))
    old = fold(sub, known)
    new = fold(new_sub, known)
    _check_schema(rule, path, old[2], new[2])
    if new[0] >= old[0] and new[1] == old[1]:
        return None
    root = ctx.root()
    old_cost = fold(root, known)[0]
    key = id(new_sub)
    injected = key not in known  # else the rewrite is a held node
    if injected:
        known[key] = new
    new_cost = fold(replace_at(root, path, new_sub), known)[0]
    if injected:
        del known[key]
    if new_cost < old_cost - GUARD_EPSILON:
        return new_sub
    return None


def first_rewrite(rule_ids: Optional[tuple], path: tuple, sub: Term,
                  ctx: RuleContext,
                  accept: Optional[Callable] = None) -> Optional[tuple]:
    """``(rule_id, new_sub)`` of the first of ``rules_at(sub, rule_ids)``
    that rewrites `sub`, the subterm at `path` of the root bound to `ctx`:
    a ``rule``-kind rule through ``try_apply``, a ``cost`` one through
    ``guard_cost_improves``.  With `accept`, a rewrite counts only when
    ``accept(new_root)`` takes the root it makes, which is built for it."""
    for rule in rules_at(sub, rule_ids):
        apply = try_apply if rule.kind == "rule" else guard_cost_improves
        new = apply(rule, path, sub, ctx)
        if new is not None and (
                accept is None or accept(replace_at(ctx.root(), path, new))):
            return rule.rule_id, new
    return None

############################################################
# fixpoint driver
############################################################

def trace_record(ctx: RuleContext, stage: str, rule_id: str, path,
                 before_cost: float, after_cost: float) -> None:
    """Append one rewrite to ``ctx.trace``: stage, rule, path and the
    estimated cost of the root before and after it.  Callers cost the
    roots, and only when tracing (``ctx.trace`` is not None)."""
    ctx.trace.append({"stage": stage, "rule": rule_id, "path": list(path),
                      "before_cost": before_cost, "after_cost": after_cost})


POLICIES = ("bottom-up", "sweep", "resume")


def rewrite_to_fixpoint(term: Term, step: Callable, stage: str,
                        ctx: RuleContext, policy: str,
                        cap: Optional[int] = None) -> Term:
    """Rewrite `term` in rounds until `step` matches nowhere.

    A round calls ``step(path, sub)`` at nodes of the root, which it binds
    to `ctx` (``RuleContext.bind_root``); `step` returns
    ``(rule_id, new_sub)``, the subterm to put in `sub`'s place, or None,
    and this driver splices the hit in.  The hit a round fires is traced
    under `stage` (``trace_record``), counted as a fire of a catalog rule
    in ``ctx.rule_counts``, and the root it makes is the next round's.  A
    traced call costs each root once: a record's cost after is the next
    record's cost before.  With `cap`, rewrite number ``cap + 1`` raises
    `FixpointCapError`, whose message names `stage`, instead.
    `policy` picks the rounds:

    ``bottom-up``  children before their parents (the reverse of preorder);
                   the first hit fires.  From the visit after a cost
                   guard first marks its subterm in ``ctx.results``
                   (``guard_cost_improves``), each node is folded from its
                   children's results into ``ctx.results`` before `step`
                   runs; until then the round folds nothing.  A node's
                   result is kept only until its grandparent has been
                   visited: a pairwise rewrite at `sub` keeps nodes at
                   most two levels down, so `sub` and the nodes it keeps
                   are held, and a deeper kept node is folded as it would
                   be without the round.  The round thus holds, besides
                   the visited node, its children and grandchildren, only
                   each finished subtree's root and that root's children.
    ``sweep``      as ``bottom-up``, but every node is visited and the hit
                   first in preorder fires: the fixpoint of top-down rounds
                   for a step that may read the whole root, as a cost guard
                   does.  Every attempt of a round is judged against the
                   same root, so the order of the visits cannot change
                   which hit comes first in preorder.
    ``resume``     preorder, the first hit fires, and the next round
                   resumes from the parent of the rewritten path instead of
                   the root.  This is exact for a step that decides from a
                   node's own fields, its children's fields and the schemas
                   of its children and grandchildren: a rewrite keeps the
                   schema of every subterm that contains its path, so every
                   node before the parent in preorder sees what it saw when
                   it missed.

    ``bottom-up`` and ``sweep`` rounds hold their root and splice a hit
    with ``replace_at``.  ``resume`` rounds walk one ``_Zipper``: a hit
    rebuilds only its parent, the round goes on from there, and each
    ancestor above is rebuilt once, as the walk climbs back past it.  The
    walk keeps no replaced subterm alive, and the root is built only where
    it is read (``ctx.root``): by a fresh name or a trace record.

    In rounds of every policy, ``ctx.schema_of`` reads and fills one
    schema memo that lasts for this call, so a schema inferred once is
    read again in later rounds for as long as its node lives, and a hit
    infers only the nodes it creates.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of "
                         f"{POLICIES}")
    held = policy != "resume"
    walker = None if held else _Zipper(term)
    ctx.bind_root(term if held else walker.root)
    ctx._memo = {}
    ctx.results = {} if held else None
    rewrites, before = 0, None  # before: the root's traced cost
    try:
        while True:
            if held:
                hit = _fold_round(term, step, ctx, policy == "bottom-up")
            else:
                hit = _walk_round(walker, step)
            if hit is None:
                return term if held else walker.root()
            path, (rule_id, new) = hit
            rewrites += 1
            if cap is not None and rewrites > cap:
                raise FixpointCapError(f"{stage}: no fixpoint after {cap} "
                                       f"rewrites (last rule {rule_id})")
            counts = ctx.rule_counts.get(rule_id)
            if counts is not None:
                counts[1] += 1
            if ctx.trace is not None and before is None:
                before = ctx.cost_model.term_cost(term).cost
            if held:
                term = replace_at(term, path, new)
                ctx.bind_root(term)
            else:
                walker.rewrite(new)
            if ctx.trace is not None:
                root = term if held else walker.root()
                after = ctx.cost_model.term_cost(root).cost
                trace_record(ctx, stage, rule_id, path, before, after)
                before = after
    finally:
        ctx.results = ctx._memo = None


def _walk_round(walker: "_Zipper", step: Callable) -> Optional[tuple]:
    """One ``resume`` round: ``(path, hit)`` of the first node from
    `walker`'s focus on, in preorder, where `step` hits, with the focus
    left there; None when the walk ends."""
    while True:
        hit = step(walker.path, walker.focus)
        if hit is not None:
            return walker.path, hit
        if not walker.next():
            return None


def _fold_round(root: Term, step: Callable, ctx: RuleContext,
                first: bool) -> Optional[tuple]:
    """One round of ``bottom-up`` (`first`) or ``sweep``: ``(path, hit)``
    of the first hit visited, or of the last one, which is first in
    preorder.  Until a guard marks a node in ``ctx.results`` the round
    folds nothing; no visit empties the table again."""
    results, fold = ctx.results, ctx.cost_model.fold
    found = None
    for path, sub in reversed(list(walk(root))):
        if results:
            results[id(sub)] = None
            fold(sub, results)
        hit = step(path, sub)
        if hit is not None:
            found = path, hit
            if first:
                break
        if results:
            for kid in children(sub):
                for grandkid in children(kid):
                    results.pop(id(grandkid), None)
    results.clear()  # the old root's nodes may be freed
    return found


# what a frame of a ``_Zipper`` holds in place of the child on the walk's
# path once a rewrite below has replaced it
_HOLE = RelVar("")


def _put(node: Term, i: int, kid: Term) -> Term:
    """`node` with `kid` as its child `i`: `node` itself when that child
    already is `kid`, else a rebuilt node."""
    kids = children(node)
    if kids[i] is kid:
        return node
    return with_children(node, (kid,) + kids[1:] if i == 0
                         else kids[:1] + (kid,))


class _Zipper:
    """A term walked in preorder, held as its focus and the path up to the
    root (Huet, "The Zipper", 1997).  The path is a stack of frames, root
    first, one ``(node, i)`` per ancestor of the focus, where the focus
    lies below the node's child `i`.

    ``next`` moves the focus and builds nothing while nothing changed.
    ``rewrite`` replaces the focus and rebuilds only the node above it.
    Each ancestor left on the stack is rebuilt once, when ``next`` climbs
    back past it, and ``root`` builds the spine above the focus only when
    it is read.

    Memory: no frame may keep a replaced subterm alive, and a frame's node
    holds its child `i` as it was when the frame was pushed.  So
    ``rewrite`` holes the node of every frame pushed since the last
    rewrite (its child `i` becomes ``_HOLE``), and ``next`` fills a hole as
    it climbs.  The frames below index ``_holed`` hold holed nodes; in
    each frame above it, the node's child `i` is the next frame's node, or
    the focus.
    """

    __slots__ = ("focus", "path", "_frames", "_holed", "_root")

    def __init__(self, term: Term):
        self.focus = term
        self.path = ()
        self._frames = []
        self._holed = 0
        self._root = term  # None until built again after a rewrite

    def root(self) -> Term:
        """The whole term, the focus in its place."""
        if self._root is None:
            node = self.focus
            for parent, i in reversed(self._frames):
                node = _put(parent, i, node)
            self._root = node
        return self._root

    def next(self) -> bool:
        """Move the focus to the next node in preorder; False when the
        walk is over, with the focus at the root."""
        node, frames = self.focus, self._frames
        if not isinstance(node, RelVar):
            frames.append((node, 0))
            self.focus = node.left if isinstance(node, Join) else node.child
            self.path += (0,)
            return True
        path = self.path
        while frames:
            parent, i = frames.pop()
            path = path[:-1]
            if len(frames) < self._holed:
                self._holed = len(frames)
                node = _put(parent, i, node)
            else:
                node = parent  # its child `i` is `node`
            if i == 0 and isinstance(node, Join):
                frames.append((node, 1))
                self.focus, self.path = node.right, path + (1,)
                return True
        self.focus, self.path, self._root = node, (), node
        return False

    def rewrite(self, new: Term) -> None:
        """Replace the focus with `new`, then move the focus to its parent,
        where the next round starts."""
        frames, node, path = self._frames, new, self.path
        if frames:
            parent, i = frames.pop()
            node = _put(parent, i, node)
            path = path[:-1]
        for k in range(self._holed, len(frames)):
            parent, i = frames[k]
            frames[k] = (_put(parent, i, _HOLE), i)
        self._holed = len(frames)
        self.focus, self.path = node, path
        self._root = None if frames else node
