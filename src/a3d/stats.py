"""Column statistics, selectivity estimation, and the plan cost model.

The cost model is deliberately simple and *order-independent*: every operator
is a multiplicative machine over a small plan state (row estimate plus
per-array average lengths).  Filters scale rows; arrayFilters scale target
lengths; arrayJoins multiply rows by a length; aggregates scale rows by a
constant group selectivity derived from base statistics.  A join multiplies
its inputs' rows over a divisor that is symmetric in them, and a shared key
takes the statistics of the input with fewer distinct values, whichever side
it is on (``CostModel.join_effect``).  Because each effect is a constant
factor, the state after joining a set of relations and applying a set of
operators does not depend on the order they were joined and applied in, up
to the float rounding of the order the row products associate in (at most
1e-12 relative) — which is exactly what makes memoized enumeration with one
plan per (relation set, operator set) sound, and what lets the enumerator,
the exhaustive oracle, and ``term_cost`` share one model.

One exception is known.  An operator that reads a join key estimates from
the key's statistics where it runs: below the join they are its own
input's, above it the input's with fewer distinct values.  A filter on the
key then keeps a different share of the rows below the join than above it,
and an identity copy of the key keeps different statistics.  (An emptiness
test and its negation, ``c != []`` and ``c = []``, leave the empty fraction
of the one applied last; but they leave 0 rows in either order, so no later
cost differs.)

Statistics kinds per scalar column:

exact       value -> fraction-of-rows table (low distinct counts)
uniform     lo/hi plus distinct count, frequencies near-constant
clustered   1-D weighted k-means histogram (numeric, skewed)

Array columns carry an average length over *all* rows, the fraction of empty
arrays, and element statistics over the flattened elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .algebra import (
    Aggregate,
    ArrayFilter,
    ArrayJoin,
    Derive,
    Filter,
    Join,
    Project,
    RelVar,
    Relation,
    Schema,
    SchemaError,
    Term,
    node_schema,
)
from .functions import (
    ARRAY_ARG_FNS, affine_form, agg_output_kind, fn_output_kind, is_array,
)
from .predicates import (
    _FLIP, And, Apply, Cmp, Col, Lit, Not, Or, Pred, invert_comparison,
)

DEFAULT_EQ_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_JOIN_NDV = 10.0
DEFAULT_GROUP_NDV = 10.0
DEFAULT_ARRAY_LEN = 4.0

EXACT_NDV_LIMIT = 64
UNIFORM_CV_LIMIT = 0.1
MAX_CLUSTERS = 16


############################################################
# statistics containers
############################################################

@dataclass(frozen=True)
class ScalarStats:
    kind: str                  # "exact" | "uniform" | "clustered"
    ndv: int
    null_fraction: float
    freqs: tuple = ()          # exact: ((value, fraction_of_all_rows), ...)
    lo: object = None          # uniform/clustered bounds (numeric only)
    hi: object = None
    clusters: tuple = ()       # clustered: ((lo, hi, weight, ndv), ...)
    numeric: bool = True


@dataclass(frozen=True)
class ArrayStats:
    avg_len: float
    empty_fraction: float
    elem: Optional[ScalarStats] = None


@dataclass(frozen=True)
class TableStats:
    rows: int
    scalars: Mapping[str, ScalarStats]
    arrays: Mapping[str, ArrayStats]


############################################################
# building statistics from data
############################################################

def _weighted_kmeans_1d(values: np.ndarray, weights: np.ndarray, k: int,
                        iters: int = 50):
    """Deterministic 1-D weighted k-means: quantile init + Lloyd sweeps."""
    order = np.argsort(values, kind="stable")
    values = values[order]
    weights = weights[order]
    qs = (np.arange(k) + 0.5) / k
    cum = np.cumsum(weights)
    cum = cum / cum[-1]
    centers = np.interp(qs, cum, values)
    for _ in range(iters):
        # assign to nearest center (ties to the lower index)
        idx = np.abs(values[:, None] - centers[None, :]).argmin(axis=1)
        new_centers = centers.copy()
        for j in range(k):
            mask = idx == j
            if mask.any():
                w = weights[mask]
                new_centers[j] = float(np.average(values[mask], weights=w))
        if np.allclose(new_centers, centers):
            break
        centers = new_centers
    idx = np.abs(values[:, None] - centers[None, :]).argmin(axis=1)
    return idx


def build_scalar_stats(values: list, total_rows: int) -> ScalarStats:
    """Summarize one scalar column (counting `values`' nulls against rows)."""
    total = max(total_rows, 1)
    live = [v for v in values if v is not None]
    null_fraction = 1.0 - len(live) / total
    counts: dict = {}
    for v in live:
        counts[v] = counts.get(v, 0) + 1
    ndv = len(counts)
    numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                  for v in counts)
    if ndv == 0:
        return ScalarStats("exact", 0, null_fraction, numeric=numeric)

    if ndv <= EXACT_NDV_LIMIT:
        freqs = tuple(sorted(((v, c / total) for v, c in counts.items()),
                             key=lambda p: repr(p[0])))
        lo = min(counts) if numeric else None
        hi = max(counts) if numeric else None
        return ScalarStats("exact", ndv, null_fraction, freqs=freqs,
                           lo=lo, hi=hi, numeric=numeric)

    freq_arr = np.array(sorted(counts.values()), dtype=float)
    cv = freq_arr.std() / freq_arr.mean() if freq_arr.mean() else 0.0
    if not numeric or cv < UNIFORM_CV_LIMIT:
        # near-constant frequencies (or text): uniform summary
        lo = min(counts) if numeric else None
        hi = max(counts) if numeric else None
        return ScalarStats("uniform", ndv, null_fraction, lo=lo, hi=hi,
                           numeric=numeric)

    k = min(MAX_CLUSTERS, ndv)
    vals = np.array(sorted(counts), dtype=float)
    wts = np.array([counts[v] for v in sorted(counts)], dtype=float)
    idx = _weighted_kmeans_1d(vals, wts, k)
    clusters = []
    for j in range(k):
        mask = idx == j
        if not mask.any():
            continue
        member_vals = vals[mask]
        member_wts = wts[mask]
        clusters.append((
            float(member_vals.min()),
            float(member_vals.max()),
            float(member_wts.sum() / total),
            int(mask.sum()),
        ))
    clusters.sort()
    return ScalarStats("clustered", ndv, null_fraction,
                       lo=float(vals.min()), hi=float(vals.max()),
                       clusters=tuple(clusters), numeric=True)


def build_table_stats(relation: Relation) -> TableStats:
    rows = len(relation.rows)
    scalars = {}
    arrays = {}
    for c in relation.schema.scalars:
        scalars[c] = build_scalar_stats([r[c] for r in relation.rows], rows)
    for c in relation.schema.arrays:
        vals = [r[c] for r in relation.rows]
        if rows:
            avg_len = sum(len(v) for v in vals) / rows
            empty_fraction = sum(1 for v in vals if not v) / rows
        else:
            avg_len, empty_fraction = 0.0, 0.0
        flat = [e for v in vals for e in v]
        elem = build_scalar_stats(flat, len(flat)) if flat else None
        arrays[c] = ArrayStats(avg_len, empty_fraction, elem)
    return TableStats(rows, scalars, arrays)


############################################################
# selectivity
############################################################

def _clamp(x: float) -> float:
    return min(1.0, max(0.0, x))


def _eq_selectivity(st: Optional[ScalarStats], value) -> float:
    if value is None:
        return 0.0
    if st is None or st.ndv == 0:
        return DEFAULT_EQ_SELECTIVITY
    live = 1.0 - st.null_fraction
    if st.kind == "exact":
        for v, f in st.freqs:
            if v == value:
                return _clamp(f)
        return 0.0
    if st.kind == "uniform":
        return _clamp(live / st.ndv)
    for lo, hi, weight, ndv in st.clusters:
        if lo <= value <= hi:
            return _clamp(weight / max(ndv, 1))
    return 0.0


def _range_selectivity(st: Optional[ScalarStats], op: str, value) -> float:
    """Selectivity of  col op value  for an ordered comparison."""
    if value is None:
        return 0.0
    if st is None or st.ndv == 0 or not st.numeric or \
            not isinstance(value, (int, float)) or isinstance(value, bool):
        return DEFAULT_RANGE_SELECTIVITY
    live = 1.0 - st.null_fraction

    if st.kind == "exact":
        total = 0.0
        for v, f in st.freqs:
            if (op == "<" and v < value) or (op == "<=" and v <= value) or \
                    (op == ">" and v > value) or (op == ">=" and v >= value):
                total += f
        return _clamp(total)

    if st.kind == "uniform":
        lo, hi = st.lo, st.hi
        if lo is None or hi is None or hi == lo:
            return DEFAULT_RANGE_SELECTIVITY
        if op in ("<", "<="):
            frac = (value - lo) / (hi - lo)
        else:
            frac = (hi - value) / (hi - lo)
        return _clamp(frac) * live

    total = 0.0
    for lo, hi, weight, _ in st.clusters:
        if op in ("<", "<="):
            if hi < value or (op == "<=" and hi == value):
                total += weight
            elif lo < value < hi:
                total += weight * (value - lo) / (hi - lo)
        else:
            if lo > value or (op == ">=" and lo == value):
                total += weight
            elif lo < value < hi:
                total += weight * (hi - value) / (hi - lo)
    return _clamp(total)


def _cmp_selectivity(cmp: Cmp,
                     scalar_stats: Mapping[str, Optional[ScalarStats]],
                     array_info: Mapping[str, "ArrayInfo"]) -> float:
    op, lhs, rhs = cmp.op, cmp.lhs, cmp.rhs
    if isinstance(rhs, Col) and isinstance(lhs, Lit):
        op, lhs, rhs = _FLIP[op], rhs, lhs

    # column vs literal
    if isinstance(lhs, Col) and isinstance(rhs, Lit):
        value = rhs.value
        if is_array(value):
            if value == ():
                info = array_info.get(lhs.name)
                ef = 0.0 if info is None else info.empty_fraction
                return _clamp(ef if op == "=" else 1.0 - ef)
            return DEFAULT_EQ_SELECTIVITY if op == "=" \
                else 1.0 - DEFAULT_EQ_SELECTIVITY
        st = scalar_stats.get(lhs.name)
        if op == "=":
            return _eq_selectivity(st, value)
        if op == "!=":
            return _clamp(1.0 - _eq_selectivity(st, value))
        return _range_selectivity(st, op, value)

    # affine function of a column vs literal: estimate through the inverse
    if isinstance(lhs, Apply) and isinstance(rhs, Lit) and len(lhs.args) == 1 \
            and isinstance(lhs.args[0], Col) and not is_array(rhs.value):
        form = affine_form(lhs.fn)
        if form is not None and rhs.value is not None:
            solved = invert_comparison(op, rhs.value, form[0], form[1])
            if solved is not None:
                return _cmp_selectivity(
                    Cmp(solved[0], lhs.args[0], Lit(solved[1])),
                    scalar_stats, array_info)

    # anything else: defaults by operator shape
    if op == "=":
        return DEFAULT_EQ_SELECTIVITY
    if op == "!=":
        return 1.0 - DEFAULT_EQ_SELECTIVITY
    return DEFAULT_RANGE_SELECTIVITY


def pred_selectivity(pred: Pred,
                     scalar_stats: Mapping[str, Optional[ScalarStats]],
                     array_info: Mapping[str, "ArrayInfo"]) -> float:
    """Estimated fraction of rows satisfying `pred` (independence assumed),
    from the columns' statistics and array infos."""
    if isinstance(pred, Cmp):
        return _clamp(_cmp_selectivity(pred, scalar_stats, array_info))
    if isinstance(pred, And):
        s = 1.0
        for p in pred.parts:
            s *= pred_selectivity(p, scalar_stats, array_info)
        return _clamp(s)
    if isinstance(pred, Or):
        miss = 1.0
        for p in pred.parts:
            miss *= 1.0 - pred_selectivity(p, scalar_stats, array_info)
        return _clamp(1.0 - miss)
    if isinstance(pred, Not):
        return _clamp(1.0 - pred_selectivity(pred.part, scalar_stats,
                                             array_info))
    raise SchemaError(f"not a predicate: {pred!r}")


############################################################
# plan state and operator effects
############################################################

@dataclass(frozen=True)
class ArrayInfo:
    """What the cost state knows about one array column.

    ``length`` is the average array length with every filter applied so
    far, ``length_unf`` the same with every filter selectivity forced to 1;
    ``empty_fraction`` and ``elem`` (statistics over the elements) are
    carried from the base table or derived by the operator that made the
    column.
    """
    length: float
    length_unf: float
    empty_fraction: float
    elem: Optional[ScalarStats]


# what an array column without statistics, or a missing one, is taken to be
DEFAULT_ARRAY_INFO = ArrayInfo(DEFAULT_ARRAY_LEN, DEFAULT_ARRAY_LEN, 0.0, None)


@dataclass(frozen=True)
class PlanState:
    """Order-independent cost state: row estimates, scalar statistics and
    one ``ArrayInfo`` per array column.  It depends only on the relations
    joined and the operators applied, not on the order of either, up to
    the rounding of the row products, unless an operator reads a join key
    (module docstring); the searches keep one plan per (relations,
    operators).

    rows_unf (and each ``ArrayInfo.length_unf``) track the same quantities
    with every filter selectivity forced to 1; aggregate selectivities are
    derived from them so they stay constant no matter where filters sit.

    A state is full: its dicts hold one key per column of the schema it
    goes with, ``scalar_stats`` mapping a column without statistics to
    None.  Each operator's step (``_OP_STEPS``) hands on every dict it
    leaves unchanged, so states share their dicts and the dicts are
    read-only.
    """

    rows: float
    rows_unf: float
    scalar_stats: Mapping[str, Optional[ScalarStats]]
    array_info: Mapping[str, ArrayInfo]

    def info(self, col: str) -> ArrayInfo:
        return self.array_info.get(col, DEFAULT_ARRAY_INFO)


@dataclass(frozen=True)
class CostResult:
    cost: float
    state: PlanState
    schema: Schema


def _emptiness_test(pred: Pred):
    """``(c, empty fraction after the filter)`` for an emptiness test on
    array column `c`: 0.0 for the guard  c != [] , 1.0 for  c = [] ;
    ``(None, None)`` for any other predicate."""
    if isinstance(pred, Cmp) and pred.op in ("!=", "=") \
            and isinstance(pred.lhs, Col) and pred.rhs == Lit(()):
        return pred.lhs.name, 0.0 if pred.op == "!=" else 1.0
    return None, None


def key_ndvs(state: PlanState, keys) -> tuple:
    """The distinct count of each of `keys` in `state`, None where it is
    unknown: all that ``join_divisor`` reads of one join input."""
    out = []
    for c in keys:
        st = state.scalar_stats.get(c)
        out.append(float(st.ndv) if st is not None and st.ndv > 0 else None)
    return tuple(out)


def join_divisor(left_ndvs: tuple, right_ndvs: tuple) -> float:
    """The product, over the join keys, of the larger known distinct count
    of the two inputs (``DEFAULT_JOIN_NDV`` where neither is known), from
    each input's ``key_ndvs`` for the same keys."""
    div = 1.0
    for left, right in zip(left_ndvs, right_ndvs):
        if left is None:
            div *= DEFAULT_JOIN_NDV if right is None else right
        else:
            div *= left if right is None else max(left, right)
    return max(div, 1e-9)


def _stats_rank(st: Optional[ScalarStats]) -> tuple:
    """The order ``join_effect`` picks a shared key's statistics by: an
    unknown distinct count (``key_ndvs``) first, missing statistics first
    of all, then the lower known count, then null fraction, kind, bounds
    (None last) and numeric.

    An unknown count comes first because ``join_divisor`` divides by the
    known count alone, which takes the unknown side to have no more
    distinct values; keeping the known statistics instead would make the
    rows of three joins on one key depend on which two join first."""
    if st is None:
        return (0,)
    return (int(st.ndv > 0), st.ndv, st.null_fraction, st.kind,
            st.lo is None, st.lo, st.hi is None, st.hi, st.numeric)


def _stats_detail(st: Optional[ScalarStats]) -> tuple:
    """The fields ``_stats_rank`` leaves out, for a full tie: the
    frequencies (each value after its type name, so values of two types
    are never compared) and the clusters."""
    if st is None:
        return ()
    return (tuple((f, type(v).__name__, v) for v, f in st.freqs),
            st.clusters)


def _info_rank(info: ArrayInfo) -> tuple:
    return (info.length, info.length_unf, info.empty_fraction,
            _stats_rank(info.elem))


def _info_detail(info: ArrayInfo) -> tuple:
    return _stats_detail(info.elem)


def _lower(a, b, rank, detail):
    """Whichever of `a` and `b` comes first in the total order of `rank`,
    then of `detail` when two unequal values tie on `rank`; the same
    value for (a, b) as for (b, a)."""
    ra, rb = rank(a), rank(b)
    if ra == rb and a != b:
        ra, rb = detail(a), detail(b)
    return a if ra <= rb else b


def join_array_info(left: Mapping[str, ArrayInfo],
                    right: Mapping[str, ArrayInfo], shared) -> dict:
    """The array infos of the natural join of inputs with array infos
    `left` and `right` on the columns `shared`: each input's own, and for
    a shared array key the lower of the two (``_lower``)."""
    info = {**left, **right}
    for c in shared:
        if c in info:
            info[c] = _lower(left[c], right[c], _info_rank, _info_detail)
    return info


def join_cost(left_rows: float, right_rows: float, div: float) -> float:
    """The cost of a natural join of inputs of `left_rows` and `right_rows`
    rows under the divisor `div`: both inputs and the output.  It is the
    one expression of a join's cost; ``CostModel.join_effect`` and the
    enumerator's candidate loop both use it, so a candidate is ranked at
    exactly the cost its built join gets."""
    return left_rows + right_rows + left_rows * right_rows / div


def _derive_cost(node: Derive, rows: float,
                 array_info: Mapping[str, ArrayInfo]) -> float:
    arr_args = [c for c in node.args if c in array_info]
    fn = node.fn.name
    if node.is_map or (arr_args and (fn in ARRAY_ARG_FNS or fn == "identity")):
        return rows * sum([array_info[c].length for c in arr_args])
    return rows


def _aggregate_cost(node: Aggregate, rows: float,
                    array_info: Mapping[str, ArrayInfo]) -> float:
    arr_cols = [s.arg for s in node.aggs if s.arg in array_info]
    arr_cols += [k for k in node.keys if k in array_info]
    return rows * (1.0 + sum([array_info[c].length for c in arr_cols]))


def _targets_cost(node, rows: float,
                  array_info: Mapping[str, ArrayInfo]) -> float:
    # an arrayJoin or arrayFilter walks the first target's elements
    return rows * array_info.get(node.targets[0][0], DEFAULT_ARRAY_INFO).length


def op_cost(node: Term, rows: float, array_info: Mapping[str, ArrayInfo]
            ) -> float:
    """The cost of running the unary operator `node` over `rows` rows
    whose array columns are `array_info` (a missing one is
    ``DEFAULT_ARRAY_INFO``).  It is the one expression of an operator's
    cost, the cost function of the node's type in ``_OP_STEPS``:
    ``CostModel.op_effect`` and the enumerator's finishing bound both use
    it, so the bound is exactly what the step charges.

    Only the node's own fields are read, so template nodes are fine.  The
    cost is built from row counts and array lengths and is never negative
    or NaN, nor is ``join_cost``'s: ``Enumerator.run`` relies on adding a
    cost never making a plan cheaper."""
    steps = _OP_STEPS.get(type(node))
    if steps is None:
        raise _not_unary(node)
    return steps[0](node, rows, array_info)


############################################################
# one state step per unary operator type
#
# Each step reads only the node's own fields, builds a dict only for what
# the node changes and hands on the input's dict wherever the node leaves
# it unchanged.  A dict that loses keys is built by a comprehension, not
# copied and popped (an arrayJoin's excepted): a copy keeps its input's
# size, and so does every later state that shares it.
############################################################

def _filter_state(model: "CostModel", node: Filter,
                  state: PlanState) -> PlanState:
    s = pred_selectivity(node.pred, state.scalar_stats, state.array_info)
    array_info = state.array_info
    col, empty = _emptiness_test(node.pred)
    info = array_info.get(col)
    if info is not None:
        # after  c != []  no array is empty and after  c = []  all are, so
        # a repeated guard has selectivity 1 and cannot look like a saving,
        # and a test and its negation leave no rows in either order
        array_info = {**array_info, col: ArrayInfo(
            info.length, info.length_unf, empty, info.elem)}
    return PlanState(state.rows * s, state.rows_unf, state.scalar_stats,
                     array_info)


def _project_state(model: "CostModel", node: Project,
                   state: PlanState) -> PlanState:
    keep = frozenset(node.cols)
    scalar_stats, array_info = state.scalar_stats, state.array_info
    if not keep.issuperset(scalar_stats):
        scalar_stats = {c: v for c, v in scalar_stats.items() if c in keep}
    if not keep.issuperset(array_info):
        array_info = {c: v for c, v in array_info.items() if c in keep}
    return PlanState(state.rows, state.rows_unf, scalar_stats, array_info)


def _array_filter_state(model: "CostModel", node: ArrayFilter,
                        state: PlanState) -> PlanState:
    s = model.element_selectivity(node.pred, node.targets, state)
    sources = frozenset([src for src, _ in node.targets])
    array_info = {c: v for c, v in state.array_info.items()
                  if c not in sources}
    for src, alias in node.targets:
        info = state.info(src)
        array_info[alias] = ArrayInfo(info.length * s, info.length_unf,
                                      info.empty_fraction, info.elem)
    return PlanState(state.rows, state.rows_unf, state.scalar_stats,
                     array_info)


def _array_join_state(model: "CostModel", node: ArrayJoin,
                      state: PlanState) -> PlanState:
    first = state.info(node.targets[0][0])
    scalar_stats = dict(state.scalar_stats)
    for src, alias in node.targets:
        scalar_stats[alias] = state.info(src).elem
    # copied and popped: an arrayJoin drops only its sources, and over
    # sixteen arrays a comprehension made this step take 1.5 times as long
    array_info = dict(state.array_info)
    for src, _ in node.targets:
        array_info.pop(src, None)
    return PlanState(state.rows * first.length,
                     state.rows_unf * first.length_unf,
                     scalar_stats, array_info)


def _derive_state(model: "CostModel", node: Derive,
                  state: PlanState) -> PlanState:
    scalar_stats, array_info = state.scalar_stats, state.array_info
    out, fn = node.output, node.fn.name
    if node.is_map or fn_output_kind(node.fn, [
            "array" if c in array_info else "scalar"
            for c in node.args]) == "array":
        # an identity copies its array's facts; the elements of any other
        # result are unknown
        arr_args = [c for c in node.args if c in array_info]
        info = state.info((arr_args or node.args)[0])
        array_info = {**array_info, out: info if fn == "identity" else
                      ArrayInfo(info.length, info.length_unf,
                                info.empty_fraction, None)}
        if out in scalar_stats:
            scalar_stats = {c: v for c, v in scalar_stats.items()
                            if c != out}
    else:
        scalar_stats = {**scalar_stats, out: scalar_stats.get(node.args[0])
                        if fn == "identity" else None}
        if out in array_info:
            array_info = {c: v for c, v in array_info.items() if c != out}
    return PlanState(state.rows, state.rows_unf, scalar_stats, array_info)


def _aggregate_state(model: "CostModel", node: Aggregate,
                     state: PlanState) -> PlanState:
    s = model.group_selectivity(node.keys, state)
    array_info, scalar_stats = {}, {}
    for k in node.keys:
        if k in state.array_info:
            array_info[k] = state.array_info[k]
        else:
            scalar_stats[k] = state.scalar_stats.get(k)
    for spec in node.aggs:
        if agg_output_kind(spec.fn) == "array":
            length = state.info(spec.arg).length
            array_info[spec.alias] = ArrayInfo(length, length, 0.0, None)
        else:
            scalar_stats[spec.alias] = None
    return PlanState(state.rows * s, state.rows_unf * s,
                     scalar_stats, array_info)


# (cost, state step) per unary operator type
_OP_STEPS = {
    Filter: (lambda node, rows, array_info: rows, _filter_state),
    Project: (lambda node, rows, array_info: 0.0, _project_state),
    ArrayFilter: (_targets_cost, _array_filter_state),
    ArrayJoin: (_targets_cost, _array_join_state),
    Derive: (_derive_cost, _derive_state),
    Aggregate: (_aggregate_cost, _aggregate_state),
}


def _not_unary(node) -> SchemaError:
    return SchemaError(f"op_effect: not a unary operator: {node!r}")


class CostModel:
    """Cost/cardinality model bound to base-table statistics and schemas."""

    def __init__(self, stats: Mapping[str, TableStats],
                 schemas: Mapping[str, Schema]):
        self.stats = stats
        self.schemas = schemas

    # -- base relations ---------------------------------------------------

    def base_state(self, name: str) -> PlanState:
        if name not in self.schemas:
            raise SchemaError(f"unknown relation {name!r}")
        schema = self.schemas[name]
        ts = self.stats.get(name)
        rows = float(ts.rows) if ts is not None else 1000.0
        scalar_stats, array_info = {}, {}
        for c in schema.scalars:
            scalar_stats[c] = ts.scalars.get(c) if ts else None
        for c in schema.arrays:
            ast = ts.arrays.get(c) if ts else None
            array_info[c] = DEFAULT_ARRAY_INFO if ast is None else ArrayInfo(
                ast.avg_len, ast.avg_len, ast.empty_fraction, ast.elem)
        return PlanState(rows, rows, scalar_stats, array_info)

    # -- selectivity helpers ----------------------------------------------

    def element_selectivity(self, pred: Pred, targets, state: PlanState) -> float:
        """Selectivity of an arrayFilter predicate over element aliases."""
        alias_stats = {alias: state.info(src).elem for src, alias in targets}
        return pred_selectivity(pred, alias_stats, {})

    def group_selectivity(self, keys, state: PlanState) -> float:
        """Constant aggregate selectivity: base key ndv product over the
        unfiltered cardinality of the aggregate's own subtree."""
        ndv_product = 1.0
        for k in keys:
            st = state.scalar_stats.get(k)
            if st is not None and st.ndv > 0:
                ndv_product *= float(st.ndv)
            else:
                ndv_product *= DEFAULT_GROUP_NDV
        if state.rows_unf <= 0:
            return 1.0
        return _clamp(ndv_product / state.rows_unf)

    # -- operator effects ---------------------------------------------------

    def op_effect(self, node: Term, state: PlanState):
        """Apply one unary operator's effect.  Returns (cost, new_state).

        Only the node's own fields are consulted (its child is ignored), so
        callers may pass template nodes.  The cost is ``op_cost``'s, and
        both come from the node type's entry in ``_OP_STEPS``.  The new
        state shares every dict of `state` that the node leaves unchanged
        (a filter both, unless it tests an array for emptiness; a scalar
        derive the array infos; an arrayFilter the scalar statistics).
        """
        steps = _OP_STEPS.get(type(node))
        if steps is None:
            raise _not_unary(node)
        return steps[0](node, state.rows, state.array_info), \
            steps[1](self, node, state)

    def join_effect(self, left: PlanState, right: PlanState, shared,
                    div: Optional[float] = None):
        """Natural-join effect.  Returns (cost, new_state).

        `div` is the join divisor, computed from the inputs' ``key_ndvs``
        when it is not given; a caller that ranked the join with
        ``join_cost`` passes the divisor it ranked it with.

        A column of one input keeps that input's statistics.  A shared
        scalar key takes the statistics of the input with fewer distinct
        values, an unknown count counting as fewer (``_stats_rank``):
        under the containment assumption the join's key values are that
        input's (Swami & Schiefer, "On the Estimation of Join Result
        Sizes", EDBT 1994).  Ties, and shared array keys, go by a total
        order on the remaining fields (``_lower``), so the state does not
        depend on which input is on which side, nor on the order of a
        chain of joins."""
        if div is None:
            div = join_divisor(key_ndvs(left, shared),
                               key_ndvs(right, shared))
        scalar_stats = {**left.scalar_stats, **right.scalar_stats}
        for c in shared:
            if c in scalar_stats:
                scalar_stats[c] = _lower(left.scalar_stats.get(c),
                                         right.scalar_stats.get(c),
                                         _stats_rank, _stats_detail)
        return join_cost(left.rows, right.rows, div), PlanState(
            left.rows * right.rows / div, left.rows_unf * right.rows_unf / div,
            scalar_stats,
            join_array_info(left.array_info, right.array_info, shared))

    # -- whole-term costing -------------------------------------------------

    def fold(self, term: Term, known: dict) -> tuple:
        """``(cost, state, schema)`` of `term`, folded up from its leaves.

        `known` maps ``id(node)`` to results for nodes of `term`: a node
        with a result there is not folded again, and a node marked with
        None gets its result recorded.  The fold is deterministic, so an
        injected result is bit-identical to the one it replaces.  Each
        node's schema is inferred before its cost, so an invalid term
        raises the ``SchemaError`` that ``output_schema`` would.
        """
        key = id(term)
        res = known.get(key)
        if res is not None:
            return res
        kind = type(term)
        if kind is RelVar:
            state = self.base_state(term.name)
            res = state.rows, state, self.schemas[term.name]  # one scan
        elif kind is Join:
            lc, ls, lsch = self.fold(term.left, known)
            rc, rs, rsch = self.fold(term.right, known)
            schema = node_schema(term, lsch, rsch)
            # node_schema let only columns of one kind on both sides
            cost, state = self.join_effect(ls, rs, sorted(
                (lsch.scalars & rsch.scalars) | (lsch.arrays & rsch.arrays)))
            res = lc + rc + cost, state, schema
        else:
            kid_cost, kid_state, kid_schema = self.fold(term.child, known)
            schema = node_schema(term, kid_schema)
            cost, state = self.op_effect(term, kid_state)
            res = kid_cost + cost, state, schema
        if key in known:
            known[key] = res
        return res

    def term_cost(self, term: Term) -> CostResult:
        """Fold a term, returning total cost and the final state/schema.

        The model caches nothing, so each call folds the whole term; a
        caller holding a subterm's result injects it through ``fold``."""
        return CostResult(*self.fold(term, {}))
