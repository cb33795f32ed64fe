"""Scalar and aggregate function catalog.

Values are plain Python objects: int/float/str/bool for scalars, ``None`` for
null, and tuples for arrays.  Array values are never null as a whole but may
contain null elements.

Scalar functions propagate null: if any scalar argument is null the result is
null (``identity`` passes values through unchanged, and ``div`` additionally
returns null on a zero divisor).  Array-consuming helpers (``arraySum`` and
friends) skip null elements, mirroring the aggregate conventions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Union

Scalar = Union[int, float, str, bool, None]
Value = Union[Scalar, tuple]


class FunctionError(Exception):
    """Unknown function, bad arity, or a type the function cannot digest."""


def is_array(v: Value) -> bool:
    return isinstance(v, tuple)


############################################################
# scalar functions
############################################################

@dataclass(frozen=True)
class ScalarFn:
    """A named scalar function, possibly parameterized (e.g. affine(a, b))."""

    name: str
    params: tuple = field(default=())

    @staticmethod
    def of(name: str, **params: Any) -> "ScalarFn":
        return ScalarFn(name, tuple(sorted(params.items())))

    def param(self, key: str) -> Any:
        for k, v in self.params:
            if k == key:
                return v
        raise FunctionError(f"{self.name}: missing parameter {key!r}")


def _int_div(a, b):
    if b == 0:
        return None
    if isinstance(a, int) and isinstance(b, int) and not isinstance(a, bool) \
            and not isinstance(b, bool) and a % b == 0:
        return a // b
    return a / b


def _skip_nulls(arr):
    return [e for e in arr if e is not None]


# name -> (arity, {parameter: kind}, implementation taking (fn, args)); a
# parameter's kind is "literal" (a scalar or array value) or "number" (a
# finite int or float), and a function carries exactly its parameters
_SCALAR_IMPLS: dict[str, tuple[int, dict, Callable]] = {
    "const": (0, {"value": "literal"}, lambda fn, a: fn.param("value")),
    "identity": (1, {}, lambda fn, a: a[0]),
    "neg": (1, {}, lambda fn, a: -a[0]),
    "abs": (1, {}, lambda fn, a: abs(a[0])),
    "add": (2, {}, lambda fn, a: a[0] + a[1]),
    "sub": (2, {}, lambda fn, a: a[0] - a[1]),
    "mul": (2, {}, lambda fn, a: a[0] * a[1]),
    "div": (2, {}, lambda fn, a: _int_div(a[0], a[1])),
    "strlen": (1, {}, lambda fn, a: len(a[0])),
    "concat": (2, {}, lambda fn, a: f"{a[0]}{a[1]}"),
    "affine": (1, {"a": "number", "b": "number"},
               lambda fn, a: fn.param("a") * a[0] + fn.param("b")),
    "arrayEnumerate": (1, {}, lambda fn, a: tuple(range(1, len(a[0]) + 1))),
    "arrayLength": (1, {}, lambda fn, a: len(a[0])),
    "arraySum": (1, {}, lambda fn, a: sum(_skip_nulls(a[0]))),
    "arrayMin": (1, {}, lambda fn, a: min(_skip_nulls(a[0]), default=None)),
    "arrayMax": (1, {}, lambda fn, a: max(_skip_nulls(a[0]), default=None)),
}

# functions whose argument is an array value (not subject to null propagation)
ARRAY_ARG_FNS = frozenset(
    {"arrayEnumerate", "arrayLength", "arraySum", "arrayMin", "arrayMax"}
)

# functions that produce an array from an array (used for schema inference)
ARRAY_RESULT_FNS = frozenset({"arrayEnumerate"})

# slope/intercept extraction for invertibility analysis: fn(x) = a*x + b
_AFFINE_FORMS: dict[str, Callable[[ScalarFn], tuple]] = {
    "identity": lambda fn: (1, 0),
    "neg": lambda fn: (-1, 0),
    "affine": lambda fn: (fn.param("a"), fn.param("b")),
}


def scalar_fn_signature(name: str) -> Optional[tuple]:
    """(arity, {parameter: kind}) of a known scalar function, else None."""
    entry = _SCALAR_IMPLS.get(name)
    return entry[:2] if entry else None


def apply_scalar(fn: ScalarFn, args: list) -> Value:
    """Evaluate one scalar function call over already-evaluated arguments."""
    if fn.name not in _SCALAR_IMPLS:
        raise FunctionError(f"unknown scalar function {fn.name!r}")
    arity, _, impl = _SCALAR_IMPLS[fn.name]
    if len(args) != arity:
        raise FunctionError(f"{fn.name} expects {arity} args, got {len(args)}")
    if fn.name not in ARRAY_ARG_FNS and fn.name != "identity":
        if any(a is None for a in args):
            return None
        if any(is_array(a) for a in args):
            raise FunctionError(f"{fn.name} applied to an array value")
    try:
        return impl(fn, args)
    except TypeError as exc:
        raise FunctionError(f"{fn.name}: {exc}") from None


def affine_form(fn: ScalarFn) -> Optional[tuple]:
    """Return (slope, intercept) when fn(x) == slope*x + intercept, else None.

    A zero slope is reported as non-invertible (None).
    """
    extract = _AFFINE_FORMS.get(fn.name)
    if extract is None:
        return None
    slope, intercept = extract(fn)
    if slope == 0:
        return None
    return slope, intercept


def fn_output_kind(fn: ScalarFn, arg_kinds: list) -> str:
    """Schema-level result kind ("scalar" or "array") of a non-map derive."""
    if fn.name in ARRAY_RESULT_FNS:
        return "array"
    if fn.name == "identity":
        return arg_kinds[0]
    return "scalar"


############################################################
# aggregate functions
############################################################

# Eager aggregation (Yan & Larson, VLDB 1995): each aggregate as the
# (partial, final) function pairs that compute it in two stages, the final
# function combining the partial results of a group.  avg has no
# single-column form: it splits into a sum pair and a count pair, whose
# final results a division finishes.
SPLITS = {"min": (("min", "min"),), "max": (("max", "max"),),
          "sum": (("sum", "sum"),), "count": (("count", "sum"),),
          "avg": (("sum", "sum"), ("count", "sum")),
          "distinct": (("distinct", "distinct"),)}
BASIC_AGGS = tuple(SPLITS)
FOREACH_AGGS = tuple(f"{a}ForEach" for a in ("min", "max", "sum", "count"))


def known_agg_fn(name: str) -> bool:
    return name in BASIC_AGGS or name in FOREACH_AGGS


def agg_output_kind(name: str) -> str:
    if name == "distinct" or name in FOREACH_AGGS:
        return "array"
    return "scalar"


def _agg_scalars(name: str, vals: list) -> Value:
    live = [v for v in vals if v is not None]
    if name == "count":
        return len(live)
    if name == "sum":
        return sum(live) if live else 0
    if name == "min":
        return min(live) if live else None
    if name == "max":
        return max(live) if live else None
    if name == "avg":
        # same division rule as the div function: exact int when it divides
        if not live:
            return None
        return _int_div(sum(live), len(live))
    if name == "distinct":
        uniq = list(dict.fromkeys(live))
        uniq.sort(key=repr)
        return tuple(uniq)
    raise FunctionError(f"unknown aggregate {name!r}")


def apply_agg(name: str, values: list) -> Value:
    """Aggregate a column of values (one per input row of the group).

    Scalar aggregates flatten array inputs (aggregating the multiset of all
    elements); ForEach aggregates combine arrays positionally, producing a
    result as long as the longest input.
    """
    if name in FOREACH_AGGS:
        base = name[: -len("ForEach")]
        if any(not is_array(v) for v in values):
            raise FunctionError(f"{name} requires array inputs")
        width = max((len(v) for v in values), default=0)
        try:
            return tuple(
                _agg_scalars(base, [v[j] for v in values if len(v) > j])
                for j in range(width)
            )
        except TypeError as exc:
            raise FunctionError(f"{name}: {exc}") from None
    if name not in BASIC_AGGS:
        raise FunctionError(f"unknown aggregate {name!r}")
    flat: list = []
    for v in values:
        if is_array(v):
            flat.extend(v)
        else:
            flat.append(v)
    try:
        return _agg_scalars(name, flat)
    except TypeError as exc:
        raise FunctionError(f"{name}: {exc}") from None
