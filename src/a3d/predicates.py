"""Predicate expressions: evaluation, normalization, and invertibility.

Comparison semantics are two-valued: a comparison involving a null scalar is
false (so ``Not`` over it is true).  Arrays support only ``=`` / ``!=`` —
including the idiomatic emptiness test ``Cmp("!=", Col(a), Lit(()))`` — and
raise on ordered comparison or array-vs-scalar mixes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .functions import ScalarFn, affine_form, apply_scalar, is_array


class PredicateError(Exception):
    pass


############################################################
# expression / predicate nodes
############################################################

@dataclass(frozen=True)
class Col:
    name: str


@dataclass(frozen=True)
class Lit:
    value: object  # scalar, or tuple for an array literal


@dataclass(frozen=True)
class Apply:
    fn: ScalarFn
    args: tuple  # of Expr


Expr = Union[Col, Lit, Apply]

COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")

_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}


@dataclass(frozen=True)
class Cmp:
    op: str
    lhs: Expr
    rhs: Expr

    def __post_init__(self):
        if self.op not in COMPARISONS:
            raise PredicateError(f"bad comparison operator {self.op!r}")


@dataclass(frozen=True)
class And:
    parts: tuple


@dataclass(frozen=True)
class Or:
    parts: tuple


@dataclass(frozen=True)
class Not:
    part: object


Pred = Union[Cmp, And, Or, Not]


############################################################
# evaluation
############################################################

def eval_expr(expr: Expr, row: dict):
    if isinstance(expr, Col):
        try:
            return row[expr.name]
        except KeyError:
            raise PredicateError(f"unknown column {expr.name!r}") from None
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Apply):
        return apply_scalar(expr.fn, [eval_expr(a, row) for a in expr.args])
    raise PredicateError(f"not an expression: {expr!r}")


def _compare(op: str, a, b) -> bool:
    if is_array(a) or is_array(b):
        if not (is_array(a) and is_array(b)):
            raise PredicateError("cannot compare array with scalar")
        if op == "=":
            return a == b
        if op == "!=":
            return a != b
        raise PredicateError("arrays support only = and !=")
    if a is None or b is None:
        return False
    if op == "=":
        return a == b
    if op == "!=":
        return a != b
    try:
        if op == "<":
            return a < b
        if op == "<=":
            return a <= b
        if op == ">":
            return a > b
        return a >= b
    except TypeError:
        raise PredicateError(f"cannot order {type(a).__name__} vs {type(b).__name__}") from None


def eval_pred(pred: Pred, row: dict) -> bool:
    if isinstance(pred, Cmp):
        return _compare(pred.op, eval_expr(pred.lhs, row), eval_expr(pred.rhs, row))
    if isinstance(pred, And):
        return all(eval_pred(p, row) for p in pred.parts)
    if isinstance(pred, Or):
        return any(eval_pred(p, row) for p in pred.parts)
    if isinstance(pred, Not):
        return not eval_pred(pred.part, row)
    raise PredicateError(f"not a predicate: {pred!r}")


############################################################
# structure
############################################################

def expr_columns(expr: Expr) -> frozenset:
    if isinstance(expr, Col):
        return frozenset((expr.name,))
    if isinstance(expr, Lit):
        return frozenset()
    if isinstance(expr, Apply):
        out: frozenset = frozenset()
        for a in expr.args:
            out |= expr_columns(a)
        return out
    raise PredicateError(f"not an expression: {expr!r}")


def pred_columns(pred: Pred) -> frozenset:
    if isinstance(pred, Cmp):
        return expr_columns(pred.lhs) | expr_columns(pred.rhs)
    if isinstance(pred, (And, Or)):
        out: frozenset = frozenset()
        for p in pred.parts:
            out |= pred_columns(p)
        return out
    if isinstance(pred, Not):
        return pred_columns(pred.part)
    raise PredicateError(f"not a predicate: {pred!r}")


def split_conjuncts(pred: Pred) -> list:
    """Flatten nested Ands into a conjunct list (singleton if not an And)."""
    if isinstance(pred, And):
        out = []
        for p in pred.parts:
            out.extend(split_conjuncts(p))
        return out
    return [pred]


def conjoin(preds: list) -> Pred:
    if not preds:
        raise PredicateError("empty conjunction")
    if len(preds) == 1:
        return preds[0]
    return And(tuple(preds))


def _rename_expr(expr: Expr, mapping: dict) -> Expr:
    if isinstance(expr, Col):
        return Col(mapping.get(expr.name, expr.name))
    if isinstance(expr, Apply):
        return Apply(expr.fn,
                     tuple(_rename_expr(a, mapping) for a in expr.args))
    return expr


def rename_columns(pred: Pred, mapping: dict) -> Pred:
    """Rewrite column references through `mapping` (missing names unchanged)."""
    if isinstance(pred, Cmp):
        return Cmp(pred.op, _rename_expr(pred.lhs, mapping),
                   _rename_expr(pred.rhs, mapping))
    if isinstance(pred, And):
        return And(tuple(rename_columns(p, mapping) for p in pred.parts))
    if isinstance(pred, Or):
        return Or(tuple(rename_columns(p, mapping) for p in pred.parts))
    if isinstance(pred, Not):
        return Not(rename_columns(pred.part, mapping))
    raise PredicateError(f"not a predicate: {pred!r}")


############################################################
# invertibility
############################################################

def invert_comparison(op: str, lit, slope, intercept) -> Optional[tuple]:
    """Solve  value_of(f(x)) op lit  for x, where f(x) = slope*x + intercept.

    Returns (op', lit') with the direction flipped for negative slopes,
    or None when the division doesn't stay exact enough to trust.
    """
    try:
        shifted = lit - intercept
        if isinstance(shifted, int) and isinstance(slope, int) and shifted % slope == 0:
            bound = shifted // slope
        else:
            bound = shifted / slope
    except TypeError:
        return None
    new_op = op
    if slope < 0 and op not in ("=", "!="):
        new_op = _FLIP[op]
    return new_op, bound


def _invert(p: Pred, source: str, output: str, slope, intercept
            ) -> Optional[Pred]:
    """``invert_pred_through_fn`` for the affine form (`slope`,
    `intercept`)."""
    if isinstance(p, And):
        parts = [_invert(q, source, output, slope, intercept) for q in p.parts]
        return None if any(q is None for q in parts) else And(tuple(parts))
    if isinstance(p, Or):
        parts = [_invert(q, source, output, slope, intercept) for q in p.parts]
        return None if any(q is None for q in parts) else Or(tuple(parts))
    if isinstance(p, Not):
        inner = _invert(p.part, source, output, slope, intercept)
        return None if inner is None else Not(inner)
    if isinstance(p, Cmp):
        op, lhs, rhs = p.op, p.lhs, p.rhs
        if isinstance(rhs, Col) and rhs.name == output and isinstance(lhs, Lit):
            op, lhs, rhs = _FLIP[op], rhs, lhs
        if not (isinstance(lhs, Col) and lhs.name == output
                and isinstance(rhs, Lit)):
            return None
        if is_array(rhs.value) or rhs.value is None:
            return None
        solved = invert_comparison(op, rhs.value, slope, intercept)
        if solved is None:
            return None
        new_op, bound = solved
        return Cmp(new_op, Col(source), Lit(bound))
    return None


def invert_pred_through_fn(pred: Pred, fn: ScalarFn, source: str,
                           output: str) -> Optional[Pred]:
    """Rewrite a predicate over `output` = fn(`source`) into one over `source`.

    Only defined when fn has an affine form with nonzero slope and every
    comparison pins `output` against a literal (either orientation).  And/Or/
    Not structure is preserved.  Returns None when any piece resists.
    """
    form = affine_form(fn)
    if form is None:
        return None
    slope, intercept = form
    return _invert(pred, source, output, slope, intercept)


def format_pred(pred: Pred) -> str:
    """Compact single-line rendering for traces and dot labels."""
    if isinstance(pred, Cmp):
        return f"{format_expr(pred.lhs)} {pred.op} {format_expr(pred.rhs)}"
    if isinstance(pred, And):
        return "(" + " and ".join(format_pred(p) for p in pred.parts) + ")"
    if isinstance(pred, Or):
        return "(" + " or ".join(format_pred(p) for p in pred.parts) + ")"
    if isinstance(pred, Not):
        return f"not {format_pred(pred.part)}"
    return repr(pred)


def format_expr(expr: Expr) -> str:
    if isinstance(expr, Col):
        return expr.name
    if isinstance(expr, Lit):
        if isinstance(expr.value, tuple):
            return "[" + ", ".join(repr(v) for v in expr.value) + "]"
        return repr(expr.value)
    if isinstance(expr, Apply):
        inner = ", ".join(format_expr(a) for a in expr.args)
        if expr.fn.params:
            pp = ",".join(f"{k}={v!r}" for k, v in expr.fn.params)
            return f"{expr.fn.name}[{pp}]({inner})"
        return f"{expr.fn.name}({inner})"
    return repr(expr)
