"""Fuzzy membership functions, expression trees and their compiled evaluation.

AND is the product t-norm, OR the probabilistic sum, NOT the complement;
compile_expr() is their one definition. The product form keeps OR terms
additive (several partially present metals can accumulate into a strong
OR) and makes AND stricter than min.
"""

from __future__ import annotations

import math
from operator import itemgetter

from .errors import InvalidThresholds, UnknownTerm
from .value import Frozen


class MembershipFn(Frozen):
    """A high- or low-abundance requirement: finite thresholds l < h with a finite span h - l.

    A high requirement's membership of abundance p is 0 for p < l, 1 for
    p >= h and (p - l) / (h - l) between; a low one's is 1 minus that.
    classify.compile_rules() evaluates it.
    """

    __slots__ = _fields = ("polarity", "l", "h")

    def __init__(self, polarity: str, l: float, h: float):
        if polarity not in ("high", "low"):
            raise ValueError(f"polarity must be 'high' or 'low', got {polarity!r}")
        if not l < h:  # also true for a nan threshold
            raise InvalidThresholds(f"l must be < h, got l={l}, h={h}")
        if not h - l < math.inf:  # also true for an infinite threshold
            raise InvalidThresholds(f"thresholds need a finite span h - l, got l={l}, h={h}")
        object.__setattr__(self, "polarity", polarity)  # "high" | "low"
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "h", h)


# Expression tree nodes. And/Or are n-ary and flattened by the parser.

class Term(Frozen):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)


class And(Frozen):
    __slots__ = _fields = ("children",)

    def __init__(self, children: tuple):
        if len(children) < 2:
            raise ValueError("And requires at least 2 children")
        object.__setattr__(self, "children", children)


class Or(Frozen):
    __slots__ = _fields = ("children",)

    def __init__(self, children: tuple):
        if len(children) < 2:
            raise ValueError("Or requires at least 2 children")
        object.__setattr__(self, "children", children)


class Not(Frozen):
    __slots__ = _fields = ("child",)

    def __init__(self, child):
        object.__setattr__(self, "child", child)


def compile_expr(expr, index: dict):
    """Compile an expression tree into a function of a list of term values.

    ``index`` maps each term name to the position of its value in that
    list. NOT is 1 - a. AND folds its children left to right from 1 by
    the product t-norm, out * v. OR folds them left to right from 0 by the
    probabilistic sum, out + v - out * v capped at 1, except that a 1 on
    either side gives exactly 1 (a + 1 - a can drop a ulp). No value is
    checked: the caller guarantees every term value is in [0,1], and then
    every connective's result is too. An unknown name raises UnknownTerm
    here, once, instead of on every evaluation.
    """
    if isinstance(expr, Term):
        try:
            return itemgetter(index[expr.name])
        except KeyError:
            raise UnknownTerm(expr.name) from None
    if isinstance(expr, Not):
        child = compile_expr(expr.child, index)
        return lambda values: 1.0 - child(values)
    if isinstance(expr, And):
        children = tuple(compile_expr(c, index) for c in expr.children)

        def conj(values):
            out = 1.0
            for c in children:
                out = out * c(values)
            return out
        return conj
    if isinstance(expr, Or):
        children = tuple(compile_expr(c, index) for c in expr.children)

        def disj(values):
            out = 0.0
            for c in children:
                v = c(values)
                if v == 1.0 or out == 1.0:
                    out = 1.0
                else:
                    out = min(out + v - out * v, 1.0)
            return out
        return disj
    raise TypeError(f"not an expression node: {expr!r}")


def term_names(expr) -> set:
    """All term names referenced by an expression."""
    if isinstance(expr, Term):
        return {expr.name}
    if isinstance(expr, (And, Or)):
        out = set()
        for c in expr.children:
            out |= term_names(c)
        return out
    if isinstance(expr, Not):
        return term_names(expr.child)
    raise TypeError(f"not an expression node: {expr!r}")
