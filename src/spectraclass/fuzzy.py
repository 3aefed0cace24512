"""Fuzzy membership functions, connectives, and expression evaluation.

AND is the product t-norm, OR the probabilistic sum, NOT the complement.
The product form keeps OR terms additive (several partially present
metals can accumulate into a strong OR) and makes AND stricter than min.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

from .errors import DomainError, InvalidThresholds, UnknownTerm


def mu_high(p: float, l: float, h: float) -> float:
    """Piecewise-linear membership for a required high abundance."""
    if l >= h:
        raise InvalidThresholds(f"l must be < h, got l={l}, h={h}")
    if p < l:
        return 0.0
    if p >= h:
        return 1.0
    return (p - l) / (h - l)


def mu_low(p: float, l: float, h: float) -> float:
    """Complement of mu_high: membership for a required low abundance."""
    return 1.0 - mu_high(p, l, h)


def _check_unit(x):
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"fuzzy value outside [0,1]: {x}")


def f_not(a: float) -> float:
    _check_unit(a)
    return 1.0 - a


def f_and(*values: float) -> float:
    """Product t-norm, folded left; identity is 1."""
    out = 1.0
    for v in values:
        _check_unit(v)
        out = out * v
    return out


def f_or(*values: float) -> float:
    """Probabilistic sum, folded left; identity is 0."""
    out = 0.0
    for v in values:
        _check_unit(v)
        if v == 1.0 or out == 1.0:
            # keep the absorbing element exact; a + 1 - a drops a ulp
            out = 1.0
        else:
            out = min(out + v - out * v, 1.0)
    return out


@dataclass(frozen=True)
class MembershipFn:
    """A high- or low-abundance requirement: finite thresholds l < h with a finite span h - l."""

    polarity: str  # "high" | "low"
    l: float
    h: float

    def __post_init__(self):
        if self.polarity not in ("high", "low"):
            raise ValueError(f"polarity must be 'high' or 'low', got {self.polarity!r}")
        if not self.l < self.h:  # also true for a nan threshold
            raise InvalidThresholds(f"l must be < h, got l={self.l}, h={self.h}")
        if not self.h - self.l < math.inf:  # also true for an infinite threshold
            raise InvalidThresholds(f"thresholds need a finite span h - l, got l={self.l}, h={self.h}")

    def __call__(self, p: float) -> float:
        if self.polarity == "high":
            return mu_high(p, self.l, self.h)
        return mu_low(p, self.l, self.h)


# Expression tree nodes. And/Or are n-ary and flattened by the parser.

@dataclass(frozen=True)
class Term:
    name: str


@dataclass(frozen=True)
class And:
    children: tuple

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("And requires at least 2 children")


@dataclass(frozen=True)
class Or:
    children: tuple

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("Or requires at least 2 children")


@dataclass(frozen=True)
class Not:
    child: object


def eval_expr(expr, env: dict) -> float:
    """Evaluate an expression tree against term truth values in [0,1]."""
    if isinstance(expr, Term):
        try:
            value = env[expr.name]
        except KeyError:
            raise UnknownTerm(expr.name) from None
        _check_unit(value)
        return value
    if isinstance(expr, And):
        return f_and(*(eval_expr(c, env) for c in expr.children))
    if isinstance(expr, Or):
        return f_or(*(eval_expr(c, env) for c in expr.children))
    if isinstance(expr, Not):
        return f_not(eval_expr(expr.child, env))
    raise TypeError(f"not an expression node: {expr!r}")


def compile_expr(expr, index: dict):
    """Compile an expression tree into a function of a list of term values.

    ``index`` maps each term name to the position of its value in that
    list. The function folds AND and OR left to right exactly as f_and()
    and f_or() do, so it returns eval_expr()'s result bit for bit, but it
    checks no value: the caller guarantees every term value is in [0,1],
    and then every connective's result is too. An unknown name raises
    UnknownTerm here, once, instead of on every evaluation.
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
