import random

import pytest
from hypothesis import given, strategies as st

from spectraclass.errors import DomainError, InvalidThresholds, UnknownTerm
from spectraclass.fuzzy import (
    And,
    Not,
    Or,
    Term,
    compile_expr,
    eval_expr,
    f_and,
    f_not,
    f_or,
    mu_high,
    mu_low,
)

unit = st.floats(0.0, 1.0)


class TestMembership:
    def test_below_l(self):
        assert mu_high(0.5, 1, 17) == 0.0

    def test_at_h(self):
        assert mu_high(17, 1, 17) == 1.0

    def test_midpoint(self):
        assert mu_high(9, 1, 17) == 0.5

    def test_low_complement_of_zero(self):
        assert mu_low(0.5, 1, 17) == 1.0

    def test_low_midpoint(self):
        assert mu_low(9, 1, 17) == 0.5

    def test_low_at_h(self):
        assert mu_low(40, 10, 40) == 0.0

    def test_invalid_thresholds(self):
        with pytest.raises(InvalidThresholds):
            mu_high(1.0, 5, 5)

    @given(st.floats(-100, 200), st.floats(-50, 50), st.floats(-50, 50))
    def test_sum_to_one_exactly(self, p, a, b):
        l, h = min(a, b), max(a, b)
        if l == h:
            h = l + 1.0
        assert mu_high(p, l, h) + mu_low(p, l, h) == 1.0

    @given(st.floats(-100, 200), st.floats(-100, 200), st.floats(-50, 50), st.floats(-50, 50))
    def test_monotone(self, p1, p2, a, b):
        l, h = min(a, b), max(a, b)
        if l == h:
            h = l + 1.0
        lo, hi = sorted((p1, p2))
        assert mu_high(lo, l, h) <= mu_high(hi, l, h)
        assert mu_low(lo, l, h) >= mu_low(hi, l, h)

    @given(st.floats(-50, 50), st.floats(0.1, 50))
    def test_continuity_at_thresholds(self, l, width):
        h = l + width
        step = width * 1e-13
        assert mu_high(l, l, h) == pytest.approx(mu_high(l - step, l, h), abs=1e-12)
        assert mu_high(h, l, h) == pytest.approx(mu_high(h - step, l, h), abs=1e-12)


class TestConnectives:
    def test_and_worked_value(self):
        assert f_and(0.9, 0.9) == 0.81

    def test_or_worked_value(self):
        assert f_or(0.9, 0.9) == pytest.approx(0.99, abs=1e-15)

    @given(unit)
    def test_and_identity(self, a):
        assert f_and(a, 1.0) == a
        assert f_and(a, 0.0) == 0.0

    @given(unit)
    def test_or_identity(self, a):
        assert f_or(a, 0.0) == a
        assert f_or(a, 1.0) == 1.0

    @given(unit, unit)
    def test_commutative(self, a, b):
        assert f_and(a, b) == pytest.approx(f_and(b, a), abs=1e-15)
        assert f_or(a, b) == pytest.approx(f_or(b, a), abs=1e-15)

    @given(unit, unit, unit)
    def test_associative(self, a, b, c):
        assert f_and(f_and(a, b), c) == pytest.approx(f_and(a, f_and(b, c)), abs=1e-15)
        assert f_or(f_or(a, b), c) == pytest.approx(f_or(a, f_or(b, c)), abs=1e-15)

    @given(unit, unit)
    def test_de_morgan(self, a, b):
        assert f_not(f_and(a, b)) == pytest.approx(f_or(f_not(a), f_not(b)), abs=1e-15)

    @given(unit, unit)
    def test_and_below_min(self, a, b):
        assert f_and(a, b) <= min(a, b)

    def test_domain_check(self):
        with pytest.raises(DomainError):
            f_and(0.5, 1.2)
        with pytest.raises(DomainError):
            f_or(-0.1, 0.5)
        with pytest.raises(DomainError):
            f_not(2.0)


def random_expr(rng, names, depth=0):
    kind = rng.random()
    if depth >= 3 or kind < 0.35:
        return Term(rng.choice(names))
    if kind < 0.55:
        return Not(random_expr(rng, names, depth + 1))
    children = tuple(random_expr(rng, names, depth + 1) for _ in range(rng.randint(2, 4)))
    return And(children) if kind < 0.8 else Or(children)


class TestEvalExpr:
    def test_all_true(self):
        e = And((Term("a"), Term("b"), Term("c")))
        assert eval_expr(e, {"a": 1.0, "b": 1.0, "c": 1.0}) == 1.0

    def test_product_chain(self):
        e = And((Term("fe"), Term("nti"), Term("ca")))
        assert eval_expr(e, {"fe": 1.0, "nti": 0.5, "ca": 1.0}) == 0.5

    def test_or_fold(self):
        e = Or((Term("mg"), Term("mn"), Term("fe")))
        assert eval_expr(e, {"mg": 0.5, "mn": 0.5, "fe": 0.0}) == 0.75

    def test_unknown_term(self):
        with pytest.raises(UnknownTerm):
            eval_expr(Term("missing"), {"a": 1.0})

    def test_closure_on_random_trees(self):
        rng = random.Random(7)
        names = ["a", "b", "c", "d"]
        for _ in range(500):
            expr = random_expr(rng, names)
            env = {n: rng.random() for n in names}
            v = eval_expr(expr, env)
            assert 0.0 <= v <= 1.0

    def test_compiled_equals_tree(self):
        rng = random.Random(8)
        names = ["a", "b", "c", "d"]
        index = {n: i for i, n in enumerate(names)}
        for _ in range(500):
            expr = random_expr(rng, names)
            # exact 0s and 1s take OR's absorbing branch and AND's zero
            values = [rng.choice([0.0, 1.0, rng.random()]) for _ in names]
            expected = eval_expr(expr, dict(zip(names, values)))
            assert repr(compile_expr(expr, index)(values)) == repr(expected)

    def test_compile_unknown_term(self):
        with pytest.raises(UnknownTerm, match="^unknown term: 'missing'$"):
            compile_expr(And((Term("a"), Not(Term("missing")))), {"a": 0})
