import random

import pytest
from hypothesis import given, strategies as st

from conftest import term_memberships
from reference import eval_expr
from spectraclass.errors import InvalidThresholds, UnknownTerm
from spectraclass.fuzzy import And, MembershipFn, Not, Or, Term, compile_expr

unit = st.floats(0.0, 1.0)
A, B, C = Term("a"), Term("b"), Term("c")


def evaluate(expr, **env):
    """compile_expr's value of ``expr`` with each term set as ``env`` gives."""
    return compile_expr(expr, {name: k for k, name in enumerate(env)})(list(env.values()))


def high_low(p, l, h):
    """The memberships of abundance ``p`` in a high and a low term over ``l < h``, through compile_rules."""
    (high,), (low,) = term_memberships([(l, h)])([p])
    return high, low


def high(p, l, h):
    return high_low(p, l, h)[0]


def low(p, l, h):
    return high_low(p, l, h)[1]


class TestMembership:
    def test_below_l(self):
        assert high(0.5, 1, 17) == 0.0

    def test_at_h(self):
        assert high(17, 1, 17) == 1.0

    def test_midpoint(self):
        assert high(9, 1, 17) == 0.5

    def test_low_complement_of_zero(self):
        assert low(0.5, 1, 17) == 1.0

    def test_low_midpoint(self):
        assert low(9, 1, 17) == 0.5

    def test_low_at_h(self):
        assert low(40, 10, 40) == 0.0

    def test_invalid_thresholds(self):
        with pytest.raises(InvalidThresholds):
            MembershipFn("high", 5, 5)

    # Abundances are p >= 0, as a spectrum holds them.
    @given(st.floats(0, 200), st.floats(-50, 50), st.floats(-50, 50))
    def test_sum_to_one_exactly(self, p, a, b):
        l, h = min(a, b), max(a, b)
        if l == h:
            h = l + 1.0
        assert sum(high_low(p, l, h)) == 1.0

    @given(st.floats(0, 200), st.floats(0, 200), st.floats(-50, 50), st.floats(-50, 50))
    def test_monotone(self, p1, p2, a, b):
        l, h = min(a, b), max(a, b)
        if l == h:
            h = l + 1.0
        lo, hi = sorted((p1, p2))
        (high_lo, high_hi), (low_lo, low_hi) = term_memberships([(l, h), (l, h)])([lo, hi])
        assert high_lo <= high_hi
        assert low_lo >= low_hi

    @given(st.floats(1, 50), st.floats(0.1, 50))
    def test_continuity_at_thresholds(self, l, width):
        h = l + width
        step = width * 1e-13
        assert high(l, l, h) == pytest.approx(high(l - step, l, h), abs=1e-12)
        assert high(h, l, h) == pytest.approx(high(h - step, l, h), abs=1e-12)


class TestConnectives:
    def test_and_worked_value(self):
        assert evaluate(And((A, B)), a=0.9, b=0.9) == 0.81

    def test_or_worked_value(self):
        assert evaluate(Or((A, B)), a=0.9, b=0.9) == pytest.approx(0.99, abs=1e-15)

    @given(unit)
    def test_and_identity(self, a):
        assert evaluate(And((A, B)), a=a, b=1.0) == a
        assert evaluate(And((A, B)), a=a, b=0.0) == 0.0

    @given(unit)
    def test_or_identity(self, a):
        assert evaluate(Or((A, B)), a=a, b=0.0) == a
        assert evaluate(Or((A, B)), a=a, b=1.0) == 1.0

    @given(unit, unit)
    def test_commutative(self, a, b):
        assert evaluate(And((A, B)), a=a, b=b) == pytest.approx(evaluate(And((B, A)), a=a, b=b), abs=1e-15)
        assert evaluate(Or((A, B)), a=a, b=b) == pytest.approx(evaluate(Or((B, A)), a=a, b=b), abs=1e-15)

    @given(unit, unit, unit)
    def test_associative(self, a, b, c):
        for op in (And, Or):
            assert evaluate(op((op((A, B)), C)), a=a, b=b, c=c) == \
                pytest.approx(evaluate(op((A, op((B, C)))), a=a, b=b, c=c), abs=1e-15)

    @given(unit, unit)
    def test_de_morgan(self, a, b):
        assert evaluate(Not(And((A, B))), a=a, b=b) == \
            pytest.approx(evaluate(Or((Not(A), Not(B))), a=a, b=b), abs=1e-15)

    @given(unit, unit)
    def test_and_below_min(self, a, b):
        assert evaluate(And((A, B)), a=a, b=b) <= min(a, b)


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
        assert evaluate(And((A, B, C)), a=1.0, b=1.0, c=1.0) == 1.0

    def test_product_chain(self):
        e = And((Term("fe"), Term("nti"), Term("ca")))
        assert evaluate(e, fe=1.0, nti=0.5, ca=1.0) == 0.5

    def test_or_fold(self):
        e = Or((Term("mg"), Term("mn"), Term("fe")))
        assert evaluate(e, mg=0.5, mn=0.5, fe=0.0) == 0.75

    def test_unknown_term(self):
        with pytest.raises(UnknownTerm):
            compile_expr(Term("missing"), {"a": 0})

    def test_closure_on_random_trees(self):
        rng = random.Random(7)
        names = ["a", "b", "c", "d"]
        for _ in range(500):
            expr = random_expr(rng, names)
            v = evaluate(expr, **{n: rng.random() for n in names})
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
