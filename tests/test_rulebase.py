from importlib import resources

import pytest
from hypothesis import given, strategies as st

from spectraclass.errors import (
    DomainError,
    DuplicateName,
    InvalidThresholds,
    ParseError,
    UnknownTerm,
)
from spectraclass.fuzzy import And, MembershipFn, Not, Or, Term
from spectraclass.rulebase import (
    _MAX_NESTING,
    ClassRule,
    Options,
    RuleBase,
    builtin_basalt,
    parse_rulebase,
    serialize_rulebase,
    validate,
)
from spectraclass.spectrum import IonTarget

MINIMAL = """
rulebase "tiny"
ion Fe = 55.954
class X "X-phase" {
  term fe = high ( Fe , l = 1 , h = 40 )
  expr = fe
}
"""


class TestParser:
    def test_minimal(self):
        rb = parse_rulebase(MINIMAL)
        assert len(rb.classes) == 1
        assert rb.classes[0].code == "X"
        assert rb.classes[0].expr == Term("fe")

    def test_unknown_term(self):
        src = MINIMAL.replace("expr = fe", "expr = fe and missing")
        with pytest.raises(UnknownTerm) as exc:
            parse_rulebase(src)
        assert exc.value.name == "missing"

    def test_duplicate_class(self):
        src = MINIMAL + (
            'class X "again" {\n'
            "  term fe = high ( Fe , l = 1 , h = 40 )\n"
            "  expr = fe\n"
            "}\n"
        )
        with pytest.raises(DuplicateName):
            parse_rulebase(src)

    def test_duplicate_ion(self):
        src = MINIMAL.replace("ion Fe = 55.954", "ion Fe = 55.954\nion Fe = 55.954")
        with pytest.raises(DuplicateName):
            parse_rulebase(src)

    @pytest.mark.parametrize("old, new, error, message, line, col", [
        ("ion Fe", "option nu = 0.5\noption nu = 0.6\nion Fe", DuplicateName,
         "option 'nu' set twice", 4, 8),
        ("ion Fe = 55.954", "ion Fe = 55.954\n  ion Fe = 56", DuplicateName,
         "ion 'Fe' declared twice", 4, 7),
        ("}\n", '}\nclass X "again" {\n  term fe = high ( Fe , l = 1 , h = 40 )\n  expr = fe\n}\n',
         DuplicateName, "class 'X' declared twice", 8, 7),
        ("  expr", "  term fe = low ( Fe , l = 1 , h = 40 )\n  expr", DuplicateName,
         "term 'fe' declared twice in class 'X'", 6, 8),
        ("expr = fe", "expr = fe and missing", UnknownTerm, "unknown term: 'missing'", 6, 3),
        ("  expr = fe", "  expr = missing\n  expr = fe and nope", UnknownTerm,
         "unknown term: 'nope'", 7, 3),
    ], ids=["option", "ion", "class", "term", "unknown-term", "unknown-term-last-expr"])
    def test_name_errors_give_their_line(self, old, new, error, message, line, col):
        with pytest.raises(error) as exc:
            parse_rulebase(MINIMAL.replace(old, new))
        assert str(exc.value) == f"{message} (line {line}, col {col})"
        assert (exc.value.line, exc.value.col) == (line, col)

    def test_bad_thresholds(self):
        src = MINIMAL.replace("l = 1 , h = 40", "l = 40 , h = 1")
        with pytest.raises(InvalidThresholds):
            parse_rulebase(src)

    def test_bad_thresholds_give_the_term_line(self):
        src = MINIMAL.replace("l = 1 , h = 40", "l = 5 , h = 5")
        with pytest.raises(ParseError, match=r"^l must be < h, got l=5.0, h=5.0 \(line 5, col 3\)$") as exc:
            parse_rulebase(src)
        assert isinstance(exc.value, InvalidThresholds)
        assert (exc.value.line, exc.value.col) == (5, 3)

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_rulebase('rulebase "x"\nion = 5')
        assert exc.value.line == 2

    def test_medium_reserved(self):
        src = MINIMAL.replace("high (", "medium (")
        with pytest.raises(ParseError):
            parse_rulebase(src)

    def test_undeclared_ion_in_term(self):
        src = MINIMAL.replace("high ( Fe", "high ( Cu")
        with pytest.raises(ParseError):
            parse_rulebase(src)

    def test_operator_precedence(self):
        src = MINIMAL.replace(
            "  expr = fe\n",
            "  term a = high ( Fe , l = 1 , h = 2 )\n"
            "  term b = high ( Fe , l = 2 , h = 3 )\n"
            "  expr = a or b and not fe\n",
        )
        rb = parse_rulebase(src)
        assert rb.classes[0].expr == Or((Term("a"), And((Term("b"), Not(Term("fe"))))))

    def test_options(self):
        src = MINIMAL.replace(
            'rulebase "tiny"',
            'rulebase "tiny"\noption epsilon = 0.1\noption nu = 0.7\n'
            "ion K = 38.963\noption normalize_excluding = [ K ]",
        )
        rb = parse_rulebase(src)
        assert rb.options.epsilon == 0.1
        assert rb.options.nu == 0.7
        assert rb.options.normalize_excluding == ("K",)

    def test_bad_option_value(self):
        src = MINIMAL.replace('rulebase "tiny"', 'rulebase "tiny"\noption nu = 1.5')
        with pytest.raises(ParseError):
            parse_rulebase(src)

    @pytest.mark.parametrize("old, new, line, col", [
        ('"tiny"', '"tiny"\noption epsilon = 0', 3, 8),
        ('"tiny"', '"tiny"\noption epsilon = 1e999', 3, 8),
        ('"tiny"', '"tiny"\noption nu = 1.5', 3, 8),
        ("Fe = 55.954", "Fe = 0", 3, 5),
        ("Fe = 55.954", "Fe = 1e999", 3, 5),
        ("l = 1 , h = 40", "l = 5 , h = 5", 5, 3),
        ("h = 40", "h = 1e999", 5, 3),
        ("l = 1 , h = 40", "l = -1e308 , h = 1.5e308", 5, 3),
        # Checked after the last statement: Fe, declared after the option, is found, K is not.
        ('"tiny"', '"tiny"\noption normalize_excluding = [ Fe , K ]', 3, 37),
    ], ids=["epsilon-zero", "epsilon-inf", "nu-above-1", "ion-zero", "ion-inf",
            "l-equals-h", "h-inf", "span-overflows", "undeclared-excluded-ion"])
    def test_every_bad_value_gives_its_line(self, old, new, line, col):
        with pytest.raises(ParseError, match=rf" \(line {line}, col {col}\)$") as exc:
            parse_rulebase(MINIMAL.replace(old, new))
        assert (exc.value.line, exc.value.col) == (line, col)

    def test_hash_inside_string_is_not_a_comment(self):
        src = MINIMAL.replace('"tiny"', '"a#b"  # trailing comment').replace('"X-phase"', '"X #1"')
        rb = parse_rulebase(src)
        assert (rb.name, rb.classes[0].display_name) == ("a#b", "X #1")
        assert parse_rulebase(serialize_rulebase(rb)) == rb

    def test_unk_class_code_rejected(self):
        with pytest.raises(ParseError, match=r"^class code 'UNK' is reserved for the unknown label "
                                             r"\(line 4, col 7\)$"):
            parse_rulebase(MINIMAL.replace('class X "', 'class UNK "'))

    def test_empty_rulebase_rejected(self):
        with pytest.raises(ParseError, match=r"^rule base has no classes \(line 1, col 1\)$"):
            parse_rulebase('rulebase "empty"\nion Fe = 55.954\n')
        # With an undeclared excluded ion too, the first error in validate()'s order is raised.
        with pytest.raises(ParseError) as exc:
            parse_rulebase('# none\n  rulebase "empty"\noption normalize_excluding = [ K ]\n')
        assert (str(exc.value), exc.value.line, exc.value.col) == \
            ("rule base has no classes (line 2, col 3)", 2, 3)


def nested_expr(openers, connective):
    """An expression over term fe with ``openers`` ("(" or "not") nested in order, and each opener's column.

    Each "(" closes after one more fe, joined by ``connective``; the line is
    MINIMAL's expr line, so the first token stands at column 10.
    """
    head, cols, col = [], [], len("  expr = ") + 1
    for op in openers:
        head.append(op)
        cols.append(col)
        col += len(op) + 1
    tail = [f"{connective} fe )" for op in openers if op == "("]
    return " ".join([*head, "fe", *tail]), cols


@st.composite
def nestings(draw):
    """Openers nested a drawn number deep, at times just at or past the cap, and a connective."""
    depth = draw(st.sampled_from([_MAX_NESTING, _MAX_NESTING + 1, 1000]) | st.integers(0, 2 * _MAX_NESTING))
    return [draw(st.sampled_from(["(", "not"])) for _ in range(depth)], draw(st.sampled_from(["and", "or"]))


class TestNesting:
    @given(nestings())
    def test_capped_at_the_opener_past_the_cap(self, nesting):
        openers, connective = nesting
        expr, cols = nested_expr(openers, connective)
        src = MINIMAL.replace("expr = fe", f"expr = {expr}")
        if len(openers) <= _MAX_NESTING:
            rb = parse_rulebase(src)
            assert parse_rulebase(serialize_rulebase(rb)) == rb
            return
        with pytest.raises(ParseError, match=rf"^expression nested more than {_MAX_NESTING} deep \(line 6,") as exc:
            parse_rulebase(src)
        assert (exc.value.line, exc.value.col) == (6, cols[_MAX_NESTING])


class TestBuiltin:
    def test_four_classes(self):
        rb = builtin_basalt()
        assert [c.code for c in rb.classes] == ["ILM", "AGT", "PLG", "OLV"]

    def test_agt_ca_thresholds(self):
        agt = builtin_basalt().classes[1]
        ion, fn = agt.terms["ca"]
        assert ion.symbol == "Ca"
        assert (fn.l, fn.h) == (50, 80)

    def test_fe_mz(self):
        assert builtin_basalt().ions["Fe"] == 55.954

    def test_default_nu(self):
        assert builtin_basalt().options.nu == 0.5

    def test_validates_clean(self):
        assert validate(builtin_basalt()) == []

    def test_shipped_file_matches_builtin(self):
        text = resources.files("spectraclass").joinpath("data/basalt.rules").read_text()
        assert parse_rulebase(text) == builtin_basalt()

    def test_each_call_is_a_fresh_copy(self):
        rb = builtin_basalt()
        with pytest.raises(AttributeError):
            rb.options.nu = 0.9
        assert rb.options.nu == 0.5
        rb.options = rb.options.replace(nu=0.9)
        rb.classes.pop()
        assert builtin_basalt().options.nu == 0.5
        assert len(builtin_basalt().classes) == 4


class TestRoundTrip:
    def test_serialize_parse_identity(self):
        rb = builtin_basalt()
        assert parse_rulebase(serialize_rulebase(rb)) == rb

    def test_double_roundtrip(self):
        rb = parse_rulebase(MINIMAL)
        once = serialize_rulebase(rb)
        assert serialize_rulebase(parse_rulebase(once)) == once

    def test_all_thresholds_valid(self):
        for cr in builtin_basalt().classes:
            for _, fn in cr.terms.values():
                assert fn.l < fn.h


@pytest.mark.parametrize("make, error", [
    (lambda: IonTarget("Fe", float("nan")), DomainError),
    (lambda: IonTarget("Fe", float("inf")), DomainError),
    (lambda: MembershipFn("high", float("nan"), 5.0), InvalidThresholds),
    (lambda: Options(epsilon=-0.1), DomainError),
], ids=["ion-nan", "ion-inf", "threshold-nan", "negative-epsilon"])
def test_bad_value_rejected_when_built(make, error):
    with pytest.raises(error):
        make()


class TestValidate:
    def _tiny(self, **opts):
        fe = IonTarget("Fe", 55.954)
        cls = ClassRule("X", "X", {"fe": (fe, MembershipFn("high", 1, 40))}, Term("fe"))
        return RuleBase("t", {"Fe": 55.954}, [cls], Options(**opts))

    # Options check themselves when built, so validate() never sees a bad one.
    def test_nu_out_of_range(self):
        with pytest.raises(DomainError, match=r"^nu out of range \[0,1\]: 1\.5$"):
            self._tiny(nu=1.5)

    def test_epsilon_positive(self):
        with pytest.raises(DomainError, match="^epsilon must be finite and > 0, got 0.0$"):
            self._tiny(epsilon=0.0)

    def test_excluded_must_be_declared(self):
        diags = validate(self._tiny(normalize_excluding=("K",)))
        assert any(d.severity == "error" and "K" in d.message for d in diags)

    def test_unused_term_warns(self):
        rb = self._tiny()
        fe = IonTarget("Fe", 55.954)
        rb.classes[0].terms["extra"] = (fe, MembershipFn("low", 1, 2))
        diags = validate(rb)
        assert any(d.severity == "warning" and "extra" in d.message for d in diags)
        assert not any(d.severity == "error" for d in diags)

    @pytest.mark.parametrize("field", ["epsilon", "nu"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_options(self, field, value):
        with pytest.raises(DomainError, match=f"^{field} .*{value}$"):
            self._tiny(**{field: value})

    def test_ion_mz_overflowing_to_inf_rejected(self):
        with pytest.raises(ParseError,
                           match=r"^ion 'Fe' needs a finite m/z > 0, got inf \(line 3, col 5\)$"):
            parse_rulebase(MINIMAL.replace("ion Fe = 55.954", "ion Fe = 1e999"))

    def test_term_mz_must_be_its_ions(self):
        rb = self._tiny()
        rb.classes[0].terms["fe"] = (IonTarget("Fe", 60.0), MembershipFn("high", 1, 40))
        assert [(d.severity, d.message) for d in validate(rb)] == [
            ("error", "class 'X' term 'fe' looks at m/z 60.0, but ion 'Fe' is declared at 55.954")]

    def test_non_finite_ion_in_dict_is_an_error(self):
        rb = self._tiny()
        rb.ions["Fe"] = float("nan")
        assert [d.message for d in validate(rb)] == ["ion 'Fe' needs a finite m/z > 0, got nan"]

    def test_threshold_span_overflow_rejected(self):
        with pytest.raises(InvalidThresholds, match="^thresholds need a finite span h - l, "
                                                    r"got l=-1e\+308, h=1\.5e\+308$"):
            MembershipFn("high", -1e308, 1.5e308)
        with pytest.raises(ParseError, match=r"finite span h - l, .* \(line 5, col 3\)$"):
            parse_rulebase(MINIMAL.replace("l = 1 , h = 40", "l = -1e308 , h = 1.5e308"))

    def test_threshold_overflowing_to_inf_rejected(self):
        with pytest.raises(ParseError, match=r"finite span h - l, got l=1\.0, h=inf \(line 5, col 3\)$"):
            parse_rulebase(MINIMAL.replace("h = 40", "h = 1e999"))
