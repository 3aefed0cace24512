from importlib import resources

import pytest

from spectraclass.errors import (
    DuplicateName,
    InvalidThresholds,
    ParseError,
    UnknownTerm,
)
from spectraclass.fuzzy import And, MembershipFn, Not, Or, Term
from spectraclass.rulebase import (
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

    def test_hash_inside_string_is_not_a_comment(self):
        src = MINIMAL.replace('"tiny"', '"a#b"  # trailing comment').replace('"X-phase"', '"X #1"')
        rb = parse_rulebase(src)
        assert (rb.name, rb.classes[0].display_name) == ("a#b", "X #1")
        assert parse_rulebase(serialize_rulebase(rb)) == rb

    def test_unk_class_code_rejected(self):
        with pytest.raises(ParseError, match="reserved"):
            parse_rulebase(MINIMAL.replace('class X "', 'class UNK "'))

    def test_empty_rulebase_rejected(self):
        with pytest.raises(ParseError, match="no classes"):
            parse_rulebase('rulebase "empty"\nion Fe = 55.954\n')


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
        rb.options.nu = 0.9
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


class TestValidate:
    def _tiny(self, **opts):
        fe = IonTarget("Fe", 55.954)
        cls = ClassRule("X", "X", {"fe": (fe, MembershipFn("high", 1, 40))}, Term("fe"))
        return RuleBase("t", {"Fe": 55.954}, [cls], Options(**opts))

    def test_nu_out_of_range(self):
        diags = validate(self._tiny(nu=1.5))
        assert any(d.severity == "error" and "nu" in d.message for d in diags)

    def test_epsilon_positive(self):
        diags = validate(self._tiny(epsilon=0.0))
        assert any(d.severity == "error" for d in diags)

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
        diags = validate(self._tiny(**{field: value}))
        assert any(d.severity == "error" and field in d.message for d in diags)

    def test_ion_mz_overflowing_to_inf_rejected(self):
        with pytest.raises(ParseError, match="ion 'Fe' has non-finite m/z inf"):
            parse_rulebase(MINIMAL.replace("ion Fe = 55.954", "ion Fe = 1e999"))

    def test_threshold_span_overflow_rejected(self):
        rb = self._tiny()
        fe = IonTarget("Fe", 55.954)
        rb.classes[0].terms["fe"] = (fe, MembershipFn("high", -1e308, 1.5e308))
        assert [d.message for d in validate(rb)] == [
            "class 'X' term 'fe' has a threshold span h - l that overflows: l=-1e+308, h=1.5e+308"]
        with pytest.raises(ParseError, match="span h - l that overflows"):
            parse_rulebase(MINIMAL.replace("l = 1 , h = 40", "l = -1e308 , h = 1.5e308"))

    def test_threshold_overflowing_to_inf_rejected(self):
        with pytest.raises(ParseError, match="term 'fe' has a non-finite threshold"):
            parse_rulebase(MINIMAL.replace("h = 40", "h = 1e999"))
