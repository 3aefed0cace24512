import concurrent.futures
import csv
import io
import math
import os
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import ION_MZ, make_spectrum, spectrum_csv
from reference import eval_expr, harden_values, membership, peak_abundance
from spectraclass import files
from spectraclass.classify import (
    Classification,
    MembershipVector,
    classify_batch,
    classify_iter,
    compile_rules,
    harden,
    harden_list,
    memberships,
    write_batch_csv,
)
from spectraclass.errors import (
    CannotNormalize,
    DomainError,
    InvalidThresholds,
    NoClasses,
    UnknownTerm,
)
from spectraclass.fuzzy import And, MembershipFn, Not, Or, Term
from spectraclass.rulebase import ClassRule, Options, RuleBase, builtin_basalt
from spectraclass.spectrum import IonTarget, Spectrum, normalize


class TestMemberships:
    def test_clean_augite(self, basalt):
        s = make_spectrum({"Ca": 80, "Fe": 30})
        mv = memberships(s, basalt)
        assert mv.values["AGT"] == pytest.approx(1.0, abs=1e-12)

    def test_no_key_ions(self, basalt):
        s = make_spectrum({})  # just the filler peak at 100
        mv = memberships(s, basalt)
        assert mv.values["ILM"] == 0.0
        assert mv.values["AGT"] == 0.0
        assert mv.values["PLG"] == 0.0
        assert mv.values["OLV"] == 0.0

    def test_mixed_spot_mutual_exclusion(self, basalt):
        # significant Ti and Al together knock out both ILM and PLG
        s = make_spectrum({"Ti": 17, "Al": 15})
        mv = memberships(s, basalt)
        assert mv.values["ILM"] == 0.0
        assert mv.values["PLG"] == 0.0

    def test_unk_complement(self, basalt):
        s = make_spectrum({"Ca": 70, "Fe": 20, "Ti": 3})
        mv = memberships(s, basalt)
        assert mv.unk == pytest.approx(1.0 - max(mv.values.values()), abs=1e-12)

    def test_monotone_in_positive_ion(self, basalt):
        rng = random.Random(42)
        for _ in range(100):
            abunds = {sym: rng.uniform(0, 90) for sym in ("Mg", "Al", "Ca", "Ti", "Mn", "Fe")}
            lo = make_spectrum(abunds)
            bumped = dict(abunds)
            bumped["Ca"] = min(99.0, abunds["Ca"] + rng.uniform(0, 9))
            hi = make_spectrum(bumped)
            # Ca is a positive (high) requirement of AGT only
            assert memberships(hi, basalt).values["AGT"] >= memberships(lo, basalt).values["AGT"] - 1e-12


def composed_memberships(s, rb):
    """The reference: normalize, then look every term's ion up, then evaluate."""
    eps = rb.options.epsilon
    n = normalize(s, rb.excluded_ions(), eps)
    return {cr.code: eval_expr(cr.expr, {name: membership(fn, peak_abundance(n, ion, eps))
                                         for name, (ion, fn) in cr.terms.items()})
            for cr in rb.classes}


@st.composite
def rule_base_and_spectrum(draw):
    """Basalt with a drawn epsilon and excluded ions, and a spectrum with
    points on and next to the edges of the ion windows."""
    rb = builtin_basalt()
    rb.ions["K"] = ION_MZ["K"]
    eps = draw(st.sampled_from([0.05, 0.1, 0.2, 0.3, 1.0]))
    rb.options = rb.options.replace(epsilon=eps, normalize_excluding=tuple(draw(st.lists(
        st.sampled_from(["K", "Ca", "Fe", "Ti"]), max_size=2, unique=True))))
    points = {}
    for mz in rb.ions.values():
        for edge in (mz - eps, mz, mz + eps):
            step = draw(st.sampled_from([None, -1, 0, 1]))
            if step is not None:
                at = edge if step == 0 else math.nextafter(edge, math.inf * step)
                points[at] = draw(st.floats(0.0, 200.0))
    if draw(st.booleans()):
        points[200.0] = draw(st.floats(0.0, 200.0))
    if not points:
        points[ION_MZ["K"]] = draw(st.floats(0.0, 200.0))
    return rb, Spectrum(tuple(sorted(points.items())))


class TestMembershipsEquivalence:
    @given(rule_base_and_spectrum())
    def test_equals_normalize_then_lookup(self, case):
        rb, s = case
        try:
            expected = composed_memberships(s, rb)
        except CannotNormalize as exc:
            with pytest.raises(CannotNormalize, match=f"^{re.escape(str(exc))}$"):
                memberships(s, rb)
            return
        assert memberships(s, rb).values == expected

    def test_stats_double_normalization_path(self, basalt):
        # stats classifies spectra it has already normalized
        s = make_spectrum({"Ca": 70.3, "Fe": 20.7, "Ti": 3.1}, filler=37.9)
        n = normalize(s)
        assert memberships(n, basalt).values == composed_memberships(n, basalt)


# Thresholds and abundances from one small set, so that p often lands
# exactly on l or h: the 0.0 and 1.0 branches of a term and OR's
# absorbing 1 are all taken. -0.0 and 0.0 are both drawn, never as one
# pair: a "-0" peak and l = -0 give memberships of either sign of zero.
_LEVELS = [-0.0, 0.0, 0.5, 1.0, 10.0, 15.0, 17.0, 40.0, 50.0, 80.0, 100.0]


def _exprs(names, depth):
    leaf = st.sampled_from(names).map(Term)
    if depth == 0:
        return leaf
    sub = _exprs(names, depth - 1)
    return st.one_of(
        leaf,
        sub.map(Not),
        st.lists(sub, min_size=2, max_size=3).map(lambda c: And(tuple(c))),
        st.lists(sub, min_size=2, max_size=3).map(lambda c: Or(tuple(c))),
    )


@st.composite
def random_rule_base_and_spectrum(draw):
    """A rule base of 1-4 classes with expressions nested up to depth 4,
    ions shared across classes and between symbols, excluded ions and
    unused terms; and a spectrum with points on and one ulp beside the
    edges of every ion window."""
    eps = draw(st.sampled_from([0.05, 0.2, 1.0]))
    mz_pool = draw(st.lists(st.sampled_from([24.312, 26.982, 27.1, 39.95, 55.954]),
                            min_size=1, max_size=4))
    ions = {f"I{i}": mz for i, mz in enumerate(mz_pool)}
    excluded = tuple(draw(st.lists(st.sampled_from(sorted(ions)), max_size=2, unique=True)))
    classes = []
    for c in range(draw(st.integers(1, 4))):
        terms = {}
        for t in range(draw(st.integers(1, 4))):
            sym = draw(st.sampled_from(sorted(ions)))
            l, h = sorted(draw(st.lists(st.sampled_from(_LEVELS), min_size=2, max_size=2,
                                        unique=True)))
            polarity = draw(st.sampled_from(["high", "low"]))
            terms[f"t{t}"] = (IonTarget(sym, ions[sym]), MembershipFn(polarity, l, h))
        expr = draw(_exprs(sorted(terms), 4))
        classes.append(ClassRule(f"C{c}", f"class {c}", terms, expr))
    rb = RuleBase("random", ions, classes, Options(epsilon=eps, normalize_excluding=excluded))
    abundance = st.one_of(st.sampled_from(_LEVELS + [200.0]), st.floats(0.0, 200.0))
    points = {}
    for mz in ions.values():
        for edge in (mz - eps, mz, mz + eps):
            step = draw(st.sampled_from([None, -1, 0, 1]))
            if step is not None:
                at = edge if step == 0 else math.nextafter(edge, math.inf * step)
                points[at] = draw(abundance)
    if draw(st.booleans()):
        points[200.0] = draw(abundance)
    if not points:
        points[200.0] = 100.0
    return rb, Spectrum(tuple(sorted(points.items())))


class TestCompiledRules:
    @given(random_rule_base_and_spectrum())
    def test_equals_expression_tree(self, case):
        rb, s = case
        try:
            expected = composed_memberships(s, rb)
        except CannotNormalize as exc:
            with pytest.raises(CannotNormalize, match=f"^{re.escape(str(exc))}$"):
                compile_rules(rb)(s)
            return
        mv = compile_rules(rb)(s)
        assert mv.values == expected
        assert [repr(v) for v in mv.values.values()] == [repr(v) for v in expected.values()]
        assert repr(mv.unk) == repr(1.0 - max(expected.values()))

    @pytest.mark.parametrize("l, h", [
        (-1e308, 1.5e308),  # h - l overflows
        (float("nan"), 5.0),
        (1.0, float("inf")),
    ])
    def test_bad_thresholds_rejected_when_compiled(self, l, h):
        # Rejected when the term is built, so compile_rules() never sees them.
        with pytest.raises(InvalidThresholds, match=r"^(l must be < h|thresholds need a finite "
                                                    r"span h - l), got l="):
            MembershipFn("high", l, h)

    def test_terms_differing_in_the_sign_of_a_zero_l_stay_apart(self):
        # A "-0" peak: (-0.0 - 0.0) / h is -0.0, (-0.0 - -0.0) / h is 0.0.
        fe = IonTarget("Fe", ION_MZ["Fe"])
        classes = [ClassRule(code, code, {"fe": (fe, MembershipFn("high", l, 40.0))}, Term("fe"))
                   for code, l in (("A", 0.0), ("B", -0.0))]
        rb = RuleBase("zeros", {"Fe": fe.mz}, classes)
        s = make_spectrum({"Fe": -0.0})
        values = compile_rules(rb)(s).values
        assert [repr(v) for v in values.values()] == ["-0.0", "0.0"]
        assert values == composed_memberships(s, rb)

    def test_negative_epsilon_rejected_when_compiled(self, basalt):
        # Rejected when the options are built, so compile_rules() never sees it.
        with pytest.raises(DomainError, match=r"^epsilon must be finite and > 0, got -0\.1$"):
            basalt.options.replace(epsilon=-0.1)

    def test_unused_term_is_not_compiled(self, basalt):
        ion, _ = basalt.classes[0].terms["fe"]
        basalt.classes[0].terms["spare"] = (ion, MembershipFn("high", 1.0, 5.0))
        s = make_spectrum({"Ti": 20, "Fe": 50, "Al": 0.2})
        assert compile_rules(basalt)(s).values == composed_memberships(s, basalt)


class TestHarden:
    def test_clear_argmax(self):
        mv = MembershipVector.from_values({"AGT": 0.9, "ILM": 0.1, "PLG": 0.0, "OLV": 0.0})
        assert harden(mv, 0.5) == Classification("AGT", 0.9)

    def test_unk_with_complement_confidence(self):
        mv = MembershipVector.from_values({"AGT": 0.3, "ILM": 0.2, "PLG": 0.0, "OLV": 0.0})
        c = harden(mv, 0.5)
        assert c.label == "UNK"
        assert c.confidence == pytest.approx(0.7, abs=1e-12)

    def test_boundary_inclusive(self):
        mv = MembershipVector.from_values({"AGT": 0.5, "ILM": 0.1})
        assert harden(mv, 0.5).label == "AGT"

    def test_tie_breaks_by_declaration_order(self):
        mv = MembershipVector.from_values({"ILM": 0.8, "AGT": 0.8})
        assert harden(mv, 0.5).label == "ILM"

    def test_empty(self):
        with pytest.raises(NoClasses):
            MembershipVector.from_values({})

    def test_scaling_invariance(self):
        rng = random.Random(3)
        for _ in range(200):
            values = {c: rng.random() for c in ("A", "B", "C")}
            nu = rng.random()
            c = rng.uniform(1e-6, 1.0)
            base = harden(MembershipVector.from_values(values), nu)
            scaled = harden(
                MembershipVector.from_values({k: v * c for k, v in values.items()}),
                nu * c,
            )
            assert scaled.label == base.label

    def test_multi_high_option(self):
        mv = MembershipVector.from_values({"A": 0.9, "B": 0.85})
        assert harden(mv, 0.5).label == "A"

    def test_plain_dict_rule(self):
        assert harden(MembershipVector.from_values({"B": 0.7, "A": 0.7}), 0.5) == Classification("B", 0.7)
        c = harden(MembershipVector.from_values({"A": 0.2, "B": 0.4}), 0.5)
        assert c.label == "UNK"
        assert c.confidence == pytest.approx(0.6, abs=1e-12)
        assert harden_list([0.7, 0.7], 0.5) == (0, 0.7)
        assert harden_list([0.2, 0.4], 0.5) == (-1, 1.0 - 0.4)

    @given(st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=5),
           st.floats(0.0, 1.0))
    def test_agrees_with_the_reference_rule(self, mus, nu):
        values = {f"C{i}": mu for i, mu in enumerate(mus)}
        c = harden(MembershipVector.from_values(values), nu)
        label, confidence = harden_values(values, nu)
        assert (c.label, repr(c.confidence)) == (label, repr(confidence))

    @pytest.mark.parametrize("values", [{"A": -3.0}, {"A": 1.5}, {"A": math.nan, "B": 0.6},
                                        {"B": 0.6, "A": math.nan}, {"B": 0.6, "A": -0.1}],
                             ids=["below-0", "above-1", "nan-first", "nan-last", "below-0-last"])
    def test_membership_outside_unit_interval_rejected(self, values):
        bad = values["A"]
        with pytest.raises(ValueError, match=f"^membership of class 'A' is {bad}, outside \\[0,1\\]$"):
            MembershipVector.from_values(values)


class TestBatch:
    def test_order_preserved(self, basalt, tmp_path):
        paths = []
        for i, abunds in enumerate([{"Ca": 80, "Fe": 30}, {"Al": 20}, {"Ti": 20, "Fe": 50, "Al": 0.2}, {}]):
            p = tmp_path / f"s{i}.csv"
            p.write_text(spectrum_csv(abunds))
            paths.append(p)
        results = classify_batch(paths, basalt)
        assert [r.id for r in results] == ["s0", "s1", "s2", "s3"]
        assert [r.classification.label for r in results] == ["AGT", "PLG", "ILM", "UNK"]

    def test_partial_failure(self, basalt, tmp_path):
        good = tmp_path / "good.csv"
        good.write_text(spectrum_csv({"Al": 20}))
        bad = tmp_path / "bad.csv"
        bad.write_text("26.98,abc\n")
        results = classify_batch([good, bad, good], basalt)
        assert results[0].error is None
        assert results[1].error is not None
        assert results[1].id == "bad"
        assert results[2].error is None

    def test_worker_determinism(self, basalt):
        rng = random.Random(11)
        sources = []
        for i in range(40):
            abunds = {sym: rng.uniform(0, 90) for sym in ("Mg", "Al", "Ca", "Ti", "Mn", "Fe")}
            sources.append((f"s{i}", spectrum_csv(abunds)))
        serial = classify_batch(sources, basalt, workers=1)
        parallel = classify_batch(sources, basalt, workers=8)
        assert [(r.id, r.classification.label, r.membership.values) for r in serial] == \
               [(r.id, r.classification.label, r.membership.values) for r in parallel]

    @pytest.mark.parametrize("cores,workers,pools", [(2, 64, [2]), (4, 3, [3]), (1, 64, []), (None, 64, [])])
    def test_threads_capped_at_the_core_count(self, basalt, monkeypatch, cores, workers, pools):
        started = []

        class Recording(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        sources = [(f"s{i}", spectrum_csv({"Al": 5.0 * i, "Fe": 90.0 - i})) for i in range(40)]
        serial = classify_batch(sources, basalt)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        assert classify_batch(sources, basalt, workers=workers) == serial
        assert started == pools

    @pytest.mark.parametrize("row", ["55.954,nan", "55.954,inf", "nan,40", "inf,40"])
    def test_non_finite_peak_is_an_error_row(self, basalt, row):
        good = spectrum_csv({"Al": 20})
        results = classify_batch([("good", good), ("bad", "200,100\n" + row + "\n")], basalt)
        assert results[0].error is None
        assert results[1].membership is None and "on line 2" in results[1].error
        out = io.StringIO()
        write_batch_csv(results, basalt.class_codes(), out)
        assert out.getvalue().splitlines()[2] == "bad,,,ERROR,,,,,"

    @pytest.mark.parametrize("sid, field", [
        ("a,b", '"a,b"'), ('say "hi"', '"say ""hi"""'), ("a\r\nb", '"a\r\nb"'),
        ("x12 y40", "x12 y40"), ("", ""), ("'quoted'", "'quoted'"),
    ])
    def test_id_quoted_when_it_would_break_the_row(self, basalt, sid, field):
        results = classify_batch([(sid, spectrum_csv({"Al": 20})), (sid, "26.98,abc\n")], basalt)
        out = io.StringIO()
        write_batch_csv(results, basalt.class_codes(), out)
        _, rows = out.getvalue().split("\n", 1)
        assert rows.startswith(field + ",,,PLG,")
        assert rows.endswith("\n" + field + ",,,ERROR,,,,,\n")
        read = list(csv.reader(io.StringIO(rows, newline="")))
        assert [(row[0], row[3], len(row)) for row in read] == [(sid, "PLG", 9), (sid, "ERROR", 9)]

    @pytest.mark.parametrize("change, error", [
        (lambda rb: rb.classes.clear(), NoClasses),
        (lambda rb: setattr(rb.classes[1], "expr", And((Term("fe"), Term("nope")))), UnknownTerm),
    ], ids=["no-classes", "unknown-term"])
    def test_rule_base_error_raises_once(self, basalt, tmp_path, change, error):
        # Raised before any input is read: the missing file gives no error row.
        change(basalt)
        with pytest.raises(error):
            classify_batch([tmp_path / "missing.csv", ("s", spectrum_csv({"Al": 20}))], basalt)

    def test_iter_raises_rule_base_errors_at_the_call(self, basalt):
        basalt.classes.clear()
        with pytest.raises(NoClasses):
            classify_iter([("s", spectrum_csv({"Al": 20}))], basalt)

    def test_iter_reads_each_input_when_its_result_is_asked_for(self, basalt):
        taken = []

        def sources():
            for i in range(3):
                taken.append(i)
                yield f"s{i}", spectrum_csv({"Al": 20})

        results = classify_iter(sources(), basalt)
        assert taken == []
        assert next(results).id == "s0" and taken == [0]
        assert [r.id for r in results] == ["s1", "s2"]

    @given(st.text(alphabet="ab. /", max_size=12))
    def test_file_id_is_the_path_stem(self, path):
        assert files.stem(path) == Path(path).stem
