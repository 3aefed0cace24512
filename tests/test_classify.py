import io
import math
import random
import re

import pytest
from hypothesis import given, strategies as st

from conftest import ION_MZ, make_spectrum, spectrum_csv
from spectraclass.classify import (
    Classification,
    MembershipVector,
    classify_batch,
    harden,
    harden_values,
    memberships,
    write_batch_csv,
)
from spectraclass.errors import CannotNormalize, NoClasses
from spectraclass.fuzzy import eval_expr
from spectraclass.rulebase import builtin_basalt
from spectraclass.spectrum import Spectrum, normalize, peak_abundance


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
    return {cr.code: eval_expr(cr.expr, {name: fn(peak_abundance(n, ion, eps))
                                         for name, (ion, fn) in cr.terms.items()})
            for cr in rb.classes}


@st.composite
def rule_base_and_spectrum(draw):
    """Basalt with a drawn epsilon and excluded ions, and a spectrum with
    points on and next to the edges of the ion windows."""
    rb = builtin_basalt()
    rb.ions["K"] = ION_MZ["K"]
    rb.options.epsilon = eps = draw(st.sampled_from([0.05, 0.1, 0.2, 0.3, 1.0]))
    rb.options.normalize_excluding = tuple(draw(st.lists(
        st.sampled_from(["K", "Ca", "Fe", "Ti"]), max_size=2, unique=True)))
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
        assert harden(mv, 0.5, unk_if_second_above=0.8).label == "UNK"

    def test_plain_dict_rule(self):
        assert harden_values({"B": 0.7, "A": 0.7}, 0.5) == ("B", 0.7)
        label, confidence = harden_values({"A": 0.2, "B": 0.4}, 0.5)
        assert label == "UNK"
        assert confidence == pytest.approx(0.6, abs=1e-12)
        with pytest.raises(NoClasses):
            harden_values({}, 0.5)


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

    @pytest.mark.parametrize("row", ["55.954,nan", "55.954,inf", "nan,40", "inf,40"])
    def test_non_finite_peak_is_an_error_row(self, basalt, row):
        good = spectrum_csv({"Al": 20})
        results = classify_batch([("good", good), ("bad", "200,100\n" + row + "\n")], basalt)
        assert results[0].error is None
        assert results[1].membership is None and "on line 2" in results[1].error
        out = io.StringIO()
        write_batch_csv(results, basalt.class_codes(), out)
        assert out.getvalue().splitlines()[2] == "bad,,,ERROR,,,,,"
