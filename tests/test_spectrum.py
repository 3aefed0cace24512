import math

import pytest
from hypothesis import given, strategies as st

from spectraclass.errors import (
    CannotNormalize,
    DomainError,
    EmptySpectrum,
    ParseError,
)
from spectraclass.spectrum import (
    IonTarget,
    Spectrum,
    normalize,
    parse_spectrum,
    peak_abundance,
    scale_factor,
    serialize_spectrum,
)

K = IonTarget("K", 38.963)
FE = IonTarget("Fe", 55.954)
TI = IonTarget("Ti", 47.95)


def spectra(min_size=1):
    def build(pairs):
        pairs = sorted({round(mz, 6): ab for mz, ab in pairs}.items())
        return Spectrum(tuple(pairs)) if pairs else None

    abundance = st.one_of(st.just(0.0), st.floats(1e-3, 100.0))
    return st.lists(
        st.tuples(st.floats(1.0, 1000.0), abundance),
        min_size=min_size, max_size=30,
        unique_by=lambda t: round(t[0], 6),
    ).map(build).filter(lambda s: s is not None)


class TestParse:
    def test_csv_echo(self):
        s = parse_spectrum("26.98,40\n55.95,100")
        assert s.points == ((26.98, 40.0), (55.95, 100.0))

    def test_sort_invariance(self):
        a = parse_spectrum("26.98,40\n55.95,100")
        b = parse_spectrum("55.95,100\n26.98,40")
        assert a == b

    def test_malformed_field(self):
        with pytest.raises(ParseError) as exc:
            parse_spectrum("26.98,abc")
        assert exc.value.line == 1

    def test_comments_and_blank_lines(self):
        s = parse_spectrum("# header\n\n26.98,40\n")
        assert s.points == ((26.98, 40.0),)

    def test_msp_like(self):
        s = parse_spectrum("26.98 40\n55.95\t100", format="msp-like")
        assert s.points == ((26.98, 40.0), (55.95, 100.0))

    def test_duplicate_mz_merges_max(self):
        s = parse_spectrum("26.98,40\n26.98,70\n26.98,10")
        assert s.points == ((26.98, 70.0),)

    def test_empty_input(self):
        with pytest.raises(EmptySpectrum):
            parse_spectrum("# nothing here\n")

    def test_negative_abundance(self):
        with pytest.raises(DomainError):
            parse_spectrum("26.98,-1")

    def test_wrong_field_count_names_line(self):
        with pytest.raises(ParseError) as exc:
            parse_spectrum("26.98,40\n55.95,100,3\n")
        assert exc.value.line == 2

    def test_negative_abundance_names_line(self):
        with pytest.raises(DomainError, match="negative abundance on line 3"):
            parse_spectrum("# header\n26.98,40\n55.95,-0.5\n")

    def test_non_positive_mz_names_line(self):
        with pytest.raises(DomainError, match="non-positive m/z on line 2"):
            parse_spectrum("26.98,40\n0,100\n")

    @pytest.mark.parametrize("fmt, sep", [("csv", ","), ("msp-like", " ")])
    @pytest.mark.parametrize("row, reason", [
        ("55.954{}nan", "non-finite abundance"),
        ("55.954{}inf", "non-finite abundance"),
        ("nan{}100", "non-finite m/z"),
        ("inf{}100", "non-finite m/z"),
        ("55.954{}-inf", "negative abundance"),
    ])
    def test_non_finite_rejected_with_line(self, fmt, sep, row, reason):
        text = "\n".join(["200{}100".format(sep), row.format(sep)])
        with pytest.raises(DomainError, match=f"{reason} on line 2"):
            parse_spectrum(text, format=fmt)

    def test_negative_zero_abundance_reads_as_zero(self):
        s = parse_spectrum("26.98,-0\n55.95,100")
        assert math.copysign(1.0, s.points[0][1]) == 1.0

    def test_unsorted_duplicates_merge_to_max(self):
        s = parse_spectrum("55.95,100\n26.98,10\n55.95,3\n26.98,70\n26.98,40")
        assert s.points == ((26.98, 70.0), (55.95, 100.0))

    @given(spectra())
    def test_parse_serialize_roundtrip(self, s):
        assert parse_spectrum(serialize_spectrum(s)) == Spectrum(s.points)


class TestDirectConstruction:
    """Spectrum(...) checks its points; parse_spectrum checks rows instead."""

    @pytest.mark.parametrize("points, error", [
        ((), EmptySpectrum),
        (((20.0, 1.0), (10.0, 2.0)), DomainError),
        (((10.0, 1.0), (10.0, 2.0)), DomainError),
        (((10.0, -1.0),), DomainError),
        (((0.0, 1.0),), DomainError),
        (((-3.0, 1.0),), DomainError),
        (((10.0, math.nan),), DomainError),
        (((10.0, math.inf),), DomainError),
        (((math.inf, 1.0),), DomainError),
    ])
    def test_rejects(self, points, error):
        with pytest.raises(error):
            Spectrum(points)

    def test_converts_to_float(self):
        assert Spectrum(((10, 2),)).points == ((10.0, 2.0),)


def old_normalize(s, excluded=(), eps=0.2):
    """The points normalize() gave as first written, with a window test per point."""
    excluded = list(excluded)

    def is_excluded(mz):
        return any(abs(mz - ion.mz) <= eps for ion in excluded)

    ref = 0.0
    have_candidate = False
    for mz, ab in s.points:
        if not is_excluded(mz):
            have_candidate = True
            ref = max(ref, ab)
    if not have_candidate:
        raise CannotNormalize("all points fall within excluded ion windows")
    if ref == 0.0:
        raise CannotNormalize("all non-excluded abundances are zero")
    factor = 100.0 / ref
    if not math.isfinite(factor):
        raise CannotNormalize(f"reference abundance {ref} yields a non-finite scale factor")
    return tuple((mz, ab * factor) for mz, ab in s.points)


def outcome(fn, *args):
    """("ok", fn's result) or ("CannotNormalize", its message)."""
    try:
        return "ok", fn(*args)
    except CannotNormalize as exc:
        return "CannotNormalize", str(exc)


@st.composite
def edge_cases(draw):
    """(spectrum, excluded ions, eps) with points on and next to window edges."""
    eps = draw(st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.25, 0.5, 1.0]))
    # 39.0 with eps 0.25, 0.5 or 1.0 puts window edges on exact floats
    centers = draw(st.lists(st.sampled_from([K.mz, FE.mz, TI.mz, 39.0]), max_size=2, unique=True))
    excluded = [IonTarget(f"X{i}", c) for i, c in enumerate(centers)]
    looked_up = draw(st.lists(st.sampled_from([FE.mz, TI.mz]), max_size=1))
    mzs = draw(st.lists(st.floats(30.0, 60.0), max_size=3))
    for c in centers + looked_up:
        for edge in (c - eps, c + eps):
            step = draw(st.sampled_from([None, -1, 0, 0, 1]))
            if step is not None:
                mzs.append(edge if step == 0 else math.nextafter(edge, math.inf * step))
    abundance = st.one_of(st.just(0.0), st.floats(1e-300, 1e6), st.floats(1e300, 1e308))
    points = {mz: draw(abundance) for mz in mzs if mz > 0}
    if not points:
        points[100.0] = draw(abundance)
    return Spectrum(tuple(sorted(points.items()))), excluded, eps


class TestNormalize:
    def test_excluded_potassium(self):
        s = Spectrum(((38.963, 200.0), (55.954, 50.0)))
        n = normalize(s, excluded=[K], eps=0.1)
        assert n.points == ((38.963, 400.0), (55.954, 100.0))

    def test_already_at_scale(self):
        s = Spectrum(((55.954, 100.0),))
        assert normalize(s).points == s.points

    def test_nothing_left_to_scale_by(self):
        s = Spectrum(((38.963, 200.0),))
        with pytest.raises(CannotNormalize):
            normalize(s, excluded=[K], eps=0.1)

    def test_all_zero(self):
        s = Spectrum(((10.0, 0.0), (20.0, 0.0)))
        with pytest.raises(CannotNormalize):
            normalize(s)

    def test_excluded_window_is_closed(self):
        s = Spectrum(((38.5, 500.0), (39.0, 1000.0), (39.5, 400.0), (45.0, 50.0)))
        n = normalize(s, excluded=[IonTarget("X", 39.0)], eps=0.5)
        assert n.points[-1] == (45.0, 100.0)

    def test_overflowing_excluded_peak(self):
        s = Spectrum(((10.0, 1e-300), (38.963, 1e308)))
        with pytest.raises(CannotNormalize, match="overflows"):
            normalize(s, excluded=[K], eps=0.1)

    @given(spectra().filter(lambda s: s.max_abundance > 1e-6))
    def test_idempotent(self, s):
        once = normalize(s)
        twice = normalize(once)
        for (m1, a1), (m2, a2) in zip(once.points, twice.points):
            assert m1 == m2
            assert a1 == pytest.approx(a2, abs=1e-9)

    @given(spectra(min_size=2).filter(lambda s: s.max_abundance > 1e-6))
    def test_ratios_preserved(self, s):
        n = normalize(s)
        pairs = list(zip(s.points, n.points))
        for i in range(len(pairs)):
            for j in range(i + 1, len(pairs)):
                (_, ai), (_, ni) = pairs[i]
                (_, aj), (_, nj) = pairs[j]
                if aj > 0 and nj > 0:
                    assert ai / aj == pytest.approx(ni / nj, rel=1e-12)


class TestPeakAbundance:
    def test_window_max(self):
        s = Spectrum(((47.90, 5.0), (47.96, 12.0), (48.30, 7.0)))
        assert peak_abundance(s, IonTarget("Ti", 47.95), 0.10) == 12.0

    def test_empty_window(self):
        s = Spectrum(((47.90, 5.0),))
        assert peak_abundance(s, FE, 0.10) == 0.0

    def test_endpoint_inclusive_zero_eps(self):
        s = Spectrum(((55.954, 40.0),))
        assert peak_abundance(s, FE, 0.0) == 40.0

    @given(spectra(), st.floats(0.0, 5.0), st.floats(0.0, 5.0), st.floats(1.0, 1000.0))
    def test_monotone_in_eps(self, s, e1, e2, mz):
        lo, hi = sorted((e1, e2))
        chi = IonTarget("X", mz)
        assert peak_abundance(s, chi, lo) <= peak_abundance(s, chi, hi)

    @given(spectra(), st.floats(0.0, 50.0), st.floats(1.0, 1000.0))
    def test_never_exceeds_global_max(self, s, eps, mz):
        assert peak_abundance(s, IonTarget("X", mz), eps) <= s.max_abundance

    @given(edge_cases(), st.sampled_from([K.mz, FE.mz, TI.mz, 39.0, 45.0]))
    def test_lookup_after_normalize_is_lookup_times_factor(self, case, ion_mz):
        s, excluded, eps = case
        factor = outcome(scale_factor, s, excluded, eps)
        old = outcome(old_normalize, s, excluded, eps)
        if old[0] == "ok" and math.inf in (ab for _, ab in old[1]):
            # the reference scales an excluded peak to inf; normalize() refuses that
            assert factor[1].startswith("peak abundance")
        elif old[0] != "ok":
            assert factor == old
        if factor[0] != "ok":
            assert outcome(normalize, s, excluded, eps) == factor
            return
        assert normalize(s, excluded, eps).points == old[1]
        ion = IonTarget("X", ion_mz)
        assert peak_abundance(normalize(s, excluded, eps), ion, eps) == \
            peak_abundance(s, ion, eps) * factor[1]
