import math
import random
from array import array
from contextlib import contextmanager
from itertools import chain

import pytest
from hypothesis import example, given, strategies as st

from conftest import make_spectrum
from spectraclass import stats
from spectraclass.errors import EmptyEnsemble, IncompatibleDBs
from spectraclass.spectrum import Spectrum
from spectraclass.stats import (
    StatBin,
    StatDB,
    build_statdb,
    class_vs_ensemble_report,
    group_statdbs,
    peak_list,
    sweep,
)


def statdb(spectra, eps):
    """build_statdb() over the peak_list() of each spectrum, as stats consolidates them."""
    return build_statdb([peak_list(s, eps) for s in spectra], len(spectra), eps)


class TestPeakList:
    def test_consolidation(self):
        s = Spectrum(((26.98, 5.0), (26.99, 7.0), (55.95, 40.0)))
        assert peak_list(s, 0.02) == ([26.99, 55.95], [7.0, 40.0])

    def test_single_point(self):
        s = Spectrum(((26.98, 5.0),))
        assert peak_list(s, 0.02) == ([26.98], [5.0])

    def test_exactly_eps_apart_merges(self):
        s = Spectrum(((26.98, 5.0), (27.00, 7.0)))
        assert peak_list(s, 0.02) == ([27.00], [7.0])

    def test_beyond_eps_kept(self):
        s = Spectrum(((26.98, 5.0), (27.01, 7.0)))
        assert peak_list(s, 0.02) == ([26.98, 27.01], [5.0, 7.0])


class TestBuildStatDB:
    def test_hand_accumulation(self):
        a = Spectrum(((26.98, 5.0),))
        b = Spectrum(((26.99, 7.0),))
        db = statdb([a, b], 0.02)
        assert len(db.bins) == 1
        bin0 = db.bins[0]
        assert bin0.phi == pytest.approx(26.985, abs=1e-12)
        assert bin0.c == 2
        assert bin0.a_tot == 12.0
        assert bin0.a_tot2 == 74.0
        assert bin0.a_max == 7.0
        assert bin0.a_min == 5.0
        assert db.n_spectra == 2

    def test_single_spectrum_identity(self):
        s = Spectrum(((26.98, 5.0), (55.95, 40.0)))
        db = statdb([s], 0.02)
        for b in db.bins:
            assert b.c == 1
            assert b.a_tot2 == b.a_tot ** 2

    def test_distant_peaks_two_bins(self):
        a = Spectrum(((26.0, 5.0),))
        b = Spectrum(((27.0, 7.0),))
        db = statdb([a, b], 0.02)
        assert len(db.bins) == 2

    def test_empty_input(self):
        with pytest.raises(EmptyEnsemble):
            build_statdb([], 0, 0.02)

    def test_order_invariance(self):
        rng = random.Random(5)
        spectra = []
        for _ in range(8):
            pts = sorted({round(rng.uniform(20, 60), 3): rng.uniform(1, 100)
                          for _ in range(15)}.items())
            spectra.append(Spectrum(tuple(pts)))
        base = statdb(spectra, 0.05)
        for _ in range(30):
            shuffled = spectra[:]
            rng.shuffle(shuffled)
            db = statdb(shuffled, 0.05)
            assert len(db.bins) == len(base.bins)
            for x, y in zip(db.bins, base.bins):
                assert x.phi == pytest.approx(y.phi, abs=1e-9)
                assert (x.c, x.a_tot, x.a_tot2, x.a_max, x.a_min) == \
                       (y.c, y.a_tot, y.a_tot2, y.a_max, y.a_min)

    def test_variance_non_negative(self):
        rng = random.Random(9)
        spectra = []
        for _ in range(10):
            pts = sorted({round(rng.uniform(20, 30), 2): rng.uniform(1, 100)
                          for _ in range(10)}.items())
            spectra.append(Spectrum(tuple(pts)))
        db = statdb(spectra, 0.1)
        for b in db.bins:
            assert b.variance() >= -1e-9


class TestReport:
    def test_ratio(self):
        cls = [Spectrum(((26.98, 10.0),)), Spectrum(((26.98, 10.0),))]
        ens = cls + [Spectrum(((26.98, 2.0),))] * 8
        class_db = statdb(cls, 0.05)
        # class mean 10; ensemble mean (20 + 16) / 10 = 3.6
        rows = class_vs_ensemble_report(class_db, statdb(ens, 0.05))
        assert len(rows) == 1
        assert rows[0].ratio == pytest.approx(10.0 / 3.6)
        assert rows[0].flag == "key-candidate"

    def test_self_comparison_all_ones(self):
        spectra = [make_spectrum({"Al": 12, "Ca": 60}), make_spectrum({"Al": 14, "Ca": 55})]
        db = statdb(spectra, 0.05)
        rows = class_vs_ensemble_report(db, db)
        assert all(r.ratio == pytest.approx(1.0) for r in rows)

    def test_unique_bin_flagged(self):
        cls = [Spectrum(((26.98, 10.0), (90.0, 5.0)))]
        ens = [Spectrum(((26.98, 10.0),))]
        rows = class_vs_ensemble_report(statdb(cls, 0.05), statdb(ens, 0.05))
        unique = [r for r in rows if r.flag == "unique"]
        assert len(unique) == 1
        assert math.isinf(unique[0].ratio)

    def test_partial_presence_flagged(self):
        cls = [Spectrum(((26.98, 10.0), (40.0, 5.0))), Spectrum(((40.0, 5.0),))]
        rows = class_vs_ensemble_report(statdb(cls, 0.05), statdb(cls, 0.05))
        flags = {round(r.phi, 2): r.flag for r in rows}
        assert flags[26.98] == "partial-presence"
        assert flags[40.0] == "-"

    def test_zero_inclusive_mode(self):
        cls = [Spectrum(((26.98, 10.0),)), Spectrum(((50.0, 4.0),))]
        db = statdb(cls, 0.05)
        rows = class_vs_ensemble_report(db, db, mode="zero-inclusive-mean")
        # both DBs divide by the same n_spectra, so ratios stay 1
        assert all(r.ratio == pytest.approx(1.0) for r in rows)

    def test_eps_mismatch(self):
        s = Spectrum(((26.98, 5.0),))
        with pytest.raises(IncompatibleDBs):
            class_vs_ensemble_report(statdb([s], 0.02), statdb([s], 0.05))


def old_peak_list(s, eps):
    """peak_list() as first written, building a new tuple per kept peak."""
    out = []
    prev_mz = None
    for mz, ab in s.points:
        if prev_mz is not None and mz - prev_mz <= eps:
            if ab > out[-1][1]:
                out[-1] = (mz, ab)
        else:
            out.append((mz, ab))
        prev_mz = mz
    return out


def old_build_statdb(spectra, eps):
    """build_statdb() as first written, updating the open StatBin per peak."""
    spectra = list(spectra)
    peaks = []
    for s in spectra:
        peaks.extend(old_peak_list(s, eps))
    peaks.sort()
    bins = []
    phi_sum = 0.0
    for mz, ab in peaks:
        if bins and mz - phi_sum / bins[-1].c <= eps:
            b = bins[-1]
            phi_sum += mz
            b.c += 1
            b.a_tot += ab
            b.a_tot2 += ab * ab
            b.a_max = max(b.a_max, ab)
            b.a_min = min(b.a_min, ab)
            b.phi = phi_sum / b.c
        else:
            phi_sum = mz
            bins.append(StatBin(phi=mz, c=1, a_tot=ab, a_tot2=ab * ab, a_max=ab, a_min=ab))
    return StatDB(bins=bins, n_spectra=len(spectra), eps=eps)


# m/z on a 1/8 grid make gaps of exactly eps for the dyadic eps values, and
# are shared across spectra; abundances repeat, and -0.0 ties with 0.0.
GRID_MZ = st.integers(0, 48).map(lambda k: 20.0 + k / 8)
STAT_MZ = st.one_of(GRID_MZ, st.floats(20.0, 26.0))
STAT_ABUNDANCE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5, 100.0]),
                           st.floats(0.0, 100.0))
STAT_EPS = st.sampled_from([0.125, 0.25, 0.5, 0.02, 0.2])


def stat_spectrum(max_size=12):
    return st.dictionaries(STAT_MZ, STAT_ABUNDANCE, min_size=1, max_size=max_size).map(
        lambda pts: Spectrum(tuple(sorted(pts.items()))))


def exact(x, y):
    """x == y, and their reprs agree too, so a 0.0 in place of a -0.0 differs."""
    return x == y and repr(x) == repr(y)


def assert_exact_db(db, ref):
    """``db`` and ``ref`` hold the same bins, field for field, as exact() compares them."""
    assert (db.n_spectra, db.eps) == (ref.n_spectra, ref.eps)
    assert len(db.bins) == len(ref.bins)
    for b, r in zip(db.bins, ref.bins):
        for name in ("phi", "c", "a_tot", "a_tot2", "a_max", "a_min"):
            assert exact(getattr(b, name), getattr(r, name)), name


EXACT_EPS_GAP = [Spectrum(((20.0, 1.0), (20.25, 2.0))), Spectrum(((20.5, 3.0),))]
SIGNED_ZERO_TIES = [Spectrum(((20.0, -0.0), (21.0, 0.0))), Spectrum(((20.0, 0.0), (21.0, -0.0)))]
EQUAL_ABUNDANCES = [Spectrum(((20.0, 5.0), (20.125, 5.0), (20.25, 5.0)))]
# One m/z in two groups with different abundances, and a tie of signed zeros.
EQUAL_MZ_ACROSS_GROUPS = [Spectrum(((20.0, 3.0), (21.0, -0.0))),
                          Spectrum(((20.0, 1.0), (21.0, 0.0)))]
# Two abundances that differ, but not once scaled by 1e-310 (a subnormal product).
EQUAL_ONCE_SCALED = Spectrum(((20.0, 1.0), (20.125, 1.0000000000000002)))
STAT_FACTOR = st.one_of(st.sampled_from([1.0, 0.5, 100 / 3, 1e-310]), st.floats(1e-3, 1e3))


# (SWEEP_STRIDE, SWEEP_STEP): strides down to one peak a column, and caps
# down to two samples a step, make a few peaks take several steps.
STAT_SWEEP = st.sampled_from([(1, 1 << 14), (1, 2), (2, 1 << 14), (3, 6), (4, 1 << 14),
                              (stats.SWEEP_STRIDE, stats.SWEEP_STEP)])


@contextmanager
def strided(sweep_constants):
    """sweep() under the ``(SWEEP_STRIDE, SWEEP_STEP)`` given."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats, "SWEEP_STRIDE", sweep_constants[0])
        mp.setattr(stats, "SWEEP_STEP", sweep_constants[1])
        yield


def peak_columns(max_size=12):
    """(mzs, abundances) columns ascending by (mz, abundance); m/z repeat, zeros tie."""
    peaks = st.lists(st.tuples(GRID_MZ, STAT_ABUNDANCE), max_size=max_size).map(sorted)
    return peaks.map(lambda ps: ([mz for mz, _ in ps], [ab for _, ab in ps]))


class TestSweep:
    @given(st.lists(st.lists(peak_columns(), max_size=4), max_size=4), STAT_SWEEP)
    @example([[([20.0, 20.0, 20.0], [-0.0, 0.0, 1.0]), ([20.0, 20.0], [0.0, -0.0])],
              [([20.0], [-0.0]), ([19.875, 20.0], [1.0, 0.0])]], (1, 2))
    def test_steps_chain_to_a_stable_sort(self, groups, sweep_constants):
        # Strides of one to four peaks a column put step bounds inside runs of equal m/z.
        steps = []
        with strided(sweep_constants):
            sweep(groups, lambda shares, every: steps.append((shares, every)))
        peaks = [[p for mzs, abundances in group for p in zip(mzs, abundances)] for group in groups]
        assert exact(list(chain.from_iterable(every for _, every in steps)),
                     sorted(chain.from_iterable(peaks)))
        for g, group_peaks in enumerate(peaks):
            assert exact(list(chain.from_iterable(shares[g] for shares, _ in steps)),
                         sorted(group_peaks))

    def test_steps_take_about_a_stride_of_peaks_a_column(self):
        # 3 columns of 320 peaks at stride 32: 30 samples, a bound every 3rd.
        columns = [([k + j / 4 for k in range(320)], [1.0] * 320) for j in range(3)]
        steps = []
        sweep([columns[:1], columns[1:]], lambda shares, every: steps.append(every))
        assert len(steps) == 11
        assert max(len(every) for every in steps) <= 2 * 3 * stats.SWEEP_STRIDE

    def test_short_columns_are_sampled_in_turn_and_steps_capped(self):
        # 100 columns of 7 peaks: every 32nd of the 700 in turn gives 21
        # samples, and a cap of 320 peaks a step puts a bound at every 10th.
        columns = [([k + j / 128 for k in range(7)], [1.0] * 7) for j in range(100)]
        steps = []
        with strided((stats.SWEEP_STRIDE, 320)):
            sweep([columns], lambda shares, every: steps.append(len(every)))
        assert len(steps) == 3
        assert sum(steps) == 700 and max(steps) <= 2 * 320


class TestAgainstFirstVersion:
    """peak_list and build_statdb give what their first versions gave."""

    @given(stat_spectrum(30), STAT_EPS, STAT_FACTOR)
    @example(EXACT_EPS_GAP[0], 0.25, 1.0)
    @example(EQUAL_ABUNDANCES[0], 0.125, 1.0)
    @example(EQUAL_ONCE_SCALED, 0.125, 1e-310)
    def test_peak_list(self, s, eps, factor):
        # The first version on the spectrum scaled as normalize() scales it.
        scaled = Spectrum._trusted(s.mzs, [ab * factor for ab in s.abundances])
        assert exact(list(zip(*peak_list(s, eps, factor))), old_peak_list(scaled, eps))

    @given(st.lists(stat_spectrum(), min_size=1, max_size=6), STAT_EPS, STAT_SWEEP)
    @example(EXACT_EPS_GAP, 0.25, (1, 2))
    @example(SIGNED_ZERO_TIES, 0.5, (1, 2))
    @example(EQUAL_ABUNDANCES * 2, 0.125, (1, 2))
    def test_build_statdb(self, spectra, eps, sweep_constants):
        with strided(sweep_constants):
            db = statdb(spectra, eps)
        assert_exact_db(db, old_build_statdb(spectra, eps))

    @given(st.lists(st.lists(stat_spectrum(), min_size=1, max_size=4), min_size=1, max_size=4),
           STAT_EPS, STAT_SWEEP)
    @example([EXACT_EPS_GAP, [EXACT_EPS_GAP[1]]], 0.25, (1, 2))
    @example([SIGNED_ZERO_TIES[:1], SIGNED_ZERO_TIES[1:], SIGNED_ZERO_TIES], 0.5, (1, 2))
    @example([EQUAL_ABUNDANCES, EQUAL_ABUNDANCES], 0.125, (1, 2))
    @example([EQUAL_MZ_ACROSS_GROUPS[:1], EQUAL_MZ_ACROSS_GROUPS[1:]], 0.125, (1, 2))
    def test_group_statdbs(self, groups, eps, sweep_constants):
        # One sweep over each spectrum's columns gives the DBs of sorting
        # every peak of the group, and of the run.
        columns = {key: [tuple(array("d", c) for c in peak_list(s, eps)) for s in spectra]
                   for key, spectra in enumerate(groups)}
        with strided(sweep_constants):
            dbs, ensemble = group_statdbs(columns, eps)
        assert list(dbs) == list(range(len(groups)))
        for key, spectra in enumerate(groups):
            assert_exact_db(dbs[key], old_build_statdb(spectra, eps))
        assert_exact_db(ensemble, old_build_statdb([s for g in groups for s in g], eps))

    @given(st.lists(stat_spectrum(), min_size=1, max_size=6), STAT_EPS, STAT_SWEEP)
    @example(SIGNED_ZERO_TIES, 0.5, (1, 2))
    def test_one_group_is_the_ensemble_binned_once(self, spectra, eps, sweep_constants):
        binned = []
        columns = [peak_list(s, eps) for s in spectra]
        with strided(sweep_constants), pytest.MonkeyPatch.context() as mp:
            mp.setattr(stats._Bins, "add", lambda bins, peaks, add=stats._Bins.add:
                       binned.append(len(peaks)) or add(bins, peaks))
            dbs, ensemble = group_statdbs({"g": columns}, eps)
        assert_exact_db(ensemble, dbs["g"])
        assert_exact_db(ensemble, old_build_statdb(spectra, eps))
        assert sum(binned) == sum(len(mzs) for mzs, _ in columns)

    def test_no_groups(self):
        for groups in ({}, {"g": []}):
            with pytest.raises(EmptyEnsemble):
                group_statdbs(groups, 0.02)

    @given(st.lists(stat_spectrum(), min_size=1, max_size=6), STAT_EPS, st.randoms())
    def test_bins_do_not_depend_on_input_order(self, spectra, eps, rng):
        shuffled = spectra[:]
        rng.shuffle(shuffled)
        # ==, not exact(): which of two tied zeros of opposite sign a bin
        # keeps as its max or min follows the input order
        assert statdb(shuffled, eps) == statdb(spectra, eps)
