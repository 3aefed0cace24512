"""Ensemble peak statistics for authoring and refining rule bases.

Peaks from many spectra of one class (or a diverse ensemble) are
consolidated and accumulated into m/z bins; comparing per-bin class
means against ensemble means surfaces candidate key ions.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

from .classify import fmt
from .errors import EmptyEnsemble, IncompatibleDBs
from .spectrum import Spectrum
from .value import Value

# Report presentation defaults, not derived quantities: the ratio flag
# thresholds and the histogram's bar width (characters) and ratio cap.
KEY_RATIO = 2.0
LOW_RATIO = 0.5
HISTOGRAM_WIDTH = 40
HISTOGRAM_CAP = 5.0


class StatBin(Value):
    __slots__ = _fields = ("phi", "c", "a_tot", "a_tot2", "a_max", "a_min")

    def __init__(self, phi: float, c: int, a_tot: float, a_tot2: float, a_max: float, a_min: float):
        self.phi = phi        # bin center: mean m/z of member peaks
        self.c = c            # count of member peaks (zero ones too; a spectrum may give several)
        self.a_tot = a_tot    # sum of abundances
        self.a_tot2 = a_tot2  # sum of squared abundances
        self.a_max = a_max
        self.a_min = a_min

    def mean(self) -> float:
        return self.a_tot / self.c

    def variance(self) -> float:
        return self.a_tot2 / self.c - (self.a_tot / self.c) ** 2


class StatDB(Value):
    __slots__ = _fields = ("bins", "n_spectra", "eps")

    def __init__(self, bins: list, n_spectra: int, eps: float):
        self.bins = bins
        self.n_spectra = n_spectra
        self.eps = eps


def peak_list(s: Spectrum, eps: float, factor: float = 1.0):
    """Consolidated peak list, scaled: points closer than eps collapse to the largest.

    Returns ``(mzs, abundances)``, two lists of equal length, ascending in
    m/z. Each abundance is multiplied by ``factor`` as normalize() does,
    and consolidated on that scaled value, so with scale_factor()'s factor
    the columns are the normalized spectrum's, bit for bit. Clusters chain
    on the gap between consecutive m/z values; the comparison is closed,
    so two peaks exactly eps apart merge. On equal abundances the first
    point is kept.
    """
    mzs = []
    abundances = []
    prev_mz = None
    kept = 0.0  # abundances[-1]
    for mz, ab in zip(s.mzs, s.abundances):
        ab *= factor
        if prev_mz is not None and mz - prev_mz <= eps:
            if ab > kept:
                mzs[-1] = mz
                abundances[-1] = ab
                kept = ab
        else:
            mzs.append(mz)
            abundances.append(ab)
            kept = ab
        prev_mz = mz
    return mzs, abundances


# sweep() samples every SWEEP_STRIDE-th peak of its columns, taken in
# turn, and puts a step's bound at every n-th sample, where n is the
# column count but at most SWEEP_STEP // SWEEP_STRIDE. A step then takes
# about SWEEP_STRIDE peaks a column, or about SWEEP_STEP in all where
# columns are many, and bisects each column once.
SWEEP_STRIDE = 32
SWEEP_STEP = 1 << 14


def sweep(groups, feed) -> None:
    """Feed each group's peaks, and all of them, ascending, one m/z step at a time.

    ``groups`` is a list of groups, each a list of ``(mzs, abundances)``
    column pairs ascending by ``(mz, abundance)``, as peak_list() returns
    them. Each step calls ``feed(shares, every)``: ``shares[g]`` lists
    group g's ``(mz, abundance)`` peaks whose m/z is at most the step's
    bound, sorted; ``every`` is the shares of all groups chained in group
    order and sorted again (``shares[0]`` itself when there is one group).
    Every peak of an m/z falls in one step, and ``list.sort`` is stable,
    so the steps chain to a stable sort of a group's peaks, and of every
    peak in group order, bit for bit, signed zeros included. A step's
    lists are dropped before the next is built.
    """
    columns = [pair for group in groups for pair in group]
    samples = []
    skip = SWEEP_STRIDE - 1  # peaks to pass before the next sample
    for mzs, _ in columns:
        samples += mzs[skip::SWEEP_STRIDE]
        skip = (skip - len(mzs)) % SWEEP_STRIDE
    samples.sort()
    n = max(1, min(len(columns), SWEEP_STEP // SWEEP_STRIDE))
    starts = [0] * len(columns)
    for bound in [*samples[n - 1::n], None]:  # None: the rest of every column
        feed(*_step(groups, starts, bound))


def _step(groups, starts, bound):
    """``(shares, every)`` of one sweep() step, advancing ``starts`` past its peaks."""
    shares = []
    i = 0
    for group in groups:
        share = []
        for mzs, abundances in group:
            start = starts[i]
            end = starts[i] = len(mzs) if bound is None else bisect_right(mzs, bound, start)
            share += zip(mzs[start:end], abundances[start:end])
            i += 1
        share.sort()
        shares.append(share)
    if len(shares) == 1:
        return shares, shares[0]
    every = []
    for share in shares:
        every += share
    every.sort()  # a merge of len(groups) sorted runs
    return shares, every


class _Bins:
    """m/z bins of ascending ``(mz, abundance)`` peaks, taken a batch at a time.

    A new bin opens whenever the incoming m/z exceeds the open bin's
    running mean by more than eps. The open bin lives across batches and
    becomes a StatBin when it closes; its center is ``phi_sum / c``.
    """

    __slots__ = ("eps", "bins", "open")

    def __init__(self, eps: float):
        self.eps = eps
        self.bins = []
        self.open = (0.0, 0, 0.0, 0.0, 0.0, 0.0)  # phi_sum, c, a_tot, a_tot2, a_max, a_min

    def add(self, peaks) -> None:
        eps = self.eps
        bins = self.bins
        phi_sum, c, a_tot, a_tot2, a_max, a_min = self.open
        for mz, ab in peaks:
            if c and mz - phi_sum / c <= eps:
                phi_sum += mz
                c += 1
                a_tot += ab
                a_tot2 += ab * ab
                if ab > a_max:  # strict, as max() and min() keep the first value on ties
                    a_max = ab
                if ab < a_min:
                    a_min = ab
            else:
                if c:
                    bins.append(StatBin(phi_sum / c, c, a_tot, a_tot2, a_max, a_min))
                phi_sum, c, a_tot, a_tot2, a_max, a_min = mz, 1, ab, ab * ab, ab, ab
        self.open = (phi_sum, c, a_tot, a_tot2, a_max, a_min)

    def statdb(self, n_spectra: int) -> StatDB:
        """The bins, the open one closed, as a StatDB of ``n_spectra`` spectra."""
        phi_sum, c, a_tot, a_tot2, a_max, a_min = self.open
        if c:
            self.bins.append(StatBin(phi_sum / c, c, a_tot, a_tot2, a_max, a_min))
        return StatDB(bins=self.bins, n_spectra=n_spectra, eps=self.eps)


def build_statdb(columns, n_spectra: int, eps: float) -> StatDB:
    """Accumulate consolidated peaks into m/z bins.

    ``columns`` holds the peaks of ``n_spectra`` spectra as ``(mzs,
    abundances)`` column pairs, each ascending by ``(mz, abundance)``, one
    peak_list() output per spectrum. The peaks are binned in the order of
    one stable sort of them all, taken a sweep() step at a time, so no
    list of every peak is built: a new bin opens whenever the incoming m/z
    exceeds the current bin's running mean by more than eps. So the bins
    compare equal whatever the order of the columns.
    """
    if n_spectra < 1:
        raise EmptyEnsemble("no spectra to accumulate")
    bins = _Bins(eps)
    sweep([columns], lambda shares, every: bins.add(every))
    return bins.statdb(n_spectra)


def group_statdbs(groups: dict, eps: float):
    """Bin each group's peaks, and all of them: ``({key: StatDB}, ensemble StatDB)``.

    ``groups`` maps each group key to its spectra's peaks, one ``(mzs,
    abundances)`` column pair per spectrum, as peak_list() gives them. One
    sweep() up the m/z axis feeds every group's bins and the ensemble's,
    so the peaks held as pairs at any moment are one step's, about
    SWEEP_STRIDE a spectrum or SWEEP_STEP in all, however the spectra
    split into groups. Each
    DB is, bit for bit, that of one stable sort of its peaks (the
    ensemble's in ``groups``' order). With one group, the ensemble is that
    group's DB.
    """
    if not groups or not all(groups.values()):
        raise EmptyEnsemble("no spectra to accumulate")
    if len(groups) == 1:
        ((key, columns),) = groups.items()
        db = build_statdb(columns, len(columns), eps)
        return {key: db}, db
    group_bins = [_Bins(eps) for _ in groups]
    ensemble_bins = _Bins(eps)

    def feed(shares, every):
        for bins, share in zip(group_bins, shares):
            bins.add(share)
        ensemble_bins.add(every)

    sweep(list(groups.values()), feed)
    dbs = {key: bins.statdb(len(groups[key])) for key, bins in zip(groups, group_bins)}
    return dbs, ensemble_bins.statdb(sum(len(columns) for columns in groups.values()))


class ReportRow(Value):
    __slots__ = _fields = ("phi", "class_mean", "ensemble_mean", "ratio", "count", "n_spectra", "flag")

    def __init__(self, phi: float, class_mean: float, ensemble_mean: float, ratio: float,
                 count: int, n_spectra: int, flag: str):
        self.phi = phi
        self.class_mean = class_mean
        self.ensemble_mean = ensemble_mean
        self.ratio = ratio
        self.count = count
        self.n_spectra = n_spectra
        self.flag = flag  # key-candidate | low-candidate | unique | partial-presence | -


def class_vs_ensemble_report(class_db: StatDB, ensemble_db: StatDB,
                             mode: str = "present-mean"):
    """Per-bin ratio of class mean abundance to ensemble mean abundance.

    ``present-mean`` averages over spectra that contain the peak;
    ``zero-inclusive-mean`` divides by the total spectrum count, which
    surfaces ions distinguishing a class by their LOW abundance. Class
    bins with no ensemble match within eps get an infinite ratio and the
    "unique" flag. Bins not present in every class spectrum are flagged
    "partial-presence". A ratio of at least KEY_RATIO flags a
    "key-candidate", one of at most LOW_RATIO a "low-candidate".
    """
    if mode not in ("present-mean", "zero-inclusive-mean"):
        raise ValueError(f"unknown mode {mode!r}")
    if class_db.eps != ensemble_db.eps:
        raise IncompatibleDBs(f"eps mismatch: {class_db.eps} vs {ensemble_db.eps}")
    eps = class_db.eps
    e_phis = [b.phi for b in ensemble_db.bins]

    def match(phi):
        i = bisect_left(e_phis, phi)
        best = None
        for j in (i - 1, i):
            if 0 <= j < len(e_phis) and abs(e_phis[j] - phi) <= eps:
                if best is None or abs(e_phis[j] - phi) < abs(e_phis[best] - phi):
                    best = j
        return ensemble_db.bins[best] if best is not None else None

    def mean_of(b, db):
        if mode == "present-mean":
            return b.mean()
        return b.a_tot / db.n_spectra

    rows = []
    for b in class_db.bins:
        cm = mean_of(b, class_db)
        eb = match(b.phi)
        if eb is None:
            em = 0.0
            ratio = math.inf
            flag = "unique"
        else:
            em = mean_of(eb, ensemble_db)
            ratio = math.inf if em == 0 else cm / em
            if ratio >= KEY_RATIO:
                flag = "key-candidate"
            elif ratio <= LOW_RATIO:
                flag = "low-candidate"
            else:
                flag = "-"
        if b.c < class_db.n_spectra:
            flag = "partial-presence"
        rows.append(ReportRow(b.phi, cm, em, ratio, b.c, class_db.n_spectra, flag))
    return rows


def write_report_csv(rows, stream) -> None:
    stream.write("phi,class_mean,ensemble_mean,ratio,count,n_spectra,flag\n")
    for r in rows:
        stream.write(",".join([
            fmt(r.phi), fmt(r.class_mean), fmt(r.ensemble_mean),
            fmt(r.ratio), str(r.count), str(r.n_spectra), r.flag,
        ]) + "\n")


def render_histogram(rows) -> str:
    """Terminal bar chart of class-vs-ensemble ratios, capped at HISTOGRAM_CAP."""
    lines = []
    for r in rows:
        ratio = min(r.ratio, HISTOGRAM_CAP)
        bar = "#" * max(1, round(ratio / HISTOGRAM_CAP * HISTOGRAM_WIDTH)) if r.ratio > 0 else ""
        lines.append(f"{r.phi:10.3f} |{bar:<{HISTOGRAM_WIDTH}}| {fmt(r.ratio):>8} {r.flag}")
    return "\n".join(lines)
