"""Ensemble peak statistics for authoring and refining rule bases.

Peaks from many spectra of one class (or a diverse ensemble) are
consolidated and accumulated into m/z bins; comparing per-bin class
means against ensemble means surfaces candidate key ions.
"""

from __future__ import annotations

import math
from array import array
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


def merged_peaks(columns, batch: int = 256):
    """The ``(mz, abundance)`` peaks of several peak columns, ascending.

    ``columns`` is a list of ``(mzs, abundances)`` sequence pairs, each
    ascending by ``(mz, abundance)``, as peak_list() returns them. Equal
    peaks come in the order of their columns, as from a stable sort of all
    peaks (or ``heapq.merge``), so the merge is the same bit for bit,
    signed zeros included. Peaks are paired and sorted one batch at a
    time: every peak not yet given whose m/z is at most a bound, the
    lowest over the columns of the m/z ``batch`` peaks ahead (or of the
    column's last). So no list of every peak is built, and the merging is
    done by ``list.sort`` in C, not one peak at a time in Python.
    """
    if len(columns) == 1:  # already in order
        yield from zip(*columns[0])
        return
    starts = [0] * len(columns)
    while True:
        bound = min((mzs[min(start + batch, len(mzs)) - 1]
                     for (mzs, _), start in zip(columns, starts) if start < len(mzs)),
                    default=None)
        if bound is None:
            return
        peaks = []
        for i, (mzs, abundances) in enumerate(columns):
            start = starts[i]
            end = starts[i] = bisect_right(mzs, bound, start)
            peaks += zip(mzs[start:end], abundances[start:end])
        peaks.sort()
        yield from peaks


def build_statdb(columns, n_spectra: int, eps: float) -> StatDB:
    """Accumulate consolidated peaks into m/z bins.

    ``columns`` holds the peaks of ``n_spectra`` spectra as ``(mzs,
    abundances)`` column pairs, each ascending by ``(mz, abundance)``: one
    peak_list() output per spectrum or, as ``stats`` passes them, one
    sorted pair per group. Binning walks merged_peaks(columns) and opens
    a new bin whenever the incoming m/z exceeds the current bin's running
    mean by more than eps. So the bins compare equal whatever the order of
    the columns.
    """
    if n_spectra < 1:
        raise EmptyEnsemble("no spectra to accumulate")

    # The open bin lives in locals and becomes a StatBin when it closes;
    # its center is phi_sum / c, the running mean of its m/z values.
    bins = []
    c = 0
    phi_sum = a_tot = a_tot2 = a_max = a_min = 0.0
    for mz, ab in merged_peaks(columns):
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
    if c:
        bins.append(StatBin(phi_sum / c, c, a_tot, a_tot2, a_max, a_min))
    return StatDB(bins=bins, n_spectra=n_spectra, eps=eps)


def group_statdbs(groups: dict, sizes, eps: float):
    """Bin each group's peaks, then all of them: ``({key: StatDB}, ensemble StatDB)``.

    ``groups`` maps each group key to its spectra's peaks as two
    ``array('d')`` columns, m/z and abundance, in any order; ``sizes``
    maps the key to its number of spectra. The groups are taken in turn:
    their columns become ``(mz, abundance)`` pairs, sorted, and stored
    back into ``groups`` as sorted columns, which are then binned. So the
    pairs of one group at most exist at any moment, and those of the
    largest group set the peak: with few groups, as under ``stats
    --group-by label``, that can come near the pairs of every peak. The
    ensemble is binned from the merge of the sorted columns in
    ``groups``' order, which gives the bins, bit for bit, of sorting every
    peak in one list.
    """
    dbs = {}
    for key in groups:
        peaks = sorted(zip(*groups[key]))
        groups[key] = (array("d", [mz for mz, _ in peaks]),
                       array("d", [ab for _, ab in peaks]))
        del peaks  # before the next group's pairs are built
        dbs[key] = build_statdb([groups[key]], sizes[key], eps)
    ensemble = build_statdb(list(groups.values()), sum(sizes[key] for key in groups), eps)
    return dbs, ensemble


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
