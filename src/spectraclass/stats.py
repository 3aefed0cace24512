"""Ensemble peak statistics for authoring and refining rule bases.

Peaks from many spectra of one class (or a diverse ensemble) are
consolidated and accumulated into m/z bins; comparing per-bin class
means against ensemble means surfaces candidate key ions.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from .classify import fmt
from .errors import EmptyEnsemble, IncompatibleDBs
from .spectrum import Spectrum


@dataclass
class StatBin:
    phi: float     # bin center: mean m/z of member peaks
    c: int         # count of contributing spectra (non-zero peaks)
    a_tot: float   # sum of abundances
    a_tot2: float  # sum of squared abundances
    a_max: float
    a_min: float

    def mean(self) -> float:
        return self.a_tot / self.c

    def variance(self) -> float:
        return self.a_tot2 / self.c - (self.a_tot / self.c) ** 2


@dataclass
class StatDB:
    bins: list
    n_spectra: int
    eps: float


def peak_list(s: Spectrum, eps: float):
    """Consolidated peak list: points closer than eps collapse to the largest.

    Clusters chain on the gap between consecutive m/z values; the
    comparison is closed, so two peaks exactly eps apart merge.
    """
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


def build_statdb(spectra, eps: float) -> StatDB:
    """Accumulate consolidated peaks from all spectra into m/z bins.

    Binning walks the globally sorted peak stream and opens a new bin
    whenever the incoming m/z exceeds the current bin's running mean by
    more than eps. Sorting first makes the result independent of the
    input spectrum order.
    """
    spectra = list(spectra)
    if not spectra:
        raise EmptyEnsemble("no spectra to accumulate")
    peaks = []
    for s in spectra:
        peaks.extend(peak_list(s, eps))
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


def merge_statdbs(a: StatDB, b: StatDB) -> StatDB:
    """Bin-wise merge of two DBs built with the same eps.

    Bins whose centers lie within eps combine; others carry over.
    """
    if a.eps != b.eps:
        raise IncompatibleDBs(f"eps mismatch: {a.eps} vs {b.eps}")
    eps = a.eps
    ai, bi = 0, 0
    bins = []
    while ai < len(a.bins) or bi < len(b.bins):
        if ai < len(a.bins) and bi < len(b.bins) and abs(a.bins[ai].phi - b.bins[bi].phi) <= eps:
            x, y = a.bins[ai], b.bins[bi]
            c = x.c + y.c
            bins.append(StatBin(
                phi=(x.phi * x.c + y.phi * y.c) / c,
                c=c,
                a_tot=x.a_tot + y.a_tot,
                a_tot2=x.a_tot2 + y.a_tot2,
                a_max=max(x.a_max, y.a_max),
                a_min=min(x.a_min, y.a_min),
            ))
            ai += 1
            bi += 1
        elif bi >= len(b.bins) or (ai < len(a.bins) and a.bins[ai].phi < b.bins[bi].phi):
            x = a.bins[ai]
            bins.append(StatBin(x.phi, x.c, x.a_tot, x.a_tot2, x.a_max, x.a_min))
            ai += 1
        else:
            y = b.bins[bi]
            bins.append(StatBin(y.phi, y.c, y.a_tot, y.a_tot2, y.a_max, y.a_min))
            bi += 1
    return StatDB(bins=bins, n_spectra=a.n_spectra + b.n_spectra, eps=eps)


def full_presence_bins(db: StatDB):
    """Bins present in every accumulated spectrum: candidate positive cues."""
    return [b for b in db.bins if b.c == db.n_spectra]


@dataclass
class ReportRow:
    phi: float
    class_mean: float
    ensemble_mean: float
    ratio: float
    count: int
    n_spectra: int
    flag: str  # key-candidate | low-candidate | unique | partial-presence | -


def class_vs_ensemble_report(class_db: StatDB, ensemble_db: StatDB,
                             mode: str = "present-mean",
                             key_ratio: float = 2.0,
                             low_ratio: float = 0.5):
    """Per-bin ratio of class mean abundance to ensemble mean abundance.

    ``present-mean`` averages over spectra that contain the peak;
    ``zero-inclusive-mean`` divides by the total spectrum count, which
    surfaces ions distinguishing a class by their LOW abundance. Class
    bins with no ensemble match within eps get an infinite ratio and the
    "unique" flag. Bins not present in every class spectrum are flagged
    "partial-presence". Ratio flag thresholds are report presentation
    defaults, not derived quantities.
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
            return b.a_tot / b.c
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
            if ratio >= key_ratio:
                flag = "key-candidate"
            elif ratio <= low_ratio:
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


def render_histogram(rows, width: int = 40, cap: float = 5.0) -> str:
    """Terminal bar chart of class-vs-ensemble ratios."""
    lines = []
    for r in rows:
        ratio = min(r.ratio, cap)
        bar = "#" * max(1, round(ratio / cap * width)) if r.ratio > 0 else ""
        lines.append(f"{r.phi:10.3f} |{bar:<{width}}| {fmt(r.ratio):>8} {r.flag}")
    return "\n".join(lines)
