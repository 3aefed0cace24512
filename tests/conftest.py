"""Shared fixtures: synthetic basalt-like spectra built from ion abundances."""

import pytest

from spectraclass.classify import compile_rules
from spectraclass.fuzzy import MembershipFn, Term
from spectraclass.rulebase import ClassRule, RuleBase, builtin_basalt
from spectraclass.spectrum import IonTarget, Spectrum

# m/z of a filler peak outside every rule window; pinned at 100 so the
# synthetic spectra are already on the relative-abundance scale.
FILLER_MZ = 200.0

ION_MZ = {
    "Mg": 24.312,
    "Al": 26.982,
    "Ca": 39.95,
    "Ti": 47.95,
    "Mn": 54.938,
    "Fe": 55.954,
    "K": 38.963,
}


def make_spectrum(abundances, id="", filler=100.0):
    """Spectrum from {ion symbol or m/z: abundance}; adds a filler base peak."""
    points = {}
    if filler is not None:
        points[FILLER_MZ] = filler
    for key, ab in abundances.items():
        mz = ION_MZ[key] if isinstance(key, str) else float(key)
        points[mz] = ab
    return Spectrum(tuple(sorted(points.items())), id=id)


def spectrum_csv(abundances, filler=100.0):
    s = make_spectrum(abundances, filler=filler)
    return "".join(f"{mz},{ab}\n" for mz, ab in s.points)


def grid_csv(topology, rows, cols, memberships, codes=None):
    """Grid file text: the three headers, then one line per ``{code: membership}`` dict, in row-major order.

    The columns are ``mu_<code>`` for each of ``codes``, by default the
    first dict's keys. repr() writes each membership, so it reads back
    exactly, -0.0 included.
    """
    codes = list(memberships[0]) if codes is None else codes
    lines = [f"# topology: {topology}", f"# rows: {rows}", f"# cols: {cols}", ",".join(f"mu_{c}" for c in codes)]
    lines += [",".join(repr(m[c]) for c in codes) for m in memberships]
    return "\n".join(lines) + "\n"


def term_memberships(thresholds):
    """``ps -> (highs, lows)``: memberships of abundances p >= 0 in high and low terms, through compile_rules.

    Term k has the thresholds ``thresholds[k]``, an ``(l, h)`` pair with
    l < h, and reads its own ion, at m/z k + 1; one class holds each term.
    The spectrum's peaks are ``ps[k]`` at term k's ion, and its scale
    factor is given as 1.
    """
    ions = [IonTarget(f"X{k}", k + 1.0) for k in range(len(thresholds))]
    rb = RuleBase("terms", {x.symbol: x.mz for x in ions},
                  [ClassRule(f"{polarity} {x.symbol}", polarity,
                             {"t": (x, MembershipFn(polarity, l, h))}, Term("t"))
                   for polarity in ("high", "low") for x, (l, h) in zip(ions, thresholds)])
    classify_spectrum = compile_rules(rb)

    def memberships(ps):
        spectrum = Spectrum(tuple((x.mz, p) for x, p in zip(ions, ps)))
        values = list(classify_spectrum(spectrum, 1.0).values.values())
        return values[:len(ions)], values[len(ions):]
    return memberships


@pytest.fixture
def basalt():
    return builtin_basalt()
