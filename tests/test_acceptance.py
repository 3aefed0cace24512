"""Acceptance suite: one test per release criterion, each printing a
pass line with its runtime. Expected values are hand-computed from the
rule definitions or produced by independent brute-force oracles."""

import itertools
import random
import time

import pytest

from conftest import grid_csv, make_spectrum, spectrum_csv, term_memberships
from spectraclass.classify import classify_batch, harden, memberships
from spectraclass.cli import main
from spectraclass.fuzzy import And, Not, Or, Term, compile_expr
from spectraclass.rulebase import builtin_basalt, parse_rulebase, serialize_rulebase
from spectraclass.spatial import map_rows, read_grid_csv, reclassify_map
from spectraclass.spectrum import Spectrum
from spectraclass.stats import build_statdb, class_vs_ensemble_report, peak_list


def _report(n, desc, t0, limit):
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"criterion {n} took {elapsed:.2f}s (limit {limit}s)"
    print(f"ACCEPTANCE {n}: PASS ({elapsed:.2f}s) - {desc}")


def test_criterion_1_fuzzy_algebra_exactness():
    t0 = time.perf_counter()
    a, b = Term("a"), Term("b")
    index = {"a": 0, "b": 1}
    f_and = compile_expr(And((a, b)), index)
    not_and = compile_expr(Not(And((a, b))), index)
    or_not = compile_expr(Or((Not(a), Not(b))), index)
    assert f_and([0.9, 0.9]) == 0.81
    rng = random.Random(0)
    for _ in range(100_000):
        values = [rng.random(), rng.random()]
        assert abs(not_and(values) - or_not(values)) <= 1e-15
    _report(1, "fuzzy algebra exactness + De Morgan over 1e5 pairs", t0, 1.0)


# Every (class, term, ion, l, h, m/z) cell of the published basalt rules.
TABLE = {
    "ILM": {"not_al": ("Al", "low", 0.5, 15), "ti": ("Ti", "high", 1, 17),
            "fe": ("Fe", "high", 1, 40)},
    "AGT": {"ca": ("Ca", "high", 50, 80), "not_ti": ("Ti", "low", 1, 17),
            "fe": ("Fe", "high", 1, 30)},
    "PLG": {"al": ("Al", "high", 0.5, 15), "not_ti": ("Ti", "low", 1, 17),
            "not_fe": ("Fe", "low", 10, 40)},
    "OLV": {"mg": ("Mg", "high", 1, 50), "not_al": ("Al", "low", 0.5, 15),
            "not_ti": ("Ti", "low", 1, 17), "mn": ("Mn", "high", 10, 40),
            "fe": ("Fe", "high", 10, 40)},
}
ION_MZ_TABLE = {"Mg": 24.312, "Al": 26.982, "Ca": 39.95, "Ti": 47.95,
                "Mn": 54.938, "Fe": 55.954}


def test_criterion_2_builtin_fidelity():
    t0 = time.perf_counter()
    rb = builtin_basalt()
    assert rb.ions == ION_MZ_TABLE
    assert [c.code for c in rb.classes] == list(TABLE)
    for cr in rb.classes:
        expected = TABLE[cr.code]
        assert set(cr.terms) == set(expected)
        for name, (ion, fn) in cr.terms.items():
            sym, pol, l, h = expected[name]
            assert (ion.symbol, ion.mz) == (sym, ION_MZ_TABLE[sym])
            assert (fn.polarity, fn.l, fn.h) == (pol, l, h)
    assert rb.options.nu == 0.5
    assert parse_rulebase(serialize_rulebase(rb)) == rb
    _report(2, "built-in basalt threshold fidelity + serialize/parse round trip", t0, 1.0)


def test_criterion_3_membership_law():
    t0 = time.perf_counter()
    rng = random.Random(1)
    # 10,000 terms through compile_rules, on abundances a spectrum holds: p >= 0.
    cases = []
    for _ in range(10_000):
        l = rng.uniform(0, 100)
        h = l + rng.uniform(1e-6, 100)
        p = rng.uniform(0, 200)
        cases.append((l, h, p, p + abs(rng.gauss(0, 10)), l + (h - l) / 2))
    mu = term_memberships([(l, h) for l, h, *_ in cases])
    mu_high, mu_low = mu([p for _, _, p, _, _ in cases])
    (at_q, _), (at_l, _), (at_h, _), (at_mid, _) = (mu([case[k] for case in cases]) for k in (3, 0, 1, 4))
    for k in range(len(cases)):
        assert mu_high[k] + mu_low[k] == 1.0
        assert mu_high[k] <= at_q[k]
        assert at_l[k] == 0.0
        assert at_h[k] == 1.0
        assert at_mid[k] == pytest.approx(0.5, abs=1e-9)
    _report(3, "membership complement, monotonicity, boundary values", t0, 1.0)


# 12 synthetic spectra (3 per class) with hand-computed membership vectors.
# Each has a filler base peak at 100 so normalization is the identity.
ORACLE = [
    # (abundances, expected memberships, expected label)
    ({"Fe": 60, "Ti": 20}, {"ILM": 1.0, "AGT": 0.0, "PLG": 0.0, "OLV": 0.0}, "ILM"),
    ({"Fe": 40, "Ti": 17, "Al": 0.4},
     {"ILM": 1.0, "AGT": 0.0, "PLG": 0.0, "OLV": 0.0}, "ILM"),
    ({"Fe": 80, "Ti": 30, "Al": 0.2, "Mn": 20},
     {"ILM": 1.0, "AGT": 0.0, "PLG": 0.0, "OLV": 0.0}, "ILM"),
    ({"Ca": 85, "Fe": 35},
     {"ILM": 0.0, "AGT": 1.0, "PLG": 0.0, "OLV": (35 - 10) / 30}, "AGT"),
    ({"Ca": 80, "Fe": 30, "Ti": 0.5},
     {"ILM": 0.0, "AGT": 1.0, "PLG": 0.0, "OLV": (30 - 10) / 30}, "AGT"),
    ({"Ca": 95, "Fe": 32, "Ti": 0.9},
     {"ILM": 0.0, "AGT": 1.0, "PLG": 0.0, "OLV": (32 - 10) / 30}, "AGT"),
    ({"Al": 20}, {"ILM": 0.0, "AGT": 0.0, "PLG": 1.0, "OLV": 0.0}, "PLG"),
    ({"Al": 15, "Fe": 9, "Ti": 0.5},
     {"ILM": 0.0, "AGT": 0.0, "PLG": 1.0, "OLV": 0.0}, "PLG"),
    ({"Al": 30, "Fe": 5, "Ti": 0.9, "Ca": 60},
     {"ILM": 0.0, "AGT": ((5 - 1) / 29) * ((60 - 50) / 30), "PLG": 1.0, "OLV": 0.0},
     "PLG"),
    ({"Mg": 60}, {"ILM": 0.0, "AGT": 0.0, "PLG": 0.0, "OLV": 1.0}, "OLV"),
    ({"Mg": 50, "Mn": 40, "Fe": 40, "Ti": 0.5, "Al": 0.4},
     {"ILM": 0.0, "AGT": 0.0, "PLG": 0.0, "OLV": 1.0}, "OLV"),
    ({"Mg": 55, "Fe": 45, "Mn": 5, "Ti": 0.9, "Al": 0.2},
     {"ILM": 0.0, "AGT": 0.0, "PLG": 0.0, "OLV": 1.0}, "OLV"),
]


def test_criterion_4_classification_oracle():
    t0 = time.perf_counter()
    rb = builtin_basalt()
    for abunds, expected, label in ORACLE:
        mv = memberships(make_spectrum(abunds), rb)
        for code, want in expected.items():
            assert mv.values[code] == pytest.approx(want, abs=1e-9), (abunds, code)
        assert harden(mv, 0.5).label == label
    # mixed ilmenite/plagioclase spot: Ti and Al together kill both classes
    mv = memberships(make_spectrum({"Ti": 17, "Al": 15}), rb)
    assert all(v == 0.0 for v in mv.values.values())
    assert harden(mv, 0.5).label == "UNK"
    _report(4, "12-spectrum classification oracle + mixed-spot UNK", t0, 1.0)


def test_criterion_5_spatial_smoothing():
    t0 = time.perf_counter()
    codes = ["ILM", "AGT", "PLG", "OLV"]
    spots = []
    for i in range(9):
        agt = 0.3 if i == 4 else 0.9
        spots.append({"ILM": 0.0, "AGT": agt, "PLG": 0.0, "OLV": 0.0})
    cmap = reclassify_map(read_grid_csv(grid_csv("rectangular", 3, 3, spots)), 0.5)
    assert cmap.cells[4].label == "AGT"
    assert cmap.cells[4].neighbor_assigned
    assert cmap.cells[4].confidence == pytest.approx(1.2, abs=1e-12)

    rng = random.Random(6)
    for _ in range(1000):
        mus = [[rng.random() for _ in codes] for _ in range(12)]
        topology = rng.choice(("rectangular", "hexagonal"))
        g = read_grid_csv(grid_csv(topology, 3, 4, [dict(zip(codes, mu)) for mu in mus]))
        rows = [([""] * 4, [0.0] * 4, [0.0] * 4, [list(col) for col in zip(*mus[r * 4:r * 4 + 4])])
                for r in range(3)]
        pre = [k for _, (labels, _), _ in map_rows(topology, rows, 0.5) for k in labels]
        post = reclassify_map(g, 0.5)
        for k, q in zip(pre, post.cells):
            if k >= 0:  # not UNK
                assert q.label == codes[k]
    _report(5, "3x3 smoothing oracle + confident spots stable over 1e3 grids", t0, 5.0)


def statdb(spectra, eps):
    """build_statdb() over the peak_list() of each spectrum, as stats consolidates them."""
    return build_statdb([peak_list(s, eps) for s in spectra], len(spectra), eps)


def brute_force_statdb_fields(spectra, eps):
    """Independent accumulation: explicit consolidation and bin walk."""
    peaks = []
    for s in spectra:
        # consolidate: group consecutive points with gap <= eps, keep max
        group = []
        for mz, ab in s.points:
            if group and mz - group[-1][0] <= eps:
                group.append((mz, ab))
            else:
                if group:
                    peaks.append(max(group, key=lambda t: t[1]))
                group = [(mz, ab)]
        if group:
            peaks.append(max(group, key=lambda t: t[1]))
    peaks.sort()
    bins = []
    for mz, ab in peaks:
        if bins and mz - sum(p for p, _ in bins[-1]) / len(bins[-1]) <= eps:
            bins[-1].append((mz, ab))
        else:
            bins.append([(mz, ab)])
    out = []
    for members in bins:
        abs_ = [a for _, a in members]
        out.append({
            "phi": sum(p for p, _ in members) / len(members),
            "c": len(members),
            "a_tot": sum(abs_),
            "a_tot2": sum(a * a for a in abs_),
            "a_max": max(abs_),
            "a_min": min(abs_),
        })
    return out


def test_criterion_6_stats_oracle():
    t0 = time.perf_counter()
    rng = random.Random(12)
    spectra = []
    for _ in range(5):
        pts = sorted({round(rng.uniform(20, 60), 3): round(rng.uniform(1, 100), 2)
                      for _ in range(20)}.items())
        spectra.append(Spectrum(tuple(pts)))
    db = statdb(spectra, 0.05)
    expected = brute_force_statdb_fields(spectra, 0.05)
    assert len(db.bins) == len(expected)
    for b, e in zip(db.bins, expected):
        assert b.phi == pytest.approx(e["phi"], abs=1e-12)
        assert (b.c, b.a_tot, b.a_tot2, b.a_max, b.a_min) == \
               (e["c"], e["a_tot"], e["a_tot2"], e["a_max"], e["a_min"])

    for _ in range(100):
        shuffled = spectra[:]
        rng.shuffle(shuffled)
        other = statdb(shuffled, 0.05)
        assert [(b.phi, b.c, b.a_tot, b.a_tot2, b.a_max, b.a_min) for b in other.bins] == \
               [(b.phi, b.c, b.a_tot, b.a_tot2, b.a_max, b.a_min) for b in db.bins]
    _report(6, "stat DB matches brute-force accumulation; order-invariant", t0, 5.0)


def test_criterion_7_key_ion_report():
    t0 = time.perf_counter()
    # plagioclase-like group: elevated Al and Ca over a shared background
    common = {22.99: 100.0, 27.977: 50.0, 55.954: 8.0}
    plag, others = [], []
    for _ in range(3):
        plag.append(Spectrum(tuple(sorted({**common, 26.982: 12.0, 39.95: 60.0}.items()))))
    for _ in range(9):
        others.append(Spectrum(tuple(sorted({**common, 26.982: 1.0, 39.95: 5.0}.items()))))
    class_db = statdb(plag, 0.2)
    ensemble_db = statdb(plag + others, 0.2)
    rows = class_vs_ensemble_report(class_db, ensemble_db)
    full = [r for r in rows if r.count == class_db.n_spectra]
    above = {round(r.phi, 3) for r in full if r.ratio > 2}
    assert above == {26.982, 39.95}
    assert all(r.ratio <= 1.2 for r in full if round(r.phi, 3) not in above)
    _report(7, "Al and Ca are the only high-ratio full-presence bins", t0, 5.0)


def test_criterion_8_throughput():
    rng = random.Random(99)
    templates = []
    for _ in range(60):
        mzs = sorted(rng.uniform(10, 500) for _ in range(1000))
        lines = [f"{mz:.4f},{rng.uniform(0.1, 100):.3f}" for mz in mzs]
        templates.append("\n".join(lines) + "\n")
    sources = [(f"s{i}", templates[i % len(templates)]) for i in range(3600)]

    t0 = time.perf_counter()
    results = classify_batch(sources, builtin_basalt(), workers=4)
    elapsed = time.perf_counter() - t0
    assert len(results) == 3600
    assert all(r.error is None for r in results)
    assert elapsed < 60.0, f"3600 spectra took {elapsed:.1f}s"
    print(f"ACCEPTANCE 8: PASS ({elapsed:.2f}s) - 3600 x 1000-peak spectra under 60s")


def test_criterion_9_determinism(tmp_path):
    t0 = time.perf_counter()
    spectra_dir = tmp_path / "in"
    spectra_dir.mkdir()
    rng = random.Random(4)
    for i in range(12):
        abunds = {sym: rng.uniform(0, 90) for sym in ("Mg", "Al", "Ca", "Ti", "Mn", "Fe")}
        (spectra_dir / f"s{i:02d}.csv").write_text(spectrum_csv(abunds))

    for workers in ("1", "6"):
        for run in ("a", "b"):
            main(["classify", str(spectra_dir / "*.csv"), "--workers", workers,
                  "--out", str(tmp_path / f"c_{workers}_{run}.csv")])
    outs = [(tmp_path / f"c_{w}_{r}.csv").read_bytes()
            for w, r in itertools.product(("1", "6"), ("a", "b"))]
    assert len(set(outs)) == 1

    grid_lines = ["# topology: rectangular", "# rows: 3", "# cols: 3",
                  "id,x,y,label,confidence,mu_ILM,mu_AGT,mu_PLG,mu_OLV"]
    for i in range(9):
        mus = [f"{rng.random():.4f}" for _ in range(4)]
        grid_lines.append(f"g{i},{i % 3},{i // 3},X,0," + ",".join(mus))
    grid = tmp_path / "grid.csv"
    grid.write_text("\n".join(grid_lines) + "\n")
    for run in ("a", "b"):
        main(["map", str(grid), "--out", str(tmp_path / f"m_{run}")])
    for name in ("pre.csv", "post.csv", "pre.ppm", "post.ppm"):
        assert (tmp_path / "m_a" / name).read_bytes() == \
               (tmp_path / "m_b" / name).read_bytes()

    for run in ("a", "b"):
        main(["stats", str(spectra_dir / "*.csv"), "--out", str(tmp_path / f"r_{run}")])
    ra, rb_dir = tmp_path / "r_a", tmp_path / "r_b"
    names = sorted(p.name for p in ra.iterdir())
    assert names == sorted(p.name for p in rb_dir.iterdir())
    for name in names:
        assert (ra / name).read_bytes() == (rb_dir / name).read_bytes()
    _report(9, "classify/map/stats byte-identical across reruns and workers", t0, 60.0)
