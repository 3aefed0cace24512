"""Reference results computed from the paper's definitions, not from spectraclass.

Nothing here imports the package. Labels, memberships, smoothed maps and
pixel colours are recomputed from the generated peak values, and the
checkers compare the program's output files against them. A checker
returns the set of item indices (spectra or grid spots) whose output is
wrong; the caller counts those as failed items.

Definitions used (paper and README): a spectrum is rescaled so that its
largest peak outside the excluded-ion windows reads 100; a term takes
the largest abundance in the closed window [m/z - eps, m/z + eps] through
a piecewise-linear high or low membership; AND is the product, OR the
probabilistic sum, NOT the complement; the label is the first class with
the largest membership when that reaches nu, else UNK with confidence
1 - max. A sub-nu map spot takes the argmax over its membership plus the
mean of its neighbours' (8 on rectangular grids, 6 on hexagonal grids
with odd rows shifted right).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter

EPS = 0.2
NU = 0.5
FULL_SCALE = 100.0
UNK = "UNK"
# Values the program prints go through 6 significant digits; a printed
# value is right when it is a rounding of something within TOL of ours.
TOL = 1e-9

ION_MZ = {
    "Mg": 24.312,
    "Al": 26.982,
    "K": 38.963,
    "Ca": 39.95,
    "Ti": 47.95,
    "Mn": 54.938,
    "Fe": 55.954,
}
BASALT_IONS = ("Mg", "Al", "Ca", "Ti", "Mn", "Fe")

# (code, display name, terms as (name, ion, polarity, l, h), expression).
# Expressions are nested tuples ("and"|"or", *children), ("not", child) or
# a term name.
BASALT_RULES = (
    ("ILM", "Ilmenite",
     (("not_al", "Al", "low", 0.5, 15), ("ti", "Ti", "high", 1, 17), ("fe", "Fe", "high", 1, 40)),
     ("and", "fe", "ti", "not_al")),
    ("AGT", "Augite",
     (("ca", "Ca", "high", 50, 80), ("not_ti", "Ti", "low", 1, 17), ("fe", "Fe", "high", 1, 30)),
     ("and", "fe", "not_ti", "ca")),
    ("PLG", "Plagioclase",
     (("al", "Al", "high", 0.5, 15), ("not_ti", "Ti", "low", 1, 17), ("not_fe", "Fe", "low", 10, 40)),
     ("and", "al", "not_fe", "not_ti")),
    ("OLV", "Olivine",
     (("mg", "Mg", "high", 1, 50), ("not_al", "Al", "low", 0.5, 15), ("not_ti", "Ti", "low", 1, 17),
      ("mn", "Mn", "high", 10, 40), ("fe", "Fe", "high", 10, 40)),
     ("and", ("or", "mg", "mn", "fe"), "not_ti", "not_al")),
)
BASALT_CODES = tuple(code for code, _, _, _ in BASALT_RULES)

PALETTE = {
    "ILM": (200, 40, 40),
    "AGT": (60, 160, 60),
    "PLG": (70, 110, 220),
    "OLV": (170, 150, 40),
    UNK: (0, 0, 0),
}


# ---------------------------------------------------------------------------
# Rule base as DSL text

def _expr_text(expr, top=True) -> str:
    if isinstance(expr, str):
        return expr
    op, *children = expr
    if op == "not":
        return "not " + _expr_text(children[0], False)
    text = f" {op} ".join(_expr_text(c, False) for c in children)
    return text if top else f"( {text} )"


def rules_dsl(excluding=()) -> str:
    """The basalt rules as DSL text, optionally declaring and excluding more ions."""
    lines = ['rulebase "basalt-bench"', "", f"option epsilon = {EPS}", f"option nu = {NU}"]
    if excluding:
        lines.append("option normalize_excluding = [ " + " , ".join(excluding) + " ]")
    lines.append("")
    for ion in BASALT_IONS + tuple(excluding):
        lines.append(f"ion {ion} = {ION_MZ[ion]}")
    for code, name, terms, expr in BASALT_RULES:
        lines += ["", f'class {code} "{name}" {{']
        lines += [f"  term {t} = {pol} ( {ion} , l = {l} , h = {h} )" for t, ion, pol, l, h in terms]
        lines += [f"  expr = {_expr_text(expr)}", "}"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Classification

def _mu(p, polarity, l, h):
    high = 0.0 if p < l else 1.0 if p >= h else (p - l) / (h - l)
    return high if polarity == "high" else 1.0 - high


def _eval(expr, env):
    if isinstance(expr, str):
        return env[expr]
    op, *children = expr
    if op == "not":
        return 1.0 - _eval(children[0], env)
    values = [_eval(c, env) for c in children]
    out = 1.0 if op == "and" else 0.0
    for v in values:
        out = out * v if op == "and" else out + v - out * v
    return out


def memberships(peaks, excluding=()):
    """Class memberships, in BASALT_CODES order, of sorted (mz, abundance) peaks."""
    mzs = [mz for mz, _ in peaks]
    abundances = [ab for _, ab in peaks]

    def window(ion):
        return bisect_left(mzs, ION_MZ[ion] - EPS), bisect_right(mzs, ION_MZ[ion] + EPS)

    ref, start = 0.0, 0
    for lo, hi in sorted(window(ion) for ion in excluding):
        ref = max(ref, max(abundances[start:lo], default=0.0))
        start = max(start, hi)
    factor = FULL_SCALE / max(ref, max(abundances[start:], default=0.0))
    level = {}
    for ion in BASALT_IONS:
        lo, hi = window(ion)
        level[ion] = max(abundances[lo:hi], default=0.0) * factor
    values = []
    for _, _, terms, expr in BASALT_RULES:
        env = {t: _mu(level[ion], pol, l, h) for t, ion, pol, l, h in terms}
        values.append(_eval(expr, env))
    return values


def labels_allowed(values, codes=BASALT_CODES, nu=NU):
    """{label: confidence} for every label a correct program may print.

    More than one entry only when classes tie, or the best value sits on
    nu, within TOL.
    """
    best = max(values)
    out = {c: v for c, v in zip(codes, values) if v >= best - TOL and v >= nu - TOL}
    if best < nu + TOL:
        out[UNK] = 1.0 - best
    return out


def label(values, codes=BASALT_CODES, nu=NU):
    """The label a correct program prints: first argmax class, or UNK below nu."""
    best = max(values)
    return codes[values.index(best)] if best >= nu else UNK


def printed_ok(text: str, value: float) -> bool:
    """Is ``text`` the 6-significant-digit form of a value within TOL of ``value``?"""
    return text in (format(value, ".6g"), format(value + TOL, ".6g"), format(value - TOL, ".6g"))


def check_batch_csv(text: str, expected, codes=BASALT_CODES):
    """Failed indices of a classify batch CSV; ``expected`` is [(id, values)]."""
    lines = text.split("\n")
    header = "id,x,y,label,confidence," + ",".join(f"mu_{c}" for c in codes)
    if lines[0] != header or lines[-1] != "":
        return set(range(len(expected)))
    rows = lines[1:-1]
    if len(rows) != len(expected):
        return set(range(len(expected)))
    failed = set()
    for i, ((sid, values), row) in enumerate(zip(expected, rows)):
        f = row.split(",")
        allowed = labels_allowed(values, codes)
        ok = (len(f) == 5 + len(codes) and f[0] == sid and f[1] == f[2] == ""
              and f[3] in allowed and printed_ok(f[4], allowed[f[3]])
              and all(printed_ok(t, v) for t, v in zip(f[5:], values)))
        if not ok:
            failed.add(i)
    return failed


def check_batch_results(results, expected, codes=BASALT_CODES):
    """Failed indices of in-memory batch results: labels and memberships within TOL."""
    if len(results) != len(expected):
        return set(range(len(expected)))
    failed = set()
    for i, ((sid, values), r) in enumerate(zip(expected, results)):
        allowed = labels_allowed(values, codes)
        ok = (r.error is None and r.id == sid
              and list(r.membership.values) == list(codes)
              and all(abs(r.membership.values[c] - v) <= TOL for c, v in zip(codes, values))
              and r.classification.label in allowed
              and abs(r.classification.confidence - allowed[r.classification.label]) <= TOL)
        if not ok:
            failed.add(i)
    return failed


def summary_line(csv_text: str, codes=BASALT_CODES) -> str:
    """The label-count line classify prints, derived from its own CSV."""
    counts = Counter(row.split(",")[3] if row.count(",") >= 3 else ""
                     for row in csv_text.split("\n")[1:-1])
    return ("  ".join(f"{c}: {counts[c]}" for c in list(codes) + [UNK])
            + f"  errors: {counts['ERROR']}\n")


# ---------------------------------------------------------------------------
# Maps

_HEX_EVEN = ((-1, -1), (-1, 0), (0, -1), (0, 1), (1, -1), (1, 0))
_HEX_ODD = ((-1, 0), (-1, 1), (0, -1), (0, 1), (1, 0), (1, 1))
_MOORE = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


def smooth_map(spots, rows, cols, hexagonal, nu=NU, codes=BASALT_CODES):
    """Pre- and post-smoothing cells as lists of ({label: confidence}, neighbor_assigned)."""
    pre, post = [], []
    for i, mus in enumerate(spots):
        allowed = labels_allowed(mus, codes, nu)
        pre.append((allowed, False))
        if max(mus) >= nu:
            post.append((allowed, False))
            continue
        r, c = divmod(i, cols)
        offsets = (_HEX_ODD if r % 2 else _HEX_EVEN) if hexagonal else _MOORE
        nbrs = [spots[(r + dr) * cols + c + dc] for dr, dc in offsets
                if 0 <= r + dr < rows and 0 <= c + dc < cols]
        smoothed = [mus[k] + sum(n[k] for n in nbrs) / len(nbrs) if nbrs else mus[k]
                    for k in range(len(codes))]
        best = max(smoothed)
        post.append(({cd: v for cd, v in zip(codes, smoothed) if v >= best - TOL}, True))
    return pre, post


def check_map_csv(text: str, cells, cols):
    """Failed spot indices of a pre/post map CSV."""
    lines = text.split("\n")
    if lines[0] != "x,y,label,confidence,neighbor_assigned" or lines[-1] != "":
        return set(range(len(cells)))
    rows = lines[1:-1]
    if len(rows) != len(cells):
        return set(range(len(cells)))
    failed = set()
    for i, ((allowed, assigned), row) in enumerate(zip(cells, rows)):
        r, c = divmod(i, cols)
        f = row.split(",")
        ok = (len(f) == 5 and f[0] == format(c + 0.5 * (r % 2), ".6g") and f[1] == format(r, ".6g")
              and f[2] in allowed and printed_ok(f[3], allowed[f[2]])
              and f[4] == ("true" if assigned else "false"))
        if not ok:
            failed.add(i)
    return failed


def map_labels(csv_text: str, n: int):
    """Printed labels of a map CSV, or blanks when its row count is wrong."""
    labels = [row.split(",")[2] if row.count(",") == 4 else "" for row in csv_text.split("\n")[1:-1]]
    return labels if len(labels) == n else [""] * n


def _colour(label):
    return bytes(PALETTE.get(label, (128, 128, 128)))


def class_pixels(cells, printed_labels):
    """Expected RGB body of a class map, plus right alternatives for tied spots.

    A spot's pixel must have the colour of its printed label when that
    label is right, else of any right label.
    """
    body = bytearray()
    alternatives = {}
    for i, ((allowed, _), lab) in enumerate(zip(cells, printed_labels)):
        if lab in allowed:
            body += _colour(lab)
        else:
            body += _colour(next(iter(allowed)))
            if len(allowed) > 1:
                alternatives[i] = {_colour(k) for k in allowed}
    return bytes(body), alternatives


def grey_pixels(spots, k):
    """Expected RGB body of the membership map of class index ``k``."""
    body = bytearray()
    for mus in spots:
        body += bytes((round(min(max(mus[k], 0.0), 1.0) * 255),) * 3)
    return bytes(body)


def check_ppm(data: bytes, rows, cols, expected: bytes, alternatives=None):
    """Failed spot indices of a P6 pixmap against its expected RGB body."""
    header = f"P6\n{cols} {rows}\n255\n".encode("ascii")
    n = rows * cols
    if not data.startswith(header) or len(data) != len(header) + 3 * n:
        return set(range(n))
    body = data[len(header):]
    if body == expected:
        return set()
    alternatives = alternatives or {}
    return {i for i in range(n)
            if body[3 * i:3 * i + 3] != expected[3 * i:3 * i + 3]
            and body[3 * i:3 * i + 3] not in alternatives.get(i, ())}


# ---------------------------------------------------------------------------
# Stats reports

REPORT_HEADER = "phi,class_mean,ensemble_mean,ratio,count,n_spectra,flag"


def check_report(text: str, n_spectra: int):
    """Invariants of one class-vs-ensemble report; returns (ok, bins with count > n)."""
    lines = text.split("\n")
    if lines[0] != REPORT_HEADER or lines[-1] != "" or len(lines) < 3:
        return False, 0
    prev_phi = -math.inf
    over = 0
    for row in lines[1:-1]:
        f = row.split(",")
        if len(f) != 7:
            return False, over
        try:
            phi, cm, em, ratio = (float(x) for x in f[:4])
            count, n = int(f[4]), int(f[5])
        except ValueError:
            return False, over
        if n != n_spectra or count < 1 or not phi > prev_phi or cm <= 0:
            return False, over
        if em == 0:
            if not math.isinf(ratio):
                return False, over
        elif not math.isclose(ratio, cm / em, rel_tol=2e-5):
            return False, over
        over += count > n
        prev_phi = phi
    return True, over
