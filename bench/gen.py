"""Seeded input generator for the four benchmark workloads.

Every spectrum is drawn fresh from the seed; no template is repeated.
Spectra carry a planted mineral signature (one of the four basalt
classes), a mix of two signatures, or background noise only, so every
class label and UNK occur. Peaks are integers (m/z in 1e-4 units,
abundance in 1e-3 units); the text the program reads and the floats the
oracle reads are both made from them, so the oracle never parses the
program's input format.
"""

from __future__ import annotations

import random
from pathlib import Path

import oracle
from oracle import BASALT_CODES, EPS, ION_MZ

# Abundance ranges of the planted ion peaks per signature, on the scale
# where the reference (base) peak reads 100. An ion absent from a
# signature gets no planted peak. Ranges straddle the rule thresholds so
# memberships spread over (0, 1) and some planted spectra end up UNK.
SIGNATURES = {
    "ILM": {"Fe": (10, 80), "Ti": (4, 40), "Al": (0.05, 2)},
    "AGT": {"Ca": (40, 100), "Fe": (3, 45), "Ti": (0.05, 4)},
    "PLG": {"Al": (1, 30), "Fe": (2, 35), "Ti": (0.05, 4)},
    "OLV": {"Mg": (5, 80), "Mn": (2, 50), "Fe": (5, 60), "Ti": (0.05, 3), "Al": (0.05, 1.5)},
}
KINDS = ("ILM", "AGT", "PLG", "OLV", "MIX", "NOISE")
KIND_WEIGHTS = (18, 18, 18, 18, 16, 12)

# Peaks are kept as integers: m/z in 1e-4 and abundance in 1e-3 units,
# which is also how many decimals the text carries.
MZ_LO, MZ_HI = 100_000, 5_000_000
# Background abundances stay below every rule's lower threshold.
BG_AB = (10, 450)
# Background peaks keep 1e-3 m/z away from any ion window edge, where two
# correct closed-interval tests written differently may disagree in the
# last bit of a float.
_NEAR_EDGE = frozenset(k for c in ION_MZ.values() for edge in (c - EPS, c + EPS)
                       for k in range(round(edge * 1e4) - 10, round(edge * 1e4) + 11))

SPARSE_ION = "K"


def _signature(rng: random.Random, kind: str) -> dict:
    if kind == "NOISE":
        return {}
    if kind == "MIX":
        a, b = rng.sample(BASALT_CODES, 2)
        sa, sb = _signature(rng, a), _signature(rng, b)
        return {ion: max(sa.get(ion, 0), sb.get(ion, 0)) for ion in sa.keys() | sb.keys()}
    return {ion: round(rng.uniform(lo, hi) * 1000) for ion, (lo, hi) in SIGNATURES[kind].items()}


def make_peaks(rng: random.Random, kind: str, n_peaks: int, k_base: bool = False):
    """Peaks of one spectrum as sorted integer (mz * 1e4, abundance * 1e3) pairs.

    The reference peak reads 100 and sits above every ion's m/z. With
    ``k_base`` a potassium peak well above it becomes the base peak.
    """
    peaks = {}
    planted = sorted(_signature(rng, kind).items())
    if k_base:
        planted.append((SPARSE_ION, round(rng.uniform(150, 400) * 1000)))
    for ion, ab in planted:
        peaks[round((ION_MZ[ion] + rng.uniform(-0.05, 0.05)) * 1e4)] = ab
    while len(peaks) == len(planted):
        peaks.setdefault(600_000 + int(rng.random() * (MZ_HI - 600_000)), 100_000)
    rand = rng.random
    lo, span = MZ_LO, MZ_HI - MZ_LO
    ab_lo, ab_span = BG_AB[0], BG_AB[1] - BG_AB[0] + 1
    while len(peaks) < n_peaks:
        key = lo + int(rand() * span)
        if key not in peaks and key not in _NEAR_EDGE:
            peaks[key] = ab_lo + int(rand() * ab_span)
    return sorted(peaks.items())


def as_floats(peaks):
    """The (mz, abundance) floats the peak text denotes."""
    return [(k / 1e4, a / 1e3) for k, a in peaks]


def peaks_text(peaks) -> str:
    return "".join(["%d.%04d,%d.%03d\n" % (k // 10000, k % 10000, a // 1000, a % 1000)
                    for k, a in peaks])


def _kind(rng: random.Random, weights=KIND_WEIGHTS) -> str:
    return rng.choices(KINDS, weights)[0]


def spectra(seed: int, stream: str, n: int, n_peaks: int, k_base: bool = False):
    """Yield ``n`` distinct spectra as (id, kind, peaks); ``stream`` separates workloads."""
    rng = random.Random(f"{stream}:{seed}")
    for i in range(n):
        kind = _kind(rng)
        yield f"s{i:05d}", kind, make_peaks(rng, kind, n_peaks, k_base)


def write_spectra(directory: Path, items, excluding=()):
    """Write each spectrum to ``directory``; returns [(path, kind, oracle memberships)]."""
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for sid, kind, peaks in items:
        path = directory / f"{sid}.csv"
        path.write_text(peaks_text(peaks), encoding="ascii")
        out.append((path, kind, oracle.memberships(as_floats(peaks), excluding)))
    return out


def stats_groups(seed: int, n_dirs: int, per_dir: int, n_peaks: int):
    """Yield (directory, spectra); each directory leans towards one class."""
    rng = random.Random(f"stats:{seed}")
    for d in range(n_dirs):
        lean = BASALT_CODES[d % len(BASALT_CODES)]
        weights = [60 if k == lean else 8 for k in KINDS]
        yield f"area{d}", [(f"s{d}_{i:04d}", k := _kind(rng, weights), make_peaks(rng, k, n_peaks))
                           for i in range(per_dir)]


def hex_grid(seed: int, rows: int, cols: int, confident_share: float = 0.3):
    """Memberships of a rows x cols grid of mineral grains.

    Grains are 16 x 16 blocks of one dominant class. A ``confident_share``
    of spots reach nu = 0.5 for their grain's class; the rest stay below
    nu for every class, so smoothing decides them.
    """
    rng = random.Random(f"map:{seed}")
    grain = {}
    spots = []
    for r in range(rows):
        for c in range(cols):
            g = (r // 16, c // 16)
            if g not in grain:
                grain[g] = rng.randrange(len(BASALT_CODES))
            dom = grain[g]
            if rng.random() < confident_share:
                mus = [rng.uniform(0.0, 0.3) for _ in BASALT_CODES]
                mus[dom] = rng.uniform(0.5, 1.0)
            else:
                mus = [rng.uniform(0.0, 0.35) for _ in BASALT_CODES]
                mus[dom] = rng.uniform(0.1, 0.49)
            spots.append([round(m, 4) for m in mus])
    return spots


def grid_text(spots, rows: int, cols: int, topology: str) -> str:
    lines = [f"# topology: {topology}", f"# rows: {rows}", f"# cols: {cols}",
             "id,x,y,label,confidence," + ",".join(f"mu_{c}" for c in BASALT_CODES)]
    for i, mus in enumerate(spots):
        r, c = divmod(i, cols)
        x = c + 0.5 * (r % 2)
        lines.append(f"g{i},{x:g},{r},X,0," + ",".join(f"{m:.4f}" for m in mus))
    return "\n".join(lines) + "\n"
