"""Spectrum data model: ingestion, normalization and windowed peak lookup."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

from .errors import CannotNormalize, DomainError, EmptySpectrum, ParseError

FULL_SCALE = 100.0


@dataclass(frozen=True)
class IonTarget:
    """A target ion: chemical symbol plus its m/z."""

    symbol: str
    mz: float

    def __post_init__(self):
        if not self.symbol:
            raise ValueError("ion symbol must be non-empty")
        if self.mz <= 0:
            raise DomainError(f"ion m/z must be positive, got {self.mz}")


@dataclass(frozen=True)
class Spectrum:
    """One acquisition spot: relative abundance versus m/z.

    Points are finite and strictly sorted ascending by m/z with no
    duplicates; abundances are non-negative. Instances are immutable, so
    they are safe to share across parallel classification workers.
    """

    points: tuple
    id: str = ""
    position: Optional[tuple] = None

    def __post_init__(self):
        pts = tuple((float(mz), float(ab)) for mz, ab in self.points)
        if not pts:
            raise EmptySpectrum("spectrum has no points")
        for i, (mz, ab) in enumerate(pts):
            if ab < 0:
                raise DomainError(f"negative abundance {ab} at m/z {mz}")
            if mz <= 0:
                raise DomainError(f"non-positive m/z {mz}")
            if not (ab < math.inf and mz < math.inf):
                raise DomainError(f"non-finite point ({mz}, {ab})")
            if i > 0 and mz <= pts[i - 1][0]:
                raise DomainError("points must be strictly sorted by m/z")
        object.__setattr__(self, "points", pts)

    @classmethod
    def _trusted(cls, points: tuple, id: str = "", position=None) -> "Spectrum":
        """A Spectrum from float points that already meet the invariants, unchecked."""
        s = object.__new__(cls)
        s.__dict__.update(points=points, id=id, position=position)
        return s

    @cached_property
    def mzs(self):
        return [p[0] for p in self.points]

    @cached_property
    def max_abundance(self):
        return max(p[1] for p in self.points)


def parse_spectrum(source, format="csv", id="", position=None) -> Spectrum:
    """Parse a peak list from text.

    ``csv`` expects ``mz,abundance`` per line; ``msp-like`` expects two
    whitespace-separated columns. Blank lines and ``#`` comments are
    skipped. Duplicate m/z rows merge keeping the maximum abundance.

    Each row is checked once, here; the Spectrum is built from the
    checked points without a second validating pass.
    """
    if hasattr(source, "read"):
        text = source.read()
    elif isinstance(source, str):
        text = source
    else:
        text = "\n".join(source)
    if format not in ("csv", "msp-like"):
        raise ValueError(f"unknown spectrum format {format!r}")
    sep = "," if format == "csv" else None

    pts = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        parts = line.split(sep)
        if len(parts) != 2:
            raise ParseError(f"expected 2 fields, got {len(parts)}", line=lineno)
        try:
            mz = float(parts[0])
            ab = float(parts[1])
        except ValueError:
            raise ParseError(f"non-numeric field in {line!r}", line=lineno) from None
        if not (0.0 <= ab < math.inf and 0.0 < mz < math.inf):
            raise _bad_row(mz, ab, lineno)
        pts.append((mz, ab + 0.0))  # + 0.0 reads an abundance of -0 as 0
    if not pts:
        raise EmptySpectrum("no peaks in input")
    pts.sort()
    # Sorted by (m/z, abundance), so the last row of each m/z, the one
    # dict() keeps, carries its maximum abundance.
    merged = dict(pts)
    points = tuple(pts) if len(merged) == len(pts) else tuple(merged.items())
    return Spectrum._trusted(points, id=id, position=position)


def _bad_row(mz: float, ab: float, lineno: int) -> DomainError:
    if ab < 0:
        return DomainError(f"negative abundance on line {lineno}")
    if mz <= 0:
        return DomainError(f"non-positive m/z on line {lineno}")
    if not ab < math.inf:
        return DomainError(f"non-finite abundance on line {lineno}")
    return DomainError(f"non-finite m/z on line {lineno}")


def serialize_spectrum(s: Spectrum) -> str:
    """Render a spectrum back to the csv peak-list format (lossless)."""
    return "\n".join(f"{mz!r},{ab!r}" for mz, ab in s.points) + "\n"


def normalize(s: Spectrum, excluded: Iterable[IonTarget] = (), eps: float = 0.2) -> Spectrum:
    """Rescale so the highest peak outside the excluded ions reads 100.

    Every point is multiplied by the same factor, so excluded peaks keep
    their relative size and may land above 100. Used to discount the
    anomalously strong potassium signal before classification.
    """
    factor = scale_factor(s, excluded, eps)
    # scale_factor() keeps every scaled point finite; a positive factor
    # keeps them sorted and non-negative.
    return Spectrum._trusted(tuple((mz, ab * factor) for mz, ab in s.points),
                             id=s.id, position=s.position)


def scale_factor(s: Spectrum, excluded: Iterable[IonTarget] = (), eps: float = 0.2) -> float:
    """The factor normalize() multiplies every abundance by: 100 / reference.

    The reference is the highest peak outside every excluded ion's closed
    window ``abs(mz - ion.mz) <= eps``. Since x -> x * factor is monotone
    under rounding, a windowed maximum of the normalized spectrum equals
    the raw windowed maximum times this factor, bit for bit. A factor that
    would scale an (excluded) peak past the float range is refused.
    """
    excluded = list(excluded)
    if excluded:
        ref = None
        for mz, ab in s.points:
            # Only a point that would raise the reference needs the window test.
            if (ref is None or ab > ref) and not any(abs(mz - ion.mz) <= eps for ion in excluded):
                ref = ab
        if ref is None:
            raise CannotNormalize("all points fall within excluded ion windows")
    else:
        ref = s.max_abundance
    if ref == 0.0:
        raise CannotNormalize("all non-excluded abundances are zero")
    factor = FULL_SCALE / ref
    if not math.isfinite(factor):
        raise CannotNormalize(f"reference abundance {ref} yields a non-finite scale factor")
    if not s.max_abundance * factor < math.inf:
        raise CannotNormalize(f"peak abundance {s.max_abundance} overflows when scaled by {factor}")
    return factor


def peak_abundance(s: Spectrum, chi: IonTarget, eps: float) -> float:
    """Maximum abundance within the closed window [chi.mz - eps, chi.mz + eps].

    An empty window yields 0, not an error.
    """
    if eps < 0:
        raise DomainError("eps must be non-negative")
    lo = bisect_left(s.mzs, chi.mz - eps)
    hi = bisect_right(s.mzs, chi.mz + eps)
    if lo >= hi:
        return 0.0
    return max(ab for _, ab in s.points[lo:hi])
