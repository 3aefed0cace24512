"""Spectrum data model: ingestion, normalization and windowed peak lookup."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import islice
from operator import lt
from typing import Iterable

from .errors import CannotNormalize, DomainError, EmptySpectrum, ParseError
from .value import Frozen

FULL_SCALE = 100.0

# Every ASCII byte but the comma and the line breaks of str.splitlines();
# deleting them leaves the skeleton that plain_columns checks.
_NOT_SKELETON = bytes(b for b in range(128) if chr(b) not in ",\n\r\x0b\x0c\x1c\x1d\x1e")


class IonTarget(Frozen):
    """A target ion: chemical symbol plus its finite, positive m/z."""

    __slots__ = _fields = ("symbol", "mz")

    def __init__(self, symbol: str, mz: float):
        if not symbol:
            raise ValueError("ion symbol must be non-empty")
        if not 0.0 < mz < math.inf:  # also false for nan
            raise DomainError(f"ion {symbol!r} needs a finite m/z > 0, got {mz}")
        object.__setattr__(self, "symbol", symbol)
        object.__setattr__(self, "mz", mz)


class Spectrum(Frozen):
    """One acquisition spot: relative abundance versus m/z.

    Held as two finite columns in the instance ``__dict__``: the lists
    ``mzs``, strictly ascending, and ``abundances``, non-negative, beside
    ``max_abundance``, found once, and ``id``. ``points``, the pairs that
    equality, repr and pickling use, is derived from the columns. Nothing
    changes a column, so a Spectrum is safe to share across threads.
    """

    _fields = ("points", "id")

    def __init__(self, points: tuple, id: str = ""):
        pts = tuple((float(mz), float(ab)) for mz, ab in points)
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
        self._fill([mz for mz, _ in pts], [ab for _, ab in pts], id)

    @classmethod
    def _trusted(cls, mzs: list, abundances: list, id: str = "") -> "Spectrum":
        """A Spectrum of float columns that already meet the invariants, unchecked."""
        s = object.__new__(cls)
        s._fill(mzs, abundances, id)
        return s

    def _fill(self, mzs: list, abundances: list, id: str) -> None:
        self.__dict__.update(mzs=mzs, abundances=abundances, max_abundance=max(abundances), id=id)

    @property
    def points(self) -> tuple:
        return tuple(zip(self.mzs, self.abundances))


def number(text: str, kind=float):
    """``kind(text)`` if ``text`` is in the number syntax of every input; else ValueError.

    The syntax is float()'s or int()'s on ASCII text with no "_": Python's
    own also takes "_" between digits and any Unicode digit. Each number
    read from a file or a flag goes through here, or through plain_columns().
    """
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a number: {text!r}")
    return kind(text)


def plain_columns(text: str, n_fields: int, numeric, optional=()):
    """The fields of plain CSV ``text`` and its number columns, or None to read the text line by line.

    Plain text is ASCII, with ``n_fields`` fields on every line and "\\n"
    its only line break. ``numeric`` and ``optional`` list the number
    columns by index; every field of one is a number() as a float, but an
    empty field of an ``optional`` column reads 0.0, and their sum is
    finite, which rules out nan, inf and an overflowing field. Returns the
    fields, row after row, and the float columns, ``numeric``'s first.
    Text refused here may hold an error, which only a line loop reports.
    """
    if not text.isascii():
        return None
    # The skeleton must be n_fields - 1 commas on every line, joined by "\n". A total
    # count is not enough: "1,2,3\n4" has two commas and two lines.
    commas = b"," * (n_fields - 1)
    skeleton = text.encode("ascii").translate(None, _NOT_SKELETON)
    if skeleton != (commas + b"\n") * skeleton.count(b"\n") + commas:
        return None
    fields = text.replace("\n", ",").split(",")
    # number()'s "_" rule, checked in the number columns only: other fields are free text.
    if "_" in text and any("_" in "".join(fields[k::n_fields]) for k in (*numeric, *optional)):
        return None
    floats = []
    try:
        for k in numeric:
            floats.append(list(map(float, fields[k::n_fields])))
        for k in optional:
            column = fields[k::n_fields]
            if "" in column:  # an empty field reads 0.0
                column = [f or "0" for f in column]
            floats.append(list(map(float, column)))
    except ValueError:
        return None
    # min() or max() could step over a nan; a sum cannot.
    if not math.isfinite(sum(map(sum, floats))):
        return None
    return fields, floats


def parse_spectrum(text: str, id="") -> Spectrum:
    """Parse a csv peak list, ``mz,abundance`` per line.

    Blank lines and ``#`` comments are skipped. Duplicate m/z rows merge
    keeping the maximum abundance.

    Text with no ``#`` and no ``-`` that plain_columns() takes is read
    column-wise, and checked as whole columns. Any other text is read
    line by line, which is also where every error and its line number
    comes from. Both give the same points.
    """
    # With "#" and "-" ruled out, every field plain_columns() reads is at
    # least +0.0 (an abundance of -0 needs the line loop's + 0.0).
    read = "#" not in text and "-" not in text and plain_columns(text.removesuffix("\n"), 2, (0, 1))
    if read:
        mzs, abundances = read[1]
        ascending = all(map(lt, mzs, islice(mzs, 1, None)))
        if (mzs[0] if ascending else min(mzs)) > 0.0:
            if not ascending:
                mzs, abundances = _merge(list(zip(mzs, abundances)))
            return Spectrum._trusted(mzs, abundances, id)
    return _parse_lines(text, id)


def _parse_lines(text: str, id="") -> Spectrum:
    """Read ``text`` line by line, checking each row once; the source of every parse error."""
    pts = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"expected 2 fields, got {len(parts)}", line=lineno)
        try:
            mz = number(parts[0])
            ab = number(parts[1])
        except ValueError:
            raise ParseError(f"non-numeric field in {line!r}", line=lineno) from None
        if not (0.0 <= ab < math.inf and 0.0 < mz < math.inf):
            raise _bad_row(mz, ab, lineno)
        pts.append((mz, ab + 0.0))  # + 0.0 reads an abundance of -0 as 0
    if not pts:
        raise EmptySpectrum("no peaks in input")
    return Spectrum._trusted(*_merge(pts), id)


def _merge(pts: list) -> tuple:
    """The ascending ``(mzs, abundances)`` of checked points; a duplicate m/z once, at its maximum."""
    pts.sort()
    # Sorted by (m/z, abundance), so the last row of each m/z, the one
    # dict() keeps, carries its maximum abundance.
    merged = dict(pts)
    return list(merged), list(merged.values())


def _bad_row(mz: float, ab: float, lineno: int) -> DomainError:
    if ab < 0:
        return DomainError(f"negative abundance on line {lineno}")
    if mz <= 0:
        return DomainError(f"non-positive m/z on line {lineno}")
    if not ab < math.inf:
        return DomainError(f"non-finite abundance on line {lineno}")
    return DomainError(f"non-finite m/z on line {lineno}")


def normalize(s: Spectrum, excluded: Iterable[IonTarget] = (), eps: float = 0.2) -> Spectrum:
    """Rescale so the highest peak outside the excluded ions reads 100.

    Every point is multiplied by the same factor, so excluded peaks keep
    their relative size and may land above 100. Used to discount the
    anomalously strong potassium signal before classification.
    """
    factor = scale_factor(s, excluded, eps)
    # scale_factor() keeps every scaled abundance finite, and a positive
    # factor keeps them non-negative; the m/z column is shared.
    return Spectrum._trusted(s.mzs, [ab * factor for ab in s.abundances], s.id)


def window_slice(mzs, mz: float, eps: float) -> tuple:
    """The bounds ``(lo, hi)`` of ion m/z ``mz``'s window in the ascending list ``mzs``.

    ``mzs[lo:hi]`` is every m/z with ``mz - eps <= m/z <= mz + eps`` as floats, empty
    when lo >= hi: the one window of every term lookup and normalization exclusion.
    """
    return bisect_left(mzs, mz - eps), bisect_right(mzs, mz + eps)


def scale_factor(s: Spectrum, excluded: Iterable[IonTarget] = (), eps: float = 0.2) -> float:
    """The factor normalize() multiplies every abundance by: 100 / reference.

    The reference is the highest peak outside every excluded ion's
    window_slice(). Since x -> x * factor is monotone under rounding, a
    windowed maximum of the normalized spectrum equals the raw windowed
    maximum times this factor, bit for bit. An eps outside [0, inf) and a
    factor that would scale an (excluded) peak past the float range are refused.
    """
    if not 0.0 <= eps < math.inf:  # also false for nan
        raise DomainError(f"eps must be finite and non-negative, got {eps}")
    ref = s.max_abundance
    windows = sorted(window_slice(s.mzs, ion.mz, eps) for ion in excluded)
    if windows:
        kept, start = [], 0  # the abundances between the windows
        for lo, hi in windows:
            kept += s.abundances[start:lo]
            start = max(start, hi)
        kept += s.abundances[start:]
        if not kept:
            raise CannotNormalize("all points fall within excluded ion windows")
        ref = max(kept)
    if ref == 0.0:
        raise CannotNormalize("all non-excluded abundances are zero")
    factor = FULL_SCALE / ref
    if not math.isfinite(factor):
        raise CannotNormalize(f"reference abundance {ref} yields a non-finite scale factor")
    if not s.max_abundance * factor < math.inf:
        raise CannotNormalize(f"peak abundance {s.max_abundance} overflows when scaled by {factor}")
    return factor

