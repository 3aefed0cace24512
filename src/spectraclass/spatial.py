"""Sample grids and neighbor-based reclassification of indeterminate spots."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional

from .classify import UNK, fmt, harden_values
from .errors import BadIndex, DuplicateName, ParseError

RECTANGULAR = "rectangular"
HEXAGONAL = "hexagonal"

# Hexagonal (closest-pack) grids use odd-row horizontal offset addressing:
# odd rows are shifted half a spot to the right.
_HEX_EVEN = ((-1, -1), (-1, 0), (0, -1), (0, 1), (1, -1), (1, 0))
_HEX_ODD = ((-1, 0), (-1, 1), (0, -1), (0, 1), (1, 0), (1, 1))
_MOORE = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


@dataclass(slots=True)
class Spot:
    membership: dict  # class code -> [0,1]
    id: str = ""
    x: float = 0.0
    y: float = 0.0


@dataclass
class SampleGrid:
    topology: str
    rows: int
    cols: int
    spots: list
    class_codes: list

    def __post_init__(self):
        self._check_shape()
        # harden_values breaks ties in dict order: keep class_codes order.
        for spot in self.spots:
            if list(spot.membership) != self.class_codes:
                spot.membership = {c: spot.membership[c] for c in self.class_codes}

    @classmethod
    def _trusted(cls, topology: str, rows: int, cols: int, spots: list,
                 class_codes: list) -> "SampleGrid":
        """A grid whose spots' dicts already list class_codes in order; only its shape is checked."""
        grid = object.__new__(cls)
        grid.__dict__.update(topology=topology, rows=rows, cols=cols, spots=spots,
                             class_codes=class_codes)
        grid._check_shape()
        return grid

    def _check_shape(self):
        if self.topology not in (RECTANGULAR, HEXAGONAL):
            raise ValueError(f"unknown topology {self.topology!r}")
        if len(self.spots) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} spots, got {len(self.spots)}")


def neighbors(grid: SampleGrid, i: int):
    """Adjacent spot indices: 8 (Moore) on rectangular grids, 6 on hexagonal.

    Candidates outside the grid are dropped, so edges and corners see a
    reduced neighbor count rather than phantom zero spots.
    """
    if not 0 <= i < len(grid.spots):
        raise BadIndex(f"spot index {i} out of range")
    rows, cols = grid.rows, grid.cols
    row, col = divmod(i, cols)
    if grid.topology == RECTANGULAR:
        offsets = _MOORE
    else:
        offsets = _HEX_ODD if row % 2 else _HEX_EVEN
    out = []
    for dr, dc in offsets:
        r, c = row + dr, col + dc
        if 0 <= r < rows and 0 <= c < cols:
            out.append(r * cols + c)
    return out


def smoothed_membership(grid: SampleGrid, i: int, gamma: str) -> float:
    """Spot membership plus the average over its neighbors; range [0, 2].

    A 1x1 grid has no neighbors and falls back to the raw value.
    """
    ns = neighbors(grid, i)
    mu = grid.spots[i].membership[gamma]
    if not ns:
        return mu
    return mu + sum(grid.spots[j].membership[gamma] for j in ns) / len(ns)


@dataclass(slots=True)
class MapCell:
    label: str
    confidence: float
    neighbor_assigned: bool = False


@dataclass
class ClassificationMap:
    cells: list  # one MapCell per spot, in the grid's row-major order


def classify_spots(grid: SampleGrid, nu: float) -> ClassificationMap:
    """Hard classification of every spot from raw memberships only."""
    cells = [MapCell(*harden_values(spot.membership, nu)) for spot in grid.spots]
    return ClassificationMap(cells)


def reclassify_map(grid: SampleGrid, nu: float, floor: Optional[float] = None, *,
                   _pre: Optional[ClassificationMap] = None) -> ClassificationMap:
    """Hard classification with neighbor smoothing for sub-nu spots.

    Confident spots keep their raw argmax label. Indeterminate spots take
    the argmax over neighbor-smoothed memberships instead; smoothing reads
    raw values only, in one pass, so it never cascades. The smoothed pick
    always yields a class; ``floor`` optionally keeps a spot UNK when even
    the best smoothed value stays below it (off by default), with the raw
    confidence 1 - raw best. The stored confidence of a neighbor-assigned
    class is the smoothed value and may exceed 1.

    Each smoothed value is the one smoothed_membership() gives, bit for
    bit: the neighbors are listed once per spot, in neighbors() order,
    and summed per class in that order. A spot off the border finds them
    at fixed index offsets from its own; border spots ask neighbors().
    Confident spots share their cell with the raw map, which ``_pre``
    passes in when the caller has already built it with
    classify_spots(grid, nu).
    """
    pre = classify_spots(grid, nu) if _pre is None else _pre
    smoothed_nu = -math.inf if floor is None else floor
    spots = grid.spots
    codes = grid.class_codes
    rows, cols = grid.rows, grid.cols
    if grid.topology == RECTANGULAR:
        even = odd = [dr * cols + dc for dr, dc in _MOORE]
    else:
        even = [dr * cols + dc for dr, dc in _HEX_EVEN]
        odd = [dr * cols + dc for dr, dc in _HEX_ODD]
    cells = list(pre.cells)
    for i, cell in enumerate(cells):
        if cell.label != UNK:
            continue
        mu = spots[i].membership
        row, col = divmod(i, cols)
        if 0 < row < rows - 1 and 0 < col < cols - 1:
            around = [spots[i + d].membership for d in (odd if row % 2 else even)]
        else:
            around = [spots[j].membership for j in neighbors(grid, i)]
        if around:
            n = len(around)
            smoothed = {c: mu[c] + sum([m[c] for m in around]) / n for c in codes}
        else:
            smoothed = mu
        code, sbest = harden_values(smoothed, smoothed_nu)
        cells[i] = MapCell(code, cell.confidence if code == UNK else sbest, True)
    return ClassificationMap(cells)


# ---------------------------------------------------------------------------
# Grid CSV interchange: classify-batch CSV prefixed with topology headers.

_HEADER_RE = re.compile(r"#\s*(topology|rows|cols)\s*:\s*(\S+)")


def read_grid_csv(text: str) -> SampleGrid:
    """Parse a grid file: `# topology/rows/cols` headers plus batch CSV rows.

    Spots are listed in row-major order. Headers may appear anywhere in
    the file, each once, so a malformed data line is reported only after
    the headers are checked, as if every header came first.
    """
    meta = {}
    columns = None
    spots = []
    error = None  # the first malformed data line; headers are still read after it
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _HEADER_RE.match(line)
            if m:
                if m.group(1) in meta:
                    raise DuplicateName(f"grid header '# {m.group(1)}:' set twice", line=lineno)
                meta[m.group(1)] = m.group(2)
            continue
        if error is not None:
            continue
        if columns is None:
            columns = [c.strip() for c in line.split(",")]
            class_codes = [c[3:] for c in columns if c.startswith("mu_")]
            if not class_codes:
                error = ParseError("no mu_<CLASS> columns in grid CSV", line=lineno)
            elif UNK in class_codes:
                error = ParseError(f"column mu_{UNK}: {UNK} is the unknown label, not a class",
                                   line=lineno)
            idx = {name: k for k, name in enumerate(columns)}
            if error is None and len(idx) < len(columns):
                dup = next(c for k, c in enumerate(columns) if idx[c] != k)
                error = ParseError(f"duplicate column {dup!r}", line=lineno)
            mu_columns = [(c, idx[f"mu_{c}"]) for c in class_codes]
            kid, kx, ky = idx.get("id"), idx.get("x"), idx.get("y")
            continue
        # float() ignores the whitespace around a field; ids are stripped.
        fields = line.split(",")
        if len(fields) != len(columns):
            error = ParseError(f"expected {len(columns)} fields", line=lineno)
            continue
        try:
            membership = {c: float(fields[k]) for c, k in mu_columns}
            x = float(fields[kx]) if kx is not None and fields[kx].strip() else 0.0
            y = float(fields[ky]) if ky is not None and fields[ky].strip() else 0.0
        except ValueError:
            error = ParseError("non-numeric field in grid row", line=lineno)
            continue
        for c, mu in membership.items():
            if not 0.0 <= mu <= 1.0:  # also false for nan
                error = ParseError(f"mu_{c} = {mu} is outside [0,1]", line=lineno)
                break
        else:
            spots.append(Spot(membership, "" if kid is None else fields[kid].strip(), x, y))

    for key in ("topology", "rows", "cols"):
        if key not in meta:
            raise ParseError(f"missing grid header '# {key}:'")
    topology = {"rect": RECTANGULAR, "hex": HEXAGONAL}.get(meta["topology"], meta["topology"])
    try:
        rows = int(meta["rows"])
        cols = int(meta["cols"])
    except ValueError:
        raise ParseError("rows/cols headers must be integers") from None
    if rows < 1 or cols < 1:
        raise ParseError(f"rows/cols headers must be at least 1, got {rows} x {cols}")
    if columns is None:
        raise ParseError("grid file has no data rows")
    if error is not None:
        raise error
    # Each membership dict is built in class_codes order.
    return SampleGrid._trusted(topology, rows, cols, spots, class_codes)


def write_map_csv(grid: SampleGrid, outputs) -> None:
    """Write each ``(cmap, stream)`` pair of ``outputs`` as a map CSV, in one pass over the spots.

    A spot's x and y are formatted once for all maps, and its row once
    for consecutive maps that share its cell, as a confident spot's pre
    and post maps do.
    """
    maps = [(cmap.cells, stream.write) for cmap, stream in outputs]
    for _, write in maps:
        write("x,y,label,confidence,neighbor_assigned\n")
    for i, spot in enumerate(grid.spots):
        xy = f"{fmt(spot.x)},{fmt(spot.y)},"
        last = None
        for cells, write in maps:
            cell = cells[i]
            if cell is not last:
                last = cell
                row = (f"{xy}{cell.label},{fmt(cell.confidence)},"
                       f"{'true' if cell.neighbor_assigned else 'false'}\n")
            write(row)
