"""Sample grids and neighbor-based reclassification of indeterminate spots."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional

from .classify import UNK, fmt, harden_values
from .errors import BadIndex, ParseError

RECTANGULAR = "rectangular"
HEXAGONAL = "hexagonal"

# Hexagonal (closest-pack) grids use odd-row horizontal offset addressing:
# odd rows are shifted half a spot to the right.
_HEX_EVEN = ((-1, -1), (-1, 0), (0, -1), (0, 1), (1, -1), (1, 0))
_HEX_ODD = ((-1, 0), (-1, 1), (0, -1), (0, 1), (1, 0), (1, 1))
_MOORE = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


@dataclass
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
        if self.topology not in (RECTANGULAR, HEXAGONAL):
            raise ValueError(f"unknown topology {self.topology!r}")
        if len(self.spots) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} spots, got {len(self.spots)}")
        # harden_values breaks ties in dict order: keep class_codes order.
        for spot in self.spots:
            if list(spot.membership) != self.class_codes:
                spot.membership = {c: spot.membership[c] for c in self.class_codes}

    def index(self, row: int, col: int) -> int:
        return row * self.cols + col


def neighbors(grid: SampleGrid, i: int):
    """Adjacent spot indices: 8 (Moore) on rectangular grids, 6 on hexagonal.

    Candidates outside the grid are dropped, so edges and corners see a
    reduced neighbor count rather than phantom zero spots.
    """
    if not 0 <= i < len(grid.spots):
        raise BadIndex(f"spot index {i} out of range")
    row, col = divmod(i, grid.cols)
    if grid.topology == RECTANGULAR:
        offsets = _MOORE
    else:
        offsets = _HEX_ODD if row % 2 else _HEX_EVEN
    out = []
    for dr, dc in offsets:
        r, c = row + dr, col + dc
        if 0 <= r < grid.rows and 0 <= c < grid.cols:
            out.append(grid.index(r, c))
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


@dataclass
class MapCell:
    label: str
    confidence: float
    neighbor_assigned: bool = False


@dataclass
class ClassificationMap:
    cells: list
    class_codes: list
    rows: int
    cols: int
    topology: str


def classify_spots(grid: SampleGrid, nu: float) -> ClassificationMap:
    """Hard classification of every spot from raw memberships only."""
    cells = [MapCell(*harden_values(spot.membership, nu)) for spot in grid.spots]
    return ClassificationMap(cells, list(grid.class_codes), grid.rows, grid.cols, grid.topology)


def reclassify_map(grid: SampleGrid, nu: float, floor: Optional[float] = None) -> ClassificationMap:
    """Hard classification with neighbor smoothing for sub-nu spots.

    Confident spots keep their raw argmax label. Indeterminate spots take
    the argmax over neighbor-smoothed memberships instead; smoothing reads
    raw values only, in one pass, so it never cascades. The smoothed pick
    always yields a class; ``floor`` optionally keeps a spot UNK when even
    the best smoothed value stays below it (off by default), with the raw
    confidence 1 - raw best. The stored confidence of a neighbor-assigned
    class is the smoothed value and may exceed 1.
    """
    smoothed_nu = -math.inf if floor is None else floor
    cells = []
    for i, spot in enumerate(grid.spots):
        label, confidence = harden_values(spot.membership, nu)
        if label != UNK:
            cells.append(MapCell(label, confidence))
            continue
        smoothed = {c: smoothed_membership(grid, i, c) for c in grid.class_codes}
        code, sbest = harden_values(smoothed, smoothed_nu)
        cells.append(MapCell(code, confidence if code == UNK else sbest, neighbor_assigned=True))
    return ClassificationMap(cells, list(grid.class_codes), grid.rows, grid.cols, grid.topology)


# ---------------------------------------------------------------------------
# Grid CSV interchange: classify-batch CSV prefixed with topology headers.

_HEADER_RE = re.compile(r"#\s*(topology|rows|cols)\s*:\s*(\S+)")


def read_grid_csv(text: str) -> SampleGrid:
    """Parse a grid file: `# topology/rows/cols` headers plus batch CSV rows.

    Spots are listed in row-major order.
    """
    meta = {}
    body = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _HEADER_RE.match(line)
            if m:
                meta[m.group(1)] = m.group(2)
            continue
        body.append((lineno, line))
    for key in ("topology", "rows", "cols"):
        if key not in meta:
            raise ParseError(f"missing grid header '# {key}:'")
    topology = {"rect": RECTANGULAR, "hex": HEXAGONAL}.get(meta["topology"], meta["topology"])
    try:
        rows = int(meta["rows"])
        cols = int(meta["cols"])
    except ValueError:
        raise ParseError("rows/cols headers must be integers") from None

    if not body:
        raise ParseError("grid file has no data rows")
    head_line, head = body[0]
    columns = [c.strip() for c in head.split(",")]
    class_codes = [c[3:] for c in columns if c.startswith("mu_")]
    if not class_codes:
        raise ParseError("no mu_<CLASS> columns in grid CSV", line=head_line)
    if UNK in class_codes:
        raise ParseError(f"column mu_{UNK}: {UNK} is the unknown label, not a class",
                         line=head_line)
    idx = {name: k for k, name in enumerate(columns)}
    mu_columns = [(c, idx[f"mu_{c}"]) for c in class_codes]

    spots = []
    for lineno, line in body[1:]:
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != len(columns):
            raise ParseError(f"expected {len(columns)} fields", line=lineno)
        try:
            membership = {c: float(fields[k]) for c, k in mu_columns}
            x = float(fields[idx["x"]]) if "x" in idx and fields[idx["x"]] else 0.0
            y = float(fields[idx["y"]]) if "y" in idx and fields[idx["y"]] else 0.0
        except ValueError:
            raise ParseError("non-numeric field in grid row", line=lineno) from None
        for c, mu in membership.items():
            if not 0.0 <= mu <= 1.0:  # also false for nan
                raise ParseError(f"mu_{c} = {mu} is outside [0,1]", line=lineno)
        spots.append(Spot(membership, id=fields[idx["id"]] if "id" in idx else "", x=x, y=y))
    return SampleGrid(topology, rows, cols, spots, class_codes)


def write_map_csv(grid: SampleGrid, cmap: ClassificationMap, stream) -> None:
    stream.write("x,y,label,confidence,neighbor_assigned\n")
    for spot, cell in zip(grid.spots, cmap.cells):
        stream.write(",".join([
            fmt(spot.x), fmt(spot.y), cell.label, fmt(cell.confidence),
            "true" if cell.neighbor_assigned else "false",
        ]) + "\n")
