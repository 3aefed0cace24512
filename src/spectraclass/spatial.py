"""Sample grids and neighbor-based reclassification of indeterminate spots."""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from functools import partial
from itertools import chain
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
        _check_shape(self.topology, self.rows, self.cols, len(self.spots))
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
        _check_shape(topology, rows, cols, len(spots))
        return grid


def _check_shape(topology: str, rows: int, cols: int, n_spots: int) -> None:
    """Raise ValueError for an unknown topology, then for a spot count other than rows x cols."""
    if topology not in (RECTANGULAR, HEXAGONAL):
        raise ValueError(f"unknown topology {topology!r}")
    if n_spots != rows * cols:
        raise ValueError(f"expected {rows * cols} spots, got {n_spots}")


def _steps(topology: str, row: int):
    """(row, column) steps from a spot in grid row ``row`` to its neighbors, in neighbors() order."""
    if topology == RECTANGULAR:
        return _MOORE
    return _HEX_ODD if row % 2 else _HEX_EVEN


def neighbors(grid: SampleGrid, i: int):
    """Adjacent spot indices: 8 (Moore) on rectangular grids, 6 on hexagonal.

    Candidates outside the grid are dropped, so edges and corners see a
    reduced neighbor count rather than phantom zero spots.
    """
    if not 0 <= i < len(grid.spots):
        raise BadIndex(f"spot index {i} out of range")
    rows, cols = grid.rows, grid.cols
    row, col = divmod(i, cols)
    out = []
    for dr, dc in _steps(grid.topology, row):
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


def _harden(spots, nu: float) -> list:
    """One MapCell per spot, hardened from its raw memberships."""
    return [MapCell(*harden_values(spot.membership, nu)) for spot in spots]


def classify_spots(grid: SampleGrid, nu: float) -> ClassificationMap:
    """Hard classification of every spot from raw memberships only."""
    return ClassificationMap(_harden(grid.spots, nu))


def _grid_rows(grid: SampleGrid):
    """The spots of ``grid``, one list per grid row."""
    cols = grid.cols
    return (grid.spots[i:i + cols] for i in range(0, len(grid.spots), cols))


def map_rows(topology: str, class_codes: list, spot_rows, nu: float,
             floor: Optional[float] = None):
    """Harden and smooth a grid row by row: yield ``(spots, pre, post)`` for each row.

    ``spot_rows`` gives the grid's rows in order, each a list of Spots
    whose dicts list ``class_codes`` in order. Row r is hardened and
    smoothed once row r+1 is read, so only rows r-1, r and r+1 are held.
    ``pre`` and ``post`` are row r's cells before and after smoothing, as
    classify_spots and reclassify_map define them; a confident spot's
    post cell is its pre cell.

    Each smoothed value is the one smoothed_membership() gives, bit for
    bit: the neighbors are listed once per spot, in neighbors() order,
    and summed per class in that order. A spot off the border finds them
    at fixed offsets in the three-row window; border spots drop the steps
    that leave the grid.
    """
    smoothed_nu = -math.inf if floor is None else floor
    rows = iter(spot_rows)
    prev, cur = [], next(rows, None)
    r = 0
    while cur is not None:
        nxt = next(rows, None)
        cols = len(cur)
        # Memberships of rows r-1 and r+1, where they exist, around row r at base.
        window = [spot.membership for spot in chain(prev, cur, nxt or ())]
        base = len(prev)
        lo, hi = (-1 if prev else 0), (0 if nxt is None else 1)
        steps = _steps(topology, r)
        inner = [dr * cols + dc for dr, dc in steps] if prev and nxt else None
        pre = _harden(cur, nu)
        post = list(pre)
        for c, cell in enumerate(pre):
            if cell.label != UNK:
                continue
            i = base + c
            mu = window[i]
            if inner is not None and 0 < c < cols - 1:
                around = [window[i + d] for d in inner]
            else:
                around = [window[i + dr * cols + dc] for dr, dc in steps
                          if lo <= dr <= hi and 0 <= c + dc < cols]
            if around:
                n = len(around)
                smoothed = {k: mu[k] + sum([m[k] for m in around]) / n for k in class_codes}
            else:
                smoothed = mu
            code, sbest = harden_values(smoothed, smoothed_nu)
            post[c] = MapCell(code, cell.confidence if code == UNK else sbest, True)
        yield cur, pre, post
        prev, cur, r = cur, nxt, r + 1


def reclassify_map(grid: SampleGrid, nu: float, floor: Optional[float] = None) -> ClassificationMap:
    """Hard classification with neighbor smoothing for sub-nu spots.

    Confident spots keep their raw argmax label. Indeterminate spots take
    the argmax over neighbor-smoothed memberships instead; smoothing reads
    raw values only, in one pass, so it never cascades. The smoothed pick
    always yields a class; ``floor`` optionally keeps a spot UNK when even
    the best smoothed value stays below it (off by default), with the raw
    confidence 1 - raw best. The stored confidence of a neighbor-assigned
    class is the smoothed value and may exceed 1. The grid is smoothed
    row by row through map_rows.
    """
    cells = []
    for _, _, post in map_rows(grid.topology, grid.class_codes, _grid_rows(grid), nu, floor):
        cells += post
    return ClassificationMap(cells)


# ---------------------------------------------------------------------------
# Grid CSV interchange: classify-batch CSV prefixed with topology headers.

_HEADER_RE = re.compile(r"#\s*(topology|rows|cols)\s*:\s*(\S+)")
_CHUNK = 1 << 16  # characters of grid text split into lines at a time


def _lines(source):
    """The lines of ``source``, a str or an open text file, as ``splitlines()`` gives them.

    The text is taken ``_CHUNK`` characters at a time. Each piece is cut
    just after its last "\n" and the rest carried into the next, so no
    line, and no "\r\n", is split.
    """
    if isinstance(source, str):
        pieces = (source[i:i + _CHUNK] for i in range(0, len(source), _CHUNK))
    else:
        pieces = iter(partial(source.read, _CHUNK), "")
    rest = []
    for piece in pieces:
        cut = piece.rfind("\n") + 1
        if cut:
            rest.append(piece[:cut])
            yield from "".join(rest).splitlines()
            rest = [piece[cut:]]
        else:
            rest.append(piece)
    yield from "".join(rest).splitlines()


def _quoted_fields(line: str):
    """The fields of a line holding '"', as csv.reader reads them; None if a quoted field is left open."""
    reader = csv.reader((line, ""))
    fields = next(reader)
    return None if reader.line_num > 1 else fields  # an open field runs on into the next line


def _layout(line: str, lineno: int):
    """(class codes, field count, mu columns, id/x/y column or None) of the column line."""
    columns = [c.strip() for c in line.split(",")]
    class_codes = [c[3:] for c in columns if c.startswith("mu_")]
    if not class_codes:
        raise ParseError("no mu_<CLASS> columns in grid CSV", line=lineno)
    if UNK in class_codes:
        raise ParseError(f"column mu_{UNK}: {UNK} is the unknown label, not a class", line=lineno)
    idx = {name: k for k, name in enumerate(columns)}
    if len(idx) < len(columns):
        dup = next(c for k, c in enumerate(columns) if idx[c] != k)
        raise ParseError(f"duplicate column {dup!r}", line=lineno)
    mu_columns = [(c, idx[f"mu_{c}"]) for c in class_codes]
    return class_codes, len(columns), mu_columns, idx.get("id"), idx.get("x"), idx.get("y")


def _grid_shape(meta: dict, has_columns: bool, error):
    """(topology, rows, cols) from the headers, or the first of the errors checked before the shape."""
    for key in ("topology", "rows", "cols"):
        if key not in meta:
            raise ParseError(f"missing grid header '# {key}:'")
    try:
        rows = int(meta["rows"])
        cols = int(meta["cols"])
    except ValueError:
        raise ParseError("rows/cols headers must be integers") from None
    if rows < 1 or cols < 1:
        raise ParseError(f"rows/cols headers must be at least 1, got {rows} x {cols}")
    if not has_columns:
        raise ParseError("grid file has no data rows")
    if error is not None:
        raise error
    return {"rect": RECTANGULAR, "hex": HEXAGONAL}.get(meta["topology"], meta["topology"]), rows, cols


def read_grid_rows(source):
    """Parse a grid file lazily: yield its shape, then its rows of spots.

    ``source`` is the file's text or the open text file, which _lines()
    reads a piece at a time. The first item is ``(topology, rows, cols,
    class_codes)``, yielded once the three headers and the column line
    are read; each later item is one grid row, a list of ``cols`` Spots,
    in row-major order. Headers may appear anywhere in the file, each
    once; spots read before the last of them are held until it is read.

    A repeated header is raised at its line. Every other error is raised
    after the last line, as if every header came first: a missing,
    non-integer or sub-1 header, no data rows, the first malformed data
    line, an unknown topology, a wrong spot count. So a row is known
    good only once the generator is exhausted without error.
    """
    meta = {}
    has_columns = False
    error = None  # the first malformed data line; headers are still read after it
    cols = None  # set once the shape is yielded
    held = []  # spots not yet yielded
    n = 0
    for lineno, raw in enumerate(_lines(source), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _HEADER_RE.match(line)
            if not m:
                continue
            if m.group(1) in meta:
                raise DuplicateName(f"grid header '# {m.group(1)}:' set twice", line=lineno)
            meta[m.group(1)] = m.group(2)
        elif error is not None:
            continue
        elif not has_columns:
            has_columns = True
            try:
                class_codes, n_fields, mu_columns, kid, kx, ky = _layout(line, lineno)
            except ParseError as exc:
                error = exc
        else:
            # float() ignores the whitespace around a field; ids are stripped.
            fields = line.split(",") if '"' not in line else _quoted_fields(line)
            if fields is None:
                error = ParseError("quoted field not closed", line=lineno)
                continue
            if len(fields) != n_fields:
                error = ParseError(f"expected {n_fields} fields", line=lineno)
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
                if not (math.isfinite(x) and math.isfinite(y)):
                    name, v = ("y", y) if math.isfinite(x) else ("x", x)
                    error = ParseError(f"{name} = {v} is not finite", line=lineno)
                    continue
                held.append(Spot(membership, "" if kid is None else fields[kid].strip(), x, y))
                n += 1
                if len(held) == cols:
                    yield held
                    held = []
            continue
        # A header or the column line was read: the shape may be complete now.
        if cols is None and len(meta) == 3 and has_columns:
            try:
                shape = _grid_shape(meta, has_columns, error)
            except ParseError:  # raised again, in order, after the last line
                continue
            cols = shape[2]
            yield (*shape, class_codes)
            full = len(held) - len(held) % cols
            for i in range(0, full, cols):
                yield held[i:i + cols]
            del held[:full]
    topology, rows, cols = _grid_shape(meta, has_columns, error)
    _check_shape(topology, rows, cols, n)


def read_grid_csv(text: str) -> SampleGrid:
    """Parse a grid file: `# topology/rows/cols` headers plus batch CSV rows.

    Spots are listed in row-major order. Headers and errors are read as
    read_grid_rows reads them.
    """
    rows = read_grid_rows(text)
    topology, n_rows, cols, class_codes = next(rows)
    spots = [spot for row in rows for spot in row]
    # Each membership dict is built in class_codes order.
    return SampleGrid._trusted(topology, n_rows, cols, spots, class_codes)


MAP_CSV_HEADER = "x,y,label,confidence,neighbor_assigned\n"


def map_csv_lines(spots, cell_rows) -> list:
    """The map CSV lines of one grid row: one string per list of the row's cells in ``cell_rows``.

    A spot's x and y are formatted once for all maps, and its line once
    for consecutive maps that share its cell, as a confident spot's pre
    and post maps do.
    """
    outs = [[] for _ in cell_rows]
    for i, spot in enumerate(spots):
        xy = f"{fmt(spot.x)},{fmt(spot.y)},"
        last = None
        for cells, out in zip(cell_rows, outs):
            cell = cells[i]
            if cell is not last:
                last = cell
                line = (f"{xy}{cell.label},{fmt(cell.confidence)},"
                        f"{'true' if cell.neighbor_assigned else 'false'}\n")
            out.append(line)
    return ["".join(out) for out in outs]


def write_map_csv(grid: SampleGrid, outputs) -> None:
    """Write each ``(cmap, stream)`` pair of ``outputs`` as a map CSV, one grid row at a time."""
    maps = [(cmap.cells, stream.write) for cmap, stream in outputs]
    for _, write in maps:
        write(MAP_CSV_HEADER)
    cols = grid.cols
    for start in range(0, len(grid.spots), cols):
        stop = start + cols
        lines = map_csv_lines(grid.spots[start:stop], [cells[start:stop] for cells, _ in maps])
        for (_, write), text in zip(maps, lines):
            write(text)
