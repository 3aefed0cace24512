"""Sample grids and neighbor-based reclassification of indeterminate spots."""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from functools import partial
from typing import Optional

from .classify import UNK, fmt, harden_list
from .errors import BadIndex, DuplicateName, ParseError

RECTANGULAR = "rectangular"
HEXAGONAL = "hexagonal"
TOPOLOGY_ALIASES = {"rect": RECTANGULAR, "hex": HEXAGONAL}  # as headers and --topology may name them

# Hexagonal (closest-pack) grids use odd-row horizontal offset addressing:
# odd rows are shifted half a spot to the right.
_HEX_EVEN = ((-1, -1), (-1, 0), (0, -1), (0, 1), (1, -1), (1, 0))
_HEX_ODD = ((-1, 0), (-1, 1), (0, -1), (0, 1), (1, 0), (1, 1))
_MOORE = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


class _LeftFold(float):
    """+0.0 as a float subclass: sum() from it adds left to right; 3.12+ compensates from 0 or 0.0."""


_LEFT_FOLD = _LeftFold()


@dataclass(slots=True)
class Spot:
    membership: dict  # class code -> [0,1]
    id: str = ""
    x: float = 0.0
    y: float = 0.0


@dataclass
class SampleGrid:
    """Spots in row-major order, each with a membership in [0,1] for every class code; checked when built."""

    topology: str
    rows: int
    cols: int
    spots: list
    class_codes: list

    def __post_init__(self):
        _check_shape(self.topology, self.rows, self.cols, len(self.spots))
        for i, spot in enumerate(self.spots):
            for code in self.class_codes:
                if code not in spot.membership:
                    raise ValueError(f"spot {i} has no membership for class {code!r}")
                if not 0.0 <= spot.membership[code] <= 1.0:  # also false for nan
                    raise ValueError(f"spot {i}: membership of class {code!r} "
                                     f"is {spot.membership[code]}, outside [0,1]")


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


@dataclass(slots=True)
class MapCell:
    label: str
    confidence: float
    neighbor_assigned: bool = False


@dataclass
class ClassificationMap:
    cells: list  # one MapCell per spot, in the grid's row-major order


def _grid_rows(grid: SampleGrid):
    """The spots of ``grid`` as read_grid_rows yields them: ``(ids, xs, ys, mus)`` per grid row."""
    codes, cols = grid.class_codes, grid.cols
    for start in range(0, len(grid.spots), cols):
        spots = grid.spots[start:start + cols]
        yield ([s.id for s in spots], [s.x for s in spots], [s.y for s in spots],
               [[s.membership[c] for c in codes] for s in spots])


def map_rows(topology: str, rows, nu: float, floor: Optional[float] = None):
    """Harden and smooth a grid row by row: yield ``(row, pre, post)`` for each row.

    ``rows`` gives the grid's rows in order, each ``(ids, xs, ys, mus)``
    as read_grid_rows yields them. Row r is hardened and smoothed once row
    r+1 is read, so only rows r-1, r and r+1 are held. ``pre`` is row r's
    ``(labels, confs)`` columns before smoothing and ``post`` its
    ``(labels, confs, assigned)`` after. A label is an index into the
    grid's class codes, -1 for UNK, and ``assigned`` lists the indices of
    the neighbor-assigned spots, the ones below nu.

    Pre labels and confidences are harden_list()'s at nu; every spot at
    or above nu keeps them after smoothing. A spot below nu adds to each
    class's raw membership the mean of its neighbors' raw memberships of
    that class, summed left to right from +0.0 in neighbors() order (a
    spot with no neighbors keeps its raw values), and is hardened again
    at ``floor``, keeping its pre label and confidence if that gives UNK;
    a smoothed confidence may exceed 1. A spot off the border finds its
    neighbors at fixed offsets in the three-row window; border spots drop
    the steps that leave the grid.
    """
    smoothed_nu = -math.inf if floor is None else floor
    rows = iter(rows)
    prev, cur = [], next(rows, None)
    r = 0
    while cur is not None:
        nxt = next(rows, None)
        mus = cur[3]
        cols = len(mus)
        # Memberships of rows r-1 and r+1, where they exist, around row r at base.
        window = [*prev, *mus, *(nxt[3] if nxt else ())]
        base = len(prev)
        lo, hi = (-1 if prev else 0), (0 if nxt is None else 1)
        steps = _steps(topology, r)
        inner = [dr * cols + dc for dr, dc in steps] if prev and nxt else None
        labels, confs = map(list, zip(*(harden_list(mu, nu) for mu in mus)))
        post_labels, post_confs = labels[:], confs[:]
        assigned = [c for c, k in enumerate(labels) if k < 0]
        for c in assigned:
            i = base + c
            if inner is not None and 0 < c < cols - 1:
                around = [window[i + d] for d in inner]
            else:
                around = [window[i + dr * cols + dc] for dr, dc in steps
                          if lo <= dr <= hi and 0 <= c + dc < cols]
            mu = window[i]
            if around:
                n = len(around)
                mu = [a + sum(col, _LEFT_FOLD) / n for a, col in zip(mu, zip(*around))]
            k, conf = harden_list(mu, smoothed_nu)
            if k >= 0:  # else the floor keeps the spot UNK, with its raw confidence
                post_labels[c], post_confs[c] = k, conf
        yield cur, (labels, confs), (post_labels, post_confs, assigned)
        prev, cur, r = mus, nxt, r + 1


def reclassify_map(grid: SampleGrid, nu: float, floor: Optional[float] = None) -> ClassificationMap:
    """Hard classification with neighbor smoothing for sub-nu spots: map_rows() over the grid.

    Smoothing reads raw values only, in one pass, so it never cascades.
    Classes are read in ``class_codes`` order, so ties break by it.
    """
    names = [*grid.class_codes, UNK]  # label -1 is UNK
    cells = []
    for _, _, (labels, confs, assigned) in map_rows(grid.topology, _grid_rows(grid), nu, floor):
        row = [MapCell(names[k], conf) for k, conf in zip(labels, confs)]
        for i in assigned:
            row[i].neighbor_assigned = True
        cells += row
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
    mu_columns = [idx[f"mu_{c}"] for c in class_codes]
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
    return TOPOLOGY_ALIASES.get(meta["topology"], meta["topology"]), rows, cols


def read_grid_rows(source):
    """Parse a grid file lazily: yield its shape, then its rows of spots.

    ``source`` is the file's text or the open text file, which _lines()
    reads a piece at a time. The first item is ``(topology, rows, cols,
    class_codes)``, yielded once the three headers and the column line
    are read; each later item is one grid row of ``cols`` spots, in
    row-major order, as the columns ``(ids, xs, ys, mus)``: each spot's
    memberships are a list in ``class_codes`` order. Headers may appear
    anywhere in the file, each once; spots read before the last of them
    are held until it is read.

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
    ids, xs, ys, mus = [], [], [], []  # the columns of the spots not yet yielded
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
                mu = [float(fields[k]) for k in mu_columns]
                x = float(fields[kx]) if kx is not None and fields[kx].strip() else 0.0
                y = float(fields[ky]) if ky is not None and fields[ky].strip() else 0.0
            except ValueError:
                error = ParseError("non-numeric field in grid row", line=lineno)
                continue
            for v in mu:
                if not 0.0 <= v <= 1.0:  # also false for nan
                    # index() finds the first bad value: an equal one before it is bad too,
                    # and a nan is found by identity.
                    error = ParseError(f"mu_{class_codes[mu.index(v)]} = {v} is outside [0,1]",
                                       line=lineno)
                    break
            else:
                if not (math.isfinite(x) and math.isfinite(y)):
                    name, v = ("y", y) if math.isfinite(x) else ("x", x)
                    error = ParseError(f"{name} = {v} is not finite", line=lineno)
                    continue
                ids.append("" if kid is None else fields[kid].strip())
                xs.append(x)
                ys.append(y)
                mus.append(mu)
                n += 1
                if len(mus) == cols:
                    yield ids, xs, ys, mus
                    ids, xs, ys, mus = [], [], [], []
            continue
        # A header or the column line was read: the shape may be complete now.
        if cols is None and len(meta) == 3 and has_columns:
            try:
                shape = _grid_shape(meta, has_columns, error)
            except ParseError:  # raised again, in order, after the last line
                continue
            cols = shape[2]
            yield (*shape, class_codes)
            full = len(mus) - len(mus) % cols
            for i in range(0, full, cols):
                yield ids[i:i + cols], xs[i:i + cols], ys[i:i + cols], mus[i:i + cols]
            ids, xs, ys, mus = ids[full:], xs[full:], ys[full:], mus[full:]
    topology, rows, cols = _grid_shape(meta, has_columns, error)
    _check_shape(topology, rows, cols, n)


def read_grid_csv(text: str) -> SampleGrid:
    """Parse a grid file: `# topology/rows/cols` headers plus batch CSV rows.

    Spots are listed in row-major order. Headers and errors are read as
    read_grid_rows reads them.
    """
    rows = read_grid_rows(text)
    topology, n_rows, cols, class_codes = next(rows)
    spots = [Spot(dict(zip(class_codes, mu)), id, x, y) for row in rows for id, x, y, mu in zip(*row)]
    return SampleGrid(topology, n_rows, cols, spots, class_codes)


MAP_CSV_HEADER = "x,y,label,confidence,neighbor_assigned\n"


def map_csv_lines(names, xs, ys, pre, post) -> tuple:
    """The pre and post map CSV text of one grid row.

    ``pre`` and ``post`` are the row's columns as map_rows yields them,
    and ``names[k]`` is the label written for label k. A spot's x and y
    are formatted once for both maps, and so is its line, unless it was
    neighbor-assigned.
    """
    xy = [f"{fmt(x)},{fmt(y)}," for x, y in zip(xs, ys)]
    lines = [f"{p}{names[k]},{fmt(conf)},false\n" for p, k, conf in zip(xy, *pre)]
    pre_text = "".join(lines)
    labels, confs, assigned = post
    for i in assigned:
        lines[i] = f"{xy[i]}{names[labels[i]]},{fmt(confs[i])},true\n"
    return pre_text, "".join(lines)

