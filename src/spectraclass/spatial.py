"""Sample grids and neighbor-based reclassification of indeterminate spots."""

from __future__ import annotations

import csv
import math
import re
from functools import partial
from itertools import compress, islice, repeat
from operator import add, truediv
from typing import Optional

from .classify import FMT_SPEC, UNK, harden_spots
from .errors import DuplicateName, ParseError
from .spectrum import number, plain_columns
from .value import Value

RECTANGULAR = "rectangular"
HEXAGONAL = "hexagonal"
TOPOLOGY_ALIASES = {"rect": RECTANGULAR, "hex": HEXAGONAL}  # as headers and --topology may name them

# Hexagonal (closest-pack) grids use odd-row horizontal offset addressing:
# odd rows are shifted half a spot to the right.
_HEX_EVEN = ((-1, -1), (-1, 0), (0, -1), (0, 1), (1, -1), (1, 0))
_HEX_ODD = ((-1, 0), (-1, 1), (0, -1), (0, 1), (1, 0), (1, 1))
_MOORE = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


def _check_shape(topology: str, rows: int, cols: int, n_spots: int) -> None:
    """Raise ValueError for an unknown topology, then for a spot count other than rows x cols."""
    if topology not in (RECTANGULAR, HEXAGONAL):
        raise ValueError(f"unknown topology {topology!r}")
    if n_spots != rows * cols:
        raise ValueError(f"expected {rows * cols} spots, got {n_spots}")


def _steps(topology: str, row: int):
    """(row, column) steps from a spot in grid row ``row`` to its neighbors: row by row, left to right."""
    if topology == RECTANGULAR:
        return _MOORE
    return _HEX_ODD if row % 2 else _HEX_EVEN


class MapCell(Value):
    __slots__ = _fields = ("label", "confidence", "neighbor_assigned")

    def __init__(self, label: str, confidence: float, neighbor_assigned: bool = False):
        self.label = label
        self.confidence = confidence
        self.neighbor_assigned = neighbor_assigned


class ClassificationMap(Value):
    __slots__ = _fields = ("cells",)

    def __init__(self, cells: list):
        self.cells = cells  # one MapCell per spot, in the grid's row-major order


def map_rows(topology: str, rows, nu: float, floor: Optional[float] = None):
    """Harden and smooth a grid row by row: yield ``(row, pre, post)`` for each row.

    ``rows`` gives the grid's rows in order, each ``(ids, xs, ys, mus)``
    as read_grid_rows yields them, ``mus[j]`` being class j's membership
    column. Row r is hardened and smoothed once row r+1 is read, so only
    rows r-1, r and r+1 are held. ``pre`` is row r's ``(labels, confs)``
    columns before smoothing and ``post`` its ``(labels, confs, assigned)``
    after. A label is an index into the grid's class codes, -1 for UNK,
    and ``assigned`` lists the indices of the neighbor-assigned spots, the
    ones below nu.

    Pre labels and confidences are harden_spots()'s at nu; every spot at
    or above nu keeps them after smoothing. A spot below nu adds to each
    class's raw membership the mean of its neighbors' raw memberships of
    that class, and is hardened again at ``floor``, keeping its pre label
    and confidence if that gives UNK; a smoothed confidence may exceed 1.

    Each row is padded once, as it is read: every class column gets a
    +0.0 at both ends, and a column of 1.0s padded the same way counts
    neighbors; a row outside the grid is all +0.0. Then, for every spot
    below nu at once, each column's neighbor sums are one chain of
    map(add), from +0.0 in _steps() order, over the three rows'
    padded columns, each compress()-ed by the sub-nu mask shifted by the
    step's column offset. The running sum is never -0.0, so a padded +0.0
    leaves it unchanged: each sum is the one taken left to right over the
    spot's neighbors inside the grid. The spot of a 1x1 grid, the only
    one with no neighbors, keeps its raw values.
    """
    smoothed_nu = -math.inf if floor is None else floor
    rows = iter(rows)
    below = next(rows, None)
    if below is None:
        return
    cols = len(below[0])
    ones = [0.0, *repeat(1.0, cols), 0.0]
    outside = [[0.0] * (cols + 2)] * (len(below[3]) + 1)

    def padded(row):
        """The padded class columns of ``row``, then its padded count column; outside if row is None."""
        return outside if row is None else [*([0.0, *mu, 0.0] for mu in row[3]), ones]

    window = [outside, padded(below)]  # rows r-1 and r, once row r+1 is appended
    r = -1
    while below is not None:
        row, below, r = below, next(rows, None), r + 1
        window = [*window[-2:], padded(below)]
        spots = list(zip(*row[3]))
        labels, confs = harden_spots(spots, nu)
        post_labels, post_confs = labels[:], confs[:]
        assigned = [c for c, k in enumerate(labels) if k < 0]
        if assigned:
            steps = _steps(topology, r)
            below_nu = [k < 0 for k in labels]
            # Item c + 1 + dc of a padded column is spot c's neighbor at column step dc.
            select = [below_nu, [False, *below_nu], [False, False, *below_nu]]
            totals = []
            for columns in zip(*window):  # a class's padded columns in rows r-1, r and r+1, the counts' last
                total = repeat(0.0)
                for dr, dc in steps:
                    total = map(add, total, compress(columns[1 + dr], select[1 + dc]))
                totals.append(total)
            n = list(totals.pop())
            if n == [0.0]:  # the spot of a 1x1 grid
                smoothed = spots
            else:
                smoothed = list(zip(*[map(add, compress(mu, below_nu), map(truediv, total, n))
                                      for mu, total in zip(row[3], totals)]))
            for c, k, conf in zip(assigned, *harden_spots(smoothed, smoothed_nu)):
                if k >= 0:  # else the floor keeps the spot UNK, with its raw confidence
                    post_labels[c], post_confs[c] = k, conf
        yield row, (labels, confs), (post_labels, post_confs, assigned)


def reclassify_map(grid: list, nu: float, floor: Optional[float] = None) -> ClassificationMap:
    """map_rows() over a read_grid_csv() grid, as one MapCell per spot in row-major order."""
    (topology, _, _, codes), *rows = grid
    names = [*codes, UNK]  # label -1 is UNK
    cells = []
    for _, _, (labels, confs, assigned) in map_rows(topology, rows, nu, floor):
        row = [MapCell(names[k], conf) for k, conf in zip(labels, confs)]
        for i in assigned:
            row[i].neighbor_assigned = True
        cells += row
    return ClassificationMap(cells)


# ---------------------------------------------------------------------------
# Grid CSV interchange: classify-batch CSV prefixed with topology headers.

_HEADER_RE = re.compile(r"#\s*(topology|rows|cols)\s*:\s*(.*)")  # all the (stripped) line holds after ":"
_CHUNK = 1 << 16  # characters of grid text split into lines at a time
_BLOCK = 256  # data lines read as one piece at most


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
        rows = number(meta["rows"], int)
        cols = number(meta["cols"], int)
    except ValueError:
        raise ParseError("rows/cols headers must be integers") from None
    if rows < 1 or cols < 1:
        raise ParseError(f"rows/cols headers must be at least 1, got {rows} x {cols}")
    if not has_columns:
        raise ParseError("grid file has no data rows")
    if error is not None:
        raise error
    return TOPOLOGY_ALIASES.get(meta["topology"], meta["topology"]), rows, cols


def _block_columns(block, n_fields: int, mu_columns, kid, kx, ky):
    """The ``(ids, xs, ys, mus)`` columns of a block of data lines checked as one piece, or None.

    None, to read the lines one by one, unless they hold no '"' and no
    '#', plain_columns() reads the memberships and the x and y columns,
    and every membership is in [0,1]: then the line loop would read them
    to the same values. Any other block may hold an error, which only the
    line loop reports.
    """
    text = "\n".join(block)
    if '"' in text or "#" in text:
        return None
    read = plain_columns(text, n_fields, mu_columns, [k for k in (kx, ky) if k is not None])
    if read is None:
        return None
    fields, columns = read
    mus, positions = columns[:len(mu_columns)], iter(columns[len(mu_columns):])
    for col in mus:
        if not (0.0 <= min(col) and max(col) <= 1.0):  # plain_columns() ruled out nan
            return None
    n = len(block)
    xs, ys = ([0.0] * n if k is None else next(positions) for k in (kx, ky))
    ids = [""] * n if kid is None else list(map(str.strip, fields[kid::n_fields]))
    return ids, xs, ys, mus


def read_grid_rows(source):
    """Parse a grid file lazily: yield its shape, then its rows of spots.

    ``source`` is the file's text or the open text file, which _lines()
    reads a piece at a time. The first item is ``(topology, rows, cols,
    class_codes)``, yielded once the three headers and the column line
    are read; each later item is one grid row of ``cols`` spots, in
    row-major order, as the columns ``(ids, xs, ys, mus)``: ``mus[j]`` is
    class j's membership column, in ``class_codes`` order. Headers may
    appear anywhere in the file, each once; spots read before the last of
    them are held until it is read.

    Lines are read one at a time until the shape is known. From then on,
    while no error is pending, they are taken in blocks of at most
    ``_BLOCK`` lines that end at the latest at the end of a grid row, and
    _block_columns() reads each block whole. A block it refuses goes
    through the line loop, which alone raises errors.

    A repeated or empty header is raised at its line. Every other error
    is raised after the last line, as if every header came first: a
    missing, non-integer or sub-1 header, no data rows, the first
    malformed data line, an unknown topology, a wrong spot count. So a
    row is known good only once the generator is exhausted without error.
    """
    meta = {}
    has_columns = False
    error = None  # the first malformed data line; headers are still read after it
    cols = None  # set once the shape is yielded
    ids, xs, ys, mus = [], [], [], []  # the columns of the spots not yet yielded
    n = 0
    lines = _lines(source)
    lineno = 0
    while True:
        fast = cols is not None and error is None
        block = list(islice(lines, min(cols - len(ids), _BLOCK) if fast else 1))
        if not block:
            break
        read = fast and _block_columns(block, n_fields, mu_columns, kid, kx, ky)
        if read:
            lineno += len(block)
            n += len(block)
            if ids:
                for have, more in zip((ids, xs, ys, *mus), (*read[:3], *read[3])):
                    have += more
            else:
                ids, xs, ys, mus = read
            if len(ids) == cols:
                yield ids, xs, ys, mus
                ids, xs, ys, mus = [], [], [], [[] for _ in mus]
            continue
        for raw in block:
            lineno += 1
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                m = _HEADER_RE.match(line)
                if not m:
                    continue
                key, value = m.groups()
                if key in meta:
                    raise DuplicateName(f"grid header '# {key}:' set twice", line=lineno)
                if not value:
                    raise ParseError(f"grid header '# {key}:' has no value", line=lineno)
                meta[key] = value
            elif error is not None:
                continue
            elif not has_columns:
                has_columns = True
                try:
                    class_codes, n_fields, mu_columns, kid, kx, ky = _layout(line, lineno)
                except ParseError as exc:
                    error = exc
                else:
                    mus = [[] for _ in class_codes]
            else:
                # number() ignores the whitespace around a field; ids are stripped.
                fields = line.split(",") if '"' not in line else _quoted_fields(line)
                if fields is None:
                    error = ParseError("quoted field not closed", line=lineno)
                    continue
                if len(fields) != n_fields:
                    error = ParseError(f"expected {n_fields} fields", line=lineno)
                    continue
                try:
                    mu = [number(fields[k]) for k in mu_columns]
                    x = 0.0 if kx is None or not fields[kx].strip() else number(fields[kx])
                    y = 0.0 if ky is None or not fields[ky].strip() else number(fields[ky])
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
                    for col, v in zip(mus, mu):
                        col.append(v)
                    n += 1
                    if len(ids) == cols:
                        yield ids, xs, ys, mus
                        ids, xs, ys, mus = [], [], [], [[] for _ in mus]
                continue
            # A header or the column line was read: the shape may be complete now.
            if cols is None and len(meta) == 3 and has_columns:
                try:
                    shape = _grid_shape(meta, has_columns, error)
                except ParseError:  # raised again, in order, after the last line
                    continue
                cols = shape[2]
                yield (*shape, class_codes)
                full = len(ids) - len(ids) % cols
                for i in range(0, full, cols):
                    yield ids[i:i + cols], xs[i:i + cols], ys[i:i + cols], [m[i:i + cols] for m in mus]
                ids, xs, ys, mus = ids[full:], xs[full:], ys[full:], [m[full:] for m in mus]
    topology, rows, cols = _grid_shape(meta, has_columns, error)
    _check_shape(topology, rows, cols, n)


def read_grid_csv(text: str) -> list:
    """A whole grid file as one list: read_grid_rows()' shape, then its rows."""
    return list(read_grid_rows(text))


MAP_CSV_HEADER = "x,y,label,confidence,neighbor_assigned\n"


def map_csv_lines(names, xs, ys, pre, post) -> tuple:
    """The pre and post map CSV text of one grid row.

    ``pre`` and ``post`` are the row's columns as map_rows yields them,
    and ``names[k]`` is the label written for label k. The x, y and
    confidence columns are formatted whole, x and y once for both maps,
    and a spot's line is made once for both, unless it was
    neighbor-assigned.
    """
    spec = repeat(FMT_SPEC)
    xs, ys = list(map(format, xs, spec)), list(map(format, ys, spec))
    labels, confs = pre
    lines = [f"{x},{y},{names[k]},{conf},false\n"
             for x, y, k, conf in zip(xs, ys, labels, map(format, confs, spec))]
    pre_text = "".join(lines)
    labels, confs, assigned = post
    for i, conf in zip(assigned, map(format, map(confs.__getitem__, assigned), spec)):
        lines[i] = f"{xs[i]},{ys[i]},{names[labels[i]]},{conf},true\n"
    return pre_text, "".join(lines)
