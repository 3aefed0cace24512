"""Plain definitions that the tests compare the package's fast paths against.

- eval_expr() walks an expression tree through f_and(), f_or() and
  f_not(), with membership() as each term's law and peak_abundance() as
  each ion's lookup; classify.compile_rules() and fuzzy.compile_expr()
  must equal them bit for bit;
- read_grid_rows_by_line() parses a grid file one line at a time;
  spatial.read_grid_rows() must give the same rows and the same errors;
- harden_values() hardens a ``{code: membership}`` dict, and
  smoothed_membership() smooths one spot's membership of one class over
  the neighbors() of the spot; render_class_map(),
  render_membership_map() and write_ppm() draw whole maps; the files
  `map` writes row by row must equal them byte for byte;
- serialize_spectrum() writes a spectrum as peak-list text that
  spectrum.parse_spectrum() must read back exactly, and
  spectrum_fields() spells out the fields a Spectrum of given points
  must hold.
"""

import math
from functools import reduce
from itertools import chain
from operator import add

from spectraclass.errors import DomainError, DuplicateName, NoClasses, ParseError
from spectraclass.fuzzy import And, Not, Or, Term
from spectraclass.pixmap import BASALT_PALETTE
from spectraclass.rulebase import UNK
from spectraclass.spatial import (
    HEXAGONAL,
    RECTANGULAR,
    _HEADER_RE,
    _check_shape,
    _grid_shape,
    _layout,
    _lines,
    _quoted_fields,
)
from spectraclass.spectrum import number, window_slice


def membership(fn, p: float) -> float:
    """The membership of abundance ``p`` in the MembershipFn ``fn``."""
    if p < fn.l:
        high = 0.0
    elif p >= fn.h:
        high = 1.0
    else:
        high = (p - fn.l) / (fn.h - fn.l)
    return high if fn.polarity == "high" else 1.0 - high


def f_not(a: float) -> float:
    return 1.0 - a


def f_and(*values: float) -> float:
    """Product t-norm, folded left; identity is 1."""
    out = 1.0
    for v in values:
        out = out * v
    return out


def f_or(*values: float) -> float:
    """Probabilistic sum, folded left; identity is 0."""
    out = 0.0
    for v in values:
        if v == 1.0 or out == 1.0:
            # keep the absorbing element exact; a + 1 - a drops a ulp
            out = 1.0
        else:
            out = min(out + v - out * v, 1.0)
    return out


def eval_expr(expr, env: dict) -> float:
    """Evaluate an expression tree against term truth values in [0,1]."""
    if isinstance(expr, Term):
        return env[expr.name]
    if isinstance(expr, And):
        return f_and(*(eval_expr(c, env) for c in expr.children))
    if isinstance(expr, Or):
        return f_or(*(eval_expr(c, env) for c in expr.children))
    if isinstance(expr, Not):
        return f_not(eval_expr(expr.child, env))
    raise TypeError(f"not an expression node: {expr!r}")


def peak_abundance(s, chi, eps: float) -> float:
    """Maximum abundance in the window_slice() of ``chi``; an empty window yields 0, not an error."""
    if not 0.0 <= eps < math.inf:  # also false for nan
        raise DomainError(f"eps must be finite and non-negative, got {eps}")
    lo, hi = window_slice(s.mzs, chi.mz, eps)
    if lo >= hi:
        return 0.0
    return max(ab for _, ab in s.points[lo:hi])


def harden_values(values: dict, nu: float) -> tuple:
    """The hardening rule: ``(label, confidence)`` for ``{code: membership}``.

    The argmax class wins when its membership reaches nu (inclusive);
    otherwise the label is UNK with confidence 1 - max. Ties break by the
    dict's order, which callers keep in class declaration order.
    """
    if not values:
        raise NoClasses("empty membership vector")
    best_code = None
    best = -1.0
    for code, value in values.items():
        if value > best:
            best_code, best = code, value
    if best < nu:
        return UNK, 1.0 - best
    return best_code, best


# (row, column) offsets to a spot's neighbors, row by row and left to right.
MOORE = ((-1, -1), (-1, 0), (-1, 1),
         (0, -1), (0, 1),
         (1, -1), (1, 0), (1, 1))
# Hexagonal grids shift odd rows half a spot to the right, so a spot's
# neighbors above and below lie on its left in an even row, on its right in an odd one.
HEX_EVEN_ROW = ((-1, -1), (-1, 0),
                (0, -1), (0, 1),
                (1, -1), (1, 0))
HEX_ODD_ROW = ((-1, 0), (-1, 1),
               (0, -1), (0, 1),
               (1, 0), (1, 1))


def neighbors(topology: str, rows: int, cols: int, i: int) -> list:
    """The indices of spot i's neighbors in row-major order, in the order of the offsets.

    Eight (Moore) on a rectangular grid, six on a hexagonal one; those
    outside the grid are dropped, so edges and corners have fewer.
    """
    row, col = divmod(i, cols)
    offsets = {RECTANGULAR: MOORE, HEXAGONAL: HEX_ODD_ROW if row % 2 else HEX_EVEN_ROW}[topology]
    return [(row + dr) * cols + col + dc for dr, dc in offsets
            if 0 <= row + dr < rows and 0 <= col + dc < cols]


def grid_spots(grid) -> list:
    """The spots of a spatial.read_grid_csv() grid in row-major order, each a ``{code: membership}`` dict."""
    (_, _, _, codes), *rows = grid
    return [dict(zip(codes, mu)) for *_, mus in rows for mu in zip(*mus)]


def smoothed_membership(grid, i: int, gamma: str) -> float:
    """Spot membership plus the average over its neighbors; range [0, 2].

    The neighbors' memberships are summed left to right from +0.0, on
    every Python version. A 1x1 grid has no neighbors and falls back to
    the raw value.
    """
    (topology, rows, cols, _), *_ = grid
    spots = grid_spots(grid)
    ns = neighbors(topology, rows, cols, i)
    mu = spots[i][gamma]
    if not ns:
        return mu
    return mu + reduce(add, (spots[j][gamma] for j in ns), 0.0) / len(ns)


def write_ppm(stream, width: int, height: int, pixels) -> None:
    """Write a P6 pixmap; ``pixels`` is a row-major list of RGB triples."""
    if len(pixels) != width * height:
        raise ValueError(f"expected {width * height} pixels, got {len(pixels)}")
    stream.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
    stream.write(bytes(chain.from_iterable(pixels)))


def render_class_map(cells, palette=None) -> list:
    """One pixel per MapCell, colored by its label: ``palette`` over BASALT_PALETTE, else grey."""
    pal = {**BASALT_PALETTE, **(palette or {})}
    return [pal.get(cell.label, (128, 128, 128)) for cell in cells]


def render_membership_map(grid, gamma: str) -> list:
    """One grey pixel per spot: class ``gamma``'s membership times 255, rounded."""
    return [(g, g, g) for g in (round(spot[gamma] * 255) for spot in grid_spots(grid))]


def serialize_spectrum(s) -> str:
    """A Spectrum as csv peak-list text; repr() reads back exactly."""
    return "\n".join(f"{mz!r},{ab!r}" for mz, ab in s.points) + "\n"


def spectrum_fields(points) -> str:
    """repr() of ``(mzs, abundances, max_abundance, points)`` of a Spectrum of the checked ``points``.

    repr() tells -0.0 from 0.0, so equal strings are equal bits.
    """
    points = tuple(points)
    abundances = [ab for _, ab in points]
    return repr(([mz for mz, _ in points], abundances, max(abundances), points))


def read_grid_rows_by_line(source):
    """spatial.read_grid_rows() with every line read alone, as it was before it read blocks.

    Each row's memberships are one list per spot, in ``class_codes``
    order, where read_grid_rows() gives one column per class. The shape,
    the rows otherwise, the errors and their lines must be the same.
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
                x = number(fields[kx]) if kx is not None and fields[kx].strip() else 0.0
                y = number(fields[ky]) if ky is not None and fields[ky].strip() else 0.0
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
