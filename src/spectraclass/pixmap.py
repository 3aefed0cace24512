"""Binary PPM (P6) rows of classification and membership maps, and their palettes."""

from __future__ import annotations

from itertools import repeat
from operator import mul

from .spectrum import number

# Fixed palette for the basalt classes; UNK renders black.
BASALT_PALETTE = {
    "ILM": (200, 40, 40),
    "AGT": (60, 160, 60),
    "PLG": (70, 110, 220),
    "OLV": (170, 150, 40),
    "UNK": (0, 0, 0),
}

_FALLBACK = (128, 128, 128)


def ppm_header(width: int, height: int) -> bytes:
    """The P6 header of a ``width`` x ``height`` pixmap; the pixel bytes follow it, row by row."""
    return f"P6\n{width} {height}\n255\n".encode("ascii")


def class_colors(names, palette=None) -> list:
    """The pixel bytes of each label in ``names``, colored by ``palette`` over BASALT_PALETTE."""
    pal = {**BASALT_PALETTE, **(palette or {})}
    return [bytes(pal.get(name, _FALLBACK)) for name in names]


def class_row(colors, labels) -> bytes:
    """The P6 bytes of a row of label indices, each pixel ``colors[label]``."""
    return b"".join([colors[k] for k in labels])


def grey_row(mus, j: int) -> bytearray:
    """The P6 bytes of class ``j``'s membership column ``mus[j]`` in grey, 0 -> black, 1 -> white.

    A spot's grey level is round(mu * 255); memberships are in [0,1], as
    read_grid_rows checks them.
    """
    levels = bytes(map(round, map(mul, mus[j], repeat(255))))
    row = bytearray(3 * len(levels))
    row[0::3] = row[1::3] = row[2::3] = levels
    return row


def load_palette(text: str):
    """Parse palette lines `CODE R G B`, each code once; `#` starts a comment."""
    pal = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"palette line {lineno}: expected 'CODE R G B'")
        code, *rgb = parts
        if code in pal:
            raise ValueError(f"palette line {lineno}: code {code!r} set twice")
        try:
            r, g, b = (number(v, int) for v in rgb)
        except ValueError:
            raise ValueError(f"palette line {lineno}: non-integer channel") from None
        if not all(0 <= v <= 255 for v in (r, g, b)):
            raise ValueError(f"palette line {lineno}: channel out of range")
        pal[code] = (r, g, b)
    return pal
