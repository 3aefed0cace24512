"""Binary PPM (P6) rendering of classification and membership maps."""

from __future__ import annotations

from itertools import chain

from .spatial import ClassificationMap, SampleGrid

# Fixed palette for the basalt classes; UNK renders black.
BASALT_PALETTE = {
    "ILM": (200, 40, 40),
    "AGT": (60, 160, 60),
    "PLG": (70, 110, 220),
    "OLV": (170, 150, 40),
    "UNK": (0, 0, 0),
}

_FALLBACK = (128, 128, 128)

# One shared pixel per grey level.
_GREY = [(g, g, g) for g in range(256)]


def ppm_header(width: int, height: int) -> bytes:
    """The P6 header of a ``width`` x ``height`` pixmap; the pixel bytes follow it, row by row."""
    return f"P6\n{width} {height}\n255\n".encode("ascii")


def ppm_bytes(pixels) -> bytes:
    """The P6 bytes of a run of RGB triples."""
    return bytes(chain.from_iterable(pixels))


def write_ppm(stream, width: int, height: int, pixels) -> None:
    """Write a P6 pixmap; ``pixels`` is a row-major list of RGB triples."""
    if len(pixels) != width * height:
        raise ValueError(f"expected {width * height} pixels, got {len(pixels)}")
    stream.write(ppm_header(width, height))
    stream.write(ppm_bytes(pixels))


def class_pixels(cells, palette=None):
    """One pixel per map cell, colored by hard label."""
    pal = dict(BASALT_PALETTE)
    if palette:
        pal.update(palette)
    return [pal.get(cell.label, _FALLBACK) for cell in cells]


def render_class_map(cmap: ClassificationMap, palette=None):
    """One pixel per spot, colored by hard label."""
    return class_pixels(cmap.cells, palette)


def membership_pixels(spots, gamma: str):
    """Grayscale view of one class's membership per spot, 0 -> black, 1 -> white.

    Values outside [0,1], which only grids built through the API can
    hold, are clamped; nan raises ValueError.
    """
    return [_GREY[round(v * 255) if 0.0 <= (v := spot.membership[gamma]) <= 1.0
                  else round(min(max(v, 0.0), 1.0) * 255)]
            for spot in spots]


def render_membership_map(grid: SampleGrid, gamma: str):
    """Grayscale view of one class's membership over the grid; see membership_pixels."""
    return membership_pixels(grid.spots, gamma)


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
            r, g, b = (int(v) for v in rgb)
        except ValueError:
            raise ValueError(f"palette line {lineno}: non-integer channel") from None
        if not all(0 <= v <= 255 for v in (r, g, b)):
            raise ValueError(f"palette line {lineno}: channel out of range")
        pal[code] = (r, g, b)
    return pal
