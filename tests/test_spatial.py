import contextlib
import io
import math
import random
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import grid_csv
from reference import (
    grid_spots,
    harden_values,
    neighbors,
    read_grid_rows_by_line,
    render_class_map,
    render_membership_map,
    smoothed_membership,
    write_ppm,
)
from spectraclass import spatial, spectrum
from spectraclass.classify import UNK, fmt
from spectraclass.cli import main
from spectraclass.errors import DuplicateName, ParseError
from spectraclass.spatial import HEXAGONAL, RECTANGULAR, MapCell, read_grid_csv, reclassify_map

CODES = ["ILM", "AGT", "PLG", "OLV"]


def grid_from(rows, cols, memberships, topology=RECTANGULAR, codes=CODES):
    """The grid read from a file of ``memberships``, with a column for each of ``codes``."""
    return read_grid_csv(grid_csv(topology, rows, cols, memberships, codes))


def uniform(value, codes=CODES):
    return {c: value for c in codes}


def pre_labels(grid, nu):
    """The labels of `map`'s pre map: map_rows' pre columns over ``grid``, as class codes."""
    (topology, _, _, codes), *rows = grid
    names = [*codes, UNK]
    return [names[k] for _, (labels, _), _ in spatial.map_rows(topology, rows, nu) for k in labels]


def smoothed_best(grid, i):
    """Spot i's best smoothed membership: its post confidence when nu = 1 smooths every spot below 1."""
    return reclassify_map(grid, 1.0).cells[i].confidence


def ring_grid(center_agt=0.3, ring_agt=0.9):
    ms = []
    for i in range(9):
        agt = center_agt if i == 4 else ring_agt
        ms.append({"ILM": 0.0, "AGT": agt, "PLG": 0.0, "OLV": 0.0})
    return grid_from(3, 3, ms)


class TestNeighbors:
    """The reference's neighbors(), which the smoothing tests compare map_rows against."""

    def test_rect_interior_is_moore(self):
        assert neighbors(RECTANGULAR, 3, 3, 4) == [0, 1, 2, 3, 5, 6, 7, 8]

    def test_rect_corner(self):
        assert neighbors(RECTANGULAR, 3, 3, 0) == [1, 3, 4]

    def test_hex_interior_has_six(self):
        assert len(neighbors(HEXAGONAL, 4, 4, 5)) == 6
        assert len(neighbors(HEXAGONAL, 4, 4, 9)) == 6

    def test_hex_offset_rows_differ(self):
        # row 1 (odd) shifts right, row 2 (even) shifts left
        assert neighbors(HEXAGONAL, 4, 4, 5) == [1, 2, 4, 6, 9, 10]
        assert neighbors(HEXAGONAL, 4, 4, 9) == [4, 5, 8, 10, 12, 13]


class TestSmoothing:
    def test_full_ring(self):
        g = ring_grid()
        assert smoothed_best(g, 4) == pytest.approx(0.3 + 7.2 / 8, abs=1e-12)

    def test_all_zero(self):
        g = grid_from(3, 3, [uniform(0.0)] * 9)
        assert smoothed_best(g, 4) == 0.0

    def test_corner_reduced_n(self):
        ms = [uniform(0.0) for _ in range(9)]
        ms[0] = {"ILM": 0.0, "AGT": 0.3, "PLG": 0.0, "OLV": 0.0}
        for j in (1, 3, 4):
            ms[j] = {"ILM": 0.0, "AGT": 0.6, "PLG": 0.0, "OLV": 0.0}
        g = grid_from(3, 3, ms)
        assert smoothed_best(g, 0) == pytest.approx(0.9, abs=1e-12)

    def test_isolated_spot_falls_back(self):
        assert smoothed_best(grid_from(1, 1, [uniform(0.4)]), 0) == 0.4


class TestReclassify:
    def test_center_unk_takes_ring_class(self):
        g = ring_grid()
        cmap = reclassify_map(g, 0.5)
        center = cmap.cells[4]
        assert center.label == "AGT"
        assert center.neighbor_assigned
        assert center.confidence == pytest.approx(1.2, abs=1e-12)
        assert all(not c.neighbor_assigned for i, c in enumerate(cmap.cells) if i != 4)

    def test_no_unk_is_noop(self):
        g = ring_grid(center_agt=0.8)
        post = reclassify_map(g, 0.5)
        assert pre_labels(g, 0.5) == [c.label for c in post.cells]
        assert not any(c.neighbor_assigned for c in post.cells)

    def test_all_unk_neighbors_still_assigns(self):
        ms = [{"ILM": 0.01, "AGT": 0.02, "PLG": 0.0, "OLV": 0.0} for _ in range(9)]
        cmap = reclassify_map(grid_from(3, 3, ms), 0.5)
        assert all(c.label == "AGT" for c in cmap.cells)
        assert all(c.neighbor_assigned for c in cmap.cells)

    def test_floor_keeps_unk(self):
        ms = [{"ILM": 0.01, "AGT": 0.02, "PLG": 0.0, "OLV": 0.0} for _ in range(9)]
        cmap = reclassify_map(grid_from(3, 3, ms), 0.5, floor=0.1)
        assert all(c.label == "UNK" for c in cmap.cells)

    def test_floor_kept_unk_confidence_is_raw_complement(self):
        ms = [{"ILM": 0.01, "AGT": 0.02, "PLG": 0.0, "OLV": 0.0} for _ in range(9)]
        cmap = reclassify_map(grid_from(3, 3, ms), 0.5, floor=0.1)
        # 1 - raw best (0.02), not 1 - smoothed best (0.04)
        assert all(c.confidence == pytest.approx(0.98, abs=1e-12) for c in cmap.cells)
        assert all(c.neighbor_assigned for c in cmap.cells)

    def test_ties_break_in_class_code_order(self):
        # dict order is the reverse of CODES; the columns, and so the class codes, follow CODES
        confident = [{"OLV": 0.0, "PLG": 0.0, "AGT": 0.8, "ILM": 0.8}] * 4
        assert pre_labels(grid_from(2, 2, confident), 0.5) == ["ILM"] * 4
        weak = [{"OLV": 0.0, "PLG": 0.0, "AGT": 0.2, "ILM": 0.2}] * 4
        post = reclassify_map(grid_from(2, 2, weak), 0.5)
        assert [c.label for c in post.cells] == ["ILM"] * 4
        assert all(c.confidence == pytest.approx(0.4, abs=1e-12) for c in post.cells)

    def test_confident_spots_never_relabeled(self):
        rng = random.Random(17)
        for _ in range(200):
            ms = [{c: rng.random() for c in CODES} for _ in range(12)]
            g = grid_from(3, 4, ms, topology=rng.choice((RECTANGULAR, HEXAGONAL)))
            post = reclassify_map(g, 0.5)
            for p, q in zip(pre_labels(g, 0.5), post.cells):
                if p != "UNK":
                    assert q.label == p
                    assert not q.neighbor_assigned

    def test_single_pass_idempotent(self):
        rng = random.Random(23)
        for _ in range(50):
            ms = [{c: rng.random() for c in CODES} for _ in range(9)]
            g = grid_from(3, 3, ms)
            once = reclassify_map(g, 0.5)
            twice = reclassify_map(g, 0.5)
            assert [c.label for c in once.cells] == [c.label for c in twice.cells]

    def test_ties_break_in_column_order(self):
        # ILM and AGT tie; the class whose column comes first wins, before and after smoothing.
        weak = {"OLV": 0.0, "PLG": 0.1, "AGT": 0.2, "ILM": 0.2}
        for codes, winner in ((CODES, "ILM"), (list(weak), "AGT")):
            g = grid_from(2, 2, [weak] * 4, codes=codes)
            assert pre_labels(g, 0.2) == [winner] * 4
            assert [c.label for c in reclassify_map(g, 0.5).cells] == [winner] * 4

    def test_hex_differs_from_rect(self):
        rng = random.Random(31)
        ms = [{c: rng.random() * 0.45 for c in CODES} for _ in range(16)]
        rect = reclassify_map(grid_from(4, 4, ms), 0.5)
        hexm = reclassify_map(grid_from(4, 4, ms, topology=HEXAGONAL), 0.5)
        assert [c.label for c in rect.cells] != [c.label for c in hexm.cells]


GRID_CSV = """\
# topology: rectangular
# rows: 2
# cols: 2
id,x,y,label,confidence,mu_ILM,mu_AGT
a,0,0,ILM,0.9,0.9,0.1
b,1,0,AGT,0.8,0.2,0.8
c,0,1,UNK,0.7,0.3,0.2
d,1,1,ILM,0.6,0.6,0.4
"""


class TestGridIO:
    def test_read(self):
        assert read_grid_csv(GRID_CSV) == [
            (RECTANGULAR, 2, 2, ["ILM", "AGT"]),
            (["a", "b"], [0.0, 1.0], [0.0, 0.0], [[0.9, 0.2], [0.1, 0.8]]),
            (["c", "d"], [0.0, 1.0], [1.0, 1.0], [[0.3, 0.6], [0.2, 0.4]]),
        ]

    def test_missing_topology_header(self):
        with pytest.raises(ParseError):
            read_grid_csv(GRID_CSV.replace("# topology: rectangular\n", ""))

    def test_wrong_spot_count(self):
        with pytest.raises(ValueError):
            read_grid_csv(GRID_CSV.replace("# rows: 2", "# rows: 3"))

    def test_headers_after_data_rows_honored(self):
        head, body = GRID_CSV.split("id,", 1)
        shape, *rows = read_grid_csv("id," + body + head)
        assert shape == (RECTANGULAR, 2, 2, ["ILM", "AGT"])
        assert [ids for ids, *_ in rows] == [["a", "b"], ["c", "d"]]

    def test_malformed_row_reported_after_late_missing_header(self):
        text = GRID_CSV.replace("# cols: 2\n", "").replace("b,1,0,", "b,1,0,x,")
        with pytest.raises(ParseError, match="missing grid header '# cols:'"):
            read_grid_csv(text)
        with pytest.raises(ParseError, match=r"expected 7 fields \(line 5\)"):
            read_grid_csv(text + "# cols: 2\n")

    @pytest.mark.parametrize("column", ["mu_AGT", "x"])
    def test_duplicate_column_rejected(self, column):
        head, body = GRID_CSV.split("id,", 1)
        header, rows = body.split("\n", 1)
        text = head + "id," + header + f",{column}\n" + rows.replace("\n", ",0.5\n")
        with pytest.raises(ParseError, match=rf"duplicate column '{column}' \(line 4\)"):
            read_grid_csv(text)
        with pytest.raises(ParseError, match="missing grid header '# rows:'"):
            read_grid_csv(text.replace("# rows: 2\n", ""))

    @pytest.mark.parametrize("key,value", [("topology", "rectangular"), ("rows", 2), ("cols", 2)])
    def test_repeated_header_rejected_at_the_repeat(self, key, value):
        # Repeated with the same value, and after a malformed data line.
        text = GRID_CSV.replace("b,1,0,", "b,1,0,x,") + f"# {key}: {value}\n"
        with pytest.raises(DuplicateName, match=f"grid header '# {key}:' set twice") as exc:
            read_grid_csv(text)
        assert exc.value.line == 9

    @pytest.mark.parametrize("line,key,value", [(1, "topology", "rectangular"), (2, "rows", 2), (3, "cols", 2)])
    @pytest.mark.parametrize("malformed", [False, True], ids=["in-place", "after-a-malformed-line"])
    def test_empty_header_rejected_at_its_line(self, line, key, value, malformed):
        if malformed:  # moved to the end, after a data line whose error waits for the last line
            text = GRID_CSV.replace(f"# {key}: {value}\n", "").replace("b,1,0,", "b,1,0,x,") + f"# {key}:\n"
            line = 8
        else:  # trailing spaces are no value either
            text = GRID_CSV.replace(f"# {key}: {value}\n", f"# {key}:  \n")
        with pytest.raises(ParseError, match=rf"^grid header '# {key}:' has no value \(line {line}\)$") as exc:
            read_grid_csv(text)
        assert exc.value.line == line

    def test_quoted_ids_read_as_csv_reader_reads_them(self):
        text = GRID_CSV.replace("a,0,0,", '"a,ILM",0,0,').replace("b,1,0,", '"b""q",1,0,')
        grid = read_grid_csv(text)
        assert [ids for ids, *_ in grid[1:]] == [["a,ILM", 'b"q'], ["c", "d"]]
        assert grid_spots(grid)[1] == {"ILM": 0.2, "AGT": 0.8}

    def test_quoted_field_left_open_rejected(self):
        text = GRID_CSV.replace("c,0,1,", '"c,0,1,')
        with pytest.raises(ParseError, match=r"quoted field not closed \(line 7\)"):
            read_grid_csv(text)

    @pytest.mark.parametrize("xy,message", [("nan,0", "x = nan"), ("0,-inf", "y = -inf"),
                                            ("1e999,nan", "x = inf")])
    def test_non_finite_position_rejected(self, xy, message):
        with pytest.raises(ParseError, match=rf"{message} is not finite \(line 6\)"):
            read_grid_csv(GRID_CSV.replace("b,1,0,", f"b,{xy},"))

    @pytest.mark.parametrize("rows,cols", [(-1, -1), (0, 0), (0, 2), (2, 0)])
    def test_size_below_one_rejected(self, rows, cols):
        text = GRID_CSV.replace("# rows: 2", f"# rows: {rows}").replace("# cols: 2", f"# cols: {cols}")
        with pytest.raises(ParseError, match="rows/cols headers must be at least 1"):
            read_grid_csv(text)

    @pytest.mark.parametrize("header,message", [
        ("# rows: 2 x", "rows/cols headers must be integers"),
        ("# cols: 2 junk", "rows/cols headers must be integers"),
        ("# topology: hex grid", "unknown topology 'hex grid'"),
    ])
    def test_header_value_is_all_after_the_colon(self, header, message):
        key = header.split(":")[0]
        text = "".join(line if not line.startswith(key) else header + "\n"
                       for line in GRID_CSV.splitlines(keepends=True))
        with pytest.raises((ParseError, ValueError), match=message):
            read_grid_csv(text)


def reference_map(grid, nu, floor):
    """reclassify_map spelled out from smoothed_membership and harden_values."""
    cells = []
    for i, spot in enumerate(grid_spots(grid)):
        label, confidence = harden_values(spot, nu)
        if label != UNK:
            cells.append(MapCell(label, confidence))
            continue
        smoothed = {c: smoothed_membership(grid, i, c) for c in spot}
        code, sbest = harden_values(smoothed, -math.inf if floor is None else floor)
        cells.append(MapCell(code, confidence if code == UNK else sbest, True))
    return cells


# Few distinct values, so ties between classes and neighbors are common.
membership_values = st.one_of(st.sampled_from([0.0, -0.0, 0.1, 0.25, 0.5, 1.0]),
                              st.floats(0.0, 1.0))


@st.composite
def grids(draw):
    rows, cols = draw(st.sampled_from([(1, 1), (1, 5), (5, 1), (2, 2)]) | st.tuples(
        st.integers(1, 7), st.integers(1, 7)))
    topology = draw(st.sampled_from([RECTANGULAR, HEXAGONAL]))
    codes = CODES[:draw(st.integers(1, len(CODES)))]
    spots = [{c: draw(membership_values) for c in codes} for _ in range(rows * cols)]
    return grid_from(rows, cols, spots, topology, codes)


class TestReclassifyReference:
    # nu of 1 leaves every spot below 1 to smoothing.
    @settings(max_examples=300, deadline=None)
    @given(grids(), st.sampled_from([0.5, 1.0]) | st.floats(0.0, 1.0),
           st.none() | st.floats(0.0, 2.0))
    @example(grid_from(1, 1, [{"ILM": 0.1, "AGT": 0.3, "PLG": 0.2, "OLV": 0.0}]), 0.5, None)
    @example(grid_from(1, 3, [uniform(0.2), uniform(0.4), uniform(0.1)], HEXAGONAL), 0.5, 0.3)
    @example(grid_from(3, 1, [uniform(0.2), uniform(0.4), uniform(0.1)]), 0.5, 0.9)
    @example(grid_from(3, 3, [uniform(-0.0)] * 9), 0.5, None)
    def test_equals_reference(self, grid, nu, floor):
        def key(cells):  # repr tells -0.0 from 0.0, which == does not
            return [(c.label, repr(c.confidence), c.neighbor_assigned) for c in cells]

        expected = key(reference_map(grid, nu, floor))
        assert key(reclassify_map(grid, nu, floor).cells) == expected


@st.composite
def grids_without_interior(draw):
    """1xN, Nx1 and 2x2 grids: every spot is on the border, so none has a full ring of neighbors."""
    n = draw(st.integers(1, 6))
    rows, cols = draw(st.sampled_from([(1, n), (n, 1), (2, 2)]))
    topology = draw(st.sampled_from([RECTANGULAR, HEXAGONAL]))
    codes = CODES[:draw(st.integers(1, len(CODES)))]
    spots = [{c: draw(membership_values) for c in codes} for _ in range(rows * cols)]
    return grid_from(rows, cols, spots, topology, codes)


class TestSmoothingEdges:
    # Neighbors of -0.0 only: summed from +0.0 they give +0.0, so a -0.0 spot smooths to +0.0.
    @settings(max_examples=300, deadline=None)
    @given(grids_without_interior(), st.sampled_from([0.5, 1.0]) | st.floats(0.0, 1.0),
           st.none() | st.floats(0.0, 2.0))
    # A 1x1 grid's spot has no neighbors, so it keeps its raw -0.0.
    @example(grid_from(1, 1, [uniform(-0.0)]), 0.5, None)
    @example(grid_from(1, 1, [uniform(-0.0)], HEXAGONAL), 0.5, None)
    @example(grid_from(2, 2, [uniform(-0.0)] * 4), 0.5, None)
    @example(grid_from(2, 2, [uniform(-0.0)] * 4, HEXAGONAL), 0.5, 0.0)
    @example(grid_from(1, 3, [uniform(-0.0)] * 3, HEXAGONAL), 1.0, None)
    @example(grid_from(3, 3, [uniform(-0.0)] * 9, HEXAGONAL), 0.5, None)  # the center has all six neighbors
    def test_equals_reference(self, grid, nu, floor):
        def key(cells):  # repr tells -0.0 from 0.0, which == does not
            return [(c.label, repr(c.confidence), c.neighbor_assigned) for c in cells]

        assert key(reclassify_map(grid, nu, floor).cells) == key(reference_map(grid, nu, floor))


line_breaks = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x1c", "\x85", "\u2028"])


class TestChunkedLines:
    @given(st.lists(st.tuples(st.text("ab, #", max_size=6), line_breaks), max_size=30),
           st.integers(1, 8))
    def test_lines_equal_splitlines(self, parts, chunk):
        text = "".join(line + brk for line, brk in parts) + "tail"
        for t in (text, text[:-4]):
            with mock.patch.object(spatial, "_CHUNK", chunk):
                assert list(spatial._lines(t)) == t.splitlines()

    @pytest.mark.parametrize("data", [
        b"ab\r\ncd\r\nef\r\n\r\n",
        b"ab\rcd\r\n\ref\r",  # lone carriage returns
        b"ab\x0ccd\nef\x0c\n",
        "ab\u2028cd\n\u2028ef\u2028".encode(),  # three bytes in UTF-8
        b"ab\ncd\r\nno final newline",
    ], ids=["crlf", "lone-cr", "form-feed", "line-separator", "no-final-newline"])
    def test_stream_lines_equal_read_text_splitlines(self, tmp_path, data):
        path = tmp_path / "grid.csv"
        path.write_bytes(data)
        expected = path.read_text(encoding="utf-8").splitlines()
        for chunk in range(1, 9):
            for buffer in (1, 2, 3, 8192):  # bytes decoded at a time
                with path.open(encoding="utf-8") as f, mock.patch.object(spatial, "_CHUNK", chunk):
                    f._CHUNK_SIZE = buffer
                    assert list(spatial._lines(f)) == expected, (chunk, buffer)


# Positions, spellings and ids that a grid file may hold.
positions = st.sampled_from(["", "0", "-0.0", "0.5", "3", "1e-07", "12345678.9"])
ids = st.sampled_from(["s", "", '"a,ILM"', '"b""q"', " padded "])
SPELLINGS = {RECTANGULAR: ["rect", RECTANGULAR], HEXAGONAL: ["hex", HEXAGONAL]}
rgb = st.tuples(*[st.integers(0, 255)] * 3)


@st.composite
def map_runs(draw):
    """A grid file's text, with ids, positions and its headers anywhere, and `map` options."""
    grid = draw(grids())
    topology, rows, cols, codes = grid[0]
    lines = ["id,x,y,label,confidence," + ",".join(f"mu_{c}" for c in codes)]
    lines += [f"{draw(ids)},{draw(positions)},{draw(positions)},X,0," + ",".join(map(repr, spot.values()))
              for spot in grid_spots(grid)]
    headers = {"topology": draw(st.sampled_from(SPELLINGS[topology])), "rows": rows, "cols": cols}
    # Each header goes before, between or after the data lines.
    for key, value in headers.items():
        lines.insert(draw(st.integers(0, len(lines))), f"# {key}: {value}")
    palette = draw(st.none() | st.dictionaries(st.sampled_from(CODES + [UNK]), rgb, max_size=3))
    options = {"nu": draw(st.sampled_from([0.5, 1.0]) | st.floats(0.0, 1.0)),
               "floor": draw(st.none() | st.floats(0.0, 2.0)),
               "topology": draw(st.sampled_from([None, "rect", "hex"])),
               "palette": palette}
    return "\n".join(lines) + "\n", options


def expected_map_files(grid, nu, floor, palette):
    """Every file `map` writes, spelled out over the whole grid."""
    (_, rows, cols, codes), *grid_rows = grid
    xys = [xy for _, xs, ys, _ in grid_rows for xy in zip(xs, ys)]

    def csv_text(cells):
        return "x,y,label,confidence,neighbor_assigned\n" + "".join(
            f"{fmt(x)},{fmt(y)},{c.label},{fmt(c.confidence)},"
            f"{'true' if c.neighbor_assigned else 'false'}\n" for (x, y), c in zip(xys, cells))

    def ppm(pixels):
        buf = io.BytesIO()
        write_ppm(buf, cols, rows, pixels)
        return buf.getvalue()

    pre = [MapCell(*harden_values(s, nu)) for s in grid_spots(grid)]
    post = reference_map(grid, nu, floor)
    files = {"pre.csv": csv_text(pre).encode(), "post.csv": csv_text(post).encode(),
             "pre.ppm": ppm(render_class_map(pre, palette)),
             "post.ppm": ppm(render_class_map(post, palette))}
    for code in codes:
        files[f"mu_{code}.ppm"] = ppm(render_membership_map(grid, code))
    return files, sum(c.neighbor_assigned for c in post)


def map_run(cols, spots, floor=None, topology="rect"):
    """A map_runs item over classes A and B at nu 0.5: ``spots`` gives each spot's x, y, mu_A, mu_B fields."""
    lines = [f"# topology: {topology}", f"# rows: {len(spots) // cols}", f"# cols: {cols}",
             "id,x,y,label,confidence,mu_A,mu_B"] + [f"s,{x},{y},X,0,{a},{b}" for x, y, a, b in spots]
    return "\n".join(lines) + "\n", {"nu": 0.5, "floor": floor, "topology": None, "palette": None}


# Ends tie in pre; the middle spot is below nu and its smoothed values tie at 0.875.
TIED = [("0", "0", "0.625", "0.625"), ("1", "0", "0.25", "0.25"), ("2", "0", "0.625", "0.625")]


class TestMapCliReference:
    @settings(max_examples=150, deadline=None)
    @given(map_runs())
    @example(("# topology: rect\n# rows: 1\n# cols: 1\nid,x,y,label,confidence,mu_A\ns,,,X,0,0.25\n",
              {"nu": 0.5, "floor": None, "topology": None, "palette": None}))
    # -0.0 and 0 in one x column and in one y column print as -0 and 0.
    @example(map_run(2, [("-0.0", "0", "0.25", "0.5"), ("0", "-0.0", "0.5", "0.25"),
                         ("-0.0", "-0.0", "0.75", "0.25"), ("0", "0", "0.25", "0.75")]))
    @example(map_run(3, TIED))
    @example(map_run(3, TIED, floor=0.875))  # the tie reaches the floor exactly
    @example(map_run(3, TIED, floor=0.9))  # the floor keeps the middle spot UNK
    # The middle spot leans to B raw, but A and B tie at 1.0 smoothed.
    @example(map_run(3, [("0", "1", "0.875", "0.75"), ("1", "1", "0.125", "0.25"),
                         ("2", "1", "0.875", "0.75")], topology="hex"))
    def test_cli_equals_whole_grid_reference(self, run):
        text, options = run
        grid = read_grid_csv(text)
        with tempfile.TemporaryDirectory() as d:
            root = Path(d)
            (root / "grid.csv").write_text(text, encoding="utf-8")
            argv = ["map", str(root / "grid.csv"), "--out", str(root / "out"), "--nu", repr(options["nu"])]
            if options["floor"] is not None:
                argv.append(f"--floor={options['floor']!r}")
            if options["topology"]:
                argv += ["--topology", options["topology"]]
                grid[0] = ({"rect": RECTANGULAR, "hex": HEXAGONAL}[options["topology"]], *grid[0][1:])
            if options["palette"] is not None:
                (root / "pal.txt").write_text("".join(f"{c} {r} {g} {b}\n"
                                                      for c, (r, g, b) in options["palette"].items()))
                argv += ["--palette", str(root / "pal.txt")]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv) == 0
            files, assigned = expected_map_files(grid, options["nu"], options["floor"],
                                                 options["palette"])
            assert {p.name: p.read_bytes() for p in (root / "out").iterdir()} == files
            assert out.getvalue() == f"wrote maps to {root / 'out'} ({assigned} neighbor-assigned spots)\n"


# Spellings of a spot line over classes A and B, {i} being its index.
SPOT_LINES = ["s{i},{i},1,X,0,0.25,0.75", "s{i},-0,0,X,0,-0.0,1", "s{i},1e-7,123456789,X,0,1,0",
              "s{i},,,X,0,0.5,0.5", "  s{i} , 2 , 3 ,X,0, 0.5 ,0.125\t", '"s,{i}",0,0,X,0,0.5,0.5',
              '"q{i}",1,1,X,0,0.5,0.5', "s\u00e9{i},0,0,X,0,0.5,0.5", "s_{i},1,1,X_Y,0,0.5,0.5"]
# Lines that hold no spot, or that end the run in an error.
OTHER_LINES = ["", "  \t", "# a comment", "#s,0,0,X,0,0.5,0.5", "# cols: 3", "# rows: 2",
               "s,nan,0,X,0,0.5,0.5", "s,0,inf,X,0,0.5,0.5", "s,0,1e999,X,0,0.5,0.5", "s,0,0,X,0,nan,0.5",
               "s,0,0,X,0,1.5,0.5", "s,0,0,X,0,0.5,-0.25", "s,0,0,X,0,0.5", "s,0,0,X,0,0.5,0.5,7",
               "s,0,0,X,0,abc,0.5", '"s,0,0,X,0,0.5,0.5', ",,,", "s;0;0;X;0;0.5;0.5",
               "s,0,0,X,0,0.5_0,0.5", "s,1_0,0,X,0,0.5,0.5", "s,\u0661\u0660,0,X,0,0.5,0.5",
               "s,0,0,X,0,\uff11,0",
               "s,0,0,X,0,0.5,0.5,0.5\n0,0,X,0,0.5,0.5"]  # as many commas as two good lines


@st.composite
def grid_texts(draw):
    """Grid file text over classes A and B: mostly spot lines, a few others, headers anywhere."""
    cols = draw(st.integers(1, 4))
    n_rows = draw(st.integers(1, 4))
    spots = [draw(st.sampled_from(SPOT_LINES)).format(i=i) for i in range(cols * n_rows)]
    lines = ["id,x,y,label,confidence,mu_A,mu_B", *spots]
    for line in draw(st.lists(st.sampled_from(OTHER_LINES), max_size=3)):
        lines.insert(draw(st.integers(1, len(lines))), line)
    rows = n_rows + draw(st.sampled_from([0, 0, 0, 1]))  # at times a wrong spot count
    for header in (f"# topology: {draw(st.sampled_from(['rect', 'hex', 'tri']))}",
                   f"# rows: {rows}", f"# cols: {cols}"):
        lines.insert(draw(st.sampled_from([0, 0, draw(st.integers(0, len(lines)))])), header)
    line_break = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    return line_break.join(lines) + draw(st.sampled_from(["", line_break]))


def read_outcome(read, text):
    """The items ``read`` yields from ``text``, then the error it ends with, if any, as its type and text."""
    items = []
    try:
        for item in read(text):
            items.append(item)
    except (ParseError, ValueError) as exc:
        return items, (type(exc).__name__, str(exc))
    return items, None


def comparable(items, by_class):
    """The shape, then each row with one membership list per spot and each float as its repr, -0.0 apart.

    ``by_class`` says the rows hold one membership column per class.
    """
    out = items[:1]
    for ids, xs, ys, mus in items[1:]:
        spots = zip(*mus) if by_class else mus
        out.append((ids, [*map(repr, xs)], [*map(repr, ys)], [[*map(repr, mu)] for mu in spots]))
    return out


class TestBlockReading:
    @settings(max_examples=300, deadline=None)
    @given(grid_texts(), st.integers(1, 5), st.integers(3, 64))
    @example("# topology: rect\n# rows: 1\n# cols: 2\nid,x,y,mu_A\ns,0,0,0.5\n\n", 1, 64)
    @example("# topology: rect\n# rows: 2\n# cols: 2\nid,x,y,mu_A\ns,0,0,0.5\ns,0,0,0.5\n"
             "s,0,0,0.5\n# cols: 2\ns,0,0,0.5\n", 2, 8)
    @example("# topology: rect\n# rows: 1\n# cols: 2\nid,x,y,mu_A\ns,0,0,0.5,0.5\n0,0.5,0.5\n", 2, 64)
    def test_rows_and_errors_equal_the_line_loop(self, text, block, chunk):
        # A block of 1-5 lines and pieces of a few characters put each line at every offset.
        with mock.patch.object(spatial, "_BLOCK", block), mock.patch.object(spatial, "_CHUNK", chunk):
            items, error = read_outcome(spatial.read_grid_rows, text)
        expected_items, expected_error = read_outcome(read_grid_rows_by_line, text)
        assert comparable(items, True) == comparable(expected_items, False)
        assert error == expected_error

    def test_block_path_reads_a_plain_grid(self):
        text = "# topology: rect\n# rows: 2\n# cols: 3\nid,x,y,mu_A\n" + "s,1,2,0.5\n" * 6
        with mock.patch.object(spatial, "_block_columns", wraps=spatial._block_columns) as block_columns:
            rows = list(spatial.read_grid_rows(text))[1:]
        assert [call.args[0] for call in block_columns.call_args_list] == [["s,1,2,0.5"] * 3] * 2
        assert rows == [(["s"] * 3, [1.0] * 3, [2.0] * 3, [[0.5] * 3])] * 2

    def test_ids_and_labels_holding_underscores_take_the_block_path(self):
        # Only the number columns are held to number()'s syntax; ids and labels are free text.
        text = "# topology: rect\n# rows: 2\n# cols: 3\nid,x,y,label,mu_A\n" + "".join(
            f"spot_{i:02d},{i},0,X_Y,0.5\n" for i in range(6))
        returned = []

        def plain_columns(*args):
            returned.append(spectrum.plain_columns(*args))
            return returned[-1]

        with mock.patch.object(spatial, "plain_columns", plain_columns):
            rows = list(spatial.read_grid_rows(text))[1:]
        assert len(returned) == 2 and None not in returned
        assert [ids for ids, *_ in rows] == [["spot_00", "spot_01", "spot_02"], ["spot_03", "spot_04", "spot_05"]]


class TestPositionBytes:
    SPOTS = [("-0", "0"), ("0", "-0"), ("1e-7", "123456789"), ("", ""), ("123456789", "1e-7")]
    EXPECTED = ["-0,0", "0,-0", "1e-07,1.23457e+08", "0,0", "1.23457e+08,1e-07"]

    def map_positions(self, tmp_path, lines, cols):
        """The x,y of each pre.csv line of `map` over ``lines``, and the blocks read whole."""
        grid = tmp_path / "grid.csv"
        grid.write_text(f"# topology: rect\n# rows: 1\n# cols: {cols}\nid,x,y,mu_A,mu_B\n"
                        + "".join(f"{line}\n" for line in lines))
        block_reader, read = spatial._block_columns, []

        def block_columns(block, *layout):
            columns = block_reader(block, *layout)
            if columns is not None:
                read.append(block)
            return columns

        with mock.patch.object(spatial, "_block_columns", block_columns), \
                contextlib.redirect_stdout(io.StringIO()):
            assert main(["map", str(grid), "--out", str(tmp_path / "out")]) == 0
        pre = (tmp_path / "out" / "pre.csv").read_text().splitlines()[1:]
        return [",".join(line.split(",")[:2]) for line in pre], read

    def test_block_path(self, tmp_path):
        lines = [f"s,{x},{y},0.75,0.25" for x, y in self.SPOTS]
        positions, read = self.map_positions(tmp_path, lines, len(lines))
        assert read == [lines]
        assert positions == self.EXPECTED

    def test_line_path(self, tmp_path):
        # The comment shares the spots' block, so the line loop reads them; a plain spot follows.
        lines = ["# a comment"] + [f"s,{x},{y},0.75,0.25" for x, y in self.SPOTS] + ["s,9,9,0.75,0.25"]
        positions, read = self.map_positions(tmp_path, lines, len(self.SPOTS) + 1)
        assert read == [["s,9,9,0.75,0.25"]]
        assert positions == self.EXPECTED + ["9,9"]
