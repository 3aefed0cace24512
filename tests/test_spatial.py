import io
import random

import pytest

from spectraclass.errors import BadIndex, ParseError
from spectraclass.spatial import (
    HEXAGONAL,
    RECTANGULAR,
    SampleGrid,
    Spot,
    classify_spots,
    neighbors,
    read_grid_csv,
    reclassify_map,
    smoothed_membership,
    write_map_csv,
)

CODES = ["ILM", "AGT", "PLG", "OLV"]


def grid_from(rows, cols, memberships, topology=RECTANGULAR):
    spots = [Spot(dict(m)) for m in memberships]
    return SampleGrid(topology, rows, cols, spots, CODES)


def uniform(value, codes=CODES):
    return {c: value for c in codes}


def ring_grid(center_agt=0.3, ring_agt=0.9):
    ms = []
    for i in range(9):
        agt = center_agt if i == 4 else ring_agt
        ms.append({"ILM": 0.0, "AGT": agt, "PLG": 0.0, "OLV": 0.0})
    return grid_from(3, 3, ms)


class TestNeighbors:
    def test_rect_interior_is_moore(self):
        g = grid_from(3, 3, [uniform(0.0)] * 9)
        assert sorted(neighbors(g, 4)) == [0, 1, 2, 3, 5, 6, 7, 8]

    def test_rect_corner(self):
        g = grid_from(3, 3, [uniform(0.0)] * 9)
        assert sorted(neighbors(g, 0)) == [1, 3, 4]

    def test_hex_interior_has_six(self):
        g = grid_from(4, 4, [uniform(0.0)] * 16, topology=HEXAGONAL)
        assert len(neighbors(g, 5)) == 6
        assert len(neighbors(g, 9)) == 6

    def test_hex_offset_rows_differ(self):
        g = grid_from(4, 4, [uniform(0.0)] * 16, topology=HEXAGONAL)
        # row 1 (odd) shifts right, row 2 (even) shifts left
        assert sorted(neighbors(g, 5)) == [1, 2, 4, 6, 9, 10]
        assert sorted(neighbors(g, 9)) == [4, 5, 8, 10, 12, 13]

    def test_bad_index(self):
        g = grid_from(2, 2, [uniform(0.0)] * 4)
        with pytest.raises(BadIndex):
            neighbors(g, 4)


class TestSmoothing:
    def test_full_ring(self):
        g = ring_grid()
        assert smoothed_membership(g, 4, "AGT") == pytest.approx(0.3 + 7.2 / 8, abs=1e-12)

    def test_all_zero(self):
        g = grid_from(3, 3, [uniform(0.0)] * 9)
        assert smoothed_membership(g, 4, "AGT") == 0.0

    def test_corner_reduced_n(self):
        ms = [uniform(0.0) for _ in range(9)]
        ms[0] = {"ILM": 0.0, "AGT": 0.3, "PLG": 0.0, "OLV": 0.0}
        for j in (1, 3, 4):
            ms[j] = {"ILM": 0.0, "AGT": 0.6, "PLG": 0.0, "OLV": 0.0}
        g = grid_from(3, 3, ms)
        assert smoothed_membership(g, 0, "AGT") == pytest.approx(0.9, abs=1e-12)

    def test_isolated_spot_falls_back(self):
        g = SampleGrid(RECTANGULAR, 1, 1, [Spot(uniform(0.4))], CODES)
        assert smoothed_membership(g, 0, "AGT") == 0.4


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
        pre = classify_spots(g, 0.5)
        post = reclassify_map(g, 0.5)
        assert [c.label for c in pre.cells] == [c.label for c in post.cells]
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
        # dict order is the reverse of CODES; CODES order must win
        confident = [{"OLV": 0.0, "PLG": 0.0, "AGT": 0.8, "ILM": 0.8}] * 4
        pre = classify_spots(grid_from(2, 2, confident), 0.5)
        assert [c.label for c in pre.cells] == ["ILM"] * 4
        weak = [{"OLV": 0.0, "PLG": 0.0, "AGT": 0.2, "ILM": 0.2}] * 4
        post = reclassify_map(grid_from(2, 2, weak), 0.5)
        assert [c.label for c in post.cells] == ["ILM"] * 4
        assert all(c.confidence == pytest.approx(0.4, abs=1e-12) for c in post.cells)

    def test_confident_spots_never_relabeled(self):
        rng = random.Random(17)
        for _ in range(200):
            ms = [{c: rng.random() for c in CODES} for _ in range(12)]
            g = grid_from(3, 4, ms, topology=rng.choice((RECTANGULAR, HEXAGONAL)))
            pre = classify_spots(g, 0.5)
            post = reclassify_map(g, 0.5)
            for p, q in zip(pre.cells, post.cells):
                if p.label != "UNK":
                    assert q.label == p.label
                    assert not q.neighbor_assigned

    def test_single_pass_idempotent(self):
        rng = random.Random(23)
        for _ in range(50):
            ms = [{c: rng.random() for c in CODES} for _ in range(9)]
            g = grid_from(3, 3, ms)
            once = reclassify_map(g, 0.5)
            twice = reclassify_map(g, 0.5)
            assert [c.label for c in once.cells] == [c.label for c in twice.cells]

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
        g = read_grid_csv(GRID_CSV)
        assert g.topology == RECTANGULAR
        assert (g.rows, g.cols) == (2, 2)
        assert g.class_codes == ["ILM", "AGT"]
        assert g.spots[1].membership == {"ILM": 0.2, "AGT": 0.8}
        assert g.spots[2].id == "c"

    def test_missing_topology_header(self):
        with pytest.raises(ParseError):
            read_grid_csv(GRID_CSV.replace("# topology: rectangular\n", ""))

    def test_wrong_spot_count(self):
        with pytest.raises(ValueError):
            read_grid_csv(GRID_CSV.replace("# rows: 2", "# rows: 3"))

    def test_write_map_csv(self):
        g = read_grid_csv(GRID_CSV)
        cmap = reclassify_map(g, 0.5)
        buf = io.StringIO()
        write_map_csv(g, cmap, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "x,y,label,confidence,neighbor_assigned"
        assert len(lines) == 5
        assert lines[3].split(",")[4] == "true"  # spot c was below nu
