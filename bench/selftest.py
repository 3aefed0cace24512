"""Self-tests of the benchmark's generator and oracle.

Run from the repository root:  python3 bench/selftest.py

They check that inputs depend only on the seed, that the oracle agrees
with the package on small seeded inputs (so failed_ratio 0 is earned),
and that the oracle flags a single perturbed batch row, map cell, pixmap
pixel and report row.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
import unittest
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]
SCRATCH = BENCH.parent / ".bench_selftest"

import gen  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from spectraclass import cli, spatial  # noqa: E402
from spectraclass.classify import classify_batch  # noqa: E402
from spectraclass.rulebase import builtin_basalt, parse_rulebase  # noqa: E402


def small(kind, seed, work):
    if kind == "dense":
        return workloads.Classify(seed, work, "dense", 40, 300)
    if kind == "sparse":
        return workloads.Classify(seed, work, "sparse", 200, 30, excluding=("K",))
    if kind == "stats":
        return workloads.StatsDirs(seed, work, n_dirs=3, per_dir=12, n_peaks=200)
    return workloads.MapHex(seed, work, rows=20, cols=24)


def scratch():
    SCRATCH.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=SCRATCH)


def run_cli(wl):
    wl.out.mkdir(parents=True, exist_ok=True)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(wl.argv())
    return code, wl.read_outputs(stdout.getvalue().encode())


def tree(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestGenerator(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for kind in ("dense", "sparse", "stats", "map"):
            with self.subTest(kind=kind), scratch() as a, \
                    scratch() as b, scratch() as c:
                small(kind, 5, Path(a))
                small(kind, 5, Path(b))
                small(kind, 6, Path(c))
                self.assertEqual(tree(Path(a)), tree(Path(b)))
                self.assertNotEqual(tree(Path(a)), tree(Path(c)))

    def test_spectra_are_distinct_and_cover_every_label(self):
        texts = set()
        labels = Counter()
        for stream, excluding in (("dense", ()), ("sparse", ("K",))):
            for _, _, peaks in gen.spectra(3, stream, 300, 60, k_base=bool(excluding)):
                texts.add(gen.peaks_text(peaks))
                labels[oracle.label(oracle.memberships(gen.as_floats(peaks), excluding))] += 1
        self.assertEqual(len(texts), 600)
        self.assertEqual(set(labels), set(oracle.BASALT_CODES) | {oracle.UNK})

    def test_peak_text_denotes_the_oracle_floats(self):
        _, _, peaks = next(gen.spectra(2, "dense", 1, 200))
        parsed = [tuple(float(x) for x in line.split(",")) for line in gen.peaks_text(peaks).split()]
        self.assertEqual(parsed, gen.as_floats(peaks))


class TestOracleAgrees(unittest.TestCase):
    def test_memberships_match_package(self):
        with scratch() as d:
            for kind, rb in (("dense", builtin_basalt()),
                             ("sparse", parse_rulebase(oracle.rules_dsl(("K",))))):
                wl = small(kind, 11, Path(d) / kind)
                results = classify_batch(sorted(str(p) for p in (wl.work / "in").glob("*.csv")), rb)
                self.assertEqual(oracle.check_batch_results(results, wl.expected), set(), kind)

    def test_cli_outputs_pass_the_oracle(self):
        for kind in ("dense", "sparse", "stats", "map"):
            with self.subTest(kind=kind), scratch() as d:
                wl = small(kind, 12, Path(d))
                code, files = run_cli(wl)
                self.assertEqual(code, 0)
                self.assertEqual(wl.check(files), set())

    def test_rect_smoothing_matches_package(self):
        rows, cols = 9, 11
        spots = gen.hex_grid(4, rows, cols, confident_share=0.2)
        grid = spatial.read_grid_csv(gen.grid_text(spots, rows, cols, "rect"))
        _, post = oracle.smooth_map(spots, rows, cols, hexagonal=False)
        cmap = spatial.reclassify_map(grid, oracle.NU)
        for (allowed, assigned), cell in zip(post, cmap.cells):
            self.assertIn(cell.label, allowed)
            self.assertAlmostEqual(cell.confidence, allowed[cell.label], delta=oracle.TOL)
            self.assertEqual(cell.neighbor_assigned, assigned)
        self.assertTrue(any(a for _, a in post))


class TestOracleFlags(unittest.TestCase):
    def setUp(self):
        self.dir = scratch()
        self.addCleanup(self.dir.cleanup)

    def outputs(self, kind):
        wl = small(kind, 13, Path(self.dir.name) / kind)
        code, files = run_cli(wl)
        self.assertEqual(code, 0)
        return wl, files

    def test_perturbed_batch_row(self):
        wl, files = self.outputs("dense")
        lines = files["batch.csv"].decode().split("\n")
        f = lines[8].split(",")
        f[5] = format(float(f[5]) + 0.001, ".6g")  # item 7's first membership
        lines[8] = ",".join(f)
        bad = dict(files, **{"batch.csv": "\n".join(lines).encode()})
        self.assertEqual(wl.check(bad), {7})
        self.assertEqual(workloads.failed_items(wl, 0, bad, (files, set())), {7})
        self.assertEqual(workloads.failed_items(wl, 1, files, (files, set())), wl.all_items())

    def test_perturbed_map_cell_and_pixel(self):
        wl, files = self.outputs("map")
        i = next(k for k, (_, assigned) in enumerate(wl.post) if assigned)
        lines = files["post.csv"].decode().split("\n")
        f = lines[1 + i].split(",")
        f[2] = next(c for c in oracle.BASALT_CODES if c not in wl.post[i][0])
        lines[1 + i] = ",".join(f)
        self.assertEqual(wl.check(dict(files, **{"post.csv": "\n".join(lines).encode()})), {i})

        ppm = bytearray(files["pre.ppm"])
        j = 37
        pos = len(ppm) - 3 * wl.n_items + 3 * j
        ppm[pos] ^= 0xFF
        bad = dict(files, **{"pre.ppm": bytes(ppm)})
        self.assertEqual(wl.check(bad), {j})
        self.assertEqual(workloads.failed_items(wl, 0, bad, (files, set())), {j})

    def test_perturbed_report_row(self):
        wl, files = self.outputs("stats")
        key = next(iter(wl.groups))
        name = f"{key}_report.csv"
        lines = files[name].decode().split("\n")
        f = lines[2].split(",")
        f[5] = str(int(f[5]) + 1)  # n_spectra
        lines[2] = ",".join(f)
        bad = dict(files, **{name: "\n".join(lines).encode()})
        self.assertEqual(wl.check(bad), set(wl.groups[key]))


if __name__ == "__main__":
    unittest.main()
