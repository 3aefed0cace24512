"""The four benchmark workloads: inputs, CLI arguments and output checks.

Why each workload exists (sizes make one CLI run take 1 to 2 s on a
2-vCPU Xeon VM, so a measurement holds many runs):

classify-dense   600 spectra of 1,000 peaks through the built-in rules;
                 text parsing and normalization dominate, rule
                 evaluation is small.
classify-sparse  5,000 spectra of 30 peaks through a DSL rule file that
                 excludes potassium (the base peak) from normalization;
                 per-file reads, term lookups, expression evaluation,
                 hardening and CSV rows dominate, and the DSL load is part
                 of set-up.
stats-dirs       ensemble statistics over 360 spectra of 1,000 peaks in 6
                 directories, grouped by directory; consolidation, binning
                 and report matching, no rule is evaluated.
map-hex          neighbour smoothing of a 280 x 280 hexagonal grid where
                 most spots are below nu, written as CSVs and pixmaps; the
                 only workload that runs spatial and pixmap.

A workload's outputs are the files in its output directory plus the
CLI's standard output (under the name "stdout"). ``check`` returns the
indices of the items those outputs get wrong; ``locate`` returns the
items a difference between two versions of one output touches.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import gen
import oracle

BASALT = "builtin:basalt"


def _line_items(a: bytes, b: bytes, n: int):
    """Items whose CSV row differs; row 1 + i holds item i."""
    la, lb = a.split(b"\n"), b.split(b"\n")
    if len(la) != len(lb) or la[0] != lb[0]:
        return set(range(n))
    return {i - 1 for i, (x, y) in enumerate(zip(la, lb)) if x != y and 1 <= i <= n}


class Workload:
    name = ""
    rules = BASALT  # None: the command takes no rule base

    def __init__(self, seed: int, work: Path):
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        self.out = work / "out"
        self.n_items = 0
        self.kinds = Counter()

    def read_outputs(self, stdout: bytes) -> dict:
        files = {p.name: p.read_bytes() for p in sorted(self.out.iterdir())}
        files["stdout"] = stdout
        return files

    def all_items(self):
        return set(range(self.n_items))

    def label_mix(self) -> dict:
        return {}


class Classify(Workload):
    def __init__(self, seed, work, stream, n, n_peaks, excluding=()):
        super().__init__(seed, work)
        items = gen.spectra(seed, stream, n, n_peaks, k_base=bool(excluding))
        written = gen.write_spectra(work / "in", items, excluding)
        if excluding:
            path = work / "rules.dsl"
            path.write_text(oracle.rules_dsl(excluding), encoding="ascii")
            self.rules = str(path)
        self.expected = [(path.stem, values) for path, _, values in written]
        self.kinds = Counter(kind for _, kind, _ in written)
        self.n_items = n

    def argv(self):
        return ["classify", "--rules", self.rules, str(self.work / "in" / "*.csv"),
                "--out", str(self.out / "batch.csv")]

    def check(self, files):
        text = files.get("batch.csv", b"").decode(errors="replace")
        if set(files) != {"batch.csv", "stdout"} or files["stdout"].decode(errors="replace") != oracle.summary_line(text):
            return self.all_items()
        return oracle.check_batch_csv(text, self.expected)

    def locate(self, name, a, b):
        return _line_items(a, b, self.n_items) if name == "batch.csv" else self.all_items()

    def label_mix(self):
        return dict(Counter(oracle.label(v) for _, v in self.expected))


class ClassifyDense(Classify):
    name = "classify-dense"

    def __init__(self, seed, work):
        super().__init__(seed, work, "dense", 600, 1000)


class ClassifySparse(Classify):
    name = "classify-sparse"

    def __init__(self, seed, work):
        super().__init__(seed, work, "sparse", 5000, 30, excluding=(gen.SPARSE_ION,))


def _sections(stdout: bytes) -> dict:
    """stats standard output split into its per-group sections, by group key."""
    out = {}
    key = None
    for line in stdout.decode(errors="replace").splitlines():
        if line.startswith("== "):
            key = line[3:].split(" ", 1)[0]
            out[key] = []
        out.setdefault(key, []).append(line)
    return out


class StatsDirs(Workload):
    name = "stats-dirs"

    def __init__(self, seed, work, n_dirs=6, per_dir=60, n_peaks=1000):
        super().__init__(seed, work)
        self.groups = {}
        for key, items in gen.stats_groups(seed, n_dirs, per_dir, n_peaks):
            written = gen.write_spectra(work / "in" / key, items)
            self.groups[key] = range(self.n_items, self.n_items + len(written))
            self.n_items += len(written)
            self.kinds.update(kind for _, kind, _ in written)
        self.bins_count_over_n = 0

    def argv(self):
        return ["stats", "--rules", BASALT, str(self.work / "in" / "*" / "*.csv"),
                "--group-by", "directory", "--out", str(self.out)]

    def check(self, files):
        if set(files) != {f"{k}_report.csv" for k in self.groups} | {"stdout"}:
            return self.all_items()
        sections = _sections(files["stdout"])
        if [k for k in sections if k is not None] != list(self.groups):
            return self.all_items()
        failed = set()
        self.bins_count_over_n = 0
        for key, idx in self.groups.items():
            report = files[f"{key}_report.csv"].decode(errors="replace")
            ok, over = oracle.check_report(report, len(idx))
            self.bins_count_over_n += over
            sec = sections[key]
            head = f"== {key} ({len(idx)} spectra) vs ensemble ({self.n_items}) =="
            # a section is its header and one histogram line per report row
            if not ok or sec[0] != head or len(sec) != report.count("\n"):
                failed |= set(idx)
        return failed

    def locate(self, name, a, b):
        if name != "stdout":
            return set(self.groups[name[:-len("_report.csv")]])
        sa, sb = _sections(a), _sections(b)
        if sa.keys() != sb.keys() or None in sa:
            return self.all_items()
        return {i for key in sa if sa[key] != sb[key] for i in self.groups[key]}


class MapHex(Workload):
    name = "map-hex"
    rules = None

    def __init__(self, seed, work, rows=280, cols=280):
        super().__init__(seed, work)
        self.rows, self.cols = rows, cols
        spots = gen.hex_grid(seed, rows, cols)
        (work / "grid.csv").write_text(gen.grid_text(spots, rows, cols, "hex"), encoding="ascii")
        self.pre, self.post = oracle.smooth_map(spots, rows, cols, hexagonal=True)
        self.grey = {f"mu_{c}.ppm": oracle.grey_pixels(spots, k)
                     for k, c in enumerate(oracle.BASALT_CODES)}
        self.n_items = rows * cols
        self.assigned = sum(1 for _, assigned in self.post if assigned)

    def argv(self):
        return ["map", str(self.work / "grid.csv"), "--out", str(self.out)]

    def check(self, files):
        names = {"pre.csv", "post.csv", "pre.ppm", "post.ppm", "stdout"} | set(self.grey)
        stdout = f"wrote maps to {self.out} ({self.assigned} neighbor-assigned spots)\n"
        if set(files) != names or files["stdout"].decode(errors="replace") != stdout:
            return self.all_items()
        failed = set()
        for stage, cells in (("pre", self.pre), ("post", self.post)):
            text = files[f"{stage}.csv"].decode(errors="replace")
            failed |= oracle.check_map_csv(text, cells, self.cols)
            body, alternatives = oracle.class_pixels(cells, oracle.map_labels(text, self.n_items))
            failed |= oracle.check_ppm(files[f"{stage}.ppm"], self.rows, self.cols, body, alternatives)
        for name, body in self.grey.items():
            failed |= oracle.check_ppm(files[name], self.rows, self.cols, body)
        return failed

    def locate(self, name, a, b):
        if name.endswith(".csv"):
            return _line_items(a, b, self.n_items)
        if name.endswith(".ppm") and len(a) == len(b):
            h = len(a) - 3 * self.n_items
            if a[:h] == b[:h]:
                return {i for i in range(self.n_items)
                        if a[h + 3 * i:h + 3 * i + 3] != b[h + 3 * i:h + 3 * i + 3]}
        return self.all_items()

    def label_mix(self):
        return {"pre": dict(Counter(next(iter(a)) for a, _ in self.pre)),
                "post": dict(Counter(next(iter(a)) for a, _ in self.post))}


WORKLOADS = {w.name: w for w in (ClassifyDense, ClassifySparse, StatsDirs, MapHex)}


def failed_items(wl: Workload, code: int, files: dict, first):
    """Failed items of one run; ``first`` is (files, failed) of the first clean run or None."""
    if code != 0:
        return wl.all_items()
    if first is None:
        return wl.check(files)
    first_files, first_failed = first
    if files == first_files:
        return set(first_failed)
    if files.keys() != first_files.keys():
        return wl.all_items()
    failed = wl.check(files)
    for name, data in files.items():
        if data != first_files[name]:
            failed |= wl.locate(name, first_files[name], data)
    return failed
