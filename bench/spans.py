"""In-memory spans around calls into spectraclass's modules.

The benchmark wraps the package's public functions where their callers
look them up (module globals) for the duration of one in-process run,
and restores them afterwards; nothing in the package changes. A span is
(name, start, end, parent) in perf_counter nanoseconds, stored in flat
arrays so a traced run of a few hundred thousand calls stays small. A
layer is the first part of a span name, which is the package module the
wrapped function belongs to.
"""

from __future__ import annotations

import math
import pathlib
from array import array
from collections import Counter, defaultdict
from time import perf_counter_ns

LAYERS = ("spectrum", "rulebase", "fuzzy", "classify", "stats", "spatial", "pixmap", "cli")


class Tracer:
    """Records spans up to ``max_depth`` levels below the root span."""

    def __init__(self, run_id: str, max_depth: float = math.inf):
        self.run_id = run_id
        self.max_stack = max_depth + 1  # the root span is on the stack too
        self.names: list = []
        self._name_ids: dict = {}
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.stack = [-1]
        self.counts = Counter()
        self.batches: list = []

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name.append(nid)
        self.start.append(0)
        self.end.append(0)
        self.parent.append(self.stack[-1])
        self.stack.append(sid)
        return sid

    def _close(self, sid: int, t0: int, t1: int) -> None:
        self.stack.pop()
        self.start[sid] = t0
        self.end[sid] = t1

    def call(self, name, fn, args, kwargs, on_result=None):
        if len(self.stack) > self.max_stack:
            return fn(*args, **kwargs)
        sid = self._open(name)
        t0 = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(sid, t0, perf_counter_ns())
        if on_result is not None:
            on_result(self, args, result)
        return result

    def span_names(self):
        return [self.names[i] for i in self.name]

    def self_times(self):
        """Per-span duration minus the part its child spans cover, in ns."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for sid, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[sid]
        return own

    def write(self, stream) -> None:
        for sid, (n, s, e, p) in enumerate(zip(self.name, self.start, self.end, self.parent)):
            stream.write(f"{self.run_id}\t{sid}\t{p}\t{self.names[n]}\t{s}\t{e}\n")


# Counters taken from results at the layer boundary, outside the span.

def _count_parse(t, args, s):
    t.counts["peaks_parsed"] += len(s.points)


def _count_lookup(t, args, value):
    # Generated abundances are all positive, so a window is non-empty
    # exactly when its maximum is above zero.
    t.counts["lookup_hits"] += value > 0


def _count_read(t, args, text):
    t.counts["bytes_in"] += len(text)  # inputs are ASCII: characters == bytes


def _count_statdb(t, args, db):
    t.counts["bins"] += len(db.bins)
    t.counts["peaks_binned"] += sum(b.c for b in db.bins)
    t.counts["bins_count_over_n"] += sum(b.c > db.n_spectra for b in db.bins)


def _count_reclassify(t, args, cmap):
    t.counts["neighbor_assigned"] += sum(c.neighbor_assigned for c in cmap.cells)


def _count_ppm(t, args, _):
    stream, width, height, pixels = args
    t.counts["ppm_bytes_out"] += len(f"P6\n{width} {height}\n255\n") + 3 * len(pixels)


def _keep_batch(t, args, results):
    t.batches.append(results)


def patch_points(sc):
    """(owner, attribute, span name, called from cli code, counter) for the package ``sc``.

    ``sc`` is a namespace holding the imported package modules. A
    function is wrapped where its caller looks it up, so one function may
    appear under several owners.
    """
    cli, classify, stats, spatial, pixmap = sc.cli, sc.classify, sc.stats, sc.spatial, sc.pixmap
    return (
        (cli, "builtin_basalt", "rulebase.load", True, None),
        (cli, "parse_rulebase", "rulebase.load", True, None),
        (cli, "classify_batch", "classify.batch", True, _keep_batch),
        (cli, "write_batch_csv", "classify.write_csv", True, None),
        (cli, "memberships", "classify.memberships", True, None),
        (cli, "harden", "classify.harden", True, None),
        (cli, "parse_spectrum", "spectrum.parse", True, _count_parse),
        (cli, "normalize", "spectrum.normalize", True, None),
        (classify, "parse_spectrum", "spectrum.parse", False, _count_parse),
        (classify, "memberships", "classify.memberships", False, None),
        (classify, "harden", "classify.harden", False, None),
        (classify, "normalize", "spectrum.normalize", False, None),
        (classify, "peak_abundance", "spectrum.lookup", False, _count_lookup),
        (classify, "eval_expr", "fuzzy.eval", False, None),
        (sc.fuzzy.MembershipFn, "__call__", "fuzzy.term", False, None),
        (stats, "build_statdb", "stats.build_statdb", True, _count_statdb),
        (stats, "peak_list", "stats.peak_list", False, None),
        (stats, "class_vs_ensemble_report", "stats.report", True, None),
        (stats, "write_report_csv", "stats.write_report", True, None),
        (stats, "render_histogram", "stats.histogram", True, None),
        (spatial, "read_grid_csv", "spatial.read_grid", True, None),
        (spatial, "classify_spots", "spatial.classify_spots", True, None),
        (spatial, "reclassify_map", "spatial.reclassify", True, _count_reclassify),
        (spatial, "write_map_csv", "spatial.write_map", True, None),
        (pixmap, "render_class_map", "pixmap.render", True, None),
        (pixmap, "render_membership_map", "pixmap.render", True, None),
        (pixmap, "write_ppm", "pixmap.write_ppm", True, _count_ppm),
        # File reads are cli's input stage; for classify they happen inside
        # classify_batch, so the depth limit decides whether they are spans.
        (pathlib.Path, "read_text", "cli.read", True, _count_read),
    )


class Instrumented:
    """Context manager installing wrappers that report to ``tracer``.

    With ``top_only`` only the functions cli calls directly are wrapped,
    which is what the untraced pass uses to find cli's own time.
    """

    def __init__(self, sc, tracer: Tracer, top_only: bool):
        self.points = [p for p in patch_points(sc) if p[3] or not top_only]
        self.tracer = tracer
        self.saved = []

    def __enter__(self):
        for owner, attr, name, _, counter in self.points:
            original = owner.__dict__.get(attr)
            if original is None:  # gone from the package: its metrics read 0
                continue
            self.saved.append((owner, attr, original))
            setattr(owner, attr, _wrapper(self.tracer, name, original, counter))
        return self.tracer

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()
        return False


def _wrapper(tracer, name, fn, counter):
    def wrapped(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, counter)
    return wrapped


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer self times (s), span counts and counters of one traced pass."""
    names = tracer.span_names()
    own = tracer.self_times()
    self_s = defaultdict(float)
    calls = Counter()
    for n, t in zip(names, own):
        self_s[n] += t / 1e9
        calls[n] += 1
    layer_self = defaultdict(float)
    for n, t in self_s.items():
        layer_self[n.split(".", 1)[0]] += t
    c = tracer.counts
    m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    peaks = c["peaks_parsed"]
    lookups = calls["spectrum.lookup"]
    m.update({
        "spectrum.parse_s": self_s["spectrum.parse"],
        "spectrum.parse_ns_per_peak": self_s["spectrum.parse"] * 1e9 / peaks if peaks else 0.0,
        "spectrum.peaks_parsed": peaks,
        "spectrum.normalize_s": self_s["spectrum.normalize"],
        "spectrum.lookup_s": self_s["spectrum.lookup"],
        "spectrum.lookups": lookups,
        "spectrum.lookup_hit_ratio": c["lookup_hits"] / lookups if lookups else 0.0,
        "fuzzy.eval_s": self_s["fuzzy.eval"] + self_s["fuzzy.term"],
        "fuzzy.terms_evaluated": calls["fuzzy.term"],
        "rulebase.load_s": self_s["rulebase.load"],
        "classify.memberships_s": self_s["classify.memberships"],
        "classify.harden_s": self_s["classify.harden"],
        "classify.write_csv_s": self_s["classify.write_csv"],
        "stats.peak_list_s": self_s["stats.peak_list"],
        "stats.build_statdb_s": self_s["stats.build_statdb"],
        "stats.report_s": self_s["stats.report"],
        "stats.write_report_s": self_s["stats.write_report"],
        "stats.bins": c["bins"],
        "stats.peaks_binned": c["peaks_binned"],
        "stats.bins_count_over_n": c["bins_count_over_n"],
        "spatial.read_grid_s": self_s["spatial.read_grid"],
        "spatial.classify_spots_s": self_s["spatial.classify_spots"],
        "spatial.reclassify_s": self_s["spatial.reclassify"],
        "spatial.write_map_s": self_s["spatial.write_map"],
        "spatial.neighbor_assigned": c["neighbor_assigned"],
        "pixmap.render_s": self_s["pixmap.render"],
        "pixmap.write_ppm_s": self_s["pixmap.write_ppm"],
        "pixmap.bytes_out": c["ppm_bytes_out"],
        "cli.read_s": self_s["cli.read"],
        "cli.bytes_in": c["bytes_in"],
        "trace.spans": len(names),
    })
    return m


def top_level_ns(tracer: Tracer) -> int:
    """Summed duration of the spans directly under the root span (span 0)."""
    return sum(e - s for s, e, p in zip(tracer.start, tracer.end, tracer.parent) if p == 0)
