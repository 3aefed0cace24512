"""Command-line front end: classify, stats, map, validate-rules."""

from __future__ import annotations

import argparse
import glob
import math
import os
import sys
from array import array
from collections import Counter
from pathlib import Path

from . import files, pixmap, spatial, stats
from .classify import UNK, classify_iter, compile_rules, harden, write_batch_csv
from .errors import SpectraClassError
from .rulebase import builtin_basalt, parse_rulebase, validate
from .spectrum import number, parse_spectrum, scale_factor

EX_OK = 0
EX_FATAL = 1
EX_PARTIAL = 2
EX_USAGE = 64

RULES_ENV = "SPECTRACLASS_RULES"


class _ArgumentParser(argparse.ArgumentParser):
    """argparse parser that reports usage errors with exit code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _float(text: str) -> float:
    """argparse type for a number flag."""
    return number(text)


_float.__name__ = "float"  # argparse's usage error names the type: "invalid float value: '1_0'"


def _positive_int(text: str) -> int:
    """argparse type for a count of at least 1."""
    try:
        value = number(text, int)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _path(text: str) -> str:
    """argparse type for a file or directory path: any text but the empty string, which names none."""
    if not text:
        raise argparse.ArgumentTypeError("an empty path names no file")
    return text


def load_rules(spec: str, epsilon=None, nu=None):
    """Resolve `builtin:basalt` or a DSL file path, then apply CLI overrides.

    Parsing validates the rule base; Options checks each override.
    """
    if spec == "builtin:basalt":
        rb = builtin_basalt()
    elif spec.startswith("builtin:"):
        raise SpectraClassError(f"unknown builtin rule base {spec!r}")
    else:
        rb = _read_input(spec, parse_rulebase)
    overrides = {name: value for name, value in (("epsilon", epsilon), ("nu", nu))
                 if value is not None}
    rb.options = rb.options.replace(**overrides)
    return rb


def expand_inputs(patterns):
    """Expand glob patterns; each pattern's matches are sorted for determinism."""
    out = []
    for pat in patterns:
        if glob.has_magic(pat):
            matches = sorted(glob.glob(pat))
            if not matches:
                raise SpectraClassError(f"no inputs match {pat!r}")
            out.extend(matches)
        else:
            out.append(pat)
    return out


def cmd_classify(args) -> int:
    rb = load_rules(args.rules, args.epsilon, args.nu)
    inputs = expand_inputs(args.inputs)
    codes = rb.class_codes()
    counts = Counter()
    errors = []  # (path, message) of each file that failed

    def tally(results):
        """Pass ``results`` through, counting labels and keeping the failures."""
        for path, r in zip(inputs, results):
            if r.error is None:
                counts[r.classification.label] += 1
            else:
                errors.append((path, r.error))
            yield r

    results = tally(classify_iter(inputs, rb, workers=args.workers))
    if args.out:
        with files.staging() as stage:
            write_batch_csv(results, codes, stage(args.out))
        summary_stream = sys.stdout
    else:
        write_batch_csv(results, codes, sys.stdout)
        summary_stream = sys.stderr

    parts = [f"{c}: {counts[c]}" for c in codes] + [f"{UNK}: {counts[UNK]}"]
    print("  ".join(parts) + f"  errors: {len(errors)}", file=summary_stream)
    for path, message in errors:
        print(f"error: {path}: {message}", file=sys.stderr)
    return EX_PARTIAL if errors else EX_OK


def cmd_stats(args) -> int:
    rb = load_rules(args.rules, args.epsilon, args.nu)
    inputs = expand_inputs(args.inputs)
    if not inputs:
        raise SpectraClassError("no input spectra")
    eps = rb.options.epsilon
    excluded = rb.excluded_ions()
    classify_spectrum = compile_rules(rb)

    by_label = args.group_by == "label"

    def read(text, id):
        """The consolidated normalized peaks of one file and, by label, the label classify gives it."""
        raw = parse_spectrum(text, id=id)
        factor = scale_factor(raw, excluded, eps)
        label = harden(classify_spectrum(raw, factor), rb.options.nu).label if by_label else None
        return stats.peak_list(raw, eps, factor), label

    groups: dict = {}  # group key -> one (m/z, abundance) array('d') column pair per spectrum
    group_dirs: dict = {}  # directory group key -> the directory it names
    for path in inputs:
        (mzs, abundances), key = _read_input(path, lambda text: read(text, files.stem(path)))
        if not by_label:
            parent = Path(path).parent
            # "." and ".." name no directory; abspath gives the one they mean.
            key = Path(os.path.abspath(parent)).name
            first = group_dirs.setdefault(key, parent)
            if first != parent and first.resolve() != parent.resolve():
                raise SpectraClassError(
                    f"directories {str(first)!r} and {str(parent)!r} "
                    f"share the group name {key!r}")
        groups.setdefault(key, []).append((array("d", mzs), array("d", abundances)))

    dbs, ensemble_db = stats.group_statdbs(groups, eps)
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        files.make_dirs(out_dir)
    with files.staging() as stage:
        for key, db in sorted(dbs.items()):
            rows = stats.class_vs_ensemble_report(db, ensemble_db, mode=args.mode)
            print(f"== {key} ({db.n_spectra} spectra) vs ensemble ({ensemble_db.n_spectra}) ==")
            print(stats.render_histogram(rows))
            if out_dir:
                stats.write_report_csv(rows, stage(out_dir / f"{key}_report.csv"))
    return EX_OK


def _read_input(path, parse, stream=False):
    """``parse`` the text of ``path``; a parse failure becomes a fatal error naming the file.

    With ``stream``, ``parse`` gets the open text file instead. An error
    raised before the file's end then gives way to the error
    ``files.read_text`` would have raised first, on a bad byte anywhere.
    """
    try:
        if not stream:
            return parse(files.read_text(path))
        with files.open_text(path) as f:
            try:
                return parse(f)
            except (ValueError, SpectraClassError, OSError):
                files.read_text(path)
                raise
    except (ValueError, SpectraClassError) as exc:
        raise SpectraClassError(f"{path}: {exc}") from None


def cmd_map(args) -> int:
    if not 0.0 <= args.nu <= 1.0:  # also false for nan
        raise SpectraClassError(f"--nu must be in [0,1], got {args.nu}")
    if args.floor is not None and not math.isfinite(args.floor):
        raise SpectraClassError(f"--floor must be finite, got {args.floor}")
    palette = palette_error = None
    if args.palette:
        try:
            palette = _read_input(args.palette, pixmap.load_palette)
        except (SpectraClassError, OSError) as exc:
            palette_error = exc  # a grid error is reported first, as if the palette were read after it
    out_dir = Path(args.out)
    with files.staging() as stage:
        n_assigned = _read_input(args.input, lambda f: _stream_maps(f, args, palette, stage), stream=True)
        if palette_error is not None:
            raise palette_error
        files.make_dirs(out_dir)
    print(f"wrote maps to {out_dir} ({n_assigned} neighbor-assigned spots)")
    return EX_OK


def _stream_maps(source, args, palette, stage):
    """Write every map of the grid ``source`` into files staged for ``--out``, one grid row at a time.

    Returns the neighbor-assigned spot count. ``stage`` is files.staging()'s; the files hold
    good maps only if this returns, since the grid is checked to its last line.
    """
    rows = spatial.read_grid_rows(source)
    topology, height, width, codes = next(rows)
    if args.topology:
        topology = spatial.TOPOLOGY_ALIASES[args.topology]
    names = ["pre.csv", "post.csv", "pre.ppm", "post.ppm", *(f"mu_{c}.ppm" for c in codes)]
    out_dir = Path(args.out)
    pre_csv, post_csv, pre_ppm, post_ppm, *mu_ppms = (stage(out_dir / name).buffer.write for name in names)
    for write in (pre_csv, post_csv):
        write(spatial.MAP_CSV_HEADER.encode("utf-8"))
    header = pixmap.ppm_header(width, height)
    for write in (pre_ppm, post_ppm, *mu_ppms):
        write(header)
    names = [*codes, UNK]  # label -1 is UNK
    colors = pixmap.class_colors(names, palette)
    n_assigned = 0
    for (_, xs, ys, mus), pre, post in spatial.map_rows(topology, rows, args.nu, args.floor):
        pre_lines, post_lines = spatial.map_csv_lines(names, xs, ys, pre, post)
        pre_csv(pre_lines.encode("utf-8"))
        post_csv(post_lines.encode("utf-8"))
        pre_ppm(pixmap.class_row(colors, pre[0]))
        post_ppm(pixmap.class_row(colors, post[0]))
        for j, write in enumerate(mu_ppms):
            write(pixmap.grey_row(mus, j))
        n_assigned += len(post[2])
    return n_assigned


def cmd_validate_rules(args) -> int:
    rb = load_rules(args.rules)
    warnings = validate(rb)  # load_rules raised on any error
    for d in warnings:
        print(f"{d.severity}: {d.message}")
    print(f"rule base {rb.name!r}: {len(rb.classes)} classes, "
          f"{len(rb.ions)} ions, {len(warnings)} warnings")
    return EX_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="spectraclass",
                             description="Fuzzy-logic classification of mass spectra")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    def add_rules(p):
        p.add_argument("--rules", type=_path, default=os.environ.get(RULES_ENV) or "builtin:basalt",
                       help="rule-base DSL path or builtin:basalt "
                            f"(default from ${RULES_ENV} if set and not empty)")

    def add_overrides(p):
        p.add_argument("--epsilon", type=_float, default=None,
                       help="override m/z match window")
        p.add_argument("--nu", type=_float, default=None,
                       help="override minimum membership for a hard label")

    p = sub.add_parser("classify", help="classify spectra and write a batch CSV")
    add_rules(p)
    add_overrides(p)
    p.add_argument("inputs", nargs="+", help="spectrum files or globs")
    p.add_argument("--workers", type=_positive_int, default=1, help="parallel workers")
    p.add_argument("--out", type=_path, help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("stats", help="ensemble statistics and class-vs-ensemble reports")
    add_rules(p)
    add_overrides(p)
    p.add_argument("inputs", nargs="+", help="spectrum files or globs")
    p.add_argument("--group-by", choices=("label", "directory"), default="label")
    p.add_argument("--mode", choices=("present-mean", "zero-inclusive-mean"),
                   default="present-mean")
    p.add_argument("--out", type=_path, help="directory for per-group report CSVs")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("map", help="render classification maps with neighbor smoothing")
    p.add_argument("input", type=_path, help="grid CSV (batch CSV with topology headers)")
    p.add_argument("--nu", type=_float, default=0.5, help="hard-label threshold (default 0.5)")
    p.add_argument("--floor", type=_float, default=None,
                   help="keep a spot UNK when its best smoothed value is below this")
    p.add_argument("--topology", choices=tuple(spatial.TOPOLOGY_ALIASES), default=None,
                   help="override the topology declared in the input headers")
    p.add_argument("--palette", type=_path, help="palette file mapping class codes to RGB")
    p.add_argument("--out", type=_path, required=True, help="output directory")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("validate-rules", help="parse a rule base and report diagnostics")
    add_rules(p)
    p.set_defaults(func=cmd_validate_rules)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpectraClassError, OSError) as exc:
        print(f"spectraclass: error: {exc}", file=sys.stderr)
        return EX_FATAL


def run():
    # File names that are not UTF-8 reach stdout as surrogate escapes: write their raw bytes, as --out does.
    sys.stdout.reconfigure(errors="surrogateescape")
    raise SystemExit(main())


if __name__ == "__main__":
    run()
