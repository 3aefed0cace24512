"""Command-line front end: classify, stats, map, validate-rules."""

from __future__ import annotations

import argparse
import glob
import os
import sys
from collections import Counter
from pathlib import Path

from . import pixmap, spatial, stats
from .classify import UNK, classify_batch, harden, memberships, write_batch_csv
from .errors import SpectraClassError
from .rulebase import builtin_basalt, parse_rulebase, require_valid, validate
from .spectrum import normalize, parse_spectrum

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


def load_rules(spec: str, epsilon=None, nu=None):
    """Resolve `builtin:basalt` or a DSL file path, then apply and validate CLI overrides."""
    if spec == "builtin:basalt":
        rb = builtin_basalt()
    elif spec.startswith("builtin:"):
        raise SpectraClassError(f"unknown builtin rule base {spec!r}")
    else:
        rb = parse_rulebase(Path(spec).read_text(encoding="utf-8"))
    if epsilon is not None:
        rb.options.epsilon = epsilon
    if nu is not None:
        rb.options.nu = nu
    return require_valid(rb)


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
    results = classify_batch(inputs, rb, workers=args.workers)
    codes = rb.class_codes()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as f:
            write_batch_csv(results, codes, f)
        summary_stream = sys.stdout
    else:
        write_batch_csv(results, codes, sys.stdout)
        summary_stream = sys.stderr

    counts = Counter(r.classification.label for r in results if r.error is None)
    errors = [r for r in results if r.error is not None]
    parts = [f"{c}: {counts.get(c, 0)}" for c in codes] + [f"{UNK}: {counts.get(UNK, 0)}"]
    print("  ".join(parts) + f"  errors: {len(errors)}", file=summary_stream)
    for r in errors:
        print(f"error: {r.id}: {r.error}", file=sys.stderr)
    return EX_PARTIAL if errors else EX_OK


def cmd_stats(args) -> int:
    rb = load_rules(args.rules, args.epsilon, args.nu)
    inputs = expand_inputs(args.inputs)
    if not inputs:
        raise SpectraClassError("no input spectra")
    eps = rb.options.epsilon
    excluded = rb.excluded_ions()

    groups: dict = {}
    normalized = []
    for path in inputs:
        s = parse_spectrum(Path(path).read_text(encoding="utf-8"), id=Path(path).stem)
        s = normalize(s, excluded, eps)
        normalized.append(s)
        if args.group_by == "directory":
            key = Path(path).parent.name or "."
        else:
            key = harden(memberships(s, rb), rb.options.nu).label
        groups.setdefault(key, []).append(s)
    if not groups:
        raise SpectraClassError("no groups formed")

    ensemble_db = stats.build_statdb(normalized, eps)
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    for key in sorted(groups):
        db = stats.build_statdb(groups[key], eps)
        rows = stats.class_vs_ensemble_report(db, ensemble_db, mode=args.mode)
        print(f"== {key} ({db.n_spectra} spectra) vs ensemble ({ensemble_db.n_spectra}) ==")
        print(stats.render_histogram(rows))
        if out_dir:
            with open(out_dir / f"{key}_report.csv", "w", encoding="utf-8", newline="") as f:
                stats.write_report_csv(rows, f)
    return EX_OK


def _read_input(path, parse):
    """``parse`` the text of ``path``; a ValueError becomes a fatal error naming the file."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise SpectraClassError(f"{path}: {exc}") from None


def cmd_map(args) -> int:
    grid = _read_input(args.input, spatial.read_grid_csv)
    if args.topology:
        grid.topology = {"rect": spatial.RECTANGULAR, "hex": spatial.HEXAGONAL}[args.topology]
    nu = args.nu if args.nu is not None else 0.5
    palette = _read_input(args.palette, pixmap.load_palette) if args.palette else None

    pre = spatial.classify_spots(grid, nu)
    post = spatial.reclassify_map(grid, nu, floor=args.floor)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    for name, cmap in (("pre", pre), ("post", post)):
        with open(out_dir / f"{name}.csv", "w", encoding="utf-8", newline="") as f:
            spatial.write_map_csv(grid, cmap, f)
        with open(out_dir / f"{name}.ppm", "wb") as f:
            pixmap.write_ppm(f, grid.cols, grid.rows, pixmap.render_class_map(cmap, palette))
    for code in grid.class_codes:
        with open(out_dir / f"mu_{code}.ppm", "wb") as f:
            pixmap.write_ppm(f, grid.cols, grid.rows,
                             pixmap.render_membership_map(grid, code))
    n_assigned = sum(1 for c in post.cells if c.neighbor_assigned)
    print(f"wrote maps to {out_dir} ({n_assigned} neighbor-assigned spots)")
    return EX_OK


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

    def add_rules_opts(p):
        p.add_argument("--rules", default=os.environ.get(RULES_ENV, "builtin:basalt"),
                       help="rule-base DSL path or builtin:basalt "
                            f"(default from ${RULES_ENV} if set)")
        p.add_argument("--epsilon", type=float, default=None,
                       help="override m/z match window")
        p.add_argument("--nu", type=float, default=None,
                       help="override minimum membership for a hard label")

    p = sub.add_parser("classify", help="classify spectra and write a batch CSV")
    add_rules_opts(p)
    p.add_argument("inputs", nargs="+", help="spectrum files or globs")
    p.add_argument("--workers", type=int, default=1, help="parallel workers")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("stats", help="ensemble statistics and class-vs-ensemble reports")
    add_rules_opts(p)
    p.add_argument("inputs", nargs="+", help="spectrum files or globs")
    p.add_argument("--group-by", choices=("label", "directory"), default="label")
    p.add_argument("--mode", choices=("present-mean", "zero-inclusive-mean"),
                   default="present-mean")
    p.add_argument("--out", help="directory for per-group report CSVs")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("map", help="render classification maps with neighbor smoothing")
    p.add_argument("input", help="grid CSV (batch CSV with topology headers)")
    p.add_argument("--nu", type=float, default=None, help="hard-label threshold (default 0.5)")
    p.add_argument("--floor", type=float, default=None,
                   help="keep a spot UNK when its best smoothed value is below this")
    p.add_argument("--topology", choices=("rect", "hex"), default=None,
                   help="override the topology declared in the input headers")
    p.add_argument("--palette", help="palette file mapping class codes to RGB")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("validate-rules", help="parse a rule base and report diagnostics")
    add_rules_opts(p)
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
    raise SystemExit(main())


if __name__ == "__main__":
    run()
