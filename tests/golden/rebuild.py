"""Golden outputs: run each CLI case on the inputs here and compare with expected.json.

Each case runs ``spectraclass.cli.main`` in a fresh directory holding a
copy of ``inputs/``, with relative paths, so no output holds an absolute
path. Its result is the exit code and the SHA-256 of stdout, of
stderr and of every file the run created or changed (a symbolic link is
recorded by its target).

    python tests/golden/rebuild.py --check    compare; exit 1 on any difference
    python tests/golden/rebuild.py            list the cases that differ
    python tests/golden/rebuild.py --accept   rewrite expected.json

The check mode needs only the standard library and this tree's ``src``,
so any supported interpreter can run it. ``tests/test_golden.py`` runs
the same cases under pytest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
EXPECTED = HERE / "expected.json"

SPARSE = ["--rules", "sparse.rules", "sparse/*.csv"]
ERROR_ROWS = ["dense/s00000.csv", "bad/nonnum.csv", "bad/negative.csv", "bad/empty.csv",
              "./missing.csv", "", "dense", "dense/s00001.csv"]

# name -> (argv, {symbolic link: its target}) ; links are made before the run
CASES = {
    "classify-dense": (["classify", "dense/*.csv"], {}),
    "classify-dense-out": (["classify", "dense/*.csv", "--out", "batch.csv"], {}),
    "classify-dense-workers2": (["classify", "--workers", "2", "dense/*.csv"], {}),
    "classify-sparse": (["classify", *SPARSE], {}),
    "classify-sparse-out": (["classify", *SPARSE, "--out", "batch.csv"], {}),
    "classify-sparse-out-workers2": (["classify", *SPARSE, "--workers", "2", "--out", "batch.csv"], {}),
    "classify-error-rows": (["classify", *ERROR_ROWS], {}),
    "classify-error-rows-out-workers2": (["classify", "--workers", "2", *ERROR_ROWS, "--out", "e.csv"], {}),
    "classify-out-symlink": (["classify", *SPARSE, "--out", "link.csv"], {"link.csv": "real.csv"}),
    "classify-nu-epsilon": (["classify", "--nu", "0.7", "--epsilon", "0.2", "dense/*.csv"], {}),
    **{f"stats-{group}-{mode}": (["stats", "stats/*/*.csv", "--group-by", group, "--mode", mode,
                                  "--out", "rep"], {})
       for group in ("label", "directory") for mode in ("present-mean", "zero-inclusive-mean")},
    "map-hex": (["map", "hex.grid", "--out", "m"], {}),
    "map-hex-floor-palette": (["map", "hex.grid", "--floor", "0.6", "--palette", "palette.txt",
                               "--out", "m"], {}),
    "map-hex-as-rect-nu": (["map", "hex.grid", "--topology", "rect", "--nu", "0.3", "--out", "m"], {}),
    "map-rect": (["map", "rect.grid", "--out", "m"], {}),
    "map-rect-as-hex-floor": (["map", "rect.grid", "--topology", "hex", "--floor", "0.05",
                               "--palette", "palette.txt", "--out", "m"], {}),
    "map-out-symlink": (["map", "rect.grid", "--out", "m"], {"m/pre.csv": "../kept.csv"}),
    "map-negative-zero": (["map", "zero.grid", "--out", "m"], {}),
    "map-negative-zero-rect-floor": (["map", "zero.grid", "--topology", "rect", "--floor", "0",
                                      "--out", "m"], {}),
    "validate-builtin": (["validate-rules", "--rules", "builtin:basalt"], {}),
    "validate-dsl": (["validate-rules", "--rules", "sparse.rules"], {}),
    "fatal-bad-rules": (["validate-rules", "--rules", "bad.rules"], {}),
    "fatal-unknown-builtin": (["classify", "--rules", "builtin:granite", "dense/*.csv"], {}),
    "fatal-no-match": (["classify", "nothing/*.csv"], {}),
    "fatal-missing-grid": (["map", "./missing.grid", "--out", "m"], {}),
    "fatal-bad-grid": (["map", "bad.grid", "--palette", "missing.txt", "--out", "m"], {}),
    "fatal-out-is-a-directory": (["classify", *SPARSE, "--out", "dense"], {}),
    "fatal-out-in-missing-directory": (["classify", *SPARSE, "--out", "nodir/batch.csv"], {}),
    "usage-no-inputs": (["classify"], {}),
    "usage-workers-0": (["classify", "--workers", "0", "dense/*.csv"], {}),
    "usage-map-without-out": (["map", "hex.grid"], {}),
    "usage-bad-nu": (["map", "hex.grid", "--nu", "half", "--out", "m"], {}),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _snapshot(root: Path) -> dict:
    """``{relative path: digest}`` of every file under ``root``; a link's digest is its target."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = Path(dirpath, name)
            rel = path.relative_to(root).as_posix()
            if path.is_symlink():
                out[rel] = "-> " + os.readlink(path)
            else:
                out[rel] = _sha256(path.read_bytes())
    return out


def run_case(name: str, workdir: Path) -> dict:
    """Run case ``name`` in the empty directory ``workdir``, the current directory; its result."""
    from spectraclass.cli import main

    argv, links = CASES[name]
    shutil.copytree(INPUTS, workdir, dirs_exist_ok=True)
    for link, target in links.items():
        Path(link).parent.mkdir(parents=True, exist_ok=True)
        os.symlink(target, link)
    before = _snapshot(workdir)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    after = _snapshot(workdir)
    return {"exit": code, "stdout": _sha256(stdout.getvalue().encode("utf-8")),
            "stderr": _sha256(stderr.getvalue().encode("utf-8")),
            "files": {path: d for path, d in sorted(after.items()) if before.get(path) != d}}


def run_all() -> dict:
    """Every case's result, each run in a fresh temporary directory."""
    results = {}
    cwd = os.getcwd()
    for name in CASES:
        with tempfile.TemporaryDirectory() as d:
            os.chdir(d)
            try:
                results[name] = run_case(name, Path(d))
            finally:
                os.chdir(cwd)
    return results


def fixed_environment() -> None:
    """The environment every case runs in: no rule-base default, 80-column usage text."""
    os.environ.pop("SPECTRACLASS_RULES", None)
    os.environ["COLUMNS"] = "80"


def main(argv) -> int:
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    fixed_environment()
    results = run_all()
    expected = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}
    differ = sorted(name for name in results.keys() | expected.keys()
                    if results.get(name) != expected.get(name))
    for name in differ:
        print(f"differs: {name}")
    if "--accept" in argv:
        EXPECTED.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {EXPECTED.name}: {len(results)} cases, {len(differ)} changed")
        return 0
    if differ and "--check" not in argv:
        print(f"{EXPECTED.name} left as it is; pass --accept to rewrite it")
    elif not differ:
        print(f"{len(results)} cases match {EXPECTED.name}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
