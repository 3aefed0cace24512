"""Seeded benchmark of the spectraclass CLI, end to end and layer by layer.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` there. Inputs are generated from the seed into ``.bench_work/``
(removed at exit); results, spans and machine details go to
``.bench_out/``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0  runs the real CLI (``python -m spectraclass ...``) in a fresh
           child process again and again for S seconds, with the CLI's
           default worker count, and reports the end-to-end metrics:
           cpu_s         median CPU time (user + system) of one CLI run
           items_per_s   items / (cpu_s - setup_s); an item is a spectrum,
                         or a grid spot for map-hex
           setup_s       median CPU time of a fresh interpreter that
                         imports spectraclass and resolves the workload's
                         --rules (import only for map-hex)
           peak_rss_mib  median peak resident memory of the CLI children
           ok_ratio      1 - failed items / attempted items
--trace 1  runs cli.main() in this process on the same inputs, once with
           spans around every call into the package's modules and once
           with spans only around the calls cli makes itself, for S
           seconds, and reports the per-layer metrics (medians over passes).

Times are the children's own CPU time, read with os.wait4, and medians.
The CLI runs one thread on files the page cache holds, so CPU time is its
wall time less the time the host took the virtual CPU away (steal time).
On a shared 2-vCPU VM the host also slows the CPU by up to 1.5x in phases
of seconds to minutes, which no choice of clock removes. Over ten seeds
per workload, the quartile spread of the per-run fastest sample was 8 to
17 per cent of its median, that of the per-run median 4 to 10 per cent.
In a period with more steal time, CPU medians spread 8 per cent where
wall medians spread 12 (classify-sparse, 5 seeds). Wall times of every
run are kept in the result file.

An item fails when its output row is an ERROR row, disagrees with the
independent oracle, or differs from the first run with the same seed; an
unexpected exit code fails every item of that run. The failed share is
reported as ok_ratio = 1 - failed_ratio because a metric must not be 0
when all is well; failed_ratio itself is in the result file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import gen
import oracle
import spans
from workloads import WORKLOADS, failed_items

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

MIN_RUNS = 3           # CLI runs per measurement, even past --seconds
SETUPS_PER_RUN = 2     # set-up children timed before each CLI run
CHILD_TIMEOUT_S = 150  # a child still running after this is killed
POOL_N = 300           # classify-dense spectra for the 2-worker/serial ratio


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def log(msg: str) -> None:
    print(f"[bench] {msg}", file=sys.stderr, flush=True)


def machine() -> dict:
    model = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    return {"python": sys.version, "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, "platform": platform.platform()}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "SPECTRACLASS"))}
    env["PYTHONPATH"] = str(SRC)
    return env


def launch(argv, tag: str, env: dict):
    """Run ``argv`` through the launcher; returns (wall s, exit code, peak RSS KiB, stdout, CPU s)."""
    out, err = WORK / f"{tag}.stdout", WORK / f"{tag}.stderr"
    cmd = [sys.executable, "-I", "-S", str(BENCH / "launcher.py"), str(out), str(err), *argv]
    p = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                         text=True, start_new_session=True)
    try:
        report, _ = p.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        raise BenchError(f"{argv[1:3]} did not finish in {CHILD_TIMEOUT_S} s") from None
    if p.returncode != 0:
        raise BenchError(f"launcher failed for {argv[1:3]}")
    ns, code, rss, cpu_ns = (int(x) for x in report.split())
    return ns / 1e9, code, rss, out.read_bytes(), cpu_ns / 1e9


def reset_out(wl) -> None:
    shutil.rmtree(wl.out, ignore_errors=True)
    wl.out.mkdir(parents=True)


def measure_cli(wl, seconds: float) -> dict:
    env = child_env()
    if wl.rules is None:
        setup_argv = [sys.executable, "-c", "import spectraclass.cli"]
    else:
        setup_argv = [sys.executable, "-c",
                      f"import spectraclass.cli as c; c.load_rules({wl.rules!r})"]
    cli_argv = [sys.executable, "-m", "spectraclass", *wl.argv()]

    def setup_once():
        wall, code, _, _, cpu = launch(setup_argv, "setup", env)
        if code != 0:
            err = (WORK / "setup.stderr").read_text(errors="replace").strip()
            raise BenchError(f"set-up child exited {code}: {err[-500:]}")
        return {"wall_s": wall, "cpu_s": cpu}

    setup_once()  # compiles bytecode into src/ once, as an installed package has it
    setup, runs = [], []
    attempted = failed = 0
    first = None
    t_end = time.monotonic() + seconds
    while len(runs) < MIN_RUNS or time.monotonic() < t_end:
        setup += [setup_once() for _ in range(SETUPS_PER_RUN)]
        reset_out(wl)
        load_before = os.getloadavg()
        wall, code, rss, stdout, cpu = launch(cli_argv, "cli", env)
        load_after = os.getloadavg()
        files = wl.read_outputs(stdout)
        bad = failed_items(wl, code, files, first)
        if first is None and code == 0:
            first = (files, bad)
        attempted += wl.n_items
        failed += len(bad)
        runs.append({"wall_s": wall, "cpu_s": cpu, "exit": code, "peak_rss_kib": rss,
                     "failed": len(bad), "loadavg_before": load_before, "loadavg_after": load_after})
        log(f"run {len(runs)}: {cpu:.3f} s CPU, {wall:.3f} s wall, exit {code}, {rss} KiB, "
            f"{len(bad)} failed")
    cpu_s = statistics.median(r["cpu_s"] for r in runs)
    setup_s = statistics.median(r["cpu_s"] for r in setup)
    metrics = {
        "cpu_s": (cpu_s, "s"),
        "items_per_s": (wl.n_items / (cpu_s - setup_s), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (statistics.median(r["peak_rss_kib"] for r in runs) / 1024, "MiB"),
        "ok_ratio": (1 - failed / attempted, "ratio"),
    }
    details = {"runs": runs, "setup_samples": setup, "failed_ratio": failed / attempted,
               "wall_median_s": statistics.median(r["wall_s"] for r in runs),
               "setup_wall_median_s": statistics.median(r["wall_s"] for r in setup)}
    if hasattr(wl, "bins_count_over_n"):
        details["stats.bins_count_over_n"] = wl.bins_count_over_n
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "details": details}


# ---------------------------------------------------------------------------
# Traced in-process run

def import_package():
    sys.path.insert(0, str(SRC))
    import spectraclass
    from spectraclass import classify, cli, fuzzy, pixmap, spatial, stats
    if Path(spectraclass.__file__).resolve().parent != SRC / "spectraclass":
        raise BenchError(f"imported spectraclass from {spectraclass.__file__}, not {SRC}")
    return SimpleNamespace(cli=cli, classify=classify, fuzzy=fuzzy, pixmap=pixmap,
                           spatial=spatial, stats=stats)


def in_process(sc, wl, tracer):
    """One cli.main() pass; returns (exit code, output files)."""
    reset_out(wl)
    stdout = WORK / "inproc.stdout"
    with open(stdout, "w", encoding="utf-8") as so, open(WORK / "inproc.stderr", "w") as se, \
            contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
        try:
            code = tracer.call("cli.main", sc.cli.main, (wl.argv(),), {})
        except Exception:  # a crash fails every item of the pass; keep measuring
            traceback.print_exc(file=sys.__stderr__)
            code = -1
    return code, wl.read_outputs(stdout.read_bytes())


def pool_ratio(sc, paths, expected):
    """classify_batch time with 2 workers over 1 worker, and the failed items."""
    rb = sc.cli.builtin_basalt()
    times = {1: 0.0, 2: 0.0}
    failed = set()
    for workers in (1, 2, 2, 1):
        t0 = time.perf_counter()
        results = sc.classify.classify_batch(paths, rb, workers=workers)
        times[workers] += time.perf_counter() - t0
        failed |= oracle.check_batch_results(results, expected)
    return times[2] / times[1], failed


def measure_traced(wl, seed: int, seconds: float) -> dict:
    sc = import_package()
    pool = gen.write_spectra(WORK / "pool", gen.spectra(seed, "dense", POOL_N, 1000))
    pool_paths = [str(path) for path, _, _ in pool]
    pool_expected = [(path.stem, values) for path, _, values in pool]
    cycles, tracers = [], []
    attempted = failed = 0
    first = None

    def one_pass(run_id, traced):
        nonlocal attempted, failed, first
        tracer = spans.Tracer(run_id, math.inf if traced else 1)
        with spans.Instrumented(sc, tracer, top_only=not traced):
            code, files = in_process(sc, wl, tracer)
        bad = failed_items(wl, code, files, first)
        if first is None and code == 0:
            first = (files, bad)
        for results in tracer.batches:
            bad |= oracle.check_batch_results(results, wl.expected)
        attempted += wl.n_items
        failed += len(bad)
        return tracer

    one_pass(f"{wl.name}-{seed}-warmup", False)  # first-call costs land in no measured pass
    t_end = time.monotonic() + seconds
    while not cycles or time.monotonic() < t_end:
        passes = {}
        for traced in ((False, True) if len(cycles) % 2 == 0 else (True, False)):
            kind = "traced" if traced else "untraced"
            passes[kind] = one_pass(f"{wl.name}-{seed}-{kind}{len(cycles)}", traced)
            tracers.append(passes[kind])
        ratio, pool_bad = pool_ratio(sc, pool_paths, pool_expected)
        attempted += 4 * POOL_N
        failed += len(pool_bad)
        traced, untraced = passes["traced"], passes["untraced"]
        main_ns = untraced.end[0] - untraced.start[0]
        m = spans.layer_metrics(traced)
        results = [r for batch in traced.batches for r in batch if r.error is None]
        m["classify.unk_ratio"] = (sum(r.classification.label == oracle.UNK for r in results)
                                   / len(results) if results else 0.0)
        m["classify.pool2_over_serial"] = ratio
        m["cli.glue_s"] = (main_ns - spans.top_level_ns(untraced)) / 1e9
        m["trace.overhead_ratio"] = (traced.end[0] - traced.start[0]) / main_ns
        cycles.append(m)
        log(f"cycle {len(cycles)}: overhead {m['trace.overhead_ratio']:.3f}, pool {ratio:.3f}")
    spans_path = OUT / f"spans-{wl.name}.tsv"
    with open(spans_path, "w", encoding="utf-8") as f:
        f.write("run_id\tspan_id\tparent\tname\tstart_ns\tend_ns\n")
        for tracer in tracers:
            tracer.write(f)
    metrics = {name: (statistics.median(c[name] for c in cycles), _unit(name)) for name in cycles[0]}
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "details": {"cycles": cycles, "spans_file": str(spans_path.relative_to(ROOT))}}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ns_per_peak"):
        return "ns"
    if name.endswith(("_ratio", "_over_serial")):
        return "ratio"
    if name.endswith(("bytes_in", "bytes_out")):
        return "B"
    return "count"


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    for needed in ("__init__.py", "__main__.py", "cli.py"):
        if not (SRC / "spectraclass" / needed).is_file():
            log(f"no spectraclass sources at {SRC / 'spectraclass'}")
            return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    OUT.mkdir(exist_ok=True)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine(), "loadavg_start": os.getloadavg()}
    try:
        t0 = time.perf_counter()
        wl = WORKLOADS[args.workload](args.seed, WORK)
        info["generate_s"] = time.perf_counter() - t0
        info["planted_kinds"] = dict(wl.kinds)
        info["label_mix"] = wl.label_mix()
        log(f"{wl.name}: {wl.n_items} items generated in {info['generate_s']:.1f} s")
        if args.trace:
            res = measure_traced(wl, args.seed, args.seconds)
        else:
            res = measure_cli(wl, args.seconds)
    except BenchError as exc:
        log(f"error: {exc}")
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    info["loadavg_end"] = os.getloadavg()
    info.update(res)
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }
    info["result"] = result
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(info, indent=1, default=str) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
