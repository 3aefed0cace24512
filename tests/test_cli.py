import contextlib
import csv
import errno
import io
import json
import os
import random
import stat
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import spectrum_csv
from spectraclass import classify, cli, files, rulebase, spectrum, stats
from spectraclass.cli import EX_FATAL, EX_OK, EX_PARTIAL, EX_USAGE, load_rules, main
from spectraclass.rulebase import builtin_basalt, serialize_rulebase
from spectraclass.stats import peak_list

FIXTURES = {
    "agt": {"Ca": 80, "Fe": 30},
    "plg": {"Al": 20},
    "ilm": {"Ti": 20, "Fe": 50, "Al": 0.2},
    "olv": {"Mg": 60, "Fe": 45, "Ti": 0.5, "Al": 0.3},
}


@pytest.fixture
def spectra_dir(tmp_path):
    d = tmp_path / "spectra"
    d.mkdir()
    for name, abunds in FIXTURES.items():
        (d / f"{name}.csv").write_text(spectrum_csv(abunds))
    return d


# A rule file whose one term has l == h.
BAD_THRESHOLDS = ('rulebase "x"\nion Fe = 55.954\n'
                  'class X "x" {\n  term fe = high ( Fe , l = 5 , h = 5 )\n  expr = fe\n}\n')
# A rule file whose one term's span h - l overflows to inf.
SPAN_OVERFLOWS = BAD_THRESHOLDS.replace("l = 5 , h = 5", "l = -1e308 , h = 1.5e308")

# The K peak 418.9 sits on the lower edge of K's window: 419.0 - 0.1 == 418.9.
K_EDGE_RULES = ('rulebase "k"\noption epsilon = 0.1\noption normalize_excluding = [ K ]\n'
                'ion K = 419.0\nion Fe = 55.954\n'
                'class X "X" {\n  term fe = high ( Fe , l = 10 , h = 90 )\n  expr = fe\n}\n')


def k_edge_files(tmp_path):
    """(spectrum, rules) paths: a Fe peak of 40 and a K peak of 100 on K's window edge."""
    (tmp_path / "d").mkdir()
    spectrum = tmp_path / "d" / "s1.csv"
    spectrum.write_text("55.954,40\n418.9,100\n")
    rules = tmp_path / "k.rules"
    rules.write_text(K_EDGE_RULES)
    return spectrum, rules


def read_csv(path):
    return path.read_text().splitlines()


class TestClassifyCmd:
    def test_basic_run(self, spectra_dir, tmp_path):
        out = tmp_path / "out.csv"
        code = main(["classify", str(spectra_dir / "*.csv"), "--out", str(out)])
        assert code == EX_OK
        lines = read_csv(out)
        assert len(lines) == 5
        labels = {line.split(",")[0]: line.split(",")[3] for line in lines[1:]}
        assert labels == {"agt": "AGT", "plg": "PLG", "ilm": "ILM", "olv": "OLV"}

    def test_partial_failure_exit_2(self, spectra_dir, tmp_path):
        (spectra_dir / "broken.csv").write_text("26.98,abc\n")
        out = tmp_path / "out.csv"
        code = main(["classify", str(spectra_dir / "*.csv"), "--out", str(out)])
        assert code == EX_PARTIAL
        assert any("ERROR" in line for line in read_csv(out))

    def test_nu_override_makes_more_unks(self, spectra_dir, tmp_path):
        # AGT membership 2/3: hard AGT at the default nu, UNK at 0.9
        (spectra_dir / "weak.csv").write_text(spectrum_csv({"Ca": 70, "Fe": 35}))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["classify", str(spectra_dir / "*.csv"), "--out", str(out1)])
        main(["classify", str(spectra_dir / "*.csv"), "--nu", "0.9", "--out", str(out2)])
        unks1 = sum("UNK" in line for line in read_csv(out1))
        unks2 = sum("UNK" in line for line in read_csv(out2))
        assert unks2 > unks1

    def test_peak_on_an_excluded_window_edge_is_excluded(self, tmp_path, capsys):
        # The Fe peak sets the scale (factor 2.5), not the K peak its window sees.
        spectrum, rules = k_edge_files(tmp_path)
        assert main(["classify", str(spectrum), "--rules", str(rules)]) == EX_OK
        assert capsys.readouterr().out.splitlines()[1] == "s1,,,X,1,1"

    def test_id_with_a_comma_quoted(self, spectra_dir, tmp_path):
        # Spot files named by position, as in x12,y40.csv, hold commas.
        d = tmp_path / "in"
        d.mkdir()
        (d / "a,ILM.csv").write_text("26.982,20\n100,100\n")
        (d / "b.csv").write_text(spectrum_csv(FIXTURES["agt"]))
        out = tmp_path / "out.csv"
        assert main(["classify", str(d / "*.csv"), "--out", str(out)]) == EX_OK
        with open(out, encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[1] == ["a,ILM", "", "", "PLG", "1", "0", "0", "1", "0"]
        assert len(rows[0]) == 9

    def test_unreadable_rules_fatal(self, spectra_dir):
        code = main(["classify", str(spectra_dir / "agt.csv"),
                     "--rules", "/nonexistent/rules.txt"])
        assert code == EX_FATAL

    def test_rules_file_equivalent_to_builtin(self, spectra_dir, tmp_path):
        rules = tmp_path / "basalt.rules"
        rules.write_text(serialize_rulebase(builtin_basalt()))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["classify", str(spectra_dir / "*.csv"), "--out", str(out1)])
        main(["classify", str(spectra_dir / "*.csv"), "--rules", str(rules),
              "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_deterministic_across_workers(self, spectra_dir, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["classify", str(spectra_dir / "*.csv"), "--workers", "1", "--out", str(out1)])
        main(["classify", str(spectra_dir / "*.csv"), "--workers", "8", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("content, message", [
        (BAD_THRESHOLDS.encode(), "l must be < h, got l=5.0, h=5.0 (line 4, col 3)"),
        (b"\xff\n", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (SPAN_OVERFLOWS.encode(), "thresholds need a finite span h - l, "
                                  "got l=-1e+308, h=1.5e+308 (line 4, col 3)"),
    ], ids=["l-equals-h", "not-utf-8", "span-overflows"])
    def test_bad_rules_file_named(self, spectra_dir, tmp_path, capsys, content, message):
        bad = tmp_path / "bad.rules"
        bad.write_bytes(content)
        assert main(["classify", str(spectra_dir / "agt.csv"), "--rules", str(bad)]) == EX_FATAL
        assert capsys.readouterr().err == f"spectraclass: error: {bad}: {message}\n"

    @pytest.mark.parametrize("flag", ["--epsilon", "--nu"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_override_fatal(self, spectra_dir, capsys, flag, value):
        code = main(["classify", str(spectra_dir / "agt.csv"), flag, value])
        assert code == EX_FATAL
        assert flag[2:] in capsys.readouterr().err


def non_utf8_file(root, name: bytes):
    """Write a spectrum to ``root``/``name`` and its directory; skip where the filesystem refuses the name."""
    path = os.path.join(os.fsencode(root), name)
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(spectrum_csv(FIXTURES["plg"]))
    except (OSError, UnicodeError):
        pytest.skip("the filesystem refuses a file name that is not UTF-8")


def strict_stdout_run(*argv):
    """The CLI run in a child process whose stdout is strict UTF-8, as in most UTF-8 locales."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": "utf-8:strict"}
    return subprocess.run([sys.executable, "-m", "spectraclass", *argv], capture_output=True, env=env, timeout=60)


class TestClassifyStreaming:
    def test_out_writes_a_non_utf8_file_name_as_stdout_does(self, tmp_path):
        # The name decodes to a lone surrogate; --out writes it back as the raw byte, as stdout
        # does, even where stdout is strict.
        non_utf8_file(tmp_path, b"lat\xe9.csv")
        pattern, out = str(tmp_path / "lat*.csv"), tmp_path / "o.csv"
        assert main(["classify", pattern, "--out", str(out)]) == EX_OK
        child = strict_stdout_run("classify", pattern)
        assert child.returncode == EX_OK, child.stderr
        assert out.read_bytes() == child.stdout
        assert out.read_bytes().splitlines()[1].startswith(b"lat\xe9,,,PLG,")

    def test_error_line_names_the_path(self, tmp_path, monkeypatch, capsys):
        # Two files share the stem x; the batch CSV ids stay stems, since map reads them.
        monkeypatch.chdir(tmp_path)
        for d, text in (("a", spectrum_csv(FIXTURES["agt"])), ("b", "10,abc\n")):
            (tmp_path / "t" / d).mkdir(parents=True)
            (tmp_path / "t" / d / "x.csv").write_text(text)
        assert main(["classify", "t/a/x.csv", "t/b/x.csv"]) == EX_PARTIAL
        captured = capsys.readouterr()
        assert [row[:4] for row in csv.reader(io.StringIO(captured.out))][1:] == \
            [["x", "", "", "AGT"], ["x", "", "", "ERROR"]]
        assert captured.err == ("ILM: 0  AGT: 1  PLG: 0  OLV: 0  UNK: 0  errors: 1\n"
                                "error: t/b/x.csv: non-numeric field in '10,abc' (line 1)\n")

    @pytest.mark.parametrize("path, message", [
        ("./missing.csv", "[Errno 2] No such file or directory: 'missing.csv'"),
        ("d//missing.csv", "[Errno 2] No such file or directory: 'd/missing.csv'"),
        ("d", "[Errno 21] Is a directory: 'd'"),
        ("./d/", "[Errno 21] Is a directory: 'd'"),
        ("", "[Errno 21] Is a directory: '.'"),
    ])
    def test_os_error_text_as_pathlib_gives_it(self, tmp_path, monkeypatch, capsys, path, message):
        # Files are opened by the name given; the message names the file as Path names it.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        with pytest.raises(OSError) as read_error:
            Path(path).read_text(encoding="utf-8")
        assert str(read_error.value) == message
        assert main(["classify", path]) == EX_PARTIAL
        assert capsys.readouterr().err.splitlines()[1:] == [f"error: {path}: {message}"]

    def test_peak_does_not_grow_with_the_batch(self, tmp_path):
        # Rows are written as they are classified; only the input path lists grow.
        peaks = classify_peaks(tmp_path)
        assert (peaks[1] - peaks[0]) / 750 < 100, peaks

    def test_peak_does_not_grow_with_the_batch_on_two_workers(self, tmp_path):
        # The pool is handed a fixed number of files at a time, so it holds that many results.
        peaks = classify_peaks(tmp_path, "--workers", "2")
        assert (peaks[1] - peaks[0]) / 750 < 100, peaks

    def test_interrupted_run_leaves_the_old_out(self, spectra_dir, tmp_path, monkeypatch):
        compile_rules = classify.compile_rules

        def interrupting(rb):
            classify_spectrum = compile_rules(rb)
            calls = []

            def on_the_third_spectrum(s, factor=None):
                calls.append(s.id)
                if len(calls) == 3:
                    raise KeyboardInterrupt
                return classify_spectrum(s, factor)
            return on_the_third_spectrum

        monkeypatch.setattr(classify, "compile_rules", interrupting)
        out = tmp_path / "o" / "batch.csv"
        out.parent.mkdir()
        out.write_bytes(b"old\r\n")
        with pytest.raises(KeyboardInterrupt):
            main(["classify", str(spectra_dir / "*.csv"), "--out", str(out)])
        assert list(out.parent.iterdir()) == [out]  # no .batch.csv.part
        assert out.read_bytes() == b"old\r\n"

    def test_out_naming_a_directory_fatal(self, spectra_dir, tmp_path, capsys):
        out = tmp_path / "o"
        out.mkdir()
        assert main(["classify", str(spectra_dir / "*.csv"), "--out", str(out)]) == EX_FATAL
        assert capsys.readouterr() == ("", f"spectraclass: error: [Errno 21] Is a directory: '{out}'\n")
        assert list(out.iterdir()) == []

    def test_out_through_a_symlink(self, spectra_dir, tmp_path, capsys):
        link, real = symlinked_out(tmp_path, "batch.csv")
        for out in (tmp_path / "plain.csv", link):
            assert main(["classify", str(spectra_dir / "*.csv"), "--out", str(out)]) == EX_OK
        assert_written_through(link, real, (tmp_path / "plain.csv").read_bytes())

    def test_same_bytes_with_and_without_out_for_any_workers(self, spectra_dir, tmp_path, capsys):
        (spectra_dir / "broken.csv").write_text("26.98,abc\n")
        (spectra_dir / "empty.csv").write_text("")
        pattern = str(spectra_dir / "*.csv")
        runs = {}
        for workers in ("1", "2"):
            out = tmp_path / f"batch{workers}.csv"
            code = main(["classify", pattern, "--workers", workers])
            captured = capsys.readouterr()
            runs[workers, "stdout"] = (code, captured.out, captured.err)
            code = main(["classify", pattern, "--workers", workers, "--out", str(out)])
            captured = capsys.readouterr()
            runs[workers, "out"] = (code, out.read_text(), captured.out + captured.err)
        assert len(set(runs.values())) == 1, runs
        code, batch, messages = runs["1", "out"]
        assert code == EX_PARTIAL
        assert [row[:4] for row in csv.reader(io.StringIO(batch))] == [
            ["id", "x", "y", "label"], ["agt", "", "", "AGT"], ["broken", "", "", "ERROR"],
            ["empty", "", "", "ERROR"], ["ilm", "", "", "ILM"], ["olv", "", "", "OLV"],
            ["plg", "", "", "PLG"]]
        assert messages == (
            "ILM: 1  AGT: 1  PLG: 1  OLV: 1  UNK: 0  errors: 2\n"
            f"error: {spectra_dir}/broken.csv: non-numeric field in '26.98,abc' (line 1)\n"
            f"error: {spectra_dir}/empty.csv: {runs_error(spectra_dir / 'empty.csv')}\n")


def symlinked_out(tmp_path, name):
    """``(link, file)``: ``o/<name>``, a relative symlink to the file ``real`` beside ``o``.

    The file holds old bytes at mode 0o640, not the mode a new file gets.
    """
    real = tmp_path / "real"
    real.write_bytes(b"old\r\n")
    real.chmod(0o640)
    link = tmp_path / "o" / name
    link.parent.mkdir(exist_ok=True)
    link.symlink_to(os.path.join("..", "real"))
    return link, real


def assert_written_through(link, real, expected):
    """``link`` still links to ``real``, which now holds ``expected`` at its old mode; no copy is left staged."""
    assert link.is_symlink() and os.readlink(link) == os.path.join("..", "real")
    assert real.read_bytes() == expected
    assert stat.S_IMODE(real.stat().st_mode) == 0o640
    assert list(real.parent.glob("**/.*.part")) == []


# Run in a fresh interpreter: main(warm) untraced, then main(argv) under
# tracemalloc; prints both exit codes and the traced peak as JSON.
PEAK_CHILD = """
import json, os, sys, tracemalloc
from spectraclass.cli import main
warm, argv = json.load(sys.stdin)
with open(os.devnull, "w") as sys.stdout:
    codes = [main(warm)]
    tracemalloc.start()
    codes.append(main(argv))
    peak = tracemalloc.get_traced_memory()[1]
sys.__stdout__.write(json.dumps([codes, peak]))
"""


def cli_peaks(warm, runs):
    """The tracemalloc peak of ``main(argv)`` for each argv in ``runs``, each in a fresh interpreter.

    Each child first runs ``main(warm)`` untraced, so that imports and
    lazy set-up are done, and no earlier test's leftovers in this process
    can move a peak. Every run must exit 0.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != cli.RULES_ENV}
    env["PYTHONPATH"] = src
    peaks = []
    for argv in runs:
        child = subprocess.run([sys.executable, "-c", PEAK_CHILD], input=json.dumps([warm, argv]),
                               capture_output=True, text=True, env=env, timeout=300)
        assert child.returncode == 0, child.stderr
        codes, peak = json.loads(child.stdout)
        assert codes == [EX_OK, EX_OK], (argv[:2], child.stderr)
        peaks.append(peak)
    return peaks


def classify_peaks(tmp_path, *options):
    """The tracemalloc peaks of `classify --out` over 250 and 1,000 spectra, with ``options``.

    Spectra have 30 peaks, as on classify-sparse: a freed tuple of fewer
    than 20 points stays on the interpreter's free list, which tracemalloc counts.
    """
    rng = random.Random(0)
    d = tmp_path / "in"
    d.mkdir()
    paths = []
    for i in range(1000):
        paths.append(str(d / f"s{i:04}.csv"))
        Path(paths[-1]).write_text("".join(
            f"{10 + 5 * k + rng.uniform(-1, 1)!r},{rng.uniform(1, 100)!r}\n" for k in range(30)))
    out = str(tmp_path / "batch.csv")
    return cli_peaks(["classify", *paths[:10], *options, "--out", out],
                     [["classify", *paths[:n], *options, "--out", out] for n in (250, 1000)])


def runs_error(path):
    """The error message a batch gives the file ``path``."""
    (result,) = classify.classify_batch([path], builtin_basalt())
    return result.error


class TestLoadRules:
    @pytest.mark.parametrize("spec", ["builtin:basalt", "file"])
    def test_validated_once_without_overrides(self, tmp_path, monkeypatch, spec):
        if spec == "file":
            spec = tmp_path / "basalt.rules"
            spec.write_text(serialize_rulebase(builtin_basalt()))
        # The parser is the one validation pass: loading never walks the rule base again.
        calls = []
        validate = rulebase.validate
        monkeypatch.setattr(rulebase, "validate", lambda rb: calls.append(rb) or validate(rb))
        load_rules(str(spec))
        assert calls == []


class TestStatsCmd:
    def test_group_by_label(self, spectra_dir, tmp_path, capsys):
        out = tmp_path / "reports"
        code = main(["stats", str(spectra_dir / "*.csv"), "--out", str(out)])
        assert code == EX_OK
        assert (out / "AGT_report.csv").exists()
        captured = capsys.readouterr()
        assert "vs ensemble" in captured.out

    def test_non_utf8_group_name_on_a_strict_stdout(self, tmp_path):
        non_utf8_file(tmp_path, b"lat\xe9/s.csv")
        child = strict_stdout_run("stats", str(tmp_path / "lat*" / "*.csv"), "--group-by", "directory")
        assert child.returncode == EX_OK, child.stderr
        assert child.stdout.startswith(b"== lat\xe9 (1 spectra) vs ensemble (1) ==\n")

    def test_group_by_directory(self, spectra_dir, tmp_path):
        out = tmp_path / "reports"
        code = main(["stats", str(spectra_dir / "*.csv"),
                     "--group-by", "directory", "--out", str(out)])
        assert code == EX_OK
        assert (out / "spectra_report.csv").exists()

    def test_peak_on_an_excluded_window_edge_is_excluded(self, tmp_path):
        spectrum, rules = k_edge_files(tmp_path)
        out = tmp_path / "reports"
        assert main(["stats", str(spectrum), "--rules", str(rules),
                     "--group-by", "directory", "--out", str(out)]) == EX_OK
        # Both abundances scaled by 100 / 40 = 2.5.
        assert read_csv(out / "d_report.csv")[1:] == ["55.954,100,100,1,1,1,-",
                                                      "418.9,250,250,1,1,1,-"]

    def test_no_matching_inputs_fatal(self, tmp_path):
        code = main(["stats", str(tmp_path / "none" / "*.csv")])
        assert code == EX_FATAL

    def test_bad_file_named_fatal(self, spectra_dir, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("55.954,nan\n")
        code = main(["stats", str(spectra_dir / "agt.csv"), str(bad)])
        assert code == EX_FATAL
        assert capsys.readouterr().err == \
            f"spectraclass: error: {bad}: non-finite abundance on line 1\n"

    @pytest.mark.parametrize("group_by", ["label", "directory"])
    def test_unnormalizable_file_named_fatal(self, spectra_dir, tmp_path, capsys, group_by):
        bad = tmp_path / "zero.csv"
        bad.write_text("55.954,0\n")
        code = main(["stats", str(spectra_dir / "agt.csv"), str(bad), "--group-by", group_by])
        assert code == EX_FATAL
        assert capsys.readouterr().err == \
            f"spectraclass: error: {bad}: all non-excluded abundances are zero\n"

    @pytest.mark.parametrize("group_by", ["label", "directory"])
    def test_each_file_consolidated_once(self, spectra_dir, monkeypatch, capsys, group_by):
        calls = []

        def counting_peak_list(s, eps, factor):
            calls.append(s.id)
            return peak_list(s, eps, factor)

        monkeypatch.setattr(stats, "peak_list", counting_peak_list)
        assert main(["stats", str(spectra_dir / "*.csv"), "--group-by", group_by]) == EX_OK
        assert sorted(calls) == sorted(FIXTURES)

    @pytest.mark.parametrize("group_by", ["label", "directory"])
    def test_one_scale_factor_per_file(self, spectra_dir, monkeypatch, capsys, group_by):
        calls = []
        scale_factor = spectrum.scale_factor

        def counting_scale_factor(s, *args):
            calls.append(s.id)
            return scale_factor(s, *args)

        for module in (spectrum, classify, cli):  # wherever it is looked up
            monkeypatch.setattr(module, "scale_factor", counting_scale_factor, raising=False)
        assert main(["stats", str(spectra_dir / "*.csv"), "--group-by", group_by]) == EX_OK
        assert sorted(calls) == sorted(FIXTURES)

    def test_group_by_label_is_the_classify_label(self, tmp_path, capsys):
        # 370.585 * (100 / 370.585) is not 100, so labelling the normalized
        # spectrum would normalize twice and lift mu_X from just below nu to nu.
        spectrum = tmp_path / "s1.csv"
        spectrum.write_text("10,370.585\n55.954,224.2\n")
        rules = tmp_path / "x.rules"
        rules.write_text('rulebase "x"\noption nu = 0.6049894086376946\nion Fe = 55.954\n'
                         'class X "X" { term fe = high ( Fe , l = 0 , h = 100 ) expr = fe }\n')
        assert main(["classify", str(spectrum), "--rules", str(rules)]) == EX_OK
        assert capsys.readouterr().out.splitlines()[1].startswith("s1,,,UNK,")
        assert main(["stats", str(spectrum), "--rules", str(rules)]) == EX_OK
        assert capsys.readouterr().out.startswith("== UNK (1 spectra) vs ensemble (1) ==\n")

    def test_directories_sharing_a_name_fatal(self, tmp_path, capsys):
        for run, name in (("r1", "agt"), ("r2", "plg")):
            d = tmp_path / run / "area0"
            d.mkdir(parents=True)
            (d / f"{name}.csv").write_text(spectrum_csv(FIXTURES[name]))
        out = tmp_path / "reports"
        code = main(["stats", str(tmp_path / "r*" / "area0" / "*.csv"),
                     "--group-by", "directory", "--out", str(out)])
        assert code == EX_FATAL
        assert capsys.readouterr().err == (
            f"spectraclass: error: directories {str(tmp_path / 'r1' / 'area0')!r} and "
            f"{str(tmp_path / 'r2' / 'area0')!r} share the group name 'area0'\n")
        assert not out.exists()

    def test_one_directory_named_two_ways_is_one_group(self, spectra_dir, tmp_path,
                                                      monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["stats", "spectra/agt.csv", str(spectra_dir / "plg.csv"),
                     "--group-by", "directory"])
        assert code == EX_OK
        assert "== spectra (2 spectra) vs ensemble (2) ==" in capsys.readouterr().out

    @pytest.mark.parametrize("cwd, inputs", [
        ("spectra", ["agt.csv", "plg.csv"]),
        ("spectra/sub", ["../agt.csv", "../plg.csv"]),
    ])
    def test_group_named_after_the_current_directory(self, spectra_dir, tmp_path,
                                                     monkeypatch, capsys, cwd, inputs):
        (tmp_path / cwd).mkdir(exist_ok=True)
        monkeypatch.chdir(tmp_path / cwd)
        out = tmp_path / "reports"
        code = main(["stats", *inputs, "--group-by", "directory", "--out", str(out)])
        assert code == EX_OK
        assert sorted(p.name for p in out.iterdir()) == ["spectra_report.csv"]
        assert "== spectra (2 spectra) vs ensemble (2) ==" in capsys.readouterr().out

    @pytest.mark.parametrize("taken", ["a", "b"])
    def test_out_all_or_nothing(self, tmp_path, capsys, taken):
        # Every group's histogram is printed before any report is written.
        for group, name in (("a", "x"), ("b", "y")):
            (tmp_path / "in" / group).mkdir(parents=True)
            (tmp_path / "in" / group / f"{name}.csv").write_text("10,5\n55.954,40\n")
        rep = tmp_path / "rep"
        old = "b" if taken == "a" else "a"
        (rep / f"{taken}_report.csv").mkdir(parents=True)
        (rep / f"{old}_report.csv").write_bytes(b"old\r\n")
        code = main(["stats", str(tmp_path / "in" / "*" / "*.csv"),
                     "--group-by", "directory", "--out", str(rep)])
        assert code == EX_FATAL
        captured = capsys.readouterr()
        assert captured.err == \
            f"spectraclass: error: [Errno 21] Is a directory: '{rep}/{taken}_report.csv'\n"
        assert [line for line in captured.out.splitlines() if line.startswith("==")] == \
            ["== a (1 spectra) vs ensemble (2) ==", "== b (1 spectra) vs ensemble (2) =="]
        assert sorted(p.name for p in rep.iterdir()) == ["a_report.csv", "b_report.csv"]
        assert (rep / f"{old}_report.csv").read_bytes() == b"old\r\n"

    def test_out_through_a_symlink(self, spectra_dir, tmp_path, capsys):
        link, real = symlinked_out(tmp_path, "spectra_report.csv")
        for out in (tmp_path / "plain", link.parent):
            argv = ["stats", str(spectra_dir / "*.csv"), "--group-by", "directory", "--out", str(out)]
            assert main(argv) == EX_OK
        assert_written_through(link, real, (tmp_path / "plain" / "spectra_report.csv").read_bytes())

    def test_out_a_dangling_symlink(self, spectra_dir, tmp_path, capsys):
        link = tmp_path / "rep"
        link.symlink_to(os.path.join("gone", "reports"))
        argv = ["stats", str(spectra_dir / "*.csv"), "--group-by", "directory", "--out", str(link)]
        assert main(argv) == EX_OK
        assert link.is_symlink()
        assert [p.name for p in (tmp_path / "gone" / "reports").iterdir()] == ["spectra_report.csv"]

    def test_peak_grows_by_the_peak_columns(self, tmp_path, capsys):
        # A consolidated peak is held as 16 bytes of float columns; only one
        # sweep step's peaks at a time become (mz, abundance) pairs of about 112.
        n_dirs, n_peaks = 8, 250
        peaks = []
        for k, per_dir in enumerate((10, 20)):
            inputs = stats_corpus(tmp_path / str(k), n_dirs, per_dir, n_peaks)
            argv = ["stats", str(inputs), "--group-by", "directory"]
            if not k:
                assert main(argv) == EX_OK
            capsys.readouterr()
            tracemalloc.start()
            try:
                assert main(argv) == EX_OK
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        extra_peaks = n_dirs * 10 * n_peaks
        assert (peaks[1] - peaks[0]) / extra_peaks < 48, peaks

    @pytest.mark.parametrize("group_by", ["directory", "label"])
    def test_peak_does_not_grow_with_the_largest_group(self, tmp_path, group_by):
        # One directory of 40 and of 160 spectra. Only one sweep step's
        # peaks, about 32 a spectrum, are pairs at a time, however the
        # spectra split into groups; a group's pairs would add about 150 B a peak.
        n_peaks = 250
        inputs = [str(stats_corpus(tmp_path / str(n), 1, n, n_peaks)) for n in (40, 160)]
        peaks = cli_peaks(["stats", inputs[0], "--group-by", group_by],
                          [["stats", path, "--group-by", group_by] for path in inputs])
        extra_peaks = 120 * n_peaks
        assert (peaks[1] - peaks[0]) / extra_peaks < 48, peaks


def stats_corpus(root, n_dirs, per_dir, n_peaks, seed=0):
    """The glob of ``n_dirs`` directories of ``per_dir`` spectra with ``n_peaks`` peaks each.

    Peaks are 0.5 apart, so none consolidate, and every spectrum has one
    near each m/z of the same grid, so the bins do not grow with per_dir.
    """
    rng = random.Random(seed)
    for d in range(n_dirs):
        (root / f"d{d}").mkdir(parents=True)
        for i in range(per_dir):
            rows = [f"{20 + 0.5 * k + rng.uniform(-0.01, 0.01)!r},{rng.uniform(1, 100)!r}\n"
                    for k in range(n_peaks)]
            (root / f"d{d}" / f"s{i}.csv").write_text("".join(rows))
    return root / "*" / "*.csv"


GRID = """\
# topology: rectangular
# rows: 3
# cols: 3
id,x,y,label,confidence,mu_ILM,mu_AGT,mu_PLG,mu_OLV
{rows}
"""


def grid_file(tmp_path, center_agt=0.3, topology="rectangular"):
    rows = []
    for i in range(9):
        agt = center_agt if i == 4 else 0.9
        rows.append(f"s{i},{i % 3},{i // 3},X,0,0,{agt},0,0")
    text = GRID.format(rows="\n".join(rows)).replace("rectangular", topology)
    p = tmp_path / "grid.csv"
    p.write_text(text)
    return p


class TestMapCmd:
    def test_center_unk_filled(self, tmp_path):
        grid = grid_file(tmp_path)
        out = tmp_path / "maps"
        code = main(["map", str(grid), "--out", str(out)])
        assert code == EX_OK
        pre = (out / "pre.csv").read_text()
        post = (out / "post.csv").read_text()
        assert "UNK" in pre
        assert "UNK" not in post
        # post pixmap has no black (UNK) pixel
        ppm = (out / "post.ppm").read_bytes()
        header_end = ppm.index(b"255\n") + 4
        pixels = ppm[header_end:]
        assert b"\x00\x00\x00" not in pixels
        assert (out / "mu_AGT.ppm").exists()

    def test_all_confident_noop(self, tmp_path):
        grid = grid_file(tmp_path, center_agt=0.9)
        out = tmp_path / "maps"
        main(["map", str(grid), "--out", str(out)])
        assert (out / "pre.csv").read_text().replace("false", "") == \
               (out / "post.csv").read_text().replace("false", "")

    def test_hex_differs_from_rect_on_same_values(self, tmp_path):
        import random
        rng = random.Random(2)
        rows = []
        for i in range(16):
            mus = [f"{rng.random() * 0.45:.4f}" for _ in range(4)]
            rows.append(f"s{i},{i % 4},{i // 4},X,0," + ",".join(mus))
        body = "\n".join(rows)
        head = ("# rows: 4\n# cols: 4\nid,x,y,label,confidence,"
                "mu_ILM,mu_AGT,mu_PLG,mu_OLV\n")
        rect = tmp_path / "rect.csv"
        rect.write_text("# topology: rectangular\n" + head + body)
        hexf = tmp_path / "hex.csv"
        hexf.write_text("# topology: hexagonal\n" + head + body)
        main(["map", str(rect), "--out", str(tmp_path / "r")])
        main(["map", str(hexf), "--out", str(tmp_path / "h")])
        assert (tmp_path / "r" / "post.csv").read_text() != \
               (tmp_path / "h" / "post.csv").read_text()

    def test_missing_topology_header_fatal(self, tmp_path):
        grid = grid_file(tmp_path)
        grid.write_text(grid.read_text().replace("# topology: rectangular\n", ""))
        assert main(["map", str(grid), "--out", str(tmp_path / "m")]) == EX_FATAL

    def test_byte_identical_reruns(self, tmp_path):
        grid = grid_file(tmp_path)
        main(["map", str(grid), "--out", str(tmp_path / "m1")])
        main(["map", str(grid), "--out", str(tmp_path / "m2")])
        for name in ("pre.csv", "post.csv", "pre.ppm", "post.ppm", "mu_AGT.ppm"):
            assert (tmp_path / "m1" / name).read_bytes() == \
                   (tmp_path / "m2" / name).read_bytes()

    def test_negative_zero_memberships_pinned(self, tmp_path):
        # Smoothing sums neighbours from an int 0, so every smoothed -0.0 reads 0.
        grid = tmp_path / "grid.csv"
        grid.write_text(GRID.format(rows="\n".join(
            f"s{i},{i % 3},{i // 3},UNK,1,-0,-0.0,-0,-0" for i in range(9))))
        out = tmp_path / "m"
        assert main(["map", str(grid), "--out", str(out)]) == EX_OK
        cells = [(x, y) for y in range(3) for x in range(3)]
        assert (out / "pre.csv").read_bytes() == b"x,y,label,confidence,neighbor_assigned\n" + \
            b"".join(b"%d,%d,UNK,1,false\n" % xy for xy in cells)
        assert (out / "post.csv").read_bytes() == b"x,y,label,confidence,neighbor_assigned\n" + \
            b"".join(b"%d,%d,ILM,0,true\n" % xy for xy in cells)

    def test_palette_file(self, tmp_path):
        grid = grid_file(tmp_path, center_agt=0.9)
        pal = tmp_path / "pal.txt"
        pal.write_text("AGT 255 0 0\n")
        out = tmp_path / "maps"
        main(["map", str(grid), "--palette", str(pal), "--out", str(out)])
        ppm = (out / "post.ppm").read_bytes()
        assert b"\xff\x00\x00" in ppm

    def _fatal(self, argv, capsys, needle):
        assert main(argv) == EX_FATAL
        err = capsys.readouterr().err
        assert err.startswith("spectraclass: error: ") and needle in err

    def test_bad_topology_fatal(self, tmp_path, capsys):
        grid = grid_file(tmp_path, topology="tri")
        self._fatal(["map", str(grid), "--out", str(tmp_path / "m")], capsys, "topology")

    def test_spot_count_mismatch_fatal(self, tmp_path, capsys):
        grid = grid_file(tmp_path)
        grid.write_text(grid.read_text().replace("# rows: 3", "# rows: 4"))
        self._fatal(["map", str(grid), "--out", str(tmp_path / "m")], capsys, "expected 12 spots")

    def test_bad_palette_fatal(self, tmp_path, capsys):
        grid = grid_file(tmp_path)
        pal = tmp_path / "pal.txt"
        pal.write_text("A 300 0 0\n")
        self._fatal(["map", str(grid), "--palette", str(pal), "--out", str(tmp_path / "m")],
                    capsys, "pal.txt: palette line 1")

    @pytest.mark.parametrize("mu", ["7.0", "-0.1", "nan", "inf"])
    def test_membership_outside_unit_interval_fatal(self, tmp_path, capsys, mu):
        grid = grid_file(tmp_path)
        grid.write_text(grid.read_text().replace("s4,1,1,X,0,0,0.3", f"s4,1,1,X,0,0,{mu}"))
        self._fatal(["map", str(grid), "--out", str(tmp_path / "m")], capsys,
                    f"grid.csv: mu_AGT = {float(mu)} is outside [0,1] (line 9)")

    @pytest.mark.parametrize("mu", ["nan", "-0.1", "1.5"])
    @pytest.mark.parametrize("column", ["ILM", "PLG", "OLV"])  # the first, a middle and the last
    def test_membership_outside_unit_interval_named_in_any_column(self, tmp_path, capsys, column, mu):
        values = {"ILM": "0", "AGT": "0.3", "PLG": "0", "OLV": "0", column: mu}
        grid = grid_file(tmp_path)
        grid.write_text(grid.read_text().replace("s4,1,1,X,0,0,0.3,0,0",
                                                 "s4,1,1,X,0," + ",".join(values.values())))
        self._fatal(["map", str(grid), "--out", str(tmp_path / "m")], capsys,
                    f"grid.csv: mu_{column} = {float(mu)} is outside [0,1] (line 9)")

    @pytest.mark.parametrize("agt,olv", [("nan", "1.5"), ("1.5", "nan"), ("-0.1", "-0.1")])
    def test_first_of_two_memberships_outside_unit_interval_named(self, tmp_path, capsys, agt, olv):
        # A min() or max() over the row skips a nan that is not its first value.
        grid = grid_file(tmp_path)
        grid.write_text(grid.read_text().replace("s4,1,1,X,0,0,0.3,0,0", f"s4,1,1,X,0,0,{agt},0,{olv}"))
        self._fatal(["map", str(grid), "--out", str(tmp_path / "m")], capsys,
                    f"grid.csv: mu_AGT = {float(agt)} is outside [0,1] (line 9)")

    def test_unk_column_fatal(self, tmp_path, capsys):
        grid = grid_file(tmp_path)
        grid.write_text(grid.read_text().replace("mu_OLV", "mu_UNK"))
        self._fatal(["map", str(grid), "--out", str(tmp_path / "m")], capsys,
                    "grid.csv: column mu_UNK")

    @pytest.mark.parametrize("nu", ["nan", "inf", "5", "-0.5"])
    def test_nu_outside_unit_interval_fatal(self, tmp_path, capsys, nu):
        grid = grid_file(tmp_path)
        self._fatal(["map", str(grid), "--nu", nu, "--out", str(tmp_path / "m")], capsys,
                    "--nu must be in [0,1]")

    @pytest.mark.parametrize("floor", ["nan", "inf", "-inf"])
    def test_non_finite_floor_fatal(self, tmp_path, capsys, floor):
        grid = grid_file(tmp_path)
        self._fatal(["map", str(grid), f"--floor={floor}", "--out", str(tmp_path / "m")],
                    capsys, f"--floor must be finite, got {float(floor)}")
        assert not (tmp_path / "m").exists()

    def test_repeated_header_fatal(self, tmp_path, capsys):
        # Read as 3 x 2, spot s1 would be neighbour-assigned A; as 2 x 3, B.
        mus = [".9,.1", ".2,.3", ".1,.9", ".9,.1", ".1,.9", ".1,.9"]
        grid = tmp_path / "grid.csv"
        grid.write_text("# topology: rect\n# rows: 2\n# cols: 3\n"
                        + "id,x,y,label,confidence,mu_A,mu_B\n"
                        + "".join(f"s{i},{i % 3},{i // 3},X,0,{mu}\n" for i, mu in enumerate(mus))
                        + "# rows: 3\n# cols: 2\n")
        self._fatal(["map", str(grid), "--out", str(tmp_path / "m")], capsys,
                    "grid.csv: grid header '# rows:' set twice (line 11)")
        assert not (tmp_path / "m").exists()

    def test_empty_header_fatal(self, tmp_path, capsys):
        grid = grid_file(tmp_path)
        grid.write_text(grid.read_text().replace("# cols: 3", "# cols:"))
        self._fatal(["map", str(grid), "--out", str(tmp_path / "m")], capsys,
                    "grid.csv: grid header '# cols:' has no value (line 3)")
        assert not (tmp_path / "m").exists()

    def test_spacing_header_ignored(self, tmp_path):
        grid = grid_file(tmp_path)
        grid.write_text("# spacing: wide\n" + grid.read_text())
        assert main(["map", str(grid), "--out", str(tmp_path / "m")]) == EX_OK

    @pytest.mark.parametrize("rows,cols,data", [
        (-1, -1, "s0,0,0,X,0,0,0.9,0,0"),  # -1 x -1 would be one spot
        (0, 0, ""),
        (0, 3, ""),
        (3, -3, ""),
    ])
    def test_grid_size_below_one_fatal(self, tmp_path, capsys, rows, cols, data):
        grid = tmp_path / "grid.csv"
        grid.write_text(GRID.replace("# rows: 3", f"# rows: {rows}")
                        .replace("# cols: 3", f"# cols: {cols}").format(rows=data))
        self._fatal(["map", str(grid), "--out", str(tmp_path / "m")], capsys,
                    f"grid.csv: rows/cols headers must be at least 1, got {rows} x {cols}")
        assert not (tmp_path / "m").exists()


MALFORMED_GRIDS = {  # the grid file's text from grid_file's -> the error that ends the run
    "field count": (lambda t: t.replace("s4,1,1,X,0,0,0.3,0,0", "s4,1,1,X,0,0,0.3,0,0,7"),
                    "expected 9 fields (line 9)"),
    "non-numeric": (lambda t: t.replace("s4,1,1,X,0,0,0.3", "s4,1,1,X,0,0,abc"),
                    "non-numeric field in grid row (line 9)"),
    "late missing header": (lambda t: t.replace("s4,1,1,X,0,0,0.3", "s4,1,1,X,0,0,abc")
                            .replace("# cols: 3\n", ""), "missing grid header '# cols:'"),
    "mu out of range": (lambda t: t.replace("s4,1,1,X,0,0,0.3", "s4,1,1,X,0,0,1.5"),
                        "mu_AGT = 1.5 is outside [0,1] (line 9)"),
    "no data rows": (lambda t: t[:t.index("id,")], "grid file has no data rows"),
    "no mu columns": (lambda t: t.replace("mu_", "nu_"), "no mu_<CLASS> columns in grid CSV (line 4)"),
    "non-integer rows": (lambda t: t.replace("# rows: 3", "# rows: three"),
                         "rows/cols headers must be integers"),
    "spot count": (lambda t: t.replace("# rows: 3", "# rows: 4"), "expected 12 spots, got 9"),
}


def map_grid_text(rows, cols, seed=0):
    """A hexagonal grid file of ``rows`` x ``cols`` spots, about half of them below nu 0.5."""
    rng = random.Random(seed)
    lines = ["# topology: hex", f"# rows: {rows}", f"# cols: {cols}",
             "id,x,y,label,confidence,mu_A,mu_B,mu_C"]
    lines += [f"s{i},{i % cols},{i // cols},X,0,"
              + ",".join(str(rng.choice((0.1, 0.2, 0.3, 0.7))) for _ in range(3))
              for i in range(rows * cols)]
    return "\n".join(lines) + "\n"


class TestMapStreaming:
    def _fatal(self, argv, capsys, message):
        assert main(argv) == EX_FATAL
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"spectraclass: error: {message}\n")

    @pytest.mark.parametrize("name", MALFORMED_GRIDS)
    def test_malformed_grid_pinned(self, tmp_path, capsys, name):
        edit, message = MALFORMED_GRIDS[name]
        grid = grid_file(tmp_path)
        grid.write_text(edit(grid.read_text()))
        self._fatal(["map", str(grid), "--out", str(tmp_path / "m")], capsys, f"{grid}: {message}")
        assert not (tmp_path / "m").exists()

    def test_error_leaves_existing_out_untouched(self, tmp_path, capsys):
        grid = grid_file(tmp_path)
        grid.write_text(grid.read_text().replace("# rows: 3", "# rows: 4"))
        out = tmp_path / "m"
        out.mkdir()
        (out / "pre.csv").write_text("old\n")
        self._fatal(["map", str(grid), "--out", str(out)], capsys, f"{grid}: expected 12 spots, got 9")
        assert [p.name for p in out.iterdir()] == ["pre.csv"]
        assert (out / "pre.csv").read_text() == "old\n"

    @pytest.mark.parametrize("extra", [
        ["--palette", "{d}/pal.txt"],  # a channel out of range
        ["--palette", "{d}/missing.txt"],
        ["--out", "{d}/file"],  # --out names a file
    ])
    def test_grid_error_reported_first(self, tmp_path, capsys, extra):
        grid = grid_file(tmp_path)
        grid.write_text(grid.read_text().replace("s4,1,1,X,0,0,0.3", "s4,1,1,X,0,0,abc"))
        (tmp_path / "pal.txt").write_text("A 300 0 0\n")
        (tmp_path / "file").write_text("")
        argv = ["map", str(grid), "--out", str(tmp_path / "m")] + [a.format(d=tmp_path) for a in extra]
        self._fatal(argv, capsys, f"{grid}: non-numeric field in grid row (line 9)")
        assert not (tmp_path / "m").exists()

    def test_unknown_topology_reported_despite_override(self, tmp_path, capsys):
        grid = grid_file(tmp_path, topology="tri")
        self._fatal(["map", str(grid), "--topology", "rect", "--out", str(tmp_path / "m")], capsys,
                    f"{grid}: unknown topology 'tri'")

    def test_palette_code_given_twice_fatal(self, tmp_path, capsys):
        grid = grid_file(tmp_path)
        pal = tmp_path / "pal.txt"
        pal.write_text("A 255 0 0\n# green\nA 0 255 0\n")
        self._fatal(["map", str(grid), "--palette", str(pal), "--out", str(tmp_path / "m")], capsys,
                    f"{pal}: palette line 3: code 'A' set twice")
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("x,y,message", [
        ("nan", "0", "x = nan is not finite"),
        ("inf", "1e999", "x = inf is not finite"),
        ("1", "-inf", "y = -inf is not finite"),
    ])
    def test_non_finite_position_fatal(self, tmp_path, capsys, x, y, message):
        grid = grid_file(tmp_path)
        grid.write_text(grid.read_text().replace("s4,1,1,", f"s4,{x},{y},"))
        self._fatal(["map", str(grid), "--out", str(tmp_path / "m")], capsys,
                    f"{grid}: {message} (line 9)")
        assert not (tmp_path / "m").exists()

    def test_batch_csv_with_quoted_ids_maps(self, tmp_path, capsys):
        inputs = tmp_path / "in"
        inputs.mkdir()
        for name, fixture in (("a,ILM", "ilm"), ('b"q', "agt")):
            (inputs / f"{name}.csv").write_text(spectrum_csv(FIXTURES[fixture]))
        batch = tmp_path / "batch.csv"
        assert main(["classify", str(inputs / "*.csv"), "--out", str(batch)]) == EX_OK
        assert '"a,ILM"' in batch.read_text() and '"b""q"' in batch.read_text()
        grid = tmp_path / "grid.csv"
        grid.write_text("# topology: rect\n# rows: 1\n# cols: 2\n" + batch.read_text())
        capsys.readouterr()
        assert main(["map", str(grid), "--out", str(tmp_path / "m")]) == EX_OK
        labels = [line.split(",")[2] for line in (tmp_path / "m" / "pre.csv").read_text().splitlines()]
        assert labels == ["label", "ILM", "AGT"]

    def test_heap_bounded_by_a_few_rows(self, tmp_path):
        grids = []
        for rows in (100, 1000):
            grids.append(tmp_path / f"{rows}.csv")
            grids[-1].write_text(map_grid_text(rows, 40))
        peaks = cli_peaks(["map", str(grids[0]), "--out", str(tmp_path / "warm")],
                          [["map", str(grid), "--out", str(tmp_path / grid.stem)] for grid in grids])
        assert peaks[1] <= 1.5 * peaks[0], peaks

    def test_peak_does_not_grow_with_the_grid_text(self, tmp_path):
        texts = [map_grid_text(rows, 40) for rows in (100, 400)]
        for k, text in enumerate(texts):
            (tmp_path / f"{k}.csv").write_text(text)
        peaks = cli_peaks(["map", str(tmp_path / "0.csv"), "--out", str(tmp_path / "warm")],
                          [["map", str(tmp_path / f"{k}.csv"), "--out", str(tmp_path / str(k))]
                           for k in range(len(texts))])
        assert peaks[1] - peaks[0] < len(texts[1]), peaks

    def test_missing_grid_keeps_the_os_message(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        self._fatal(["map", "./missing.csv", "--out", "m"], capsys,
                    "[Errno 2] No such file or directory: 'missing.csv'")

    @pytest.mark.parametrize("repeat_header", [False, True])
    def test_bad_byte_past_the_first_chunk_reported_as_read_text_does(
            self, tmp_path, capsys, repeat_header):
        text = map_grid_text(100, 40)  # about 125,000 characters
        if repeat_header:  # raised at its line, but a bad byte anywhere comes first
            text = text.replace("# cols: 40\n", "# cols: 40\n# rows: 100\n")
        data = text.encode()
        cut = data.index(b"\n", 100_000) + 1
        grid = tmp_path / "grid.csv"
        grid.write_bytes(data[:cut] + b"s\xff" + data[cut:])
        with pytest.raises(UnicodeDecodeError) as decode_error:
            grid.read_text(encoding="utf-8")
        assert f"position {cut + 1}:" in str(decode_error.value)  # in the file, not in a piece
        self._fatal(["map", str(grid), "--out", str(tmp_path / "m")], capsys,
                    f"{grid}: {decode_error.value}")
        assert not (tmp_path / "m").exists()

    def test_out_all_or_nothing(self, tmp_path, capsys):
        grid = grid_file(tmp_path)
        out = tmp_path / "o"
        (out / "post.csv").mkdir(parents=True)
        (out / "pre.csv").write_bytes(b"old\r\n")
        self._fatal(["map", str(grid), "--out", str(out)], capsys,
                    f"[Errno 21] Is a directory: '{out}/post.csv'")
        assert sorted(p.name for p in out.iterdir()) == ["post.csv", "pre.csv"]
        assert (out / "pre.csv").read_bytes() == b"old\r\n"

    def test_unwritable_target_named(self, tmp_path, capsys, monkeypatch):
        def refusing_open(file, *args, **kwargs):
            if str(file).endswith(".part"):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(file))
            return open(file, *args, **kwargs)

        monkeypatch.setattr(files, "open", refusing_open, raising=False)
        out = tmp_path / "o"
        out.mkdir()
        self._fatal(["map", str(grid_file(tmp_path)), "--out", str(out)], capsys,
                    f"[Errno 13] Permission denied: '{out}/pre.csv'")
        assert list(out.iterdir()) == []

    def test_out_through_a_symlink(self, tmp_path, capsys):
        link, real = symlinked_out(tmp_path, "pre.csv")
        grid = grid_file(tmp_path)
        for out in (tmp_path / "plain", link.parent):
            assert main(["map", str(grid), "--out", str(out)]) == EX_OK
        assert_written_through(link, real, (tmp_path / "plain" / "pre.csv").read_bytes())

    def test_out_a_dangling_symlink(self, tmp_path, capsys):
        link = tmp_path / "rep"
        link.symlink_to(os.path.join("gone", "maps"))
        assert main(["map", str(grid_file(tmp_path)), "--out", str(link)]) == EX_OK
        assert capsys.readouterr().out == f"wrote maps to {link} (1 neighbor-assigned spots)\n"
        assert link.is_symlink()
        assert sorted(p.name for p in (tmp_path / "gone" / "maps").iterdir()) == [
            "mu_AGT.ppm", "mu_ILM.ppm", "mu_OLV.ppm", "mu_PLG.ppm",
            "post.csv", "post.ppm", "pre.csv", "pre.ppm"]


@pytest.mark.parametrize("command", ["map", "stats"])
def test_out_naming_a_file_fatal(spectra_dir, tmp_path, capsys, command):
    out = tmp_path / "file"
    out.write_text("old\n")
    inputs = {"map": [str(grid_file(tmp_path))],
              "stats": [str(spectra_dir / "*.csv"), "--group-by", "directory"]}[command]
    assert main([command, *inputs, "--out", str(out)]) == EX_FATAL
    assert capsys.readouterr().err == f"spectraclass: error: [Errno 17] File exists: '{out}'\n"
    assert out.read_text() == "old\n"


class TestValidateCmd:
    def test_builtin_ok(self, capsys):
        assert main(["validate-rules", "--rules", "builtin:basalt"]) == EX_OK

    def test_bad_rules(self, tmp_path):
        bad = tmp_path / "bad.rules"
        bad.write_text('rulebase "x"\nion Fe = 55.954\n'
                       'class X "x" {\n  term fe = high ( Fe , l = 1 , h = 40 )\n'
                       "  expr = nope\n}\n")
        assert main(["validate-rules", "--rules", str(bad)]) == EX_FATAL

    def test_bad_rules_file_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.rules"
        bad.write_text(BAD_THRESHOLDS)
        assert main(["validate-rules", "--rules", str(bad)]) == EX_FATAL
        assert capsys.readouterr().err.startswith(f"spectraclass: error: {bad}: ")

    def test_missing_rules_file_keeps_os_message(self, tmp_path, capsys):
        missing = tmp_path / "missing.rules"
        assert main(["validate-rules", "--rules", str(missing)]) == EX_FATAL
        assert capsys.readouterr().err == \
            f"spectraclass: error: [Errno 2] No such file or directory: {str(missing)!r}\n"

    @pytest.mark.parametrize("flag", ["--nu", "--epsilon"])
    def test_overrides_are_usage_errors(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["validate-rules", flag, "0.7"])
        assert exc.value.code == EX_USAGE
        assert f"unrecognized arguments: {flag} 0.7" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        'rulebase "empty"\n',
        'rulebase "x"\nion Fe = 55.954\n'
        'class UNK "unknown" {\n  term fe = high ( Fe , l = 1 , h = 40 )\n  expr = fe\n}\n',
    ])
    def test_unusable_rules_fatal(self, tmp_path, text):
        rules = tmp_path / "r.rules"
        rules.write_text(text)
        assert main(["validate-rules", "--rules", str(rules)]) == EX_FATAL

    def test_reserved_class_code_names_its_line(self, tmp_path, capsys):
        rules = tmp_path / "unk.rules"
        rules.write_text('rulebase "x"\nion Fe = 55.954\n'
                         'class UNK "unknown" {\n  term fe = high ( Fe , l = 1 , h = 40 )\n  expr = fe\n}\n')
        assert main(["validate-rules", "--rules", str(rules)]) == EX_FATAL
        assert capsys.readouterr().err == (f"spectraclass: error: {rules}: class code 'UNK' "
                                           "is reserved for the unknown label (line 3, col 7)\n")

    @pytest.mark.parametrize("opener,closer", [("( ", " )"), ("not ", "")])
    def test_deep_nesting_is_an_error_not_a_traceback(self, tmp_path, opener, closer):
        # 340 parentheses, or 1,000 nots, overflowed the stack of an uncapped parser.
        n = 340 if closer else 1000
        rules = tmp_path / "deep.rules"
        rules.write_text('rulebase "deep"\nion Fe = 55.954\nclass X "x" {\n'
                         "  term fe = high ( Fe , l = 1 , h = 40 )\n"
                         f"  expr = {opener * n}fe{closer * n}\n}}\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        child = subprocess.run([sys.executable, "-m", "spectraclass", "validate-rules", "--rules", str(rules)],
                               capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
        col = len("  expr = ") + 1 + rulebase._MAX_NESTING * len(opener)
        assert (child.returncode, child.stdout) == (EX_FATAL, "")
        assert child.stderr == (f"spectraclass: error: {rules}: expression nested more than "
                                f"{rulebase._MAX_NESTING} deep (line 5, col {col})\n")


class TestUsage:
    def test_unknown_flag_exits_64(self, spectra_dir):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--bogus", str(spectra_dir / "agt.csv")])
        assert exc.value.code == EX_USAGE

    def test_help_lists_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--rules", "--epsilon", "--nu", "--workers", "--out"):
            assert flag in text

    @pytest.mark.parametrize("value,message", [
        ("0", "must be at least 1, got 0"),
        ("-2", "must be at least 1, got -2"),
        ("abc", "invalid int value: 'abc'"),
    ])
    def test_workers_below_one_exits_64(self, spectra_dir, capsys, value, message):
        with pytest.raises(SystemExit) as exc:
            main(["classify", str(spectra_dir / "agt.csv"), "--workers", value])
        assert exc.value.code == EX_USAGE
        assert f"argument --workers: {message}" in capsys.readouterr().err

    def test_env_var_default(self, spectra_dir, tmp_path, monkeypatch):
        rules = tmp_path / "basalt.rules"
        rules.write_text(serialize_rulebase(builtin_basalt()))
        monkeypatch.setenv("SPECTRACLASS_RULES", str(rules))
        out = tmp_path / "out.csv"
        assert main(["classify", str(spectra_dir / "agt.csv"), "--out", str(out)]) == EX_OK

    def test_empty_env_var_counts_as_unset(self, spectra_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SPECTRACLASS_RULES", "")
        assert main(["validate-rules"]) == EX_OK
        assert capsys.readouterr().out.endswith("rule base 'basalt': 4 classes, 6 ions, 0 warnings\n")

    @pytest.mark.parametrize("argv,option", [
        (["classify", "{d}/agt.csv", "--out", ""], "--out"),
        (["stats", "{d}/agt.csv", "--out", ""], "--out"),
        (["map", "{d}/grid.csv", "--out", ""], "--out"),
        (["classify", "{d}/agt.csv", "--rules", ""], "--rules"),
        (["stats", "{d}/agt.csv", "--rules", ""], "--rules"),
        (["validate-rules", "--rules", ""], "--rules"),
        (["map", "{d}/grid.csv", "--palette", "", "--out", "m"], "--palette"),
        (["map", "", "--out", "m"], "input"),
    ])
    def test_empty_path_exits_64(self, spectra_dir, tmp_path, monkeypatch, capsys, argv, option):
        # An empty path would name the working directory, or stdout for classify's --out.
        grid_file(spectra_dir)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([arg.format(d=spectra_dir) for arg in argv])
        assert exc.value.code == EX_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument {option}: an empty path names no file\n")
        assert [p.name for p in tmp_path.iterdir()] == ["spectra"]


# Fuzzed argv: "{d}" stands for a fresh directory holding the files below.
FUZZ_VALUES = ["nan", "inf", "-1", "0", "0.5", "1", "abc", "", "{d}/missing.csv",
               "{d}/none/*.csv", "{d}/good.csv", "{d}/out"]
FUZZ_INPUTS = ["{d}/good.csv", "{d}/bad.csv", "{d}/*.csv", "{d}/none/*.csv",
               "{d}/missing.csv", "{d}/grid.csv", "{d}", "-1", "nan"]
FUZZ_OPTIONS = {
    "classify": ["--rules", "--epsilon", "--nu", "--workers", "--out"],
    "stats": ["--rules", "--epsilon", "--nu", "--group-by", "--mode", "--out"],
    "map": ["--nu", "--floor", "--topology", "--palette", "--out"],
    "validate-rules": ["--rules"],
}
FUZZ_CHOICES = ["builtin:basalt", "builtin:nope", "{d}/bad.rules", "label", "directory",
                "present-mean", "zero-inclusive-mean", "rect", "hex", "{d}/palette.txt"]


@st.composite
def fuzzed_argv(draw):
    command = draw(st.sampled_from([*FUZZ_OPTIONS, "bogus"]))
    argv = [command]
    for _ in range(draw(st.integers(0, 4))):
        option = draw(st.sampled_from(FUZZ_OPTIONS.get(command, ["--out"]) + ["--bogus"]))
        argv += [option, draw(st.sampled_from(FUZZ_VALUES + FUZZ_CHOICES))]
    argv += draw(st.lists(st.sampled_from(FUZZ_INPUTS), max_size=3))
    return [command, *draw(st.permutations(argv[1:]))]


class TestFuzzedArguments:
    @settings(max_examples=80, deadline=None)
    @given(fuzzed_argv())
    def test_exit_code_known_and_no_traceback(self, template):
        with tempfile.TemporaryDirectory() as d:
            root = Path(d)
            (root / "good.csv").write_text(spectrum_csv(FIXTURES["agt"]))
            (root / "bad.csv").write_text("26.98,abc\n")
            (root / "bad.rules").write_text('rulebase "x"\nion Fe = nope\n')
            (root / "palette.txt").write_text("AGT 255 0 0\n")
            grid_file(root)
            argv = [arg.format(d=d) for arg in template]
            out, err = io.StringIO(), io.StringIO()
            cwd = os.getcwd()
            os.chdir(d)  # a relative --out such as "1" is written here, not into the checkout
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = main(argv)
                    except SystemExit as exc:
                        code = exc.code
            finally:
                os.chdir(cwd)
        assert code in (EX_OK, EX_FATAL, EX_PARTIAL, EX_USAGE), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()


PLAIN_GRID = GRID.format(rows="\n".join(f"s{i},{i % 3},{i // 3},X,0,0,0.9,0,0" for i in range(9)))
PROBE_RULES = ('rulebase "x"\nion Al = ٢٧\n'
               'class X "x" {\n  term al = high ( Al , l = 10 , h = 90 )\n  expr = al\n}\n')
# Numbers Python's float() or int() reads but the input syntax refuses, one through each reader:
# {file name: text}, argv, exit code, a line of stderr; {d} is the directory of the files.
NUMBER_PROBES = {
    "spectrum-columns-mz": ({"s.csv": "1_0,5\n"}, ["classify", "{d}/s.csv"], EX_PARTIAL,
                            "error: {d}/s.csv: non-numeric field in '1_0,5' (line 1)"),
    "spectrum-columns-abundance": ({"s.csv": "26.98,3\n55.954,4_0\n"}, ["classify", "{d}/s.csv"], EX_PARTIAL,
                                   "error: {d}/s.csv: non-numeric field in '55.954,4_0' (line 2)"),
    "spectrum-lines": ({"s.csv": "# peaks\n١٠,5\n"}, ["classify", "{d}/s.csv"], EX_PARTIAL,
                       "error: {d}/s.csv: non-numeric field in '١٠,5' (line 2)"),
    "spectrum-lines-fullwidth": ({"s.csv": "１,5\n"}, ["classify", "{d}/s.csv"], EX_PARTIAL,
                                 "error: {d}/s.csv: non-numeric field in '１,5' (line 1)"),
    "grid-block": ({"g.csv": PLAIN_GRID.replace("s4,1,1,", "s4,1_0,1,")}, ["map", "{d}/g.csv", "--out", "{d}/m"],
                   EX_FATAL, "spectraclass: error: {d}/g.csv: non-numeric field in grid row (line 9)"),
    "grid-line": ({"g.csv": PLAIN_GRID.replace("s4,1,1,X,0,0,0.9", "# note\ns4,1,1,X,0,0,0.9_0")},
                  ["map", "{d}/g.csv", "--out", "{d}/m"],
                  EX_FATAL, "spectraclass: error: {d}/g.csv: non-numeric field in grid row (line 10)"),
    "grid-header": ({"g.csv": PLAIN_GRID.replace("# cols: 3", "# cols: 1_0")}, ["map", "{d}/g.csv", "--out", "{d}/m"],
                    EX_FATAL, "spectraclass: error: {d}/g.csv: rows/cols headers must be integers"),
    "palette": ({"g.csv": PLAIN_GRID, "p.txt": "AGT ١ 0 0\n"},
                ["map", "{d}/g.csv", "--palette", "{d}/p.txt", "--out", "{d}/m"],
                EX_FATAL, "spectraclass: error: {d}/p.txt: palette line 1: non-integer channel"),
    "rules": ({"s.csv": "26.98,5\n", "r.rules": PROBE_RULES}, ["classify", "{d}/s.csv", "--rules", "{d}/r.rules"],
              EX_FATAL, "spectraclass: error: {d}/r.rules: bad token '٢' (line 2, col 10)"),
    "epsilon": ({"s.csv": "26.98,5\n"}, ["classify", "{d}/s.csv", "--epsilon", "1_0"], EX_USAGE,
                "spectraclass classify: error: argument --epsilon: invalid float value: '1_0'"),
    "nu": ({"s.csv": "26.98,5\n"}, ["classify", "{d}/s.csv", "--nu", "١"], EX_USAGE,
           "spectraclass classify: error: argument --nu: invalid float value: '١'"),
    "floor": ({"g.csv": PLAIN_GRID}, ["map", "{d}/g.csv", "--out", "{d}/m", "--floor", "0_5"], EX_USAGE,
              "spectraclass map: error: argument --floor: invalid float value: '0_5'"),
    "workers": ({"s.csv": "26.98,5\n"}, ["classify", "{d}/s.csv", "--workers", "1_0"], EX_USAGE,
                "spectraclass classify: error: argument --workers: invalid int value: '1_0'"),
}


@pytest.mark.parametrize("inputs,argv,code,line", NUMBER_PROBES.values(), ids=NUMBER_PROBES)
def test_one_number_syntax_for_every_input(tmp_path, capsys, inputs, argv, code, line):
    for name, text in inputs.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    try:
        exit_code = main([arg.format(d=tmp_path) for arg in argv])
    except SystemExit as exc:
        exit_code = exc.code
    assert exit_code == code
    assert line.format(d=tmp_path) in capsys.readouterr().err.splitlines()
    assert not (tmp_path / "m").exists()
