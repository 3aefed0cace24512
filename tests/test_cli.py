import pytest

from conftest import spectrum_csv
from spectraclass.cli import EX_FATAL, EX_OK, EX_PARTIAL, EX_USAGE, main
from spectraclass.rulebase import builtin_basalt, serialize_rulebase

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

    @pytest.mark.parametrize("flag", ["--epsilon", "--nu"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_override_fatal(self, spectra_dir, capsys, flag, value):
        code = main(["classify", str(spectra_dir / "agt.csv"), flag, value])
        assert code == EX_FATAL
        assert flag[2:] in capsys.readouterr().err


class TestStatsCmd:
    def test_group_by_label(self, spectra_dir, tmp_path, capsys):
        out = tmp_path / "reports"
        code = main(["stats", str(spectra_dir / "*.csv"), "--out", str(out)])
        assert code == EX_OK
        assert (out / "AGT_report.csv").exists()
        captured = capsys.readouterr()
        assert "vs ensemble" in captured.out

    def test_group_by_directory(self, spectra_dir, tmp_path):
        out = tmp_path / "reports"
        code = main(["stats", str(spectra_dir / "*.csv"),
                     "--group-by", "directory", "--out", str(out)])
        assert code == EX_OK
        assert (out / "spectra_report.csv").exists()

    def test_no_matching_inputs_fatal(self, tmp_path):
        code = main(["stats", str(tmp_path / "none" / "*.csv")])
        assert code == EX_FATAL


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

    def test_spacing_header_ignored(self, tmp_path):
        grid = grid_file(tmp_path)
        grid.write_text("# spacing: wide\n" + grid.read_text())
        assert main(["map", str(grid), "--out", str(tmp_path / "m")]) == EX_OK


class TestValidateCmd:
    def test_builtin_ok(self, capsys):
        assert main(["validate-rules", "--rules", "builtin:basalt"]) == EX_OK

    def test_bad_rules(self, tmp_path):
        bad = tmp_path / "bad.rules"
        bad.write_text('rulebase "x"\nion Fe = 55.954\n'
                       'class X "x" {\n  term fe = high ( Fe , l = 1 , h = 40 )\n'
                       "  expr = nope\n}\n")
        assert main(["validate-rules", "--rules", str(bad)]) == EX_FATAL

    @pytest.mark.parametrize("text", [
        'rulebase "empty"\n',
        'rulebase "x"\nion Fe = 55.954\n'
        'class UNK "unknown" {\n  term fe = high ( Fe , l = 1 , h = 40 )\n  expr = fe\n}\n',
    ])
    def test_unusable_rules_fatal(self, tmp_path, text):
        rules = tmp_path / "r.rules"
        rules.write_text(text)
        assert main(["validate-rules", "--rules", str(rules)]) == EX_FATAL


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

    def test_env_var_default(self, spectra_dir, tmp_path, monkeypatch):
        rules = tmp_path / "basalt.rules"
        rules.write_text(serialize_rulebase(builtin_basalt()))
        monkeypatch.setenv("SPECTRACLASS_RULES", str(rules))
        out = tmp_path / "out.csv"
        assert main(["classify", str(spectra_dir / "agt.csv"), "--out", str(out)]) == EX_OK
