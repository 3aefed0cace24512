"""Every golden case gives the exit code, stdout, stderr and output files pinned in expected.json."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("golden_rebuild", Path(__file__).parent / "golden" / "rebuild.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

EXPECTED = json.loads(golden.EXPECTED.read_text(encoding="utf-8"))


def test_every_case_pinned():
    assert sorted(EXPECTED) == sorted(golden.CASES)


@pytest.mark.parametrize("name", list(golden.CASES))
def test_golden(name, tmp_path, monkeypatch):
    monkeypatch.delenv("SPECTRACLASS_RULES", raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    assert golden.run_case(name, tmp_path) == EXPECTED[name]
