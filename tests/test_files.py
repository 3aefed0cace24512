"""files.read_text: the text and the errors of Path.read_text, from one raw read."""

import os
import threading
import types
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from spectraclass import files

# Byte runs whose decoding or newline translation differs between a whole read and a piecewise one.
PIECES = [
    b"\r", b"\r\n", b"\r\r\n", b"\n\r", "\u2028".encode(), "\x85".encode(),  # U+2028 and NEL stay as they are
    b"\xef\xbb\xbf",  # a BOM, kept as U+FEFF by utf-8
    b"\xff", b"\x85", b"\xc3(", b"\xe2\x80", b"\xf0\x9f\x98",  # invalid, or truncated, UTF-8
    "\u00e9".encode(), b"10,20\n",
]
SIZES = [0, 1, 65_535, 65_536, 65_537, 3 * 2**20 + 7]


def outcome(read, path):
    """``("ok", text)``, or the type and message of the exception ``read(path)`` raises."""
    try:
        return "ok", read(path)
    except Exception as exc:
        return type(exc), str(exc)


def path_read_text(path):
    return Path(path).read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("read_text")


def file_bytes(size, crlf, runs):
    """``size`` bytes of CSV-like filler with ``runs`` of PIECES written over its start, middle and end."""
    filler = b"24.312,60\r\n" if crlf else b"55.954,40\n"
    data = bytearray((filler * (size // len(filler) + 1))[:size])
    for where, pieces in zip(("start", "middle", "end"), runs):
        run = b"".join(pieces)[:size]
        at = {"start": 0, "middle": size // 2, "end": size - len(run)}[where]
        data[at:at + len(run)] = run
    return bytes(data)


# The recipe is drawn, not the bytes, so a failing example prints in a line and not in 3 MiB.
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SIZES), st.booleans(), st.tuples(*[st.lists(st.sampled_from(PIECES), max_size=3)] * 3))
def test_read_text_equals_path_read_text(scratch, size, crlf, runs):
    path = scratch / "s.csv"
    path.write_bytes(file_bytes(size, crlf, runs))
    got, expected = outcome(files.read_text, str(path)), outcome(path_read_text, str(path))
    assert (got[0], got == expected) == (expected[0], True)  # not got == expected: pytest would diff 3 MiB


@pytest.mark.parametrize("name", ["missing.csv", "./missing.csv", "", ".", "d", "d/", "dangling"])
def test_errors_name_the_file_as_pathlib_does(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    (tmp_path / "dangling").symlink_to("nowhere")
    expected = outcome(path_read_text, name)
    assert issubclass(expected[0], OSError)
    assert outcome(files.read_text, name) == expected


@pytest.mark.parametrize("reported", [lambda size: 0, lambda size: size // 2], ids=["zero", "half"])
def test_whole_file_read_whatever_fstat_reports(tmp_path, monkeypatch, reported):
    path = tmp_path / "s.csv"
    path.write_bytes(b"55.954,40\r\n" * 20_000)  # 220,000 bytes: past one read of 64 KiB
    fstat = os.fstat
    monkeypatch.setattr(files.os, "fstat", lambda fd: types.SimpleNamespace(st_size=reported(fstat(fd).st_size)))
    text = files.read_text(str(path))
    assert (len(text), text == "55.954,40\n" * 20_000) == (200_000, True)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_pipe_read_whole(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    text = "26.982,20\n" * 30_000

    def write():
        with open(fifo, "w", encoding="utf-8") as f:
            f.write(text)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    got = files.read_text(str(fifo))
    assert (len(got), got == text) == (len(text), True)
    writer.join(timeout=10)


def open_descriptors():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
@pytest.mark.parametrize("make, error", [
    (lambda p: p.write_text("55.954,40\n"), None),
    (lambda p: p.mkdir(), IsADirectoryError),
    (lambda p: None, FileNotFoundError),
    (lambda p: p.write_bytes(b"55.954,\xff\n"), UnicodeDecodeError),
], ids=["good", "directory", "missing", "bad-byte"])
def test_no_descriptor_left_open(tmp_path, make, error):
    # A raw descriptor left open raises no ResourceWarning; count them instead.
    path = tmp_path / "s.csv"
    make(path)
    before = open_descriptors()
    for _ in range(3):
        if error is None:
            files.read_text(str(path))
        else:
            with pytest.raises(error):
                files.read_text(str(path))
    assert open_descriptors() == before
