"""The one place that opens input files and stages output files."""

import contextlib
import errno
import os
import shutil
import tempfile
from pathlib import Path


def stem(path: str) -> str:
    """``Path(path).stem`` of a ``/``-separated path, without building a Path."""
    name = next((part for part in reversed(path.split("/")) if part and part != "."), "")
    i = name.rfind(".")
    return name[:i] if 0 < i < len(name) - 1 else name


def open_text(path):
    """The file ``path`` opened as UTF-8 text, and its errors, as ``Path(path).open`` gives them."""
    try:
        return open(path, encoding="utf-8")
    except OSError:  # Path names the file as it normalises it: ./a.csv as a.csv
        Path(path).read_text(encoding="utf-8")
        raise


_O_READ = os.O_RDONLY | getattr(os, "O_BINARY", 0)  # no newline translation under the decoder on Windows


def read_text(path) -> str:
    """The text of the file ``path``, and its errors, as ``Path(path).read_text`` gives them.

    One raw descriptor and one read sized by ``fstat``, not a text-mode
    ``open()``'s three file objects: the bytes are decoded as strict UTF-8
    and newlines translated as text mode does (``\\r\\n`` and ``\\r`` to
    ``\\n``). Reads go on to end of file, so a file whose size reads 0 (a
    pipe, a /proc file) or grows is still read whole.
    """
    try:
        fd = os.open(path, _O_READ)
        try:
            chunks = [os.read(fd, os.fstat(fd).st_size + 1)]
            while chunk := os.read(fd, 1 << 16):
                chunks.append(chunk)
        finally:
            os.close(fd)
    except OSError:  # Path names the file as it normalises it: ./a.csv as a.csv
        Path(path).read_text(encoding="utf-8")
        raise
    text = b"".join(chunks).decode("utf-8")
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def make_dirs(path) -> None:
    """Create the directory ``path`` and its missing parents, or keep it if it exists, as ``Path.mkdir``.

    A dangling symlink gets the directory it points to, so an output
    directory is written through a link as an output file is. Anything
    else that exists and is not a directory raises FileExistsError.
    """
    if os.path.islink(path) and not os.path.exists(path):
        path = os.path.realpath(path)
    Path(path).mkdir(parents=True, exist_ok=True)


@contextlib.contextmanager
def staging():
    """Yield ``stage(target)``, which opens a temporary UTF-8 text file; publish() all if the block succeeds.

    The files write surrogate escapes back as the bytes they stand for, so
    a file name that is not UTF-8 is written as its raw bytes, as a
    stdout with surrogate escapes writes it.
    """
    with contextlib.ExitStack() as stack:
        files = {}

        def stage(target):
            f = tempfile.TemporaryFile("w+", encoding="utf-8", newline="", errors="surrogateescape")
            files[target] = stack.enter_context(f)
            return f

        yield stage
        for f in files.values():
            f.flush()
        publish({target: f.buffer for target, f in files.items()})


def publish(files):
    """Copy each ``{target path: temporary file}`` to its target: all of them, or on an error none.

    Each copy is staged beside the file its target resolves to, so a
    symlinked target is written through, takes that file's mode if it
    exists, and is renamed over it only once every target is checked and
    every copy made; an error removes the staged copies. Errors name the
    target as given: one that cannot be written as opening it would.
    """
    staged = []
    try:
        for target, tmp in files.items():
            if not os.path.basename(target) or os.path.isdir(target):  # open() says EISDIR for a/ too
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(target))
            real = os.path.realpath(target)
            head, name = os.path.split(real)
            part = os.path.join(head, f".{name}.part")
            try:
                f = open(part, "wb")
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, os.fspath(target)) from None
            staged.append((part, real))
            with f:
                tmp.seek(0)
                shutil.copyfileobj(tmp, f)
            with contextlib.suppress(FileNotFoundError):
                shutil.copymode(real, part)
        for part, target in staged:
            os.replace(part, target)
    except BaseException:
        for part, _ in staged:
            with contextlib.suppress(FileNotFoundError):
                os.remove(part)
        raise
