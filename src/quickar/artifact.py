"""How quickar's files look on disk: one line rule and one artifact layout.

Every text file quickar reads (title dumps, query files, word lists, its
own artifacts) is UTF-8, and only a line feed ends a line: "\\r", "\\x85",
"\\u2028" and the other characters `str.splitlines` breaks on are text.

The adjacency database and the method-level index share one layout,
written by `save` and read back by `load`:

    #key=value          one header line per key, in the owner's fixed order
    name<TAB>cells      one record per line
    #k=n,k=n            the trailing checksum line

Lines are told apart by position, not by a leading "#", so a name may
start with "#". A record is split at its last tab, so a name may hold a
tab; cells never do, and `save` refuses a record whose cells hold one,
which would load back as another name. A line feed in a header value, a
name or a cell is refused. The file ends with a line feed, so a cut
anywhere shows. The owning module encodes and decodes its own cells, which
pass through here as text: it refuses on save what its `load` would
refuse, and checks the checksum counts that `load` returns against its
records. Every refusal on save comes before the previous file is
replaced.

Files are written through `atomic_write`, so a failed write keeps the
previous file. A text that cannot be written as UTF-8 (a file name that
is not UTF-8 reaches Python as a str holding lone surrogates) is refused
with a `DataError` before the previous file is replaced. An existing path
that is not a regular file (a device, a FIFO, a directory) is refused
before anything is written. A symbolic link is not followed: the link
itself is replaced by the new regular file, and its target is left as it
was.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import stat
from pathlib import Path
from typing import Iterable, Iterator

from .errors import CorruptFileError, DataError

_CHUNK = 1 << 16  # characters read at a time


@contextlib.contextmanager
def atomic_write(path):
    """Open a text file that replaces `path` only once the block completes.

    The text goes to a temporary file in the same directory, which is
    flushed to disk and renamed over `path`; if the block raises, the
    temporary file is removed and `path` keeps its previous content. A
    `path` that exists and is neither a regular file nor a symbolic link
    raises DataError before anything is written.
    """
    path = Path(path)
    with contextlib.suppress(FileNotFoundError):
        mode = os.lstat(path).st_mode
        if not (stat.S_ISREG(mode) or stat.S_ISLNK(mode)):
            raise DataError(f"cannot write {path}: it exists and is not a regular file")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def replace_files(texts: dict) -> None:
    """Write each text to its path. No file is renamed into place before
    every one is written and flushed, so a failed write keeps all the
    previous files."""
    with contextlib.ExitStack() as stack:
        for path, text in texts.items():
            fh = stack.enter_context(atomic_write(path))
            fh.write(text)
            fh.flush()


def read_lines(path, what: str) -> Iterator[str]:
    """Stream the lines of the UTF-8 file `path` as `text.split("\\n")` gives
    them: the last is "" when the file ends with a line feed. An unreadable
    file raises DataError, one not UTF-8 CorruptFileError; `what` names it.
    """
    return itertools.chain.from_iterable(_line_batches(path, what))


def _line_batches(path, what: str) -> Iterator[list[str]]:
    """The lines of `read_lines`, a chunk's worth at a time."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            head: list[str] = []  # the pieces of a line not yet ended
            while chunk := fh.read(_CHUNK):
                lines = chunk.split("\n")
                head.append(lines[0])
                if len(lines) > 1:
                    lines[0] = "".join(head)
                    head = [lines.pop()]
                    yield lines
            yield ["".join(head)]
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CorruptFileError(f"{what} {path} is not UTF-8 text: {exc}") from exc


def _checksum_line(counts: dict[str, int]) -> str:
    return "#" + ",".join(f"{key}={n}" for key, n in counts.items())


def _record_lines(path, what: str, records: Iterable[tuple[str, str]]) -> Iterator[str]:
    for name, cells in records:
        if "\t" in cells:
            raise DataError(f"cannot write {what} {path}: a cell of {name!r} holds a tab")
        yield f"{name}\t{cells}"


def save(path, what: str, header: dict[str, object],
         records: Iterable[tuple[str, str]], checksum: dict[str, int]) -> None:
    """Write the header, the `(name, cells)` records and the checksum to
    `path`; `what` names the artifact in errors. A record whose cells hold
    a tab raises DataError, as does a line feed anywhere."""
    lines = itertools.chain((f"#{key}={value}" for key, value in header.items()),
                            _record_lines(path, what, records),
                            [_checksum_line(checksum)])
    try:
        with atomic_write(path) as fh:
            for line in lines:
                if "\n" in line:
                    raise DataError(f"cannot write {what} {path}: {line!r} holds a line feed")
                try:
                    fh.write(line + "\n")
                except UnicodeEncodeError:
                    text = line.rpartition("\t")[0] or line  # a record's name, or a header
                    raise DataError(
                        f"cannot write {what} {path}: {text!r} is not UTF-8 text") from None
    except OSError as exc:
        raise DataError(f"cannot write {what} {path}: {exc}") from exc


def load(path, what: str, header_keys: tuple[str, ...], checksum_keys: tuple[str, ...]
         ) -> tuple[dict[str, str], list[tuple[str, str]], dict[str, int]]:
    """Read back what `save` wrote: the header values by key, the
    `(name, cells)` records and the checksum counts by key.

    Raises CorruptFileError when a line is missing or out of place; whether
    the counts match the records is for the caller to check.
    """
    lines = list(read_lines(path, what))
    if lines.pop() or len(lines) <= len(header_keys):
        raise CorruptFileError(f"{path}: truncated {what}, no trailing checksum line")
    header: dict[str, str] = {}
    for key, line in zip(header_keys, lines):
        prefix = f"#{key}="
        if not line.startswith(prefix):
            raise CorruptFileError(f"{path}: expected a {prefix} header line, found {line!r}")
        header[key] = line[len(prefix):]

    last = lines[-1]
    try:
        counts = {key: int(n) for key, n in (part.split("=", 1) for part in last[1:].split(","))}
    except ValueError:
        counts = {}
    if tuple(counts) != checksum_keys or _checksum_line(counts) != last:
        raise CorruptFileError(f"{path}: truncated {what}, bad checksum line {last!r}")

    records = []
    for line in lines[len(header_keys):-1]:
        name, tab, cells = line.rpartition("\t")
        if not tab:
            raise CorruptFileError(f"{path}: record line without a tab: {line!r}")
        records.append((name, cells))
    return header, records, counts
