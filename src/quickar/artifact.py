"""How quickar's files look on disk: one line rule and one artifact layout.

Every text file quickar reads (title dumps, query files, word lists, its
own artifacts, the config file) is UTF-8, and only a line feed ends a line:
"\\r", "\\x85", "\\u2028" and the other characters `str.splitlines` breaks on
are text. `read_lines` and `atomic_write` both open their file with
`newline="\\n"`, which enforces the rule on both sides: nothing is
translated on the way in or out.

The adjacency database and the method-level index share one layout,
written by `save` and read back by `load`:

    #key=value          one header line per key, in the owner's fixed order
    name<TAB>cells      one record per line
    #k=n,k=n            the trailing checksum line

Lines are told apart by position, not by a leading "#", so a name may
start with "#". A record is split at its last tab, so a record's name may
hold a tab. A line feed in a header value or a name is refused. The file
ends with a line feed, so a cut anywhere shows.

One cell rule holds for both artifacts. A record's cells are `name:count`
joined by "," (a word's neighbors and their pair counts, a document's term
surfaces and their term counts), each split at its last ":". The name is
not empty and holds no ",", tab or line feed; the count is plain ASCII
digits with no sign and no leading zero, at least 1, and `save` takes it
as an int, not as a bool, a float or a text. Each name appears
once per record (in the index, once up to case), and each record's name
once per file: a database word, or an index document, has one record.
`save` refuses a cell or a record that breaks these rules before the
previous file is replaced, and `load` refuses one it meets, with one
message per rule that names the record and the cell in the owner's nouns.
The owner checks its own rules and the checksum counts. The index's
`#keywords_sha=` is informational: it is written and never checked.

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
import re
import stat
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .errors import CorruptFileError, DataError

# A count as `save` writes an int; `load` refuses the other texts `int` reads.
_COUNT_TEXT = re.compile(r"0|-?[1-9][0-9]*")


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
    them: the last is "" when the file is empty or ends with a line feed. An
    unreadable file raises DataError, one not UTF-8 CorruptFileError; `what`
    names it.
    """
    try:
        with open(path, encoding="utf-8", newline="\n") as fh:
            line = "\n"
            for line in fh:
                yield line.rstrip("\n")  # at most one, at the end
            if line.endswith("\n"):
                yield ""
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CorruptFileError(f"{what} {path} is not UTF-8 text: {exc}") from exc


def read_count(text: str) -> int | None:
    """The int that `save` writes as `text`, or None for any other text,
    even one `int` reads ("+2", " 3", "02", "\\u0663")."""
    return int(text) if _COUNT_TEXT.fullmatch(text) else None


def _checksum_line(counts: dict[str, int]) -> str:
    return "#" + ",".join(f"{key}={n}" for key, n in counts.items())


def _refusal(nouns: tuple[str, str], name: str, cell_name: str, count: object) -> str:
    """Why the cell rule refuses the cell `cell_name:count` of the record
    `name`, in the owner's nouns for a record and a cell; "" if it does not.
    A `cell_name` that is not a str is refused by its type; a `count` that
    is not an int, such as the text `load` met or a bool, is not plain
    digits."""
    record, cell = nouns
    if type(cell_name) is not str:
        return (f"{record} {name!r} has a {cell} {cell_name!r} "
                f"of type {type(cell_name).__name__}, not str")
    if type(count) is not int:
        return f"{cell} {cell_name!r} of {record} {name!r} has count {count!r}, not plain digits"
    if not cell_name:
        return f"{record} {name!r} has a {cell} without a name"
    for char, shown in ((",", "','"), ("\t", "a tab")):
        if char in cell_name:
            return f"{record} {name!r} has a {cell} {cell_name!r} holding {shown}"
    if count < 1:
        return f"{cell} {cell_name!r} of {record} {name!r} has count {count}, below 1"
    return ""


def ordered(names: Iterable) -> list:
    """`names` sorted, or in their own order if they do not sort, as when a
    str and an int are among them; `save` refuses a name that is not a str."""
    try:
        return sorted(names)
    except TypeError:
        return list(names)


def _record_lines(path, what: str, nouns: tuple[str, str],
                  records: Iterable[tuple[str, Sequence[str], Sequence[int]]],
                  checksum: Callable[[], dict[str, int]]) -> Iterator[str]:
    """Each record's line, then the checksum line. Calls in C check each
    record whole, and only a record they flag is looked at cell by cell."""
    written: set[str] = set()
    for name, names, counts in records:
        if type(name) is not str:
            raise DataError(f"cannot write {what} {path}: {nouns[0]} {name!r} has a name "
                            f"of type {type(name).__name__}, not str")
        cells = ",".join([f"{cell_name}:{count}" for cell_name, count in zip(names, counts)])
        if names and (cells.count(",") >= len(names) or "\t" in cells or "" in names
                      or set(map(type, names)) != {str} or set(map(type, counts)) != {int}
                      or min(counts) < 1):
            reason = next(filter(None, (_refusal(nouns, name, cell_name, count)
                                        for cell_name, count in zip(names, counts))))
            raise DataError(f"cannot write {what} {path}: {reason}")
        if name in written:
            raise DataError(f"cannot write {what} {path}: {nouns[0]} {name!r} has two records")
        written.add(name)
        yield f"{name}\t{cells}"
    yield _checksum_line(checksum())


def save(path, what: str, header: dict[str, object],
         records: Iterable[tuple[str, Sequence[str], Sequence[int]]], nouns: tuple[str, str],
         checksum: Callable[[], dict[str, int]]) -> None:
    """Write the header, the records and the checksum to `path`; `what`
    names the artifact in errors. Each record is its name, its cells' names
    in write order and their counts; `checksum` gives the checksum counts
    once the records are written. A cell that breaks the cell rule raises
    DataError, as do a record or cell name that is not a str, a name with
    two records and a line feed anywhere."""
    lines = itertools.chain((f"#{key}={value}" for key, value in header.items()),
                            _record_lines(path, what, nouns, records, checksum))
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


def cell_names(cells: str) -> list[str]:
    """The names of a record's cells, in file order."""
    return [cell.rpartition(":")[0] for cell in cells.split(",")] if cells else []


def load(path, what: str, header_keys: tuple[str, ...], checksum_keys: tuple[str, ...],
         nouns: tuple[str, str], key_of: Callable[[str], str] | None = None
         ) -> tuple[dict[str, str], list[tuple[str, dict[str, int], str]], dict[str, int]]:
    """Read back what `save` wrote: the header values by key, the records
    as `(name, counts by cell key, cells' text)`, and the checksum counts.

    A cell's key is `key_of` its name, or its name, and a key equal to the
    name is the name itself. Each distinct cell is decoded and checked once
    per call, so every record holding it shares one key string, and each
    distinct count text is read once. A missing or misplaced line, the
    first cell that breaks the cell rule, or a name with two records raises
    CorruptFileError; whether the counts match is for the caller to check.
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

    # Each line's split is replaced by its record in place, and the file's
    # text is not kept while the cells are decoded.
    records: list = [line.rpartition("\t") for line in lines[len(header_keys):-1]]
    del lines
    decoded: dict[str, tuple[str, int]] = {}
    parsed: dict[str, int] = {}  # each count's text, read as `save` writes it
    try:
        for index, (name, tab, cells) in enumerate(records):
            if not tab:
                raise CorruptFileError(f"{path}: record line without a tab: {cells!r}")
            row: dict[str, int] = {}
            if cells:
                split = cells.split(",")
                for cell in split:
                    entry = decoded.get(cell)
                    if entry is None:
                        cell_name, _, text = cell.rpartition(":")
                        count = parsed.get(text)
                        if count is None:
                            count = read_count(text)
                            if count is None:
                                raise ValueError(_refusal(nouns, name, cell_name, text))
                            parsed[text] = count
                        if not cell_name or count < 1:
                            raise ValueError(_refusal(nouns, name, cell_name, count))
                        if key_of is not None and (key := key_of(cell_name)) != cell_name:
                            cell_name = key
                        entry = decoded[cell] = (cell_name, count)
                    cell_key, count = entry
                    row[cell_key] = count
                if len(row) != len(split):
                    keys = [decoded[cell][0] for cell in split]
                    twice = next(k for i, k in enumerate(keys) if k in keys[:i])
                    raise ValueError(f"{nouns[0]} {name!r} holds the {nouns[1]} {twice!r} twice")
            records[index] = name, row, cells
        names = [record[0] for record in records]
        if len(set(names)) != len(names):
            twice = next(name for name, n in Counter(names).items() if n > 1)
            raise ValueError(f"{nouns[0]} {twice!r} has two records")
    except ValueError as exc:
        raise CorruptFileError(f"unparseable {what} line in {path}: {exc}") from exc
    return header, records, counts
