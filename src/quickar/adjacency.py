"""Word-adjacency database mined from crowd-sourced question titles.

For every word seen in the titles this stores the multiset of words that
co-occurred with it inside a small sliding window. The database backs both
relevance signals used during reformulation: cosine similarity between two
words' adjacency vectors, and direct co-occurrence counts.

A saved database declares its unordered pair count as `#pairs=`, and its
neighbor counts must sum to exactly twice that: `save` refuses an odd sum,
and `load` any sum but twice `#pairs=`. One edited count therefore never
loads, but two edits that cancel out still do.
"""

from __future__ import annotations

import logging
import math
from typing import Iterable, Iterator, NamedTuple

from . import artifact
from .errors import CorruptFileError, DataError
from .textprep import SPLIT_ONLY, StopList, preprocess

log = logging.getLogger(__name__)

DEFAULT_WINDOW = 2


class TitleRecord(NamedTuple):
    """One question title from a dump: id, raw title, lower-cased tags."""

    question_id: int
    title: str
    tags: tuple[str, ...]


class DbMeta(NamedTuple):
    """Build parameters recorded with the database."""

    window: int = DEFAULT_WINDOW
    stoplist_sha: str = ""
    source: str = ""


class AdjacencyDatabase:
    """Word -> (neighbor -> count) map with build metadata; symmetric as
    built, though nothing here relies on it.

    Rows are read-only. Each word's L2 norm is memoized on first use.
    `cosine_sums` scores many terms against a few words in one loop, and
    `cosine` is its one-pair case, so there is one dot product.
    """

    def __init__(self, entries: dict[str, dict[str, int]] | None = None,
                 meta: DbMeta | None = None):
        self.entries: dict[str, dict[str, int]] = entries if entries is not None else {}
        self.meta = meta if meta is not None else DbMeta()
        self._norms: dict[str, float] = {}

    @property
    def vocab_size(self) -> int:
        return len(self.entries)

    @property
    def total_pair_count(self) -> int:
        # Every unordered pair is stored in both directions.
        return sum(sum(nbrs.values()) for nbrs in self.entries.values()) // 2

    def neighbors(self, word: str) -> dict[str, int]:
        """The stored neighbor counts of `word`, empty for unknown words.
        Treat the row as read-only."""
        return self.entries.get(word, {})

    def vector_norm(self, word: str) -> float:
        """L2 norm of a word's adjacency vector (cached; 0.0 if unknown)."""
        norm = self._norms.get(word)
        if norm is None:
            nbrs = self.entries.get(word)
            norm = math.sqrt(sum(c * c for c in nbrs.values())) if nbrs else 0.0
            self._norms[word] = norm
        return norm

    def cosine(self, a: str, b: str) -> float:
        """Cosine between the adjacency vectors of two words, 0.0 if either
        is empty; symmetric to the bit. The one-pair case of cosine_sums."""
        return self.cosine_sums([a], [b])[0]

    def cosine_sums(self, terms: Iterable[str], words: Iterable[str]) -> list[float]:
        """The summed cosine of each of `terms`' adjacency vectors with
        those of `words`, one float per term in `terms` order. The cosines
        are added left to right in `words` order, so every interpreter gives
        the same float; an empty vector on either side adds nothing.

        Each word's row and norm are read once. A dot product is an integer
        sum over the smaller of the two rows, exact in any order, so each
        cosine is `dot / (norm(term) * norm(word))` to the bit either way,
        and a zero dot adds nothing.
        """
        entries, vector_norm = self.entries, self.vector_norm
        rows = []
        for word in words:
            row = entries.get(word)
            if row:
                rows.append((row, len(row), vector_norm(word)))
        sums = []
        for term in terms:
            total = 0.0
            row = entries.get(term)
            if row:
                size, norm = len(row), None
                for other, other_size, other_norm in rows:
                    small, large = (row, other) if size <= other_size else (other, row)
                    dot = 0
                    for word, count in small.items():
                        if word in large:
                            dot += count * large[word]
                    if dot:
                        if norm is None:
                            norm = vector_norm(term)
                        total += dot / (norm * other_norm)
            sums.append(total)
        return sums

    def __eq__(self, other) -> bool:
        if not isinstance(other, AdjacencyDatabase):
            return NotImplemented
        return self.entries == other.entries and self.meta == other.meta

    def __repr__(self) -> str:
        return (f"AdjacencyDatabase(vocab_size={self.vocab_size}, "
                f"total_pair_count={self.total_pair_count}, meta={self.meta})")


# ---------------------------------------------------------------------------
# Dump parsing and filtering
# ---------------------------------------------------------------------------

class DumpStats:
    """Counters filled while reading a dump; malformed lines never abort."""

    def __init__(self, read: int = 0, malformed: int = 0):
        self.read, self.malformed = read, malformed


def parse_title_line(line: str) -> TitleRecord:
    """Parse one `question_id<TAB>title<TAB>tag1;tag2;...` line."""
    parts = line.split("\t")
    if len(parts) != 3:
        raise DataError(f"expected 3 tab-separated fields, got {len(parts)}")
    qid_text, title, tag_field = parts
    try:
        qid = int(qid_text)
    except ValueError:
        raise DataError(f"non-integer question id: {qid_text!r}") from None
    if not title:
        raise DataError("empty title")
    tags = tuple(t.strip().lower() for t in tag_field.split(";") if t.strip())
    return TitleRecord(qid, title, tags)


def read_title_dump(path, stats: DumpStats | None = None) -> Iterator[TitleRecord]:
    """Stream TitleRecords from a TSV dump, skipping malformed lines."""
    stats = stats if stats is not None else DumpStats()
    for lineno, line in enumerate(artifact.read_lines(path, "dump"), start=1):
        if not line.strip():
            continue
        stats.read += 1
        try:
            yield parse_title_line(line)
        except DataError as exc:
            stats.malformed += 1
            log.warning("skipping malformed record at %s:%d: %s", path, lineno, exc)


def filter_titles(records: Iterable[TitleRecord], required_tag: str) -> Iterator[TitleRecord]:
    """Yield exactly the records whose tag list contains `required_tag`,
    which is matched stripped and lower-cased, like the dump's own tags."""
    wanted = required_tag.strip().lower()
    for rec in records:
        if wanted in rec.tags:
            yield rec


# ---------------------------------------------------------------------------
# Building
# ---------------------------------------------------------------------------

def count_title_pairs(
    tokens: list[str],
    window: int,
    into: dict[str, dict[str, int]],
) -> None:
    """Add the windowed pair counts of one preprocessed title to `into`.

    A pair is two distinct words at positions less than `window` apart; each
    position pair counts once, so a pair that recurs within one title counts
    each time. Identical words never pair with themselves. Position pairs
    are visited by offset, 1 up to `window - 1`, and left to right within
    one offset.
    """
    for offset in range(1, min(window, len(tokens))):
        for a, b in zip(tokens, tokens[offset:]):
            if a == b:
                continue
            row = into.get(a)
            if row is None:
                row = into[a] = {}
            row[b] = row.get(b, 0) + 1
            row = into.get(b)
            if row is None:
                row = into[b] = {}
            row[a] = row.get(a, 0) + 1


def _window_refusal(window: object) -> str:
    """Why a database cannot record `window`, worded alike by `build`,
    `save` and `load`; "" if it can. A window is an int of at least 2, and
    a `#window=` header holds its plain digits as `artifact.read_count`
    reads them."""
    if type(window) is not int:
        return f"window {window!r} is not plain digits"
    if window < 2:
        return f"window must be >= 2, got {window}"
    return ""


def build(
    titles: Iterable[TitleRecord],
    stops: StopList,
    window: int = DEFAULT_WINDOW,
    source: str = "",
) -> AdjacencyDatabase:
    """Build an adjacency database from already tag-filtered titles."""
    reason = _window_refusal(window)
    if reason:
        raise ValueError(reason)
    entries: dict[str, dict[str, int]] = {}
    for rec in titles:
        tokens = preprocess(rec.title, stops, SPLIT_ONLY).normalized()
        count_title_pairs(tokens, window, entries)
    meta = DbMeta(window=window, stoplist_sha=stops.sha, source=source)
    return AdjacencyDatabase(entries=entries, meta=meta)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

# `binary` is always 0 since `build-db --binary` was removed; the line
# stays so that a database keeps its bytes.
_HEADER_KEYS = ("window", "stoplist_sha", "source", "binary")
_NOUNS = ("word", "neighbor")  # what errors call a record and a cell


def _records(db: AdjacencyDatabase):
    """Each word, its neighbors sorted and their counts."""
    for word in artifact.ordered(db.entries):
        row = db.entries[word]
        nbrs = artifact.ordered(row)
        yield word, nbrs, [*map(row.__getitem__, nbrs)]


def _exact_pair_count(db: AdjacencyDatabase) -> int | None:
    """The number of unordered pairs `db` stores, each in both directions:
    half the sum of its neighbor counts, or None when that sum is odd, as
    no symmetric database's is."""
    pairs, odd = divmod(sum(sum(row.values()) for row in db.entries.values()), 2)
    return None if odd else pairs


def save(db: AdjacencyDatabase, path) -> None:
    """Write `db` in the artifact layout: one record per word, its cells
    `neighbor:count` sorted by neighbor, and the unordered pair count as
    the checksum. A row or a window that `load` would refuse, or neighbor
    counts with an odd sum, raise DataError, and the previous file stays."""
    reason = _window_refusal(db.meta.window)
    if reason:
        raise DataError(f"cannot write database {path}: {reason}")
    header = {key: getattr(db.meta, key) for key in _HEADER_KEYS[:-1]} | {"binary": 0}

    def checksum() -> dict[str, int]:
        pairs = _exact_pair_count(db)
        if pairs is None:
            raise DataError(f"cannot write database {path}: its neighbor counts have an odd "
                            "sum, so some pair is not stored in both directions")
        return {"pairs": pairs}

    artifact.save(path, "database", header, _records(db), _NOUNS, checksum)


def load(path) -> AdjacencyDatabase:
    """Read a database that `save` wrote.

    A cell that breaks the artifact's cell rule is refused, naming the
    first such cell, and so are a word with two records, a `#window=`
    header that is not the plain digits of a window of at least 2, a
    `#binary=` header other than 0, and neighbor counts that do not sum to
    exactly twice `#pairs=`.
    """
    header, records, declared = artifact.load(path, "database", _HEADER_KEYS, ("pairs",),
                                              _NOUNS)
    entries = {word: nbrs for word, nbrs, _ in records}
    window = artifact.read_count(header["window"])
    reason = _window_refusal(header["window"] if window is None else window)
    if reason:
        raise CorruptFileError(f"unparseable database line in {path}: {reason}")
    if header["binary"] != "0":
        raise CorruptFileError(f"unparseable database line in {path}: binary must be 0, got "
                               f"{header['binary']!r}: build-db --binary was removed; "
                               "rebuild the database")

    meta = DbMeta(window=window, stoplist_sha=header["stoplist_sha"], source=header["source"])
    db = AdjacencyDatabase(entries=entries, meta=meta)
    if _exact_pair_count(db) != declared["pairs"]:
        raise CorruptFileError(
            f"{path}: checksum mismatch, file declares {declared['pairs']} pairs but its "
            f"neighbor counts do not sum to {2 * declared['pairs']}")
    return db
