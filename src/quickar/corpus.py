"""Method-level source corpus: splitting, preprocessing, statistics, storage.

Each source file is decomposed into method-like units by a lightweight
brace-matching splitter; every unit becomes one document. Files the splitter
cannot handle contribute a single whole-file document, so no file is ever
silently dropped.
"""

from __future__ import annotations

import logging
import re
import string
import sys
from collections import Counter
from functools import cached_property
from itertools import accumulate, chain
from operator import attrgetter
from pathlib import Path
from typing import Iterator, NamedTuple

from . import artifact
from .errors import CorruptFileError, DataError
from .textprep import SPLIT_AND_KEEP_WHOLE, StopList, TermSequence, preprocess, words_sha

log = logging.getLogger(__name__)

DEFAULT_EXTENSIONS = (".java",)

# Keywords that look like `name (...) {` but never open a method body.
_CONTROL_WORDS = frozenset({
    "if", "else", "for", "while", "do", "switch", "case", "catch", "try",
    "finally", "synchronized", "return", "throw", "new", "assert", "break",
    "continue", "default", "instanceof", "yield",
})

_SIGNATURE_RE = re.compile(r"([A-Za-z_$][A-Za-z0-9_$]*)\s*\(")

# Characters that may not directly precede a method name (call chains,
# operators, annotations). `>` stays legal: generic return types end with it.
_BAD_PRECEDERS = ".@=!&|+-*/%,([~^"

# `new Name() {` opens an anonymous class, `record Name(...) {` a type body.
_BAD_PRECEDING_WORDS = frozenset({"new", "record"})

_WORD_CHARS = frozenset(string.ascii_letters + string.digits + "_$")

# The masker's one pattern, tried leftmost first on the text with every
# `\\` pair made two inert characters, so that each backslash left escapes
# a character that is not a backslash. A `//` comment runs to the line
# feed; a `/*` comment to the first `*/` after its opener, or unclosed to
# the end of the text. A `"` or `'` literal runs to its first quote that no
# backslash precedes, which sets the group `dq` or `sq`; an escaped line
# feed stays inside, a final backslash escapes past the end, and an
# unclosed literal runs to the end. Every body is a scan of single
# characters, plain or lazy, so that none takes backtracking memory per
# character or per escape.
_MASKED_RE = re.compile(r"""//[^\n]*|/\*[\s\S]*?\*/|/\*[\s\S]*"""
                        r"""|"[^"\\]*(?:(?=\\)[\s\S]*?)?(?<!\\)(?:"(?P<dq>)|\\?\Z)"""
                        r"""|'[^'\\]*(?:(?=\\)[\s\S]*?)?(?<!\\)(?:'(?P<sq>)|\\?\Z)""")
# A parameter list's tail up to the `{` of a method body: whitespace as
# `str.isspace` reads it, then an optional throws clause.
_BODY_OPEN_RE = re.compile(r"\s*(?:throws(?![\w$])[^{;]*)?\{")
_BRACE_RE = re.compile(r"[{}]")
_PAREN_RE = re.compile(r"[()]")
_BRACE_STEP = {"{": 1, "}": -1}


class MethodUnit(NamedTuple):
    """One extracted unit: signature plus balanced-brace body text."""

    name: str
    text: str
    whole_file: bool = False


def _blank(text: str, start: int, end: int) -> str:
    """Spaces in place of every character of `text[start:end]` but its
    newlines."""
    if text.find("\n", start, end) < 0:
        return " " * (end - start)
    return "\n".join(" " * len(line) for line in text[start:end].split("\n"))


def _masked_pieces(text: str, literals: bool) -> Iterator[str]:
    """The pieces of `text` with its comments blanked, and its literal
    bodies too if `literals`; newlines and quotes stay. `_MASKED_RE` runs on
    a copy whose `\\` pairs are inert, and the pieces are cut from `text`
    at the same spans. The copy is freed with the generator, before a join
    of the pieces allocates the output."""
    pos = 0
    for match in _MASKED_RE.finditer(text.replace("\\\\", "  ")):
        start, end = match.span()
        if text[start] == "/":
            yield text[pos:start]
            yield _blank(text, start, end)
        elif literals:
            close = end - 1 if match.lastgroup else end  # before a closing quote
            yield text[pos:start + 1]
            yield _blank(text, start + 1, close)
            yield text[close:end]
        else:
            continue
        pos = end
    yield text[pos:]


def _mask(text: str) -> str:
    """`text` with its comments and literal bodies blanked, so that brace
    and paren matching cannot be fooled; newlines and quotes stay."""
    return "".join(_masked_pieces(text, literals=True))


def _strip_comments(text: str) -> str:
    """`text` with only its comments blanked, for `build_corpus`'s
    strip-comments mode; newlines stay."""
    return "".join(_masked_pieces(text, literals=False))


def _check_braces(scan: str) -> str:
    """Why the braces do not balance ("" if every `}` closes an earlier
    `{` and none is left open)."""
    depths = list(accumulate(map(_BRACE_STEP.__getitem__, _BRACE_RE.findall(scan))))
    if depths and min(depths) < 0:
        return "closing brace without opener"
    if depths and depths[-1]:
        return f"{depths[-1]} unclosed brace(s)"
    return ""


def _closer(scan: str, open_idx: int, pair_re: re.Pattern) -> int | None:
    """Index of the bracket closing the one at `open_idx`; None if none does."""
    opener = scan[open_idx]
    depth = 0
    for match in pair_re.finditer(scan, open_idx):
        if match.group() == opener:
            depth += 1
        else:
            depth -= 1
            if depth == 0:
                return match.start()
    return None


def _word_before(scan: str, end: int) -> str:
    """The identifier ending at `end`: the run of [A-Za-z0-9_$] ending
    there, less any leading digits ("" if there is none)."""
    start = end
    while start and scan[start - 1] in _WORD_CHARS:
        start -= 1
    return scan[start:end].lstrip(string.digits)


def split_methods(text: str, fallback_name: str = "file") -> list[MethodUnit]:
    """Split one curly-brace-language source file into method-like units.

    A unit starts at an identifier followed by a parameter list and an
    opening brace, sitting at class-body depth; its text runs from the
    previous statement boundary through the balanced closing brace (so
    modifiers, annotations and the signature are included). Files with no
    matches, or with unbalanced braces, yield one whole-file unit.

    Time is linear in the file's length. The text is masked and its braces
    checked in one pass each; the search for signatures resumes after each
    unit's body; the brace depth at a candidate is counted on from the
    previous candidate; a body or parameter list is read once from its
    opener, and the scans back from a signature stop at the previous unit.
    Only a parameter list nested inside another candidate's is read twice.

    Candidates are judged on the masked text, in which whitespace is what
    `str.isspace` accepts and the word before a signature is the longest
    run of [A-Za-z0-9_$] ending there, less its leading digits. Unit texts
    are ordered, non-overlapping substrings of `text`, stripped of
    surrounding whitespace.
    """
    scan = _mask(text)
    whole_file = [MethodUnit(name=fallback_name, text=text, whole_file=True)]
    reason = _check_braces(scan)
    if reason:
        log.warning("unbalanced braces (%s); indexing whole file", reason)
        return whole_file

    units: list[MethodUnit] = []
    cursor = pos = 0
    depth = depth_at = 0
    # A match never spans a unit's closing brace, so resuming the search
    # after a unit finds the same candidates as one pass over the file.
    while (match := _SIGNATURE_RE.search(scan, pos)) is not None:
        start, pos = match.span()
        name = match.group(1)
        if name in _CONTROL_WORDS:
            continue
        depth += scan.count("{", depth_at, start) - scan.count("}", depth_at, start)
        depth_at = start
        if depth < 1:
            continue
        end = start  # end of the text before the name, less trailing whitespace
        while end and scan[end - 1].isspace():
            end -= 1
        if end and scan[end - 1] in _BAD_PRECEDERS:
            continue
        if _word_before(scan, end) in _BAD_PRECEDING_WORDS:
            continue
        close_paren = _closer(scan, match.end() - 1, _PAREN_RE)
        if close_paren is None:
            log.warning("unbalanced braces (unterminated parameter list); indexing whole file")
            return whole_file
        body_open = _BODY_OPEN_RE.match(scan, close_paren + 1)
        if body_open is None:
            continue
        body_close = _closer(scan, body_open.end() - 1, _BRACE_RE)
        # The previous unit's closing brace, at cursor - 1, bounds the search.
        floor = max(cursor - 1, 0)
        sig_start = max(scan.rfind(";", floor, end), scan.rfind("{", floor, end),
                        scan.rfind("}", floor, end)) + 1
        units.append(MethodUnit(name=name, text=text[sig_start:body_close + 1].strip()))
        cursor = pos = body_close + 1

    return units or whole_file


# ---------------------------------------------------------------------------
# Documents and the corpus
# ---------------------------------------------------------------------------

class Document:
    """One method-level document: normalized term counts plus the first-seen
    surface form of each term (kept for query rendering). Both maps hold the
    same terms, each its surface lower-cased; `save` refuses any other. A
    plain mutable slots record, equal by value.

    A document that `load` read has its `term_counts` decoded at load, and
    keeps its record's cells to decode `surfaces` from on first read: the
    surface of each cell, in cell order. Load has checked every cell, so
    that decoding never raises. A surface that is already lower-case is its
    own `term_counts` key; any other is interned, so it is one string in
    every document that holds it.
    """

    __slots__ = ("doc_id", "term_counts", "surfaces", "_cells")

    def __init__(self, doc_id: str, term_counts: dict[str, int] | None = None,
                 surfaces: dict[str, str] | None = None):
        self.doc_id, self._cells = doc_id, ""
        self.term_counts = {} if term_counts is None else term_counts
        self.surfaces = {} if surfaces is None else surfaces

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.doc_id, self.term_counts, self.surfaces) == (
            other.doc_id, other.term_counts, other.surfaces)

    @classmethod
    def _loaded(cls, doc_id: str, term_counts: dict[str, int], cells: str) -> "Document":
        """A document of `load`, its `surfaces` slot left unset."""
        doc = cls.__new__(cls)
        doc.doc_id, doc.term_counts, doc._cells = doc_id, term_counts, cells
        return doc

    def __getattr__(self, name: str):
        # Called only for an unset slot; `surfaces` is unset only in a
        # document of `load`, which decodes it here once.
        if name != "surfaces":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        # Load keyed each cell's term in cell order, and met each term once.
        self.surfaces = {term: term if surface == term else sys.intern(surface)
                         for term, surface in zip(self.term_counts,
                                                  artifact.cell_names(self._cells))}
        self._cells = ""
        return self.surfaces

    @classmethod
    def from_terms(cls, doc_id: str, terms: TermSequence) -> "Document":
        counts: dict[str, int] = {}
        surfaces: dict[str, str] = {}
        for tok in terms:
            counts[tok.normalized] = counts.get(tok.normalized, 0) + 1
            surfaces.setdefault(tok.normalized, tok.surface)
        return cls(doc_id, counts, surfaces)

    @property
    def length(self) -> int:
        return sum(self.term_counts.values())


class CorpusMeta(NamedTuple):
    source: str = ""
    stoplist_sha: str = ""
    keywords_sha: str = ""


class Corpus:
    """Immutable method-level document collection with frequency statistics.

    Construction only stores the documents. The statistics are computed on
    first read and kept, each from the documents alone. `doc_freq` maps
    each term to the number of documents holding it, counted in C over
    their term counts; idf, the keyword reduction and top-n search read it.
    `positions` maps each term to the ascending positions of the documents
    holding it; only full scoring, which builds postings, reads it. Both
    hold the terms in the order the documents first hold them.
    """

    def __init__(self, documents: list[Document], meta: CorpusMeta | None = None):
        self.documents = documents
        self.meta = meta if meta is not None else CorpusMeta()

    @cached_property
    def doc_freq(self) -> Counter[str]:
        return Counter(chain.from_iterable(map(attrgetter("term_counts"), self.documents)))

    @cached_property
    def positions(self) -> dict[str, list[int]]:
        positions: dict[str, list[int]] = {}
        for index, doc in enumerate(self.documents):
            for term in doc.term_counts:
                held = positions.get(term)
                if held is None:
                    positions[term] = [index]
                else:
                    held.append(index)
        return positions

    @property
    def n_docs(self) -> int:
        return len(self.documents)

    def document_frequency_ratio(self, word: str) -> float:
        """Fraction of documents containing `word`, in [0, 1]."""
        if self.n_docs == 0:
            raise DataError("document frequency is undefined on an empty corpus")
        return self.doc_freq[word] / self.n_docs

    def __eq__(self, other) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return self.documents == other.documents and self.meta == other.meta

    def __repr__(self) -> str:
        return f"Corpus(n_docs={self.n_docs}, vocab={len(self.doc_freq)}, meta={self.meta})"


class IngestStats:
    """Indexing counters (`whole_file`: files indexed whole); a plain mutable record."""

    def __init__(self, files: int = 0, skipped: int = 0, whole_file: int = 0):
        self.files, self.skipped, self.whole_file = files, skipped, whole_file


def _ingest(root, stops: StopList, keywords: frozenset[str], stats: IngestStats | None,
            select, units_of) -> Corpus:
    """Index the files under `root` that `select(path)` accepts, in path
    order so a rebuild is byte-identical. `units_of(rel, text)` gives a
    file's `(doc_id, text)` units and whether it became one whole-file
    document; an unreadable file is skipped and counted."""
    root = Path(root)
    if not root.is_dir():
        raise DataError(f"source directory not found: {root}")
    stats = stats if stats is not None else IngestStats()
    rels = sorted(p.relative_to(root).as_posix()
                  for p in root.rglob("*") if p.is_file() and select(p))
    documents: list[Document] = []
    for rel in rels:
        try:
            text = (root / rel).read_text(encoding="utf-8", errors="replace")
        except OSError as exc:
            log.warning("skipping unreadable file %s: %s", root / rel, exc)
            stats.skipped += 1
            continue
        units, whole_file = units_of(rel, text)
        stats.files += 1
        stats.whole_file += whole_file
        for doc_id, unit_text in units:
            terms = preprocess(unit_text, stops, SPLIT_AND_KEEP_WHOLE, extra_drop=keywords)
            documents.append(Document.from_terms(doc_id, terms))
    meta = CorpusMeta(source=root.name, stoplist_sha=stops.sha, keywords_sha=words_sha(keywords))
    return Corpus(documents, meta=meta)


def build_corpus(
    root,
    stops: StopList,
    keywords: frozenset[str] = frozenset(),
    extensions: tuple[str, ...] = DEFAULT_EXTENSIONS,
    strip_comments: bool = False,
    stats: IngestStats | None = None,
) -> Corpus:
    """Index every matching file under `root`, one document per method."""

    def methods(rel: str, text: str):
        if strip_comments:
            text = _strip_comments(text)
        units = split_methods(text, fallback_name=Path(rel).stem)
        return ([(f"{rel}#{0 if unit.whole_file else ordinal}:{unit.name}", unit.text)
                 for ordinal, unit in enumerate(units, start=1)], units[0].whole_file)

    return _ingest(root, stops, keywords, stats, lambda p: p.suffix in extensions, methods)


def build_corpus_presplit(
    root,
    stops: StopList,
    keywords: frozenset[str] = frozenset(),
    stats: IngestStats | None = None,
) -> Corpus:
    """Index a directory of already-split documents, one file per document.

    For users with a real language parser: write each method to its own text
    file and this path skips the heuristic splitter entirely. Document ids
    are the relative file paths.
    """
    return _ingest(root, stops, keywords, stats, lambda p: True,
                   lambda rel, text: ([(rel, text)], False))


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

_HEADER_KEYS = ("source", "stoplist_sha", "keywords_sha")
_NOUNS = ("document", "term")  # what errors call a record and a cell


def _changed(doc: Document) -> str:
    """How `load` would give `doc` back changed: its counts and surfaces
    are for different terms, or the first term that is not its surface
    lower-cased."""
    counts, surfaces = doc.term_counts, doc.surfaces
    if counts.keys() != surfaces.keys():
        return (f"document {doc.doc_id!r} has counts and surfaces for different terms, "
                f"first {artifact.ordered(counts.keys() ^ surfaces.keys())[0]!r}")
    term = next(term for term in artifact.ordered(counts) if surfaces[term].lower() != term)
    return (f"document {doc.doc_id!r} has a term {term!r} whose surface {surfaces[term]!r} "
            f"lower-cases to {surfaces[term].lower()!r}")


def _records(corpus: Corpus, path):
    """Each document's doc id, surfaces and counts, sorted by term. A
    document that `load` would give back changed raises DataError."""
    for doc in corpus.documents:
        counts, surfaces = doc.term_counts, doc.surfaces
        terms = artifact.ordered(counts)
        try:
            names = [*map(surfaces.__getitem__, terms)]
            changed = len(surfaces) != len(counts) or [*map(str.lower, names)] != terms
        except KeyError:  # a term without a surface
            changed = True
        except TypeError:  # a surface that is not a str, which `artifact.save` refuses
            changed = False
        if changed:
            raise DataError(f"cannot write index {path}: {_changed(doc)}")
        yield doc.doc_id, names, [*map(counts.__getitem__, terms)]


def save(corpus: Corpus, path) -> None:
    """Write `corpus` in the artifact layout: one record per document, its
    cells `surface:count` sorted by normalized term, and the document and
    term counts as the checksum. A document that `load` would refuse or
    give back changed raises DataError, and the previous file stays."""
    header = {key: getattr(corpus.meta, key) for key in _HEADER_KEYS}
    artifact.save(path, "index", header, _records(corpus, path), _NOUNS, lambda: {
        "docs": corpus.n_docs, "terms": sum(doc.length for doc in corpus.documents)})


def load(path) -> Corpus:
    """Read a corpus that `save` wrote.

    Only each document's `term_counts` is decoded here, keyed by surface
    lower-cased; its `surfaces` are decoded from its record on first read
    (see `Document`). Every refusal happens here, whatever is read later: a
    cell that breaks the artifact's cell rule, a doc id with two records,
    and a checksum mismatch.
    """
    header, records, declared = artifact.load(path, "index", _HEADER_KEYS, ("docs", "terms"),
                                              _NOUNS, str.lower)
    documents = [Document._loaded(*record) for record in records]
    found = {"docs": len(documents), "terms": sum(doc.length for doc in documents)}
    if found != declared:
        raise CorruptFileError(f"{path}: checksum mismatch, declared {declared}, found {found}")
    return Corpus(documents, meta=CorpusMeta(**header))
