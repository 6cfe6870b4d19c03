"""Deterministic text preprocessing shared by every other module.

Tokenization, camel-case decomposition, stop-word removal and lower-case
normalization. No stemming, ever: reformulated queries must contain real
words, not stems. Only ASCII letters and digits form tokens, a run of digits
alone is never one, and camel boundaries are tried only before an ASCII capital.

Crowd titles and method bodies repeat the same few thousand raw tokens over
and over, so `preprocess` expands each distinct one only once, in one pass.
Every `StopList` keeps a memo for each `(mode, extra_drop)` it is used with:
raw token -> the tuple of `Token`s that survive splitting and filtering.
Each memo also keeps every camel part it has seen, kept or dropped, so that
identifiers sharing a part ("getValue", "setValue") share its `Token`. The
memo lives exactly as long as its stop list (there is no module-level
cache), and the shared `Token`s are frozen.
"""

from __future__ import annotations

import hashlib
import re
from itertools import chain
from operator import attrgetter
from pathlib import Path

from .artifact import read_lines

# Token origins.
WHOLE = "whole"
CAMEL_PART = "camel_part"

# Preprocessing modes.
SPLIT_ONLY = "split_only"
SPLIT_AND_KEEP_WHOLE = "split_and_keep_whole"

_DATA_DIR = Path(__file__).with_name("data")

# A maximal run of ASCII letters and digits with a letter in it. A match starts
# only where a run does, so a long digit run is scanned in linear time.
_TOKEN_RE = re.compile(r"(?<![0-9A-Za-z])[0-9]*[A-Za-z][0-9A-Za-z]*")

# Camel boundaries, each before an upper (tested first): after a lower/digit
# ("restClient", "utf8Codec"), or between an upper run and a trailing
# Upper+lower word ("XMLHttp" -> "XML|Http"). Zero-width: parts concatenate back.
_CAMEL_BOUNDARY_RE = re.compile(r"(?=[A-Z])(?:(?<=[a-z0-9])|(?<=[A-Z])(?=[A-Z][a-z]))")


class Token:
    """One preprocessed token: original surface plus lower-cased form. A
    plain immutable slots record: equal and hashed by value, never equal to
    a tuple, and setting or deleting a field raises AttributeError."""

    __slots__ = ("surface", "normalized", "origin")  # origin: WHOLE or CAMEL_PART

    def __init__(self, surface: str, normalized: str, origin: str):
        _set_surface(self, surface)
        _set_normalized(self, normalized)
        _set_origin(self, origin)

    def __setattr__(self, name: str, *value):
        raise AttributeError(f"cannot set or delete field {name!r} of a Token")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _fields(self) == _fields(other)

    def __hash__(self) -> int:
        return hash(_fields(self))

    def __repr__(self) -> str:
        return "Token(%r, %r, %r)" % _fields(self)

    def __reduce__(self):
        # Copies and pickles are rebuilt through `__init__`, not `__setattr__`.
        return Token, _fields(self)

    @classmethod
    def from_surface(cls, surface: str, origin: str = WHOLE) -> "Token":
        return cls(surface, surface.lower(), origin)


# `_Expansions` builds its tokens inline: the slots' setters get past the
# refusing `__setattr__`, and skip the call to `Token.__init__`.
_new, _fields = object.__new__, attrgetter(*Token.__slots__)
_set_surface, _set_normalized, _set_origin = (getattr(Token, f).__set__ for f in Token.__slots__)


class TermSequence(list):
    """Ordered token list derived from one title, query, or document."""

    def normalized(self) -> list[str]:
        return [t.normalized for t in self]

    def surfaces(self) -> list[str]:
        return [t.surface for t in self]


def words_sha(words) -> str:
    """Hash of a canonicalized word set; identifies word lists in file meta."""
    canon = "\n".join(sorted(set(words))).encode("utf-8")
    return hashlib.sha256(canon).hexdigest()


class StopList:
    """Immutable set of stop words, matched against normalized tokens.
    Also owns `preprocess`'s memo (see the module docstring)."""

    def __init__(self, words: set[str]):
        self.words = frozenset(w.lower() for w in words)
        self._expansions: dict[tuple[str, frozenset[str] | None], _Expansions] = {}

    def __contains__(self, word: str) -> bool:
        return word in self.words

    def __len__(self) -> int:
        return len(self.words)

    @property
    def sha(self) -> str:
        return words_sha(self.words)


def read_words(path) -> set[str]:
    """The lower-cased words of a word list: one word per line, `#` starts
    a comment, blank lines ignored."""
    words: set[str] = set()
    for line in read_lines(path, "word list"):
        word = line.split("#", 1)[0].strip()
        if word:
            words.add(word.lower())
    return words


def bundled_words(name: str) -> set[str]:
    """The words of the list `name` bundled with the package."""
    return read_words(_DATA_DIR / name)


def default_stoplist() -> StopList:
    """The bundled English stop list (does not contain direction words)."""
    return StopList(bundled_words("stopwords.txt"))


def load_stoplist(path: str | None) -> StopList:
    """Stop list from `path`, or the bundled default when path is None."""
    if path is None:
        return default_stoplist()
    return StopList(read_words(path))


def default_language_keywords() -> frozenset[str]:
    """Bundled Java reserved words, for corpus preprocessing."""
    return frozenset(bundled_words("java_keywords.txt"))


def load_language_keywords(path: str | None) -> frozenset[str]:
    if path is None:
        return default_language_keywords()
    return frozenset(read_words(path))


def tokenize(text: str) -> list[str]:
    """Split raw text into its maximal runs of ASCII letters and digits.

    Any other character splits, a non-ASCII letter included; a run of digits
    alone is never a token, mixed alphanumerics ("utf8") are kept whole.
    Surfaces keep their original casing.

    >>> tokenize("memory leak/garbage-collection issue")
    ['memory', 'leak', 'garbage', 'collection', 'issue']
    >>> tokenize("naïve 2 utf8")
    ['na', 've', 'utf8']
    >>> tokenize("")
    []
    """
    return _TOKEN_RE.findall(text)


def split_camel(token: str) -> list[str]:
    """Split one identifier at camel-case boundaries, preserving casing.

    Lower-to-upper transitions and acronym boundaries (an upper-case run
    followed by Upper+lower splits before the last upper) both break the
    token; a boundary is tried only before an ASCII capital. Single-case
    tokens come back unchanged. Parts concatenate to exactly the input.

    >>> split_camel("GenericContainerInstantiator")
    ['Generic', 'Container', 'Instantiator']
    >>> split_camel("XMLHttpRequest")
    ['XML', 'Http', 'Request']
    >>> split_camel("memory")
    ['memory']
    """
    return _CAMEL_BOUNDARY_RE.split(token)


class _Expansions(dict):
    """Raw token -> the tokens `preprocess` keeps of it, for one stop list
    and setting; a token is expanded in one pass the first time it is looked
    up. Holds the stop words, not the `StopList`, so that no reference cycle
    keeps the stop list alive.

    Identifiers share their camel parts ("getValue", "setValue"), so a
    second dict maps each part's surface to its kept `CAMEL_PART` token, or
    to None when the part is dropped: a stop or `extra_drop` word, or all
    digits. A multi-part token is expanded from that dict; only its `WHOLE`
    token is new. A lower-case surface is its own normalized string."""

    def __init__(self, stop_words: frozenset[str], mode: str, extra_drop: frozenset[str] | None):
        super().__init__()
        self.keep_whole = mode == SPLIT_AND_KEEP_WHOLE
        self.dropped = stop_words | extra_drop if extra_drop else stop_words
        self._parts: dict[str, Token | None] = {}

    def __missing__(self, raw: str) -> tuple[Token, ...]:
        dropped, known, kept = self.dropped, self._parts, []
        parts = split_camel(raw)
        for part in parts if len(parts) > 1 else ():
            # `known` marks a part not seen yet; a dropped part maps to None.
            if (tok := known.get(part, known)) is known:
                norm = part.lower()
                tok = known[part] = None if part.isdigit() or norm in dropped else _new(Token)
                if tok is not None:
                    _set_surface(tok, part)
                    _set_normalized(tok, part if norm == part else norm)
                    _set_origin(tok, CAMEL_PART)
            if tok is not None:
                kept.append(tok)
        if (len(parts) == 1 or self.keep_whole) and (norm := raw.lower()) not in dropped:
            kept.append(tok := _new(Token))
            _set_surface(tok, raw)
            _set_normalized(tok, raw if norm == raw else norm)
            _set_origin(tok, WHOLE)
        self[raw] = expansion = tuple(kept)
        return expansion


def preprocess(
    text: str,
    stops: StopList,
    mode: str = SPLIT_ONLY,
    extra_drop: frozenset[str] | None = None,
) -> TermSequence:
    """Tokenize, camel-split, and stop-filter `text` into a TermSequence.

    In SPLIT_AND_KEEP_WHOLE mode every multi-part camel token also
    contributes its whole form, right after its parts. Stop words (and any
    `extra_drop` words, e.g. language keywords) are removed after
    normalization, so camel parts are filtered too. Pure-digit camel parts
    are dropped. No stemming.
    """
    if mode not in (SPLIT_ONLY, SPLIT_AND_KEEP_WHOLE):
        raise ValueError(f"unknown preprocessing mode: {mode!r}")
    key = (mode, frozenset(extra_drop) if extra_drop else None)
    memo = stops._expansions.get(key)
    if memo is None:
        memo = stops._expansions[key] = _Expansions(stops.words, *key)
    expansions = map(memo.__getitem__, tokenize(text))
    return TermSequence(chain.from_iterable(expansions))
