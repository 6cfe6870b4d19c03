"""Pluggable noun check used by query reduction and candidate selection.

The default oracle is a deterministic lexicon heuristic, not a POS tagger:
a word is nominal unless it sits in the bundled non-noun lexicon or carries
a verb-ish suffix. Terms that came out of identifier splitting are treated
as nominal by the callers regardless (identifiers name things).
"""

from __future__ import annotations

from .textprep import bundled_words

# Nouns that would otherwise be rejected by the suffix rules.
_ING_WHITELIST = frozenset({
    "string", "strings", "thing", "things", "nothing", "something", "anything",
    "everything", "warning", "warnings", "setting", "settings", "mapping",
    "mappings", "binding", "bindings", "logging", "swing", "spring", "padding",
    "heading", "morning", "evening", "king", "ring",
})
_ED_WHITELIST = frozenset({"speed", "seed", "feed", "need", "breed", "embed", "bed", "red", "shed"})


class NounOracle:
    """Deterministic noun/non-noun predicate over normalized words."""

    def __init__(self, non_nouns: frozenset[str]):
        self.non_nouns = non_nouns

    def is_noun(self, word: str) -> bool:
        if word in self.non_nouns:
            return False
        if word.endswith("ing") and len(word) >= 5 and word not in _ING_WHITELIST:
            return False
        if word.endswith("ed") and len(word) >= 4 and word not in _ED_WHITELIST:
            return False
        return True


def default_noun_oracle() -> NounOracle:
    return NounOracle(frozenset(bundled_words("non_nouns.txt")))
