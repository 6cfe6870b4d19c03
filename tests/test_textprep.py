"""Tokenization, camel splitting, and preprocessing contracts."""

from __future__ import annotations

import doctest
import random
import string
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quickar.textprep
from oracles import reference_preprocess, reference_split_camel, reference_tokenize
from quickar.textprep import (
    CAMEL_PART,
    SPLIT_AND_KEEP_WHOLE,
    SPLIT_ONLY,
    StopList,
    Token,
    WHOLE,
    default_stoplist,
    load_stoplist,
    preprocess,
    split_camel,
    tokenize,
    words_sha,
)


def test_tokenize_splits_on_punctuation():
    assert tokenize("memory leak/garbage-collection issue") == [
        "memory", "leak", "garbage", "collection", "issue"]


def test_tokenize_empty_input():
    assert tokenize("") == []


def test_tokenize_preserves_surface_case():
    assert tokenize("Creating a memory leak with Java") == [
        "Creating", "a", "memory", "leak", "with", "Java"]


def test_tokenize_discards_pure_digits_keeps_mixed():
    assert tokenize("utf8 2 codec42 007") == ["utf8", "codec42"]


# Hand-written acronym-boundary oracle: 20 identifiers with their expected
# splits, labeled once by eye.
CAMEL_TABLE = [
    ("GenericContainerInstantiator", ["Generic", "Container", "Instantiator"]),
    ("memory", ["memory"]),
    ("XMLHttpRequest", ["XML", "Http", "Request"]),
    ("RestClientService", ["Rest", "Client", "Service"]),
    ("getValue", ["get", "Value"]),
    ("HTTPSConnection", ["HTTPS", "Connection"]),
    ("parseJSON", ["parse", "JSON"]),
    ("IOError", ["IO", "Error"]),
    ("Base64Encoder", ["Base64", "Encoder"]),
    ("toUTF8String", ["to", "UTF8", "String"]),
    ("simpleword", ["simpleword"]),
    ("ALLCAPS", ["ALLCAPS"]),
    ("X", ["X"]),
    ("aB", ["a", "B"]),
    ("ABc", ["A", "Bc"]),
    ("readFile2Buffer", ["read", "File2", "Buffer"]),
    ("SQLiteOpenHelper", ["SQ", "Lite", "Open", "Helper"]),
    ("miXedCaseID", ["mi", "Xed", "Case", "ID"]),
    ("HTMLParser2", ["HTML", "Parser2"]),
    ("value42x", ["value42x"]),
]


@pytest.mark.parametrize("identifier,expected", CAMEL_TABLE)
def test_split_camel_table(identifier, expected):
    assert split_camel(identifier) == expected


def test_split_camel_parts_concatenate():
    rng = random.Random(11)
    alphabet = "abcXYZmnoPQR0189"
    for _ in range(300):
        token = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 14)))
        assert "".join(split_camel(token)) == token


# Text for the frozen tokenizer and camel splitter: ASCII letters and digits,
# separators, non-ASCII letters that change length or case when lower-cased
# (`İ`, final `ς`), and a soft hyphen; plus digit runs glued to letters.
PATTERN_ALPHABET = string.ascii_letters + string.digits + "_- \t\nΣςİé\u00ad"
GLUED_DIGITS = ["007x", "x007", "0x7F", "A007B", "utf8Codec", "HTTP2Server", "2", "00"]
pattern_texts = st.lists(st.one_of(st.text(alphabet=PATTERN_ALPHABET, max_size=12),
                                   st.sampled_from(GLUED_DIGITS)),
                         max_size=16).map("".join)


@settings(max_examples=500, deadline=None)
@given(pattern_texts)
@example("7" * 10**5)
@example("x" + "7" * 10**5 + " 007x " + "7" * 10**5 + "Y")
def test_tokenize_and_split_camel_match_the_frozen_patterns(text):
    assert tokenize(text) == reference_tokenize(text)
    assert split_camel(text) == reference_split_camel(text)
    for raw in tokenize(text):
        assert split_camel(raw) == reference_split_camel(raw)


def test_preprocess_split_only_keeps_down(stops):
    seq = preprocess("Tracking down a memory leak/garbage-collection issue in Java",
                     stops, SPLIT_ONLY)
    assert seq.normalized() == [
        "tracking", "down", "memory", "leak", "garbage", "collection", "issue", "java"]


def test_preprocess_keep_whole_emits_parts_then_whole():
    no_stops = StopList(set())
    seq = preprocess("RestClientService", no_stops, SPLIT_AND_KEEP_WHOLE)
    assert seq.surfaces() == ["Rest", "Client", "Service", "RestClientService"]
    assert [t.origin for t in seq] == [CAMEL_PART, CAMEL_PART, CAMEL_PART, WHOLE]


def test_preprocess_all_stop_words(stops):
    assert preprocess("the of and", stops, SPLIT_ONLY).normalized() == []


def test_stop_filter_applies_to_camel_parts():
    stops = StopList({"in"})
    seq = preprocess("CheckIn", stops, SPLIT_AND_KEEP_WHOLE)
    # The "In" part is stopped after normalization; the whole form stays.
    assert seq.normalized() == ["check", "checkin"]


def test_preprocess_idempotent(stops):
    texts = [
        "Tracking down a memory leak/garbage-collection issue in Java",
        "RestClientService ignores content encoding",
        "XMLHttpRequest fails on UTF8 payload (issue #42)",
        "",
    ]
    for text in texts:
        once = preprocess(text, stops, SPLIT_ONLY).normalized()
        twice = preprocess(" ".join(once), stops, SPLIT_ONLY).normalized()
        assert twice == once


def test_no_stop_words_in_output(stops):
    seq = preprocess("The Quick BrownFox jumps over a lazy dog in the yard",
                     stops, SPLIT_AND_KEEP_WHOLE)
    assert not [t for t in seq if t.normalized in stops]


def test_normalized_is_lowercased_surface(stops):
    seq = preprocess("GenericContainerInstantiator KeepsTrack", stops, SPLIT_AND_KEEP_WHOLE)
    for tok in seq:
        assert tok.normalized == tok.surface.lower()


def test_preprocess_deterministic(stops):
    text = "Tracking down a memory leak in the GenericContainerInstantiator"
    runs = [preprocess(text, stops, SPLIT_AND_KEEP_WHOLE).normalized() for _ in range(5)]
    assert all(run == runs[0] for run in runs)


def test_default_stoplist_shape(stops):
    assert "a" in stops and "in" in stops and "with" in stops and "to" in stops
    assert "down" not in stops  # direction words carry signal
    assert all(w == w.lower() for w in stops.words)


def test_stoplist_sha_differs_per_content(tmp_path):
    one = tmp_path / "one.txt"
    two = tmp_path / "two.txt"
    one.write_text("alpha\nbeta\n")
    two.write_text("alpha\ngamma\n")
    assert load_stoplist(one).sha != load_stoplist(two).sha
    # Comments and ordering do not change the canonical hash.
    three = tmp_path / "three.txt"
    three.write_text("# comment\nbeta\nalpha\n")
    assert load_stoplist(one).sha == load_stoplist(three).sha
    assert words_sha({"alpha", "beta"}) == load_stoplist(one).sha


def test_unknown_mode_rejected(stops):
    with pytest.raises(ValueError):
        preprocess("anything", stops, "chunk")


def test_doctests_pass():
    result = doctest.testmod(quickar.textprep)
    assert result.failed == 0 and result.attempted >= 5


# ---------------------------------------------------------------------------
# The per-stop-list expansion memo against the frozen reference
# ---------------------------------------------------------------------------

def as_triples(seq):
    return [(t.surface, t.normalized, t.origin) for t in seq]


# Identifiers that hit every camel boundary and digit rule, stop words and
# dropped words in several casings, non-ASCII letters (which split tokens),
# and separators.
WORDS = [
    "XMLHttp2Request", "utf8Codec", "ABC8D", "getValue", "GetValue", "HTTPServer",
    "parse2JSON", "Base64Encoder", "value42x", "x", "X", "a1B2c3", "CheckIn",
    "123", "007", "42abc", "in", "In", "the", "THE", "with", "get", "public",
    "Return", "returnValue", "café", "naïveParser", "Ünïcode", "straße", "日本",
]
SEPARATORS = [" ", "-", "/", ".", "_", "\t", "#", "(", ")"]
texts = st.lists(st.one_of(st.sampled_from(WORDS), st.sampled_from(SEPARATORS),
                           st.text(alphabet="aAbZz09é_ ", max_size=8)),
                 max_size=20).map("".join)
DROPS = [None, frozenset(), frozenset({"public", "return", "value"}), frozenset({"http"})]
calls = st.lists(st.tuples(texts, st.sampled_from([SPLIT_ONLY, SPLIT_AND_KEEP_WHOLE]),
                           st.sampled_from(DROPS)), min_size=1, max_size=12)


@settings(max_examples=300, deadline=None)
@given(calls)
def test_preprocess_matches_reference_on_one_stop_list(sequence):
    stops = StopList({"the", "in", "with", "get", "xml"})
    for text, mode, drop in sequence:
        assert as_triples(preprocess(text, stops, mode, extra_drop=drop)) == \
            as_triples(reference_preprocess(text, stops, mode, extra_drop=drop))


def test_each_stop_list_keeps_its_own_memo():
    text = "getValue in XMLHttpRequest with the value"
    one, two = StopList({"get", "in"}), StopList({"value", "xml", "the"})
    for stops in (one, two, one, two):
        for mode in (SPLIT_ONLY, SPLIT_AND_KEEP_WHOLE):
            assert as_triples(preprocess(text, stops, mode)) == \
                as_triples(reference_preprocess(text, stops, mode))


def test_stop_list_and_its_memo_are_freed_with_the_last_reference():
    stops = StopList({"the"})
    preprocess("getValue of the XMLHttpRequest", stops, SPLIT_AND_KEEP_WHOLE,
               extra_drop=frozenset({"value"}))
    ref = weakref.ref(stops)
    del stops
    assert ref() is None


def test_one_memo_shares_the_token_of_a_camel_part():
    stops = StopList({"the"})
    get_value, set_value = (preprocess(raw, stops) for raw in ("getValue", "setValue"))
    assert get_value[1] is set_value[1]
    assert as_triples(get_value[1:]) == [("Value", "value", CAMEL_PART)]
    lower = preprocess("fooBar", stops, SPLIT_AND_KEEP_WHOLE)[0]
    assert lower.surface == "foo" and lower.normalized is lower.surface


@pytest.mark.parametrize("dropping_first", [True, False], ids=["drop-first", "plain-first"])
def test_extra_drop_applies_to_parts_under_its_own_memo_only(dropping_first):
    stops, drop = StopList({"the"}), frozenset({"value"})
    calls = [("getValue", drop), ("getValue", None)]
    results = {bool(d): as_triples(preprocess(raw, stops, extra_drop=d))
               for raw, d in (calls if dropping_first else calls[::-1])}
    assert results == {True: [("get", "get", CAMEL_PART)],
                       False: [("get", "get", CAMEL_PART), ("Value", "value", CAMEL_PART)]}


def test_token_is_frozen_slotted_and_equal_by_value():
    tok = Token("Value", "value", CAMEL_PART)
    with pytest.raises(AttributeError):
        tok.surface = "Other"
    with pytest.raises(AttributeError):
        del tok.surface
    assert (tok.surface, tok.normalized, tok.origin) == ("Value", "value", CAMEL_PART)
    assert tok == Token.from_surface("Value", CAMEL_PART)
    assert len({tok, Token("Value", "value", CAMEL_PART)}) == 1
    assert not hasattr(tok, "__dict__")
