"""Adjacency database: building, querying, persistence, invariants."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import sparse_cosine, window_pair_counts
from quickar.adjacency import (
    AdjacencyDatabase,
    DbMeta,
    DumpStats,
    TitleRecord,
    build,
    count_title_pairs,
    filter_titles,
    load,
    parse_title_line,
    read_title_dump,
    save,
)
from quickar.errors import CorruptFileError, DataError
from quickar.textprep import SPLIT_ONLY, StopList, preprocess

from conftest import synthetic_titles


def preprocessed(titles, stops):
    return [preprocess(t.title, stops, SPLIT_ONLY).normalized() for t in titles]


# -- filtering ---------------------------------------------------------------

def test_filter_keeps_matching_tag():
    rec = TitleRecord(1, "t", ("java", "memory"))
    assert list(filter_titles([rec], "java")) == [rec]


def test_filter_drops_other_tags():
    rec = TitleRecord(1, "t", ("python",))
    assert list(filter_titles([rec], "java")) == []


def test_filter_keeps_all_trio(trio_titles):
    assert list(filter_titles(trio_titles, "java")) == trio_titles


def test_dump_reader_skips_malformed(tmp_path):
    dump = tmp_path / "dump.tsv"
    dump.write_text(
        "1\tCreating a memory leak with Java\tjava\n"
        "not-an-int\tbroken line\tjava\n"
        "2\tonly two fields\n"
        "3\tEasiest way to cause memory leak in Java?\tjava;jvm\n",
        encoding="utf-8")
    stats = DumpStats()
    records = list(read_title_dump(dump, stats))
    assert [r.question_id for r in records] == [1, 3]
    assert stats.read == 4 and stats.malformed == 2


def test_parse_title_line_lowercases_tags():
    rec = parse_title_line("7\tSome Title\tJava;JVM\n")
    assert rec.tags == ("java", "jvm")


def test_dump_reader_missing_file():
    with pytest.raises(DataError):
        list(read_title_dump("/no/such/dump.tsv"))


# -- building ----------------------------------------------------------------

def test_trio_memory_adjacency(trio_db):
    assert set(trio_db.neighbors("memory")) == {"creating", "leak", "cause", "down"}


def test_single_title_single_pair(stops):
    db = build([TitleRecord(1, "memory leak", ("java",))], stops)
    assert db.entries["memory"]["leak"] == 1
    assert db.entries["leak"]["memory"] == 1
    assert db.total_pair_count == 1


def test_build_matches_bruteforce_oracle(stops):
    titles = synthetic_titles(100, seed=3)
    db = build(titles, stops)
    expected = window_pair_counts(preprocessed(titles, stops), window=2)
    actual = {(a, b): c for a, nbrs in db.entries.items() for b, c in nbrs.items()}
    assert actual == expected


@pytest.mark.parametrize("window", [2, 3, 5])
def test_wider_windows_match_oracle(stops, window):
    titles = synthetic_titles(60, seed=window)
    db = build(titles, stops, window=window)
    expected = window_pair_counts(preprocessed(titles, stops), window=window)
    actual = {(a, b): c for a, nbrs in db.entries.items() for b, c in nbrs.items()}
    assert actual == expected


def test_neighbor_rows_match_oracle(stops):
    titles = synthetic_titles(40, seed=17)
    db = build(titles, stops)
    expected = window_pair_counts(preprocessed(titles, stops), window=2)
    for word in db.entries:
        row = {b: c for (a, b), c in expected.items() if a == word}
        assert db.neighbors(word) == row


def test_window_below_two_rejected(stops):
    with pytest.raises(ValueError):
        build([], stops, window=1)


def test_empty_stream_gives_empty_db(stops):
    db = build([], stops)
    assert db.vocab_size == 0 and db.total_pair_count == 0
    assert not db.neighbors("anything")


def test_duplicate_adjacent_tokens_no_self_pair(stops):
    db = build([TitleRecord(1, "leak leak leak", ("java",))], stops)
    assert db.vocab_size == 0


# -- queries -----------------------------------------------------------------

def test_neighbors_unknown_word_empty(trio_db):
    assert trio_db.neighbors("quantum") == {}


def test_cooccurrence_trio_memory_leak(trio_db):
    # "memory leak" is adjacent in all three preprocessed titles.
    assert trio_db.neighbors("memory").get("leak", 0) == 3


def test_cooccurrence_symmetric_zero_cases(trio_db):
    for a, b in [("memory", "leak"), ("java", "leak"), ("down", "tracking")]:
        assert trio_db.neighbors(a).get(b, 0) == trio_db.neighbors(b).get(a, 0)
    assert trio_db.neighbors("memory").get("memory", 0) == 0
    assert trio_db.neighbors("memory").get("quantum", 0) == 0


def test_symmetry_and_no_self_pairs_property(stops):
    for seed in range(5):
        db = build(synthetic_titles(50, seed=seed), stops)
        for word, nbrs in db.entries.items():
            assert word not in nbrs
            for nbr, count in nbrs.items():
                assert count >= 1
                assert db.entries[nbr][word] == count


# Three words, so that equal words meet at every offset; lists of 0 to 8
# tokens against windows from 2 to past the longest list.
@settings(max_examples=300, deadline=None)
@given(token_lists=st.lists(st.lists(st.sampled_from(["a", "b", "c"]), max_size=8), max_size=5),
       window=st.integers(2, 10))
def test_count_title_pairs_matches_oracle_property(token_lists, window):
    into: dict[str, dict[str, int]] = {}
    for tokens in token_lists:
        count_title_pairs(tokens, window, into)
    counted = {(a, b): n for a, row in into.items() for b, n in row.items()}
    assert counted == window_pair_counts(token_lists, window)


def test_neighbor_count_sum_matches_oracle_slots(stops):
    titles = synthetic_titles(30, seed=9)
    db = build(titles, stops)
    expected = window_pair_counts(preprocessed(titles, stops), window=2)
    for word, nbrs in db.entries.items():
        slots = sum(c for (a, _), c in expected.items() if a == word)
        assert sum(nbrs.values()) == slots


def test_cosine_similarity_basics(trio_db):
    assert trio_db.cosine("memory", "memory") == pytest.approx(1.0)
    assert trio_db.cosine("memory", "quantum") == 0.0


neighbor_counts = st.dictionaries(st.sampled_from(["alpha", "beta", "gamma", "delta", "kelp"]),
                                  st.integers(1, 10**9), max_size=5)


@settings(max_examples=300, deadline=None)
@given(a=neighbor_counts, b=neighbor_counts)
def test_cosine_similarity_equals_sparse_oracle_exactly(a, b):
    # Integer counts sum exactly in any order, so neither the neighbours'
    # order nor the cached norms may move the result by a single bit.
    expected = sparse_cosine(a, b)
    for first, second in ((a, b), (dict(reversed(a.items())), dict(reversed(b.items())))):
        db = AdjacencyDatabase({"a": first, "b": second})
        assert db.cosine("a", "b") == expected
        assert db.cosine("b", "a") == expected


# -- persistence -------------------------------------------------------------

def test_save_load_roundtrip(trio_db, tmp_path):
    path = tmp_path / "trio.db"
    save(trio_db, path)
    loaded = load(path)
    assert loaded == trio_db
    assert loaded.meta == trio_db.meta


def test_roundtrip_synthetic(stops, tmp_path):
    db = build(synthetic_titles(80, seed=5), stops, source="synthetic")
    path = tmp_path / "synth.db"
    save(db, path)
    assert load(path) == db


def test_load_truncated_file_is_corruption(trio_db, tmp_path):
    path = tmp_path / "trio.db"
    save(trio_db, path)
    content = path.read_text().splitlines(keepends=True)
    path.write_text("".join(content[:-2]))  # drop a body line and #pairs
    with pytest.raises(CorruptFileError):
        load(path)


def test_load_count_mismatch_is_corruption(trio_db, tmp_path):
    path = tmp_path / "trio.db"
    save(trio_db, path)
    path.write_text(path.read_text().replace("#pairs=15", "#pairs=14"))
    with pytest.raises(CorruptFileError):
        load(path)


def test_load_missing_file():
    with pytest.raises(DataError):
        load("/no/such/file.db")


def test_meta_records_stoplist_hash(tmp_path, trio_titles):
    lean = StopList({"a", "in", "with", "to"})
    fat = StopList({"a", "in", "with", "to", "way"})
    db_lean = build(trio_titles, lean)
    db_fat = build(trio_titles, fat)
    assert db_lean.meta.stoplist_sha != db_fat.meta.stoplist_sha
    path = tmp_path / "lean.db"
    save(db_lean, path)
    assert load(path).meta.stoplist_sha == lean.sha


def test_save_is_sorted_and_deterministic(stops, tmp_path):
    titles = synthetic_titles(40, seed=13)
    p1, p2 = tmp_path / "a.db", tmp_path / "b.db"
    save(build(titles, stops), p1)
    save(build(titles[::-1], stops), p2)
    assert p1.read_bytes() == p2.read_bytes()


# A window is an int of at least 2, as `build` takes it, and `#window=`
# holds its plain digits. `save` refuses any other window before the
# previous file is replaced, and `load` any other header text, even one
# `int` reads; each rule has one message.
PAIR = {"a": {"b": 1}, "b": {"a": 1}}


@pytest.mark.parametrize("window, reason", [
    (1, "window must be >= 2, got 1"),
    (-4, "window must be >= 2, got -4"),
    (2.0, "window 2.0 is not plain digits"),
    (True, "window True is not plain digits"),
    ("3", "window '3' is not plain digits"),
], ids=["one", "negative", "float", "bool", "text"])
def test_save_refuses_a_window_load_would_refuse(tmp_path, window, reason):
    path = tmp_path / "db.txt"
    save(AdjacencyDatabase(PAIR, meta=DbMeta(window=3)), path)
    before = path.read_bytes()
    with pytest.raises(DataError) as err:
        save(AdjacencyDatabase(PAIR, meta=DbMeta(window=window)), path)
    assert str(err.value) == f"cannot write database {path}: {reason}"
    assert path.read_bytes() == before


@pytest.mark.parametrize("text, reason", [
    ("+2", "window '+2' is not plain digits"),
    (" 3", "window ' 3' is not plain digits"),
    ("\u0663", "window '\u0663' is not plain digits"),
    ("02", "window '02' is not plain digits"),
    ("", "window '' is not plain digits"),
    ("1", "window must be >= 2, got 1"),
    ("-4", "window must be >= 2, got -4"),
], ids=["sign", "space", "arabic-indic", "leading-zero", "empty", "one", "negative"])
def test_load_refuses_a_window_header_save_would_not_write(tmp_path, text, reason):
    path = tmp_path / "db.txt"
    path.write_text(f"#window={text}\n#stoplist_sha=\n#source=\n#binary=0\n"
                    "a\tb:1\nb\ta:1\n#pairs=1\n", encoding="utf-8")
    with pytest.raises(CorruptFileError) as err:
        load(path)
    assert str(err.value) == f"unparseable database line in {path}: {reason}"
    path.write_text(path.read_text(encoding="utf-8").replace(f"#window={text}\n", "#window=3\n"),
                    encoding="utf-8")
    assert load(path).meta.window == 3


def test_load_shares_the_neighbor_of_a_repeated_cell(tmp_path):
    # The rows of `bar` and `qux` both hold the cell `foo:1`.
    db = AdjacencyDatabase({"foo": {"bar": 1, "qux": 1}, "bar": {"foo": 1}, "qux": {"foo": 1}})
    path = tmp_path / "db.txt"
    save(db, path)
    loaded = load(path)
    assert loaded == db
    (in_bar,), (in_qux,) = loaded.entries["bar"], loaded.entries["qux"]
    assert in_bar == in_qux == "foo" and in_bar is in_qux
