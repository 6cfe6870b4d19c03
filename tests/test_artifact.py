"""The shared artifact layout, for arbitrary indexes and databases.

Save then load gives back an equal object and, saved again, the same
bytes; a cut anywhere in the file, a changed checksum count or a missing
header line raises CorruptFileError. The line reader splits exactly where
`str.split("\\n")` does.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quickar import adjacency, artifact, corpus
from quickar.adjacency import AdjacencyDatabase, DbMeta
from quickar.corpus import Corpus, CorpusMeta, Document
from quickar.errors import CorruptFileError, DataError

# Header values and document ids: any text without a line feed, so "\r",
# "\x85", " ", tabs and a leading "#" all occur.
NAME = st.text(st.characters(codec="utf-8", exclude_characters="\n"), max_size=10)
# Words and surfaces also sit inside cells, which "," and the tab delimit;
# each is split from its count at its last ":", so it may hold one.
WORD = st.text(st.characters(codec="utf-8", exclude_characters="\n\t,"), min_size=1, max_size=6)


@st.composite
def documents(draw):
    counts = draw(st.dictionaries(WORD, st.integers(1, 50), max_size=5))
    # As a document built from text holds them: keyed by the lower-cased form.
    by_term = {surface.lower(): (surface, n) for surface, n in counts.items()}
    return Document(doc_id=draw(NAME),
                    term_counts={t: n for t, (_, n) in by_term.items()},
                    surfaces={t: s for t, (s, _) in by_term.items()})


# A saved index holds each doc id once.
corpora = st.builds(Corpus, st.lists(documents(), max_size=6, unique_by=lambda doc: doc.doc_id),
                    st.builds(CorpusMeta, NAME, NAME, NAME))


@st.composite
def databases(draw):
    entries: dict[str, dict[str, int]] = {}
    pairs = draw(st.dictionaries(st.tuples(WORD, WORD).filter(lambda p: p[0] != p[1]),
                                 st.integers(1, 9), max_size=8))
    for (a, b), n in pairs.items():
        for word, neighbor in ((a, b), (b, a)):
            row = entries.setdefault(word, {})
            row[neighbor] = row.get(neighbor, 0) + n
    meta = draw(st.builds(DbMeta, st.integers(2, 9), NAME, NAME))
    return AdjacencyDatabase(entries, meta)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("artifacts")


ARTIFACTS = pytest.mark.parametrize("module, objects",
                                    [(corpus, corpora), (adjacency, databases())],
                                    ids=["index", "database"])


@ARTIFACTS
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_save_then_load_gives_back_the_object_and_bytes(workdir, module, objects, data):
    obj = data.draw(objects)
    first, second = workdir / "first", workdir / "second"
    module.save(obj, first)
    loaded = module.load(first)
    assert loaded == obj
    module.save(loaded, second)
    assert second.read_bytes() == first.read_bytes()


@ARTIFACTS
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_any_truncation_is_corruption(workdir, module, objects, data):
    path = workdir / "artifact"
    module.save(data.draw(objects), path)
    whole = path.read_bytes()
    path.write_bytes(whole[:data.draw(st.integers(0, len(whole) - 1))])
    with pytest.raises(CorruptFileError):
        module.load(path)


@ARTIFACTS
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_changed_checksum_count_is_corruption(workdir, module, objects, data):
    path = workdir / "artifact"
    module.save(data.draw(objects), path)
    *body, last, _ = path.read_bytes().split(b"\n")
    parts = last[1:].decode().split(",")
    which = data.draw(st.integers(0, len(parts) - 1))
    key, count = parts[which].split("=")
    parts[which] = f"{key}={int(count) + data.draw(st.integers(-3, 3).filter(bool))}"
    path.write_bytes(b"\n".join([*body, ("#" + ",".join(parts)).encode(), b""]))
    with pytest.raises(CorruptFileError):
        module.load(path)


@ARTIFACTS
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_one_edited_count_is_corruption(workdir, module, objects, data):
    # The checksum pins the sum of the counts: an index's term counts sum to
    # its `terms=`, and a database's neighbor counts to exactly twice its
    # `pairs=`. The file is read as bytes, since a name may hold a "\r".
    path = workdir / "artifact"
    module.save(data.draw(objects), path)
    lines = path.read_bytes().split(b"\n")
    records = {i: lines[i].rpartition(b"\t")
               for i in range(len(module._HEADER_KEYS), len(lines) - 2)}
    cells = [(i, j) for i, (_, _, text) in records.items() if text
             for j in range(text.count(b",") + 1)]
    assume(cells)
    i, j = data.draw(st.sampled_from(cells))
    name, tab, text = records[i]
    split = text.split(b",")
    cell, _, count = split[j].rpartition(b":")
    delta = data.draw(st.sampled_from([d for d in range(-3, 4) if d and int(count) + d >= 1]))
    split[j] = cell + b":" + str(int(count) + delta).encode()
    lines[i] = name + tab + b",".join(split)
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(CorruptFileError):
        module.load(path)


@ARTIFACTS
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_missing_header_line_is_corruption(workdir, module, objects, data):
    path = workdir / "artifact"
    module.save(data.draw(objects), path)
    lines = path.read_bytes().split(b"\n")
    del lines[data.draw(st.integers(0, len(module._HEADER_KEYS) - 1))]
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(CorruptFileError):
        module.load(path)


@settings(max_examples=200, deadline=None)
@given(text=st.text(st.sampled_from("ab\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028 \t\U0001f600")))
def test_read_lines_splits_at_line_feeds_only(workdir, text):
    path = workdir / "lines.txt"
    path.write_text(text, encoding="utf-8", newline="")
    assert list(artifact.read_lines(path, "file")) == text.split("\n")


# The `io` module decodes 8 KiB at a time, so these texts put multibyte
# characters, and "\r" before "\n", across its chunk ends, hold a line far
# longer than a chunk, or end without a line feed.
@pytest.mark.parametrize("text", [
    "",
    "\n",
    "no final line feed",
    "two\nlines",
    "x" * 100_000,
    "x" * 100_000 + "\n" + "y",
    "\u00e9" * 5_000 + "\n" + "\u20ac" * 5_000 + "\r\n" + "\U0001f600" * 5_000,
    *("a" * offset + "\U0001f600\u20ac\r\n\u00e9" * 3_000 for offset in range(4)),
], ids=["empty", "line-feed", "no-final-line-feed", "two-lines", "long-line",
        "long-line-then-short", "multibyte-lines",
        *(f"multibyte-offset-{offset}" for offset in range(4))])
def test_read_lines_across_decode_chunks(tmp_path, text):
    path = tmp_path / "lines.txt"
    path.write_bytes(text.encode("utf-8"))
    assert list(artifact.read_lines(path, "file")) == text.split("\n")


# Cells are split at "," and each from its count at its last ":"; a record
# is split at its last tab. So a surface or neighbor that is empty or holds
# "," or a tab, or a count below 1, would not load back as it was saved.
UNSAFE_WORD = st.text(st.sampled_from("ab:,\t"), max_size=3)
UNSAFE_COUNT = st.integers(-1, 3)


@st.composite
def unsafe_corpora(draw):
    documents = []
    for doc_id in draw(st.lists(NAME, max_size=3)):
        counts = draw(st.dictionaries(UNSAFE_WORD, UNSAFE_COUNT, max_size=4))
        documents.append(Document(doc_id=doc_id, term_counts=dict(counts),
                                  surfaces={term: term for term in counts}))
    return Corpus(documents)


@st.composite
def unsafe_databases(draw):
    entries: dict[str, dict[str, int]] = {}
    pairs = draw(st.dictionaries(st.tuples(UNSAFE_WORD, UNSAFE_WORD).filter(lambda p: p[0] != p[1]),
                                 UNSAFE_COUNT, max_size=5))
    for (a, b), n in pairs.items():
        entries.setdefault(a, {})[b] = n
        entries.setdefault(b, {})[a] = n
    return AdjacencyDatabase(entries)


UNSAFE = pytest.mark.parametrize("module, objects",
                                 [(corpus, unsafe_corpora()), (adjacency, unsafe_databases())],
                                 ids=["index", "database"])


@UNSAFE
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_save_refuses_what_load_refuses_and_keeps_the_previous_file(workdir, module, objects,
                                                                    data):
    path = workdir / "unsafe"
    path.write_bytes(b"previous")
    obj = data.draw(objects)
    try:
        module.save(obj, path)
    except DataError:
        assert path.read_bytes() == b"previous"
    else:
        assert module.load(path) == obj


@pytest.mark.parametrize("surface, count, message", [
    ("a,b", 1, "document 'src/A.java#1:run' has a term 'a,b' holding ','"),
    ("", 1, "document 'src/A.java#1:run' has a term without a name"),
    ("b", 0, "term 'b' of document 'src/A.java#1:run' has count 0, below 1"),
    ("b", -2, "term 'b' of document 'src/A.java#1:run' has count -2, below 1"),
    ("a\tb", 1, "document 'src/A.java#1:run' has a term 'a\\tb' holding a tab"),
], ids=["comma", "unnamed", "zero", "negative", "tab"])
def test_index_save_names_the_document_load_would_refuse(tmp_path, surface, count, message):
    path = tmp_path / "index.txt"
    good = Corpus([Document("src/A.java#1:run", {"x": 1}, {"x": "x"})])
    corpus.save(good, path)
    before = path.read_bytes()
    bad = Corpus([Document("src/A.java#1:run", {"x": 1, surface.lower(): count},
                           {"x": "x", surface.lower(): surface})])
    with pytest.raises(DataError) as err:
        corpus.save(bad, path)
    assert str(err.value) == f"cannot write index {path}: {message}"
    assert path.read_bytes() == before


# A document built by hand may key a term other than by its surface
# lower-cased, which is how `load` keys it, or hold counts and surfaces for
# different terms: saved, it would load back changed or not at all.
@pytest.mark.parametrize("counts, surfaces, message", [
    ({"Foo": 1, "foo": 2}, {"Foo": "Foo", "foo": "foo"},
     "document 'd1' has a term 'Foo' whose surface 'Foo' lower-cases to 'foo'"),
    ({"bar": 1}, {"bar": "Foo"},
     "document 'd1' has a term 'bar' whose surface 'Foo' lower-cases to 'foo'"),
    ({"bar": 1}, {}, "document 'd1' has counts and surfaces for different terms, first 'bar'"),
    ({"bar": 1}, {"bar": "bar", "baz": "baz"},
     "document 'd1' has counts and surfaces for different terms, first 'baz'"),
], ids=["two-cases", "other-surface", "no-surface", "no-count"])
def test_index_save_refuses_a_document_load_would_change(tmp_path, counts, surfaces, message):
    path = tmp_path / "index.txt"
    corpus.save(Corpus([Document("d1", {"x": 1}, {"x": "x"})]), path)
    before = path.read_bytes()
    with pytest.raises(DataError) as err:
        corpus.save(Corpus([Document("d1", counts, surfaces)]), path)
    assert str(err.value) == f"cannot write index {path}: {message}"
    assert path.read_bytes() == before


@pytest.mark.parametrize("neighbor, count, message", [
    ("a,b", 1, "word 'bar' has a neighbor 'a,b' holding ','"),
    ("", 1, "word 'bar' has a neighbor without a name"),
    ("foo", 0, "neighbor 'foo' of word 'bar' has count 0, below 1"),
    ("foo", -1, "neighbor 'foo' of word 'bar' has count -1, below 1"),
    ("a\tb", 1, "word 'bar' has a neighbor 'a\\tb' holding a tab"),
], ids=["comma", "unnamed", "zero", "negative", "tab"])
def test_database_save_names_the_word_load_would_refuse(tmp_path, neighbor, count, message):
    path = tmp_path / "db.txt"
    adjacency.save(AdjacencyDatabase({"bar": {"qux": 1}, "qux": {"bar": 1}}), path)
    before = path.read_bytes()
    bad = AdjacencyDatabase({"bar": {neighbor: count, "qux": 1}, "qux": {"bar": 1}})
    with pytest.raises(DataError) as err:
        adjacency.save(bad, path)
    assert str(err.value) == f"cannot write database {path}: {message}"
    assert path.read_bytes() == before


def test_database_save_refuses_an_odd_sum_of_neighbor_counts(tmp_path):
    # Every pair is stored in both directions, so the neighbor counts sum to
    # twice the pair count; an odd sum has no `#pairs=` that `load` accepts.
    path = tmp_path / "db.txt"
    adjacency.save(AdjacencyDatabase({"bar": {"qux": 1}, "qux": {"bar": 1}}), path)
    before = path.read_bytes()
    with pytest.raises(DataError) as err:
        adjacency.save(AdjacencyDatabase({"bar": {"qux": 2}, "qux": {"bar": 1}}), path)
    assert str(err.value) == (f"cannot write database {path}: its neighbor counts have an odd "
                              "sum, so some pair is not stored in both directions")
    assert path.read_bytes() == before


# `save` writes a count as the digits of an int. A count of another type,
# a bool too, would be written as text that `load` refuses or reads back as
# another value, so `save` refuses it, naming the cell, and the previous
# file stays. `holding(n)` is an artifact whose cell `x` holds the count n.
@pytest.mark.parametrize("module, holding, cell", [
    (corpus, lambda n: Corpus([Document("d", {"a": 1, "x": n}, {"a": "a", "x": "x"})]),
     "term 'x' of document 'd'"),
    (adjacency, lambda n: AdjacencyDatabase({"a": {"d": 1}, "d": {"a": 1, "x": n}, "x": {"d": n}}),
     "neighbor 'x' of word 'd'"),
], ids=["index", "database"])
@pytest.mark.parametrize("count", [True, 2.0, 1.5, "1", "two"],
                         ids=["bool", "float", "fraction", "digits", "text"])
def test_save_refuses_a_count_that_is_not_an_int(tmp_path, module, holding, cell, count):
    path = tmp_path / "artifact"
    module.save(holding(1), path)
    before = path.read_bytes()
    with pytest.raises(DataError) as err:
        module.save(holding(count), path)
    what = "index" if module is corpus else "database"
    assert str(err.value) == (f"cannot write {what} {path}: "
                              f"{cell} has count {count!r}, not plain digits")
    assert path.read_bytes() == before


# `save` writes a name as its text, so a name that is not a str would load
# back as a str, another key; names of mixed types do not even sort. `save`
# refuses the first such name in the owner's nouns, and the previous file
# stays.
@pytest.mark.parametrize("module, bad, message", [
    (adjacency, AdjacencyDatabase({"a": {5: 1}, "b": {"a": 1}}),
     "word 'a' has a neighbor 5 of type int, not str"),
    (adjacency, AdjacencyDatabase({"a": {5: 1, "b": 1}, "b": {"a": 1}}),
     "word 'a' has a neighbor 5 of type int, not str"),
    (adjacency, AdjacencyDatabase({5: {"a": 1}, "a": {5: 1}}),
     "word 5 has a name of type int, not str"),
    (corpus, Corpus([Document(7, {"x": 1}, {"x": "x"})]),
     "document 7 has a name of type int, not str"),
    (corpus, Corpus([Document("d", {"x": 1}, {"x": 5})]),
     "document 'd' has a term 5 of type int, not str"),
    (corpus, Corpus([Document("d", {"x": 1, "y": 1}, {"x": "x", "y": b"y"})]),
     "document 'd' has a term b'y' of type bytes, not str"),
], ids=["database-neighbor", "database-mixed-neighbors", "database-word", "index-doc-id",
        "index-surface", "index-bytes-surface"])
def test_save_refuses_a_name_that_is_not_a_str(tmp_path, module, bad, message):
    path = tmp_path / "artifact"
    good = (AdjacencyDatabase({"a": {"b": 1}, "b": {"a": 1}}) if module is adjacency
            else Corpus([Document("d", {"x": 1}, {"x": "x"})]))
    module.save(good, path)
    before = path.read_bytes()
    with pytest.raises(DataError) as err:
        module.save(bad, path)
    what = "index" if module is corpus else "database"
    assert str(err.value) == f"cannot write {what} {path}: {message}"
    assert path.read_bytes() == before


# A name held twice in one record, or a database word or an index document
# with two records, would load with one of them dropped or shadowed, and the
# checksum is counted after the drop; `save` writes none, so `load` refuses
# them all.
@pytest.mark.parametrize("module, text, message", [
    (corpus, "#source=\n#stoplist_sha=\n#keywords_sha=\n"
             "d1\tbar:1\nd2\tfoo:0,bar:-1\n#docs=2,terms=0\n",
     "unparseable index line in {path}: term 'foo' of document 'd2' has count 0, below 1"),
    (corpus, "#source=\n#stoplist_sha=\n#keywords_sha=\n"
             "d1\tbar:-1,:1\nd2\t:1\n#docs=2,terms=0\n",
     "unparseable index line in {path}: term 'bar' of document 'd1' has count -1, below 1"),
    (adjacency, "#window=2\n#stoplist_sha=\n#source=\n#binary=0\n"
                "bar\tqux:2,zed:-1\nqux\tbar:0\n#pairs=0\n",
     "unparseable database line in {path}: neighbor 'zed' of word 'bar' has count -1, below 1"),
    (corpus, "#source=\n#stoplist_sha=\n#keywords_sha=\nd1\tFoo:1,foo:2\n#docs=1,terms=2\n",
     "unparseable index line in {path}: document 'd1' holds the term 'foo' twice"),
    (corpus, "#source=\n#stoplist_sha=\n#keywords_sha=\nd1\tfoo:1,foo:1\n#docs=1,terms=1\n",
     "unparseable index line in {path}: document 'd1' holds the term 'foo' twice"),
    (adjacency, "#window=2\n#stoplist_sha=\n#source=\n#binary=0\n"
                "bar\tqux:1,qux:1\nqux\tbar:1\n#pairs=1\n",
     "unparseable database line in {path}: word 'bar' holds the neighbor 'qux' twice"),
    (adjacency, "#window=2\n#stoplist_sha=\n#source=\n#binary=0\n"
                "bar\tfoo:1\nbar\tqux:1\nfoo\tbar:1\nqux\tbar:1\n#pairs=1\n",
     "unparseable database line in {path}: word 'bar' has two records"),
    (corpus, "#source=\n#stoplist_sha=\n#keywords_sha=\nd\talpha:1\nd\tBeta:2\n#docs=2,terms=3\n",
     "unparseable index line in {path}: document 'd' has two records"),
], ids=["index", "index-unnamed-later", "database", "index-term-twice-up-to-case",
        "index-cell-twice", "database-neighbor-twice", "database-word-twice",
        "index-document-twice"])
def test_load_names_the_first_bad_cell(tmp_path, module, text, message):
    path = tmp_path / "artifact"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CorruptFileError) as err:
        module.load(path)
    assert str(err.value) == message.format(path=path)


# The cell rule words each refusal one way, whether `save` or `load` meets
# the cell that breaks it.
@pytest.mark.parametrize("module, obj, text, reason", [
    (corpus, Corpus([Document("d1", {"": 1}, {"": ""})]),
     "#source=\n#stoplist_sha=\n#keywords_sha=\nd1\t:1\n#docs=1,terms=1\n",
     "document 'd1' has a term without a name"),
    (corpus, Corpus([Document("d1", {"foo": 0}, {"foo": "Foo"})]),
     "#source=\n#stoplist_sha=\n#keywords_sha=\nd1\tFoo:0\n#docs=1,terms=0\n",
     "term 'Foo' of document 'd1' has count 0, below 1"),
    (adjacency, AdjacencyDatabase({"bar": {"": 1}}),
     "#window=2\n#stoplist_sha=\n#source=\n#binary=0\nbar\t:1\n#pairs=0\n",
     "word 'bar' has a neighbor without a name"),
    (adjacency, AdjacencyDatabase({"bar": {"zed": -1}}),
     "#window=2\n#stoplist_sha=\n#source=\n#binary=0\nbar\tzed:-1\n#pairs=0\n",
     "neighbor 'zed' of word 'bar' has count -1, below 1"),
    (corpus, Corpus([Document("d", {"alpha": 1}, {"alpha": "alpha"}),
                     Document("d", {"beta": 2}, {"beta": "Beta"})]),
     "#source=\n#stoplist_sha=\n#keywords_sha=\nd\talpha:1\nd\tBeta:2\n#docs=2,terms=3\n",
     "document 'd' has two records"),
], ids=["index-unnamed", "index-count", "database-unnamed", "database-count",
        "index-document-twice"])
def test_save_and_load_refuse_a_bad_cell_with_one_message(tmp_path, module, obj, text, reason):
    path = tmp_path / "artifact"
    what = "index" if module is corpus else "database"
    with pytest.raises(DataError) as saved:
        module.save(obj, path)
    assert str(saved.value) == f"cannot write {what} {path}: {reason}"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CorruptFileError) as loaded:
        module.load(path)
    assert str(loaded.value) == f"unparseable {what} line in {path}: {reason}"


# `save` writes a count as the plain ASCII digits of an int; `load` refuses
# any other text for one, even a text `int` reads, naming the record and
# the cell.
@pytest.mark.parametrize("count", ["+1", "\u0663", " 2", "01", "1_0", "-0", "1 ", ""],
                         ids=["sign", "arabic-indic", "space", "leading-zero", "underscore",
                              "minus-zero", "trailing-space", "empty"])
@pytest.mark.parametrize("module, text, reason", [
    (corpus, "#source=\n#stoplist_sha=\n#keywords_sha=\nd1\tfoo:1,bar:{count}\n#docs=1,terms=2\n",
     "term 'bar' of document 'd1' has count {count!r}, not plain digits"),
    (adjacency, "#window=2\n#stoplist_sha=\n#source=\n#binary=0\n"
                "bar\tqux:{count}\nqux\tbar:1\n#pairs=1\n",
     "neighbor 'qux' of word 'bar' has count {count!r}, not plain digits"),
], ids=["index", "database"])
def test_load_refuses_a_count_save_would_not_write(tmp_path, module, text, reason, count):
    path = tmp_path / "artifact"
    path.write_text(text.format(count=count), encoding="utf-8")
    what = "index" if module is corpus else "database"
    with pytest.raises(CorruptFileError) as err:
        module.load(path)
    assert str(err.value) == f"unparseable {what} line in {path}: {reason.format(count=count)}"
