"""The shared artifact layout, for arbitrary indexes and databases.

Save then load gives back an equal object and, saved again, the same
bytes; a cut anywhere in the file, a changed checksum count or a missing
header line raises CorruptFileError. The line reader splits exactly where
`str.split("\\n")` does, wherever its chunks end.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quickar import adjacency, artifact, corpus
from quickar.adjacency import AdjacencyDatabase, DbMeta
from quickar.corpus import Corpus, CorpusMeta, Document
from quickar.errors import CorruptFileError

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


corpora = st.builds(Corpus, st.lists(documents(), max_size=6),
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
    meta = draw(st.builds(DbMeta, st.integers(2, 9), NAME, NAME, st.booleans()))
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
@given(text=st.text(st.sampled_from("ab\n\r\x0c\x1c\x85\u2028 \t")), chunk=st.integers(1, 5))
def test_read_lines_splits_at_line_feeds_only(workdir, text, chunk):
    path = workdir / "lines.txt"
    path.write_text(text, encoding="utf-8", newline="")
    saved, artifact._CHUNK = artifact._CHUNK, chunk
    try:
        assert list(artifact.read_lines(path, "file")) == text.split("\n")
    finally:
        artifact._CHUNK = saved
