"""Method splitting, corpus building, statistics, persistence."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quickar.corpus import (
    Corpus,
    Document,
    IngestStats,
    build_corpus,
    build_corpus_presplit,
    load,
    save,
    split_methods,
)
from quickar.errors import CorruptFileError, DataError
from quickar.textprep import default_language_keywords

from conftest import make_corpus


# -- split_methods -----------------------------------------------------------

def test_two_methods_extracted():
    source = """
    class Pair {
        int foo(int a) { return a + 1; }
        void bar() { foo(2); }
    }
    """
    units = split_methods(source)
    assert [u.name for u in units] == ["foo", "bar"]
    assert not any(u.whole_file for u in units)


def test_interface_without_bodies_falls_back():
    source = "public interface Store { void put(String k); String get(String k); }"
    units = split_methods(source, fallback_name="Store")
    assert len(units) == 1
    assert units[0].whole_file and units[0].name == "Store"


def test_unbalanced_braces_fall_back():
    source = "class Broken { void f() { if (x) { }"
    units = split_methods(source, fallback_name="Broken")
    assert len(units) == 1 and units[0].whole_file


def test_control_flow_not_mistaken_for_methods():
    source = """
    class Loops {
        void work(int n) {
            for (int i = 0; i < n; i++) { n--; }
            while (n > 0) { n--; }
            if (n == 0) { n = 1; } else { n = 2; }
            switch (n) { case 1: break; default: break; }
            try { n++; } catch (Exception e) { } finally { n = 0; }
            do { n--; } while (n > 3);
        }
    }
    """
    assert [u.name for u in split_methods(source)] == ["work"]


def test_anonymous_class_not_split_out_of_body():
    source = """
    class Runner {
        void launch() {
            exec.submit(new Runnable() {
                public void run() { step(); }
            });
        }
        void step() { }
    }
    """
    assert [u.name for u in split_methods(source)] == ["launch", "step"]


def test_braces_in_strings_and_comments_ignored():
    source = """
    class Tricky {
        // a comment with { and } and (even) parens
        String mask = "literal { with } braces";
        /* block comment { */
        char c = '{';
        void ok() { mask = "}"; }
    }
    """
    units = split_methods(source)
    assert [u.name for u in units] == ["ok"]


def test_signature_text_included():
    source = """
    class Sig {
        @Override
        protected synchronized List<String> fetchNames(int max) throws IOException {
            return names.subList(0, max);
        }
    }
    """
    units = split_methods(source)
    assert len(units) == 1
    assert "@Override" in units[0].text
    assert "fetchNames" in units[0].text
    assert units[0].text.endswith("}")


def test_constructor_counts_as_method():
    source = "class Point { Point(int x) { this.x = x; } }"
    assert [u.name for u in split_methods(source)] == ["Point"]


# Hand-labeled manifest for a synthetic 20-file tree: file name -> (content,
# expected unit count, expected whole-file fallback?).
FIXTURE_TREE = {
    "Alpha.java": ("class Alpha { void a() {} void b() {} void c() {} }", 3, False),
    "Beta.java": ("class Beta { Beta() { init(); } }", 1, False),
    "Gamma.java": ("interface Gamma { int size(); }", 1, True),
    "Delta.java": ("class Delta { static { setup(); } void only() {} }", 1, False),
    "Epsilon.java": ("enum Epsilon { A, B; String label() { return name(); } }", 1, False),
    "Zeta.java": (
        "class Zeta { class Inner { void in() {} } void out() {} }", 2, False),
    "Eta.java": (
        "class Eta { <T> T pick(java.util.List<T> xs) { return xs.get(0); } }", 1, False),
    "Theta.java": ("class Theta { void f() { if (x) { y(); } } }", 1, False),
    "Iota.java": ("class Iota { void g() { s = \"{\"; } }", 1, False),
    "Kappa.java": ("class Kappa { /* { */ void h() {} }", 1, False),
    "Lambda.java": ("class Lambda { void i() {} void j() {} }", 2, False),
    "Mu.java": ("class Mu { void k() { new Thread(new Runnable() { public void run() {} }).start(); } }", 1, False),
    "Nu.java": ("class Nu { abstract void m(); void n() {} }", 1, False),
    "Xi.java": ("class Xi { void o() { } // trailing comment\n }", 1, False),
    "Omicron.java": ("class Omicron { }", 1, True),
    "Pi.java": ("", 1, True),
    "Rho.java": ("class Rho { void p(int a, int b) {} void q() {} void r() {} void s() {} }", 4, False),
    "Sigma.java": ("class Sigma { void t() { while (x) { y(); } } }", 1, False),
    "Tau.java": ("class Tau { void u() {} } // brace soup: } {", 1, False),
    "Upsilon.java": ("not java at all, just text", 1, True),
}


@pytest.fixture()
def fixture_tree(tmp_path):
    root = tmp_path / "src"
    root.mkdir()
    for name, (content, _, _) in FIXTURE_TREE.items():
        (root / name).write_text(content, encoding="utf-8")
    return root


def test_fixture_tree_matches_manifest(fixture_tree):
    for name, (content, expected_units, expect_fallback) in FIXTURE_TREE.items():
        units = split_methods(content, fallback_name=name.removesuffix(".java"))
        assert len(units) == expected_units, name
        assert any(u.whole_file for u in units) == expect_fallback, name


# -- build_corpus ------------------------------------------------------------

def manifest_doc_count() -> int:
    return sum(count for _, count, _ in FIXTURE_TREE.values())


def test_build_corpus_doc_count_matches_manifest(fixture_tree, stops):
    corpus = build_corpus(fixture_tree, stops, default_language_keywords())
    assert corpus.n_docs == manifest_doc_count()


def test_whole_file_fallbacks_are_counted(fixture_tree, stops):
    stats = IngestStats()
    build_corpus(fixture_tree, stops, stats=stats)
    assert stats.whole_file == sum(fallback for _, _, fallback in FIXTURE_TREE.values())
    assert stats.files == len(FIXTURE_TREE)


def test_every_file_contributes_a_document(fixture_tree, stops):
    corpus = build_corpus(fixture_tree, stops, default_language_keywords())
    files_seen = {doc.doc_id.split("#", 1)[0] for doc in corpus.documents}
    assert files_seen == set(FIXTURE_TREE)


def test_doc_ids_unique_and_ordered(fixture_tree, stops):
    corpus = build_corpus(fixture_tree, stops, default_language_keywords())
    ids = [doc.doc_id for doc in corpus.documents]
    assert len(ids) == len(set(ids))
    paths = [i.split("#", 1)[0] for i in ids]
    assert paths == sorted(paths)


def test_language_keywords_removed(fixture_tree, stops):
    corpus = build_corpus(fixture_tree, stops, default_language_keywords())
    for kw in ("void", "class", "int", "return", "public"):
        assert kw not in corpus.doc_freq


def test_doc_freq_consistent(fixture_tree, stops):
    corpus = build_corpus(fixture_tree, stops, default_language_keywords())
    for term, df in corpus.doc_freq.items():
        assert df == sum(1 for doc in corpus.documents if term in doc.term_counts)
        assert df <= corpus.n_docs


def test_empty_directory(tmp_path, stops):
    (tmp_path / "empty").mkdir()
    corpus = build_corpus(tmp_path / "empty", stops)
    assert corpus.n_docs == 0


def test_missing_directory(stops):
    with pytest.raises(DataError):
        build_corpus("/no/such/tree", stops)


def test_rebuild_is_byte_identical(fixture_tree, stops, tmp_path):
    keywords = default_language_keywords()
    paths = []
    for _ in range(2):
        corpus = build_corpus(fixture_tree, stops, keywords)
        out = tmp_path / f"index{len(paths)}.txt"
        save(corpus, out)
        paths.append(out.read_bytes())
    assert paths[0] == paths[1]


def test_presplit_ingestion(tmp_path, stops):
    root = tmp_path / "pre"
    (root / "sub").mkdir(parents=True)
    (root / "one.txt").write_text("alpha beta GammaDelta")
    (root / "sub" / "two.txt").write_text("epsilon zeta")
    corpus = build_corpus_presplit(root, stops)
    assert [doc.doc_id for doc in corpus.documents] == ["one.txt", "sub/two.txt"]
    assert corpus.documents[0].term_counts["gammadelta"] == 1
    assert corpus.documents[0].term_counts["gamma"] == 1


def test_unreadable_file_skipped(tmp_path, stops, monkeypatch):
    import pathlib

    root = tmp_path / "src"
    root.mkdir()
    (root / "Good.java").write_text("class Good { void a() {} }")
    (root / "Bad.java").write_text("class Bad { void b() {} }")
    real_read_text = pathlib.Path.read_text

    def flaky_read_text(self, *args, **kwargs):
        if self.name == "Bad.java":
            raise OSError("synthetic I/O failure")
        return real_read_text(self, *args, **kwargs)

    monkeypatch.setattr(pathlib.Path, "read_text", flaky_read_text)
    stats = IngestStats()
    corpus = build_corpus(root, stops, stats=stats)
    assert stats.skipped == 1 and stats.files == 1
    assert corpus.n_docs == 1
    assert corpus.documents[0].doc_id.startswith("Good.java#")


# -- document frequency ratio ------------------------------------------------

def test_df_ratio_word_in_every_doc(stops):
    corpus = make_corpus([("d1", "alpha beta"), ("d2", "alpha gamma")], stops)
    assert corpus.document_frequency_ratio("alpha") == 1.0


def test_df_ratio_unknown_word(stops):
    corpus = make_corpus([("d1", "alpha")], stops)
    assert corpus.document_frequency_ratio("nope") == 0.0


def test_df_ratio_planted_quarter(stops):
    docs = [(f"d{i}", "target filler" if i < 5 else "filler other") for i in range(20)]
    corpus = make_corpus(docs, stops)
    assert corpus.document_frequency_ratio("target") == pytest.approx(0.25)


def test_df_ratio_empty_corpus_errors(stops):
    corpus = Corpus([])
    with pytest.raises(DataError):
        corpus.document_frequency_ratio("anything")


# -- positions and doc_freq, computed on first read ---------------------------

STAT_VOCAB = ["alpha", "beta", "gamma", "kelp", "onyx"]
STAT_COUNTS = st.dictionaries(st.sampled_from(STAT_VOCAB), st.integers(1, 4), max_size=4)


@st.composite
def stat_corpora(draw) -> Corpus:
    """A few documents over a tiny vocabulary, with a document that holds
    no term at a random position and one doc id used twice."""
    counts = draw(st.lists(STAT_COUNTS, min_size=1, max_size=8))
    counts.insert(draw(st.integers(0, len(counts))), {})
    ids = [f"d{i}" for i in range(len(counts))]
    ids.insert(draw(st.integers(0, len(ids))), draw(st.sampled_from(ids)))
    counts.append(draw(STAT_COUNTS))
    return Corpus([Document(doc_id=doc_id, term_counts=c, surfaces={t: t for t in c})
                   for doc_id, c in zip(ids, counts)])


@pytest.fixture(scope="module")
def stat_index(tmp_path_factory):
    return tmp_path_factory.mktemp("stats") / "index.txt"


@settings(max_examples=200, deadline=None)
@given(corpus=stat_corpora(), loaded=st.booleans(), positions_first=st.booleans())
def test_positions_and_doc_freq_match_a_count(stat_index, corpus, loaded, positions_first):
    if loaded:
        # A saved index holds each doc id once; the statistics go by position.
        save(Corpus([Document(f"d{i}", doc.term_counts, doc.surfaces)
                     for i, doc in enumerate(corpus.documents)]), stat_index)
        corpus = load(stat_index)
    twin = Corpus(corpus.documents, corpus.meta)
    if positions_first:
        positions, doc_freq = corpus.positions, corpus.doc_freq
        assert (twin.doc_freq, twin.positions) == (doc_freq, positions)
    else:
        doc_freq, positions = corpus.doc_freq, corpus.positions
        assert (twin.positions, twin.doc_freq) == (positions, doc_freq)
    documents = corpus.documents
    counted = Counter(term for doc in documents for term in doc.term_counts)
    assert doc_freq == dict(counted)
    # The same terms in the same order, whichever of the two was read first.
    assert list(doc_freq.items()) == [(term, len(held)) for term, held in positions.items()]
    for term in STAT_VOCAB + ["zzz"]:
        holding = [i for i, doc in enumerate(documents) if term in doc.term_counts]
        assert positions.get(term, []) == holding
        assert len(holding) == doc_freq.get(term, 0) == counted[term]
        assert corpus.document_frequency_ratio(term) == counted[term] / len(documents)
    # Read once, kept: a second read returns the same objects.
    assert corpus.positions is positions and corpus.doc_freq is doc_freq


def test_reading_the_statistics_keeps_a_corpus_equal_to_a_fresh_load(fixture_tree, stops,
                                                                      tmp_path):
    path = tmp_path / "index.txt"
    built = build_corpus(fixture_tree, stops, default_language_keywords())
    save(built, path)
    read = load(path)
    assert read.positions and read.doc_freq and built.positions and built.doc_freq
    fresh = load(path)
    assert read == fresh and fresh == read
    assert built == fresh and fresh == built


# -- persistence -------------------------------------------------------------

def test_corpus_roundtrip(fixture_tree, stops, tmp_path):
    corpus = build_corpus(fixture_tree, stops, default_language_keywords())
    path = tmp_path / "index.txt"
    save(corpus, path)
    loaded = load(path)
    assert loaded.n_docs == corpus.n_docs
    assert loaded.doc_freq == corpus.doc_freq
    assert [d.doc_id for d in loaded.documents] == [d.doc_id for d in corpus.documents]
    for a, b in zip(loaded.documents, corpus.documents):
        assert a.term_counts == b.term_counts
        assert a.surfaces == b.surfaces
    # Saving the loaded corpus reproduces the file byte-for-byte.
    path2 = tmp_path / "again.txt"
    save(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_corpus_truncated_file(fixture_tree, stops, tmp_path):
    corpus = build_corpus(fixture_tree, stops)
    path = tmp_path / "index.txt"
    save(corpus, path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    with pytest.raises(CorruptFileError):
        load(path)


def key(mapping: dict, value: str) -> str:
    """The key object of `mapping` equal to `value`."""
    return next(k for k in mapping if k == value)


def test_load_shares_the_strings_of_a_repeated_cell(stops, tmp_path):
    # Both documents hold the cells `parse:1` and `Token:1`; after a load
    # each term is one string object however many documents hold it.
    path = tmp_path / "index.txt"
    save(make_corpus([("d1", "parse Token"), ("d2", "Token parse")], stops), path)
    first, second = load(path).documents
    for term in ("parse", "token"):
        assert key(first.term_counts, term) is key(second.term_counts, term)
        assert first.surfaces[term] is second.surfaces[term]
    # A surface that is already lower-case is its own normalized term.
    assert key(first.term_counts, "parse") is first.surfaces["parse"]


# -- surfaces decoded on first read --------------------------------------------

# Surfaces whose cells are odd: one holds ":" (the cell `a:b:2`), three
# change length or letters when lower-cased, and three spell one term.
ODD_SURFACES = ["a:b", "İ", "ẞ", "ΣΑΣ", "Token", "TOKEN", "token", "parse"]
READ_ORDERS = ["surfaces", "positions", "loaded == built", "built == loaded", "save"]


@st.composite
def odd_corpora(draw) -> Corpus:
    """Documents over ODD_SURFACES, each term under the first surface its
    document drew, and one empty document at a random position."""
    documents = []
    for i, drawn in enumerate(draw(st.lists(st.lists(st.sampled_from(ODD_SURFACES), max_size=5),
                                            max_size=5))):
        counts, surfaces = {}, {}
        for surface in drawn:
            counts[surface.lower()] = draw(st.integers(1, 3))
            surfaces.setdefault(surface.lower(), surface)
        documents.append(Document(f"d{i}", counts, surfaces))
    documents.insert(draw(st.integers(0, len(documents))), Document("empty"))
    return Corpus(documents)


EVERY_ODD_CELL = Corpus([
    Document("d0", {"a:b": 2, "i\u0307": 1}, {"a:b": "a:b", "i\u0307": "İ"}),
    Document("d1", {"token": 1, "ß": 1}, {"token": "Token", "ß": "ẞ"}),
    Document("empty"),
    Document("d2", {"token": 3, "σας": 1}, {"token": "TOKEN", "σας": "ΣΑΣ"}),
    Document("d3", {"token": 1, "parse": 2}, {"token": "token", "parse": "parse"}),
    Document("d4", {"token": 2}, {"token": "Token"}),
])


@pytest.fixture(scope="module")
def odd_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("odd")


@pytest.mark.parametrize("first_read", READ_ORDERS)
@settings(max_examples=60, deadline=None)
@example(built=EVERY_ODD_CELL)
@given(built=odd_corpora())
def test_a_loaded_index_equals_the_built_one_in_any_read_order(odd_dir, first_read, built):
    path, again, untouched = (odd_dir / name for name in ("index.txt", "again.txt", "other.txt"))
    save(built, path)
    loaded = load(path)
    if first_read == "surfaces":
        assert [d.surfaces for d in loaded.documents] == [d.surfaces for d in built.documents]
    elif first_read == "positions":
        assert loaded.positions == built.positions
    elif first_read == "loaded == built":
        assert loaded == built
    elif first_read == "built == loaded":
        assert built == loaded
    else:
        save(loaded, again)
        assert again.read_bytes() == path.read_bytes()
    assert loaded == built and built == loaded
    assert (loaded.positions, loaded.doc_freq) == (built.positions, built.doc_freq)
    # Saved again, whether or not its surfaces were read, a loaded index
    # gives the same bytes.
    save(loaded, again)
    save(load(path), untouched)
    assert again.read_bytes() == untouched.read_bytes() == path.read_bytes()
    # A lower-case surface is its own term; any other is one string in
    # every document that holds it.
    shared: dict[str, str] = {}
    for doc in loaded.documents:
        for term, surface in doc.surfaces.items():
            if surface == term:
                assert surface is key(doc.term_counts, term)
            else:
                assert surface is shared.setdefault(surface, surface)

