"""Reformulation pipeline: keyword handling, candidates, scoring, assembly."""

from __future__ import annotations

import gc
import math
import random
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    dense_cosine_ranking,
    reference_reformulate,
    reference_score_crowd_candidates,
    reference_score_project_candidates,
    reference_select_and_combine,
    sparse_cosine,
    window_pair_counts,
)
from quickar import adjacency
from quickar.adjacency import AdjacencyDatabase, build
from quickar.corpus import build_corpus, load, save
from quickar.errors import QueryEmptyError
from quickar.evaluate import baseline_terms, parse_queries_tsv, run_evaluation
from quickar.reformulate import (
    CandidateScore,
    MODE_ALL,
    MODE_CROWD,
    MODE_PROJECT,
    MODE_REDUCE,
    MODES,
    Params,
    QueryRecord,
    SOURCE_CROWD,
    SOURCE_PROJECT,
    collect_keywords,
    crowd_candidates,
    project_candidates,
    reduce_keywords,
    reformulate,
    reformulations,
    render_terms,
    score_crowd_candidates,
    score_project_candidates,
    select_and_combine,
    shortlist,
)
from quickar.reformulate import rocchio_expand
from quickar.search import Searcher
from quickar.textprep import (
    SPLIT_AND_KEEP_WHOLE,
    TermSequence,
    Token,
    default_language_keywords,
    preprocess,
    split_camel,
)

from conftest import WORD_POOL, make_corpus, synthetic_titles

WORKING_TITLE = "RestClientService ignores content encoding"


@pytest.fixture()
def working_corpus(stops):
    """Corpus where the working-example keywords are rare (df <= 25%) and a
    handful of filler documents carry everything else."""
    docs = [
        ("rest/Client.java#1:send", "RestClientService sendContent HttpExecutor WebService response"),
        ("xml/Parser.java#1:parse", "XmlParser parseDocument node tree attribute"),
        ("ui/Render.java#1:draw", "PageRenderer drawWidget layout canvas margin"),
        ("log/Log.java#1:write", "Logger writeEntry rotation policy marker"),
        ("net/Socket.java#1:open", "SocketChannel handshake buffer windowpane"),
        ("db/Store.java#1:query", "QueryPlanner statement cursor transaction"),
    ]
    return make_corpus(docs, stops)


@pytest.fixture()
def working_db(stops):
    titles = synthetic_titles(0, seed=0)  # keep type symmetry; replaced below
    from quickar.adjacency import TitleRecord
    rows = [
        (1, "rest client service web"),
        (2, "web service executor java"),
        (3, "http content web java"),
        (4, "client content web http"),
        (5, "rest web service http"),
    ]
    titles = [TitleRecord(qid, text, ("java",)) for qid, text in rows]
    return build(titles, stops, source="working")


def test_collect_keywords_working_example(stops):
    q = QueryRecord("408030", WORKING_TITLE)
    assert collect_keywords(q, stops).normalized() == [
        "rest", "client", "service", "restclientservice", "ignores", "content", "encoding"]


def test_collect_keywords_all_stops_is_error(stops):
    with pytest.raises(QueryEmptyError):
        collect_keywords(QueryRecord("q", "a the of"), stops)


def test_collect_keywords_delegates_to_preprocess(stops):
    title = "Tracking down a GenericContainerInstantiator issue"
    q = QueryRecord("q", title)
    direct = preprocess(title, stops, SPLIT_AND_KEEP_WHOLE).normalized()
    deduped = list(dict.fromkeys(direct))
    assert collect_keywords(q, stops).normalized() == deduped


def test_collect_keywords_dedup_keeps_first(stops):
    q = QueryRecord("q", "leak memory leak Memory LEAK")
    assert collect_keywords(q, stops).normalized() == ["leak", "memory"]


# -- reduction ----------------------------------------------------------------

def test_reduce_working_example(stops, oracle, working_corpus):
    q = QueryRecord("408030", WORKING_TITLE)
    reduced = reduce_keywords(collect_keywords(q, stops), working_corpus, oracle)
    # "ignores" is lexicon non-nominal, "encoding" has a verb-ish suffix.
    assert reduced.normalized() == ["rest", "client", "service", "restclientservice", "content"]


def test_reduce_guard_returns_original(stops, oracle):
    corpus = make_corpus([(f"d{i}", "alpha beta") for i in range(4)], stops)
    keywords = collect_keywords(QueryRecord("q", "alpha beta"), stops)
    reduced = reduce_keywords(keywords, corpus, oracle)
    assert reduced.normalized() == ["alpha", "beta"]  # all above 25%, guard kicks in


def test_reduce_planted_df_ratios(stops, oracle):
    # "tent" sits in 2/10 docs (0.2, kept), "barn" in 3/10 (0.3, dropped).
    docs = []
    for i in range(10):
        words = ["filler"]
        if i < 2:
            words.append("tent")
        if i < 3:
            words.append("barn")
        docs.append((f"d{i}", " ".join(words)))
    corpus = make_corpus(docs, stops)
    keywords = collect_keywords(QueryRecord("q", "tent barn"), stops)
    reduced = reduce_keywords(keywords, corpus, oracle)
    assert reduced.normalized() == ["tent"]


def test_reduce_keeps_identifier_terms_regardless_of_lexicon(stops, oracle):
    # "ignores" alone is non-nominal, but as a camel part of an identifier it
    # names code and must survive.
    corpus = make_corpus([("d0", "IgnoresFilter other"), ("d1", "alpha beta"),
                          ("d2", "gamma delta"), ("d3", "epsilon zeta")], stops)
    keywords = collect_keywords(QueryRecord("q", "IgnoresFilter crashes"), stops)
    reduced = reduce_keywords(keywords, corpus, oracle)
    assert "ignores" in reduced.normalized()
    assert "ignoresfilter" in reduced.normalized()


# -- candidate harvesting -------------------------------------------------------

def test_project_candidates_single_doc(stops):
    corpus = make_corpus([("only", "alpha beta")], stops)
    keywords = collect_keywords(QueryRecord("q", "alpha"), stops)
    cands = project_candidates(keywords, Searcher(corpus))
    assert cands == {"beta": "beta"}


def test_project_candidates_zero_overlap(stops):
    corpus = make_corpus([("only", "alpha beta")], stops)
    keywords = collect_keywords(QueryRecord("q", "zzz"), stops)
    assert project_candidates(keywords, Searcher(corpus)) == {}


def test_project_candidates_match_oracle_top5(stops):
    rng = random.Random(42)
    docs = []
    for i in range(20):
        words = rng.sample(WORD_POOL, rng.randint(3, 9))
        docs.append((f"d{i:02d}", " ".join(words)))
    corpus = make_corpus(docs, stops)
    keywords = collect_keywords(QueryRecord("q", "alpha quartz sonar"), stops)

    ranking = dense_cosine_ranking(
        {d.doc_id: d.term_counts for d in corpus.documents}, keywords.normalized())
    expected: set[str] = set()
    for doc_id, _ in ranking[:5]:
        doc = next(d for d in corpus.documents if d.doc_id == doc_id)
        expected |= set(doc.term_counts)
    expected -= set(keywords.normalized())

    cands = project_candidates(keywords, Searcher(corpus), top_docs=5)
    assert set(cands) == expected


def test_crowd_candidates_trio(trio_db, stops):
    keywords = collect_keywords(QueryRecord("q", "memory"), stops)
    assert crowd_candidates(keywords, trio_db) == {"creating", "leak", "cause", "down"}


def test_crowd_candidates_unknown_word(trio_db, stops):
    keywords = collect_keywords(QueryRecord("q", "quantum"), stops)
    assert crowd_candidates(keywords, trio_db) == set()


def test_crowd_candidates_match_union_oracle(stops):
    titles = synthetic_titles(60, seed=33)
    db = build(titles, stops)
    pairs = window_pair_counts(
        [t.title.split() for t in titles], window=2)
    keywords = collect_keywords(QueryRecord("q", "alpha marble"), stops)
    expected = {b for (a, b) in pairs if a in ("alpha", "marble")}
    expected -= {"alpha", "marble"}
    assert crowd_candidates(keywords, db) == expected


# -- scoring -------------------------------------------------------------------

def test_project_score_identical_vectors_contribute_one(stops):
    entries = {
        "cand": {"x": 2, "y": 3},
        "kw": {"x": 2, "y": 3},
        "x": {"cand": 2, "kw": 2},
        "y": {"cand": 3, "kw": 3},
    }
    db = AdjacencyDatabase(entries=entries)
    keywords = collect_keywords(QueryRecord("q", "kw"), stops)
    scored = score_project_candidates({"cand": "cand"}, keywords, db)
    assert scored == {"cand": pytest.approx(1.0)}


def test_project_score_disjoint_vectors_zero(stops):
    entries = {"cand": {"x": 1}, "kw": {"y": 1}, "x": {"cand": 1}, "y": {"kw": 1}}
    db = AdjacencyDatabase(entries=entries)
    keywords = collect_keywords(QueryRecord("q", "kw"), stops)
    scored = score_project_candidates({"cand": "cand"}, keywords, db)
    assert scored == {"cand": 0.0}


def test_project_scores_match_dense_cosine_oracle(stops):
    titles = synthetic_titles(80, seed=77)
    db = build(titles, stops)
    vocab = sorted(db.entries)
    assert len(vocab) >= 24  # the pool gives a dense ~26-word vocabulary
    keywords = collect_keywords(QueryRecord("q", " ".join(vocab[:3])), stops)
    candidates = {w: w for w in vocab[5:13]}

    scored = score_project_candidates(candidates, keywords, db)
    assert list(scored) == sorted(candidates)
    for term, score in scored.items():
        expected = sum(
            sparse_cosine(db.entries.get(term, {}), db.entries.get(kw, {}))
            for kw in keywords.normalized())
        assert score == pytest.approx(expected, abs=1e-9)


def test_project_scores_add_cosines_left_to_right(stops):
    # sum() compensates float sums from CPython 3.12 on; the scores must add
    # as this plain loop does on every interpreter.
    db = build(synthetic_titles(300, seed=21), stops)
    vocab = sorted(db.entries)
    keywords = collect_keywords(QueryRecord("q", " ".join(vocab[:13])), stops)
    words = keywords.normalized()
    scored = score_project_candidates({w: w for w in vocab[13:]}, keywords, db)
    compensated_differs = False
    for term, score in scored.items():
        cosines = [sparse_cosine(db.entries.get(term, {}), db.entries.get(word, {}))
                   for word in words]
        total = 0.0
        for value in cosines:
            total += value
        assert score == total
        compensated_differs |= math.fsum(cosines) != total
    assert compensated_differs  # not vacuous


def test_crowd_score_trio_leak(trio_db, stops):
    keywords = collect_keywords(QueryRecord("q", "memory"), stops)
    scored = score_crowd_candidates({"leak"}, keywords, trio_db)
    assert scored == {"leak": 3.0}
    assert type(scored["leak"]) is float


def test_crowd_score_never_adjacent_zero(trio_db, stops):
    keywords = collect_keywords(QueryRecord("q", "memory"), stops)
    scored = score_crowd_candidates({"easiest"}, keywords, trio_db)
    assert scored == {"easiest": 0.0}


def test_crowd_scores_match_summation_oracle(stops):
    titles = synthetic_titles(70, seed=55)
    db = build(titles, stops)
    pairs = window_pair_counts([t.title.split() for t in titles], window=2)
    keywords = collect_keywords(QueryRecord("q", "alpha kelp umbra"), stops)
    candidates = set(db.entries) - set(keywords.normalized())
    scored = score_crowd_candidates(candidates, keywords, db)
    assert list(scored) == sorted(candidates)
    for term, score in scored.items():
        expected = sum(pairs.get((term, kw), 0) for kw in keywords.normalized())
        assert score == expected


SCORE_WORDS = ["alpha", "beta", "gamma", "kelp", "umbra", "zinc", "quartz"]


@st.composite
def scoring_worlds(draw):
    """A database whose rows are drawn one by one, so a pair can be counted
    in one direction only or with two different counts, with rows of 0 to 7
    neighbours (either row of a pair may be the smaller) and small or large
    counts, and words without a row; keywords and candidates drawn from the
    same words plus one that no database holds."""
    counts = st.integers(1, 3) | st.integers(1, 10**12)
    rows = st.dictionaries(st.sampled_from(SCORE_WORDS), counts, max_size=7)
    entries = draw(st.dictionaries(st.sampled_from(SCORE_WORDS), rows, max_size=6))
    words = SCORE_WORDS + ["nowhere"]
    keywords = draw(st.lists(st.sampled_from(words), unique=True, max_size=4))
    candidates = draw(st.sets(st.sampled_from(words), max_size=8))
    return (AdjacencyDatabase(entries=entries),
            TermSequence(Token.from_surface(word) for word in keywords), candidates)


@settings(max_examples=300, deadline=None)
@given(world=scoring_worlds())
def test_scores_equal_the_reference_scorers_to_the_bit(world):
    db, keywords, candidates = world
    surfaces = {term: term for term in candidates}
    for got, expected in (
            (score_project_candidates(surfaces, keywords, db),
             reference_score_project_candidates(surfaces, keywords, db)),
            (score_crowd_candidates(candidates, keywords, db),
             reference_score_crowd_candidates(candidates, keywords, db))):
        assert [(term, score.hex()) for term, score in got.items()] == [
            (c.term, c.score.hex()) for c in expected]


# -- selection -----------------------------------------------------------------

def cand(term, source, score):
    return CandidateScore(term=term, surface=term, source=source, score=score)


def test_shortlist_keeps_the_top_k_normalized(oracle):
    scores = {"u": 6.0, "v": 5.0, "w": 4.0, "x": 3.0, "y": 2.0, "z": 1.0}
    assert shortlist(scores, SOURCE_CROWD, oracle, top_k=5) == [
        cand("u", SOURCE_CROWD, 1.0), cand("v", SOURCE_CROWD, 0.75),
        cand("w", SOURCE_CROWD, 0.5), cand("x", SOURCE_CROWD, 0.25),
        cand("y", SOURCE_CROWD, 0.0)]


def test_shortlist_breaks_score_ties_by_term(oracle):
    scores = {"d": 1.0, "b": 2.0, "c": 1.0, "a": 1.0}
    assert [c.term for c in shortlist(scores, SOURCE_CROWD, oracle, top_k=3)] == ["b", "a", "c"]


def test_shortlist_takes_surfaces_from_the_candidates(oracle):
    scores = {"webservice": 2.0, "portal": 1.0}
    surfaces = {"webservice": "WebService", "portal": "Portal"}
    assert shortlist(scores, SOURCE_PROJECT, oracle, top_k=5, surfaces=surfaces) == [
        CandidateScore("webservice", "WebService", SOURCE_PROJECT, 1.0),
        CandidateScore("portal", "Portal", SOURCE_PROJECT, 0.0)]


@pytest.mark.parametrize("scores, expected", [
    ({"solo": 0.0}, [1.0]),
    ({"solo": 7.5}, [1.0]),
    ({"a": 2.0, "b": 2.0}, [1.0, 1.0]),
    ({"a": 0.0, "b": 0.0}, [0.0, 0.0]),
], ids=["single-zero", "single", "equal-positive", "equal-zero"])
def test_shortlist_collapses_single_and_equal_scores(oracle, scores, expected):
    assert [c.score for c in shortlist(scores, SOURCE_CROWD, oracle)] == expected


def test_select_filters_non_nominal(oracle):
    scores = {"ignores": 5.0, "widget": 1.0}
    assert shortlist(scores, SOURCE_PROJECT, oracle) == [cand("widget", SOURCE_PROJECT, 1.0)]


def test_select_top_k_before_nominal_filter(oracle):
    # Non-nominal entries occupy top-k slots before being filtered out.
    scores = {"ignores": 9.0, "fails": 8.0, "crashes": 7.0, "returns": 6.0, "throws": 5.0,
              "widget": 4.0}
    assert shortlist(scores, SOURCE_PROJECT, oracle, top_k=5) == []  # widget never made it


def test_shortlist_of_nothing_is_empty(oracle):
    assert shortlist({}, SOURCE_CROWD, oracle) == []


@pytest.mark.parametrize("top_k", [1, 2, 3, 5, 40])
def test_shortlist_matches_the_frozen_selection(stops, oracle, top_k):
    titles = synthetic_titles(80, seed=77)
    db = build(titles, stops)
    keywords = collect_keywords(QueryRecord("q", "alpha kelp umbra"), stops)
    candidates = crowd_candidates(keywords, db)
    got = shortlist(score_crowd_candidates(candidates, keywords, db), SOURCE_CROWD, oracle,
                    top_k=top_k)
    expected = reference_select_and_combine(
        [], reference_score_crowd_candidates(candidates, keywords, db), oracle, top_k=top_k)
    assert sorted(got, key=lambda c: (-c.score, c.term)) == expected
    assert len(got) == min(top_k, len(candidates))  # the synthetic words are all nominal


def test_select_single_source():
    crowd = [cand(t, SOURCE_CROWD, s) for t, s in [("u", 1.0), ("v", 0.5), ("w", 0.0)]]
    assert select_and_combine([], crowd) == crowd
    project = [cand(t, SOURCE_PROJECT, s) for t, s in [("u", 1.0), ("v", 0.5), ("w", 0.0)]]
    assert select_and_combine(project, []) == project


def test_select_dedup_same_term():
    merged = select_and_combine(
        [cand("portal", SOURCE_PROJECT, 1.0), cand("solo", SOURCE_PROJECT, 0.0)],
        [cand("portal", SOURCE_CROWD, 1.0), cand("extra", SOURCE_CROWD, 0.0)])
    assert [c.term for c in merged].count("portal") == 1


def test_select_pinned_normalization_example(oracle):
    # p: a=2, b=1 -> a=1.0, b=0.0; so: c=10, a=4 -> c=1.0, a=0.0.
    # Dedup keeps the project "a"; the 1.0 tie puts project first.
    merged = select_and_combine(
        shortlist({"a": 2.0, "b": 1.0}, SOURCE_PROJECT, oracle),
        shortlist({"c": 10.0, "a": 4.0}, SOURCE_CROWD, oracle))
    assert [(c.term, c.source, c.score) for c in merged] == [
        ("a", SOURCE_PROJECT, 1.0), ("c", SOURCE_CROWD, 1.0), ("b", SOURCE_PROJECT, 0.0)]


def test_select_higher_crowd_score_replaces_the_project_entry():
    merged = select_and_combine(
        [cand("a", SOURCE_PROJECT, 1.0), cand("b", SOURCE_PROJECT, 0.25)],
        [cand("b", SOURCE_CROWD, 0.5), cand("c", SOURCE_CROWD, 0.25)])
    assert merged == [cand("a", SOURCE_PROJECT, 1.0), cand("b", SOURCE_CROWD, 0.5),
                      cand("c", SOURCE_CROWD, 0.25)]


def test_select_both_empty():
    assert select_and_combine([], []) == []


# -- full pipeline ---------------------------------------------------------------

def test_reformulate_working_example_shape(stops, oracle, working_corpus, working_db):
    q = QueryRecord("408030", WORKING_TITLE)
    ref = reformulate(q, working_corpus, working_db, MODE_ALL, stops=stops, oracle=oracle)
    reduced = ["Rest", "Client", "Service", "RestClientService", "content"]
    assert ref.query_text().split()[:5] == reduced
    assert len(ref.keywords) == 5
    assert len(ref.expansion_terms) == 5  # 10 - M
    assert ref.keyword_query_text() == " ".join(reduced)


def test_reformulate_budget_with_large_m(stops, oracle):
    words = ["alpha", "bravo", "canvas", "delta", "ember", "fjord",
             "gadget", "harbor", "ingot", "jigsaw", "kelp", "lumen"]
    docs = [(f"d{i}", f"{w} filler") for i, w in enumerate(words)]
    docs += [(f"x{i}", "filler noise") for i in range(30)]
    corpus = make_corpus(docs, stops)
    db = AdjacencyDatabase()
    q = QueryRecord("big", " ".join(words))
    ref = reformulate(q, corpus, db, MODE_ALL, stops=stops, oracle=oracle)
    assert len(ref.keywords) == 12
    assert ref.expansion_terms == []


def test_reformulate_red_only(stops, oracle, working_corpus, working_db):
    q = QueryRecord("408030", WORKING_TITLE)
    ref = reformulate(q, working_corpus, working_db, MODE_REDUCE, stops=stops, oracle=oracle)
    assert ref.expansion_terms == []
    assert ref.query_text() == "Rest Client Service RestClientService content"


def test_reformulate_mode_source_restrictions(stops, oracle, working_corpus, working_db):
    q = QueryRecord("408030", WORKING_TITLE)
    p_only = reformulate(q, working_corpus, working_db, MODE_PROJECT, stops=stops, oracle=oracle)
    so_only = reformulate(q, working_corpus, working_db, MODE_CROWD, stops=stops, oracle=oracle)
    assert p_only.expansion_terms and so_only.expansion_terms
    assert all(c.source == SOURCE_PROJECT for c in p_only.expansion_terms)
    assert all(c.source == SOURCE_CROWD for c in so_only.expansion_terms)


def test_reformulate_invariants(stops, oracle, working_corpus, working_db):
    q = QueryRecord("408030", WORKING_TITLE)
    for mode in (MODE_ALL, MODE_PROJECT, MODE_CROWD):
        ref = reformulate(q, working_corpus, working_db, mode, stops=stops, oracle=oracle)
        reduced = set(ref.keywords.normalized())
        assert len(ref.keywords) + len(ref.expansion_terms) <= 10
        for c in ref.expansion_terms:
            assert c.term not in reduced
            assert c.term not in stops
            assert oracle.is_noun(c.term) or len(split_camel(c.surface)) > 1


def test_reformulate_query_empty_propagates(stops, oracle, working_corpus, working_db):
    with pytest.raises(QueryEmptyError):
        reformulate(QueryRecord("q", "the of and"), working_corpus, working_db,
                    MODE_ALL, stops=stops, oracle=oracle)


def test_reformulate_unknown_mode(stops, oracle, working_corpus, working_db):
    with pytest.raises(ValueError):
        reformulate(QueryRecord("q", "memory"), working_corpus, working_db,
                    "sideways", stops=stops, oracle=oracle)


def test_reformulate_deterministic(stops, oracle, working_corpus, working_db):
    q = QueryRecord("408030", WORKING_TITLE)
    runs = [reformulate(q, working_corpus, working_db, MODE_ALL, stops=stops, oracle=oracle)
            for _ in range(3)]
    assert runs[0].query_text() == runs[1].query_text() == runs[2].query_text()
    assert runs[0].expansion_terms == runs[1].expansion_terms


EVAL_DATA = Path(__file__).parent / "data" / "evaluate"


@pytest.fixture(scope="module")
def eval_fixture(stops):
    db = adjacency.build(
        adjacency.filter_titles(adjacency.read_title_dump(EVAL_DATA / "dump.tsv"), "java"),
        stops, source="dump.tsv:java")
    corpus = build_corpus(EVAL_DATA / "src", stops, default_language_keywords())
    return corpus, db, parse_queries_tsv(EVAL_DATA / "queries.tsv")


# The paper's defaults; one candidate per source; fewer mined documents; a
# budget that a single kept keyword fills, so nothing is expanded; a budget
# that two kept keywords fill; a stricter and a looser reduction.
EQUIVALENCE_PARAMS = [
    Params(),
    Params(top_k=1),
    Params(top_docs=1, top_k=2),
    Params(budget=1),
    Params(budget=2, top_k=3),
    Params(max_df_ratio=0.05, budget=6),
    Params(max_df_ratio=1.0, top_docs=8, top_k=8, budget=20),
]


@pytest.mark.parametrize("params", EQUIVALENCE_PARAMS, ids=[
    "defaults", "top_k-1", "top_docs-1", "budget-1", "budget-2", "strict-df", "loose-df"])
def test_one_pass_matches_the_mode_by_mode_reference(eval_fixture, stops, oracle, params):
    corpus, db, queries = eval_fixture
    searcher = Searcher(corpus)
    expanded = 0
    for query in queries:
        every_mode = reformulations(query, corpus, db, stops=stops, oracle=oracle,
                                    params=params, searcher=searcher)
        assert list(every_mode) == list(MODES)
        for mode in MODES:
            expected = reference_reformulate(query, corpus, db, mode, stops=stops,
                                             oracle=oracle, params=params, searcher=searcher)
            got = every_mode[mode]
            assert got.query_id == expected.query_id and got.mode == expected.mode == mode
            assert got.keywords == expected.keywords
            assert got.expansion_terms == expected.expansion_terms
            assert got.rendered_query == expected.rendered_query
            assert reformulate(query, corpus, db, mode, stops=stops, oracle=oracle,
                               params=params, searcher=searcher) == expected
        expanded += bool(every_mode[MODE_ALL].expansion_terms)
    # Not vacuous: a budget of 1 leaves every query nothing to expand
    # (need == 0), and every other setting expands some query.
    assert (expanded == 0) == (params.budget == 1)


def test_one_shot_calls_on_a_loaded_index_build_no_inverted_index(eval_fixture, stops, oracle,
                                                                   tmp_path):
    # Each call gets its own freshly loaded index, as a CLI call does.
    corpus, db, queries = eval_fixture
    path = tmp_path / "index.txt"
    save(corpus, path)
    expanded = 0
    for query in queries:
        terms = baseline_terms(query.text)
        searched = load(path)
        assert (Searcher(searched).search(terms, top_n=5)
                == Searcher(corpus).search(terms)[:5]), query.query_id
        reformulated, fed_back = load(path), load(path)
        try:
            expanded += bool(reformulate(query, reformulated, db, MODE_ALL, stops=stops,
                                         oracle=oracle).expansion_terms)
            expanded += bool(rocchio_expand(query, fed_back, stops=stops).expansion_terms)
        except QueryEmptyError:
            pass
        for index in (searched, reformulated, fed_back):
            assert "positions" not in index.__dict__, query.query_id
    assert expanded  # not vacuous


# A loaded index is freed by reference counting alone once its caller
# drops it: no call leaves a cycle through it that only the cyclic
# collector would free.
@pytest.mark.parametrize("call", ["search", "reformulate", "rocchio", "evaluate"])
def test_a_loaded_index_is_freed_without_the_cyclic_collector(eval_fixture, stops, oracle,
                                                             tmp_path, call):
    corpus, db, queries = eval_fixture
    path = tmp_path / "index.txt"
    save(corpus, path)
    query = queries[0]
    run = {
        "search": lambda index: Searcher(index).search(baseline_terms(query.text)),
        "reformulate": lambda index: reformulate(query, index, db, MODE_ALL, stops=stops,
                                                 oracle=oracle),
        "rocchio": lambda index: rocchio_expand(query, index, stops=stops),
        "evaluate": lambda index: run_evaluation(queries, index, db, stops=stops,
                                                 oracle=oracle),
    }[call]
    enabled = gc.isenabled()
    gc.disable()
    try:
        index = load(path)
        run(index)
        freed = weakref.ref(index)
        del index
        assert freed() is None
    finally:
        if enabled:
            gc.enable()


def test_scaled_adjacency_counts_keep_selection_order(stops, oracle, working_corpus, working_db):
    q = QueryRecord("408030", WORKING_TITLE)
    base = reformulate(q, working_corpus, working_db, MODE_ALL, stops=stops, oracle=oracle)
    for k in (3, 10):
        scaled = AdjacencyDatabase(
            entries={w: {n: c * k for n, c in nbrs.items()}
                     for w, nbrs in working_db.entries.items()},
            meta=working_db.meta)
        ref = reformulate(q, working_corpus, scaled, MODE_ALL, stops=stops, oracle=oracle)
        assert [c.term for c in ref.expansion_terms] == [c.term for c in base.expansion_terms]
        for a, b in zip(ref.expansion_terms, base.expansion_terms):
            assert a.score == pytest.approx(b.score, abs=1e-12)


def test_render_terms_dual_rendering_dedups():
    from quickar.textprep import Token

    tokens = [Token.from_surface("Rest"), Token.from_surface("Client"),
              Token.from_surface("Service"), Token.from_surface("RestClientService"),
              Token.from_surface("content"), Token.from_surface("WebService")]
    rendered = render_terms(tokens)
    assert rendered.surfaces() == [
        "Rest", "Client", "Service", "RestClientService", "content", "Web", "WebService"]
