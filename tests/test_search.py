"""TF-IDF cosine retrieval against an independent dense-vector oracle."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ReferenceSearcher, dense_cosine_ranking
from quickar.corpus import Corpus, Document, load, save
from quickar.errors import DataError
from quickar.search import SearchHit, Searcher, rank_of_first_relevant

from conftest import WORD_POOL, make_corpus


def random_corpus(n_docs: int, seed: int) -> Corpus:
    rng = random.Random(seed)
    docs = []
    for i in range(n_docs):
        counts: dict[str, int] = {}
        for _ in range(rng.randint(1, 12)):
            word = rng.choice(WORD_POOL)
            counts[word] = counts.get(word, 0) + rng.randint(1, 4)
        docs.append(Document(doc_id=f"doc{i:03d}", term_counts=counts,
                             surfaces={w: w for w in counts}))
    return Corpus(docs)


def assert_matches_oracle(corpus: Corpus, query: list[str], tol: float = 1e-9):
    hits = Searcher(corpus).search(query)
    expected = dense_cosine_ranking(
        {d.doc_id: d.term_counts for d in corpus.documents}, query)
    assert [h.doc_id for h in hits] == [doc_id for doc_id, _ in expected]
    for hit, (_, score) in zip(hits, expected):
        assert hit.score == pytest.approx(score, abs=tol)
    assert [h.rank for h in hits] == list(range(1, len(hits) + 1))


def test_single_doc_single_term(stops):
    corpus = make_corpus([("only", "alpha beta")], stops)
    hits = Searcher(corpus).search(["alpha"])
    assert len(hits) == 1
    assert hits[0].doc_id == "only" and hits[0].rank == 1


def test_zero_overlap_returns_nothing(stops):
    corpus = make_corpus([("d1", "alpha beta"), ("d2", "gamma delta")], stops)
    assert Searcher(corpus).search(["zzz"]) == []


def test_empty_query_returns_nothing(stops):
    corpus = make_corpus([("d1", "alpha")], stops)
    assert Searcher(corpus).search([]) == []


def test_empty_corpus_is_error():
    with pytest.raises(DataError):
        Searcher(Corpus([]))


def test_ten_doc_fixture_matches_oracle():
    corpus = random_corpus(10, seed=1)
    assert_matches_oracle(corpus, ["alpha", "kelp", "sonar"])


@pytest.mark.parametrize("seed", [2, 3, 4])
def test_larger_fixtures_match_oracle(seed):
    corpus = random_corpus(120, seed=seed)
    rng = random.Random(seed + 100)
    for _ in range(10):
        query = [rng.choice(WORD_POOL) for _ in range(rng.randint(1, 5))]
        assert_matches_oracle(corpus, query)


def test_query_with_repeated_terms_matches_oracle():
    corpus = random_corpus(40, seed=5)
    assert_matches_oracle(corpus, ["alpha", "alpha", "alpha", "pylon"])


def test_unknown_terms_affect_only_normalization():
    corpus = random_corpus(30, seed=6)
    with_unknown = Searcher(corpus).search(["alpha", "zzzz"])
    without = Searcher(corpus).search(["alpha"])
    assert [h.doc_id for h in with_unknown] == [h.doc_id for h in without]
    # Scores shrink (query norm grows) but ordering is untouched.
    for a, b in zip(with_unknown, without):
        assert a.score < b.score


def test_tie_break_by_doc_id(stops):
    corpus = make_corpus([("b", "alpha"), ("a", "alpha"), ("c", "alpha")], stops)
    hits = Searcher(corpus).search(["alpha"])
    assert [h.doc_id for h in hits] == ["a", "b", "c"]
    assert hits[0].score == hits[1].score == hits[2].score


def test_top_n_cutoff():
    corpus = random_corpus(50, seed=7)
    full = Searcher(corpus).search(["alpha"])
    top5 = Searcher(corpus).search(["alpha"], top_n=5)
    assert top5 == full[:5]


def test_determinism():
    corpus = random_corpus(60, seed=8)
    runs = [Searcher(corpus).search(["marble", "onyx"]) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


def test_scaling_uniform_counts_preserves_order():
    # tf' is logarithmic, so a global xk is a uniform vector scaling only
    # when counts inside each document are uniform; there the argsort (and
    # the cosine itself) must survive scaling exactly.
    rng = random.Random(9)
    docs = []
    for i in range(40):
        words = rng.sample(WORD_POOL, rng.randint(2, 8))
        docs.append(Document(doc_id=f"doc{i:03d}",
                             term_counts={w: 1 for w in words},
                             surfaces={w: w for w in words}))
    corpus = Corpus(docs)
    for k in (2, 7):
        scaled = Corpus([
            Document(doc_id=d.doc_id,
                     term_counts={t: c * k for t, c in d.term_counts.items()},
                     surfaces=dict(d.surfaces))
            for d in corpus.documents
        ])
        base = Searcher(corpus).search(["alpha", "vertex"])
        after = Searcher(scaled).search(["alpha", "vertex"])
        assert [h.doc_id for h in base] == [h.doc_id for h in after]
        for a, b in zip(base, after):
            assert a.score == pytest.approx(b.score, abs=1e-12)


# -- rank_of_first_relevant ----------------------------------------------------

def loop_sum(values) -> float:
    total = 0.0
    for value in values:
        total += value
    return total


def test_norms_and_scores_add_left_to_right():
    # sum() compensates float sums from CPython 3.12 on; the searcher must
    # add as this plain loop does on every interpreter.
    rng = random.Random(11)
    words = [f"w{i:02d}" for i in range(60)]
    docs = []
    for i in range(40):
        counts = {w: rng.randint(1, 40) for w in rng.sample(words, 30)}
        docs.append(Document(f"d{i:02d}", counts, {w: w for w in counts}))
    searcher = Searcher(Corpus(docs))
    n_docs = len(docs)

    def weights(counts):
        out = {}
        for term in sorted(counts):
            df = sum(term in doc.term_counts for doc in docs)
            out[term] = (1.0 + math.log(counts[term])) * (math.log((n_docs + 1) / (df + 1)) + 1.0)
        return out

    doc_weights = {doc.doc_id: weights(doc.term_counts) for doc in docs}
    doc_norms = {doc_id: math.sqrt(loop_sum(w * w for w in dw.values()))
                 for doc_id, dw in doc_weights.items()}
    # Not vacuous: a compensated sum differs from the loop for some norm.
    assert any(math.fsum(w * w for w in dw.values()) != loop_sum(w * w for w in dw.values())
               for dw in doc_weights.values())
    for _ in range(30):
        terms = rng.sample(words, 12) + rng.sample(words, 3)
        counts: dict[str, int] = {}
        for term in terms:
            counts[term] = counts.get(term, 0) + 1
        qw = weights(counts)
        q_norm = math.sqrt(loop_sum(w * w for w in qw.values()))
        assert searcher.query_vector(terms) == {t: w / q_norm for t, w in qw.items()}
        expected = {}
        for doc_id, dw in doc_weights.items():
            shared = [t for t in sorted(qw) if t in dw]
            if shared:
                expected[doc_id] = loop_sum(
                    (qw[t] / q_norm) * (dw[t] / doc_norms[doc_id]) for t in shared)
        assert {hit.doc_id: hit.score for hit in searcher.search(terms)} == expected


def hits_for(ranks_to_ids: dict[int, str]) -> list[SearchHit]:
    return [SearchHit(doc_id=doc_id, score=1.0 / rank, rank=rank)
            for rank, doc_id in sorted(ranks_to_ids.items())]


def test_first_relevant_basic():
    hits = hits_for({i: f"d{i}" for i in range(1, 11)})
    assert rank_of_first_relevant(hits, {"d3"}) == 3


def test_first_relevant_picks_minimum():
    hits = hits_for({i: f"d{i}" for i in range(1, 11)})
    assert rank_of_first_relevant(hits, {"d7", "d4", "d9"}) == 4


def test_first_relevant_absent_is_not_retrieved():
    hits = hits_for({1: "d1", 2: "d2"})
    assert rank_of_first_relevant(hits, {"gone"}) is None


def test_first_relevant_empty_gold_is_error():
    with pytest.raises(ValueError):
        rank_of_first_relevant([], set())
    with pytest.raises(ValueError):
        Searcher(random_corpus(3, seed=10)).rank(["alpha"], set())


def test_first_relevant_refuses_a_str_gold():
    # "d1" in "d11" is a substring test, not a membership one.
    hits = hits_for({1: "d1", 2: "d11"})
    with pytest.raises(TypeError):
        rank_of_first_relevant(hits, "d11")


def test_rank_refuses_a_str_gold(stops):
    corpus = make_corpus([("d1", "alpha beta"), ("d11", "alpha")], stops)
    with pytest.raises(TypeError):
        Searcher(corpus).rank(["alpha"], "d11")


# -- rank by counting and the partial top-n sort ------------------------------

VOCAB = ["alpha", "beta", "gamma", "kelp"]


@st.composite
def small_corpora(draw) -> Corpus:
    """A few documents over a tiny vocabulary, some of them copies under
    other ids (equal scores, so the doc-id tie-break decides), in random
    id order."""
    counts = draw(st.lists(st.dictionaries(st.sampled_from(VOCAB), st.integers(1, 3), max_size=3),
                           min_size=1, max_size=10))
    counts += [dict(counts[i]) for i in draw(st.lists(st.integers(0, len(counts) - 1), max_size=4))]
    ids = draw(st.permutations([f"d{i:02d}" for i in range(len(counts))]))
    return Corpus([Document(doc_id=doc_id, term_counts=c, surfaces={w: w for w in c})
                   for doc_id, c in zip(ids, counts)])


queries = st.lists(st.sampled_from(VOCAB + ["zzz"]), max_size=4)


@settings(max_examples=300, deadline=None)
@given(corpus=small_corpora(), terms=queries, data=st.data())
def test_rank_equals_rank_of_first_relevant(corpus, terms, data):
    searcher = Searcher(corpus)
    ids = [doc.doc_id for doc in corpus.documents]
    gold = data.draw(st.sets(st.sampled_from(ids + ["ghost"]), min_size=1, max_size=3))
    assert searcher.rank(terms, gold) == rank_of_first_relevant(searcher.search(terms), gold)


@st.composite
def corpora_with_repeated_ids(draw) -> Corpus:
    """small_corpora plus documents that hold only a word no query holds, so
    they score zero, in random order and under ids drawn from fewer ids than
    there are documents: at least two documents share an id, with equal
    scores (the copies) or different ones."""
    counts = [doc.term_counts for doc in draw(small_corpora()).documents]
    counts += [{"lull": draw(st.integers(1, 2))} for _ in range(draw(st.integers(0, 3)))]
    counts = draw(st.permutations(counts))
    pool = [f"d{i:02d}" for i in range(max(1, len(counts) - 1))]
    ids = draw(st.lists(st.sampled_from(pool), min_size=len(counts), max_size=len(counts)))
    return Corpus([Document(doc_id=doc_id, term_counts=c, surfaces={w: w for w in c})
                   for doc_id, c in zip(ids, counts)])


@settings(max_examples=300, deadline=None)
@given(corpus=corpora_with_repeated_ids(), terms=queries, data=st.data())
def test_rank_counts_every_document_under_a_gold_id(corpus, terms, data):
    ids = sorted({doc.doc_id for doc in corpus.documents})
    gold = data.draw(st.sets(st.sampled_from(ids + ["ghost"]), min_size=1, max_size=3))
    expected = ReferenceSearcher(corpus).rank(terms, gold)
    assert Searcher(corpus).rank(terms, gold) == expected
    # Warm: the postings of every query term, and of others, are memoized.
    warm = Searcher(corpus)
    warm.search(VOCAB + ["lull"])
    assert warm.rank(terms, gold) == expected


@settings(max_examples=200, deadline=None)
@given(corpus=st.one_of(small_corpora(), corpora_with_repeated_ids()), terms=queries)
def test_top_n_is_a_prefix_of_the_full_ranking(corpus, terms):
    # SearchHit equality compares the score floats exactly.
    full = ReferenceSearcher(corpus).search(terms)
    warm = Searcher(corpus)
    warm.search(VOCAB + ["lull"])  # memoizes the postings of every query term
    assert warm.search(terms) == full
    assert Searcher(corpus).search(terms) == full
    for k in range(len(full) + 3):
        assert Searcher(corpus).search(terms, top_n=k) == full[:k]
        assert warm.search(terms, top_n=k) == full[:k]


# -- a loaded index scores as the built one -----------------------------------

@st.composite
def corpora_with_varied_surfaces(draw) -> Corpus:
    """small_corpora with each term's surface drawn per document from its
    case variants, so one normalized term has several surfaces; the tiny
    vocabulary and counts make many documents hold the same cell."""
    corpus = draw(small_corpora())
    return Corpus([
        Document(doc_id=doc.doc_id, term_counts=doc.term_counts,
                 surfaces={t: draw(st.sampled_from([t, t.title(), t.upper()]))
                           for t in doc.term_counts})
        for doc in corpus.documents])


@pytest.fixture(scope="module")
def index_path(tmp_path_factory):
    return tmp_path_factory.mktemp("loaded") / "index.txt"


@settings(max_examples=200, deadline=None)
@given(corpus=corpora_with_varied_surfaces(), terms=queries, data=st.data())
def test_a_loaded_index_scores_as_the_built_one(index_path, corpus, terms, data):
    save(corpus, index_path)
    loaded = load(index_path)
    assert loaded == corpus
    built, read_back = Searcher(corpus), Searcher(loaded)
    # SearchHit equality compares the score floats exactly.
    assert read_back.search(terms) == built.search(terms)
    ids = [doc.doc_id for doc in corpus.documents]
    gold = data.draw(st.sets(st.sampled_from(ids + ["ghost"]), min_size=1, max_size=3))
    assert read_back.rank(terms, gold) == built.rank(terms, gold)


# -- the lazy searcher scores as the eagerly built one ------------------------

@st.composite
def corpora_with_an_empty_document(draw) -> Corpus:
    """small_corpora plus, at a random position, a document with no terms."""
    corpus = draw(small_corpora())
    documents = list(corpus.documents)
    documents.insert(draw(st.integers(0, len(documents))), Document(doc_id="empty"))
    return Corpus(documents)


# One call on a searcher: ("search", terms, top_n), ("rank", terms, gold) or
# ("tf_idf", counts). Terms include "zzz" and "yyy", which no document holds.
UNKNOWN = ["zzz", "yyy"]
TERMS = st.lists(st.sampled_from(VOCAB + UNKNOWN), max_size=5)
CALLS = st.lists(st.one_of(
    st.tuples(st.just("search"), TERMS, st.none() | st.integers(0, 6)),
    st.tuples(st.just("rank"), TERMS,
              st.sets(st.sampled_from([f"d{i:02d}" for i in range(14)] + ["empty", "ghost"]),
                      min_size=1, max_size=3)),
    st.tuples(st.just("tf_idf"),
              st.dictionaries(st.sampled_from(VOCAB + UNKNOWN), st.integers(1, 5), max_size=4)),
), min_size=1, max_size=8)


def call(searcher, op):
    name, *args = op
    if name == "search":
        terms, top_n = args
        return searcher.search(terms, top_n=top_n)
    return getattr(searcher, name)(*args)


@settings(max_examples=300, deadline=None)
@given(corpus=corpora_with_an_empty_document(), calls=CALLS, loaded=st.booleans())
def test_lazy_searcher_returns_what_the_eager_one_returns(index_path, corpus, calls, loaded):
    if loaded:
        save(corpus, index_path)
        corpus = load(index_path)
    lazy, eager = Searcher(corpus), ReferenceSearcher(corpus)
    for op in calls:
        # Hits compare their score floats exactly, tf_idf its weight floats;
        # the lazy searcher's memos differ by which calls came first.
        assert call(lazy, op) == call(eager, op), op


# -- large term counts ---------------------------------------------------------

# The searcher memoizes `1 + ln count` by count, so counts repeat across
# documents and calls, and reach a million.
LARGE_COUNTS = st.one_of(st.integers(1, 10**6), st.sampled_from([1, 2, 999_999, 10**6]))


@st.composite
def corpora_with_large_counts(draw) -> Corpus:
    """A few documents over a tiny vocabulary, with counts up to 10^6."""
    counts = draw(st.lists(st.dictionaries(st.sampled_from(VOCAB), LARGE_COUNTS, max_size=4),
                           min_size=1, max_size=8))
    return Corpus([Document(doc_id=f"d{i:02d}", term_counts=c, surfaces={w: w for w in c})
                   for i, c in enumerate(counts)])


LARGE_CALLS = st.lists(st.one_of(
    st.tuples(st.just("search"), TERMS, st.none() | st.integers(0, 6)),
    st.tuples(st.just("rank"), TERMS,
              st.sets(st.sampled_from([f"d{i:02d}" for i in range(8)] + ["ghost"]),
                      min_size=1, max_size=3)),
    st.tuples(st.just("tf_idf"),
              st.dictionaries(st.sampled_from(VOCAB + UNKNOWN), LARGE_COUNTS, max_size=4)),
), min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(corpus=corpora_with_large_counts(), calls=LARGE_CALLS, loaded=st.booleans())
def test_large_term_counts_score_as_the_reference(index_path, corpus, calls, loaded):
    if loaded:
        save(corpus, index_path)
        corpus = load(index_path)
    searcher, reference = Searcher(corpus), ReferenceSearcher(corpus)
    for op in calls:
        # Exact float comparison, as in the lazy-searcher test above.
        assert call(searcher, op) == call(reference, op), op


# -- top-n search scores exactly only what can reach the top n ------------------

PRUNING_VOCAB = WORD_POOL[:12]


@st.composite
def pruning_corpora(draw) -> Corpus:
    """Documents of 3 to 10 terms over a 12-word vocabulary, some of them
    copies under other ids, so that top-n searches have many hits to prune
    and scores often tie at the n-th place."""
    counts = draw(st.lists(st.dictionaries(st.sampled_from(PRUNING_VOCAB), st.integers(1, 4),
                                           min_size=3, max_size=10),
                           min_size=1, max_size=30))
    counts += [dict(counts[i]) for i in draw(st.lists(st.integers(0, len(counts) - 1),
                                                      max_size=8))]
    ids = draw(st.permutations([f"d{i:02d}" for i in range(len(counts))]))
    return Corpus([Document(doc_id=doc_id, term_counts=c, surfaces={w: w for w in c})
                   for doc_id, c in zip(ids, counts)])


PRUNING_TERMS = st.lists(st.sampled_from(PRUNING_VOCAB + ["zzz"]), min_size=1, max_size=6)


def assert_top_n_is_the_reference_prefix(index_path, corpus, terms, warm_up, loaded):
    if loaded:
        save(corpus, index_path)
        corpus = load(index_path)
    expected = ReferenceSearcher(corpus).search(terms)
    # A fresh searcher per call prunes; the warmed one has memoized norms
    # and postings, for all of the query's terms or for some of them.
    warmed = Searcher(corpus)
    for other in warm_up:
        warmed.search(other)
    for top_n in range(len(expected) + 3):
        assert Searcher(corpus).search(terms, top_n=top_n) == expected[:top_n]
        assert warmed.search(terms, top_n=top_n) == expected[:top_n]


@settings(max_examples=200, deadline=None)
@given(corpus=pruning_corpora(), terms=PRUNING_TERMS,
       warm_up=st.lists(PRUNING_TERMS, min_size=1, max_size=3), loaded=st.booleans())
def test_top_n_search_is_the_reference_prefix(index_path, corpus, terms, warm_up, loaded):
    assert_top_n_is_the_reference_prefix(index_path, corpus, terms, warm_up, loaded)


SKEWED_COMMON = WORD_POOL[:3]
SKEWED_RARE = [f"rare{i:02d}" for i in range(40)]


@st.composite
def skewed_corpora(draw) -> Corpus:
    """Documents holding some of a few common words and up to eight of many
    rare ones, some of them copies under other ids. Rare terms have a high
    idf, so the idf floor F[m] is well above m once m passes the number of
    common words, and a bound too high or too low shows."""
    counts = []
    for _ in range(draw(st.integers(1, 25))):
        doc = draw(st.dictionaries(st.sampled_from(SKEWED_COMMON), st.integers(1, 4),
                                   min_size=1))
        doc.update(draw(st.dictionaries(st.sampled_from(SKEWED_RARE), st.integers(1, 4),
                                        max_size=8)))
        counts.append(doc)
    counts += [dict(counts[i]) for i in draw(st.lists(st.integers(0, len(counts) - 1),
                                                      max_size=6))]
    ids = draw(st.permutations([f"d{i:02d}" for i in range(len(counts))]))
    return Corpus([Document(doc_id=doc_id, term_counts=c, surfaces={w: w for w in c})
                   for doc_id, c in zip(ids, counts)])


SKEWED_TERMS = st.lists(st.sampled_from(SKEWED_COMMON + SKEWED_RARE[:8] + ["zzz"]),
                        min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(corpus=skewed_corpora(), terms=SKEWED_TERMS,
       warm_up=st.lists(SKEWED_TERMS, min_size=1, max_size=3), loaded=st.booleans())
def test_top_n_search_over_a_skewed_vocabulary_is_the_reference_prefix(
        index_path, corpus, terms, warm_up, loaded):
    assert_top_n_is_the_reference_prefix(index_path, corpus, terms, warm_up, loaded)


def test_a_tie_at_the_nth_score_is_scored_exactly():
    # Both documents hold just the query's terms, so the bound on their
    # score is the cosine itself, and here it rounds to below the score:
    # without the margin, "a" would be pruned after "b", which comes first
    # by position, ties it and loses the doc-id tie-break.
    counts = {"alpha": 1, "harbor": 1, "ingot": 1}
    corpus = Corpus([Document(doc_id, dict(counts), {w: w for w in counts})
                     for doc_id in ("b", "a")])
    terms = ["alpha", "alpha", "harbor", "ingot"]
    assert Searcher(corpus).search(terms, top_n=1) == ReferenceSearcher(corpus).search(terms)[:1]


def test_a_one_shot_top_n_search_builds_fewer_norms_than_it_has_hits():
    corpus = random_corpus(200, seed=12)
    terms = ["alpha", "kelp", "sonar"]
    full = Searcher(corpus).search(terms)
    searcher = Searcher(corpus)
    assert searcher.search(terms, top_n=5) == full[:5]
    assert len(searcher._norms) < len(full)


def test_the_idf_floor_prunes_more_than_a_weight_of_one_per_unmatched_term():
    # The same search as above. A bound that gave each unmatched term a
    # weight of 1 built 52 norms for these 102 hits.
    corpus = random_corpus(200, seed=12)
    terms = ["alpha", "kelp", "sonar"]
    searcher = Searcher(corpus)
    assert searcher.search(terms, top_n=5) == ReferenceSearcher(corpus).search(terms)[:5]
    assert len(searcher._norms) < 52


# -- the inverted index is built for full scoring only ---------------------------

@pytest.mark.parametrize("first_call", ["search", "rank"])
def test_only_full_scoring_builds_the_positions(index_path, first_call):
    save(random_corpus(60, seed=13), index_path)
    corpus = load(index_path)
    searcher = Searcher(corpus)
    terms = ["alpha", "kelp", "zzz"]
    top = searcher.search(terms, top_n=3)
    assert len(top) == 3 and "positions" not in corpus.__dict__
    if first_call == "search":
        assert searcher.search(terms)[:3] == top
    else:
        assert searcher.rank(terms, {top[0].doc_id}) == 1
    assert "positions" in corpus.__dict__
