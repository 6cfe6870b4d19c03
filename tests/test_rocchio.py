"""Rocchio pseudo-relevance-feedback baseline against a summation oracle."""

from __future__ import annotations

import random

import pytest

from oracles import dense_cosine_ranking, rocchio_term_ranking
from quickar.errors import QueryEmptyError
from quickar.reformulate import Params, QueryRecord
from quickar.reformulate import rocchio_expand

from conftest import WORD_POOL, make_corpus


def test_single_doc_single_candidate(stops):
    corpus = make_corpus([("only", "alpha beta beta")], stops)
    # One keyword plus one expansion term.
    ref = rocchio_expand(QueryRecord("q", "alpha"), corpus, Params(budget=2), stops=stops)
    assert ref.query_text() == "alpha beta"


def test_zero_overlap_query_unchanged(stops):
    corpus = make_corpus([("only", "alpha beta")], stops)
    ref = rocchio_expand(QueryRecord("q", "quasar nebula"), corpus, stops=stops)
    assert ref.expansion_terms == []
    assert ref.query_text() == "quasar nebula"


def test_expansion_fills_to_budget(stops):
    corpus = make_corpus(
        [("d0", "alpha beta gamma delta epsilon zeta eta theta iota kappa")], stops)
    ref = rocchio_expand(QueryRecord("q", "alpha"), corpus, stops=stops)
    assert len(ref.expansion_terms) == 9  # 10-term budget minus 1 keyword


def test_expansion_matches_summation_oracle(stops):
    rng = random.Random(4)
    docs = []
    for i in range(20):
        words = []
        for _ in range(rng.randint(4, 10)):
            words.extend([rng.choice(WORD_POOL)] * rng.randint(1, 3))
        docs.append((f"d{i:02d}", " ".join(words)))
    corpus = make_corpus(docs, stops)
    query = QueryRecord("q", "alpha quartz")

    counts = {d.doc_id: d.term_counts for d in corpus.documents}
    top5 = [doc_id for doc_id, _ in dense_cosine_ranking(counts, ["alpha", "quartz"])[:5]]
    expected = rocchio_term_ranking(
        [counts[doc_id] for doc_id in top5],
        corpus.doc_freq, corpus.n_docs, exclude={"alpha", "quartz"})

    ref = rocchio_expand(query, corpus, Params(budget=2 + len(expected)), stops=stops)
    assert [c.term for c in ref.expansion_terms] == [t for t, _ in expected]
    for cand, (_, score) in zip(ref.expansion_terms, expected):
        assert cand.score == pytest.approx(score, abs=1e-9)


def test_every_budget_takes_the_oracle_prefix_through_ties(stops):
    # Terms in the same documents with the same counts tie to the bit: the
    # cut must fall between tied terms by ascending term, at every budget.
    docs = [
        ("d0", "alpha bravo canvas delta ember"),
        ("d1", "alpha bravo canvas fjord gadget fjord gadget"),
        ("d2", "alpha alpha harbor ingot harbor ingot kelp"),
        ("d3", "lumen marble delta"),
        ("d4", "nectar onyx kelp"),
    ]
    corpus = make_corpus(docs, stops)
    counts = {d.doc_id: d.term_counts for d in corpus.documents}
    top = [doc_id for doc_id, _ in dense_cosine_ranking(counts, ["alpha"])[:5]]
    expected = rocchio_term_ranking([counts[doc_id] for doc_id in top],
                                    corpus.doc_freq, corpus.n_docs, exclude={"alpha"})
    scores = [score for _, score in expected]
    assert len(set(scores)) < len(scores)  # the corpus does hold ties

    for count in range(1, len(expected) + 1):
        ref = rocchio_expand(QueryRecord("q", "alpha"), corpus, Params(budget=1 + count),
                             stops=stops)
        assert [(c.term, c.score) for c in ref.expansion_terms] == expected[:count]
        assert {c.source for c in ref.expansion_terms} == {"feedback"}


def test_expansion_terms_come_from_top_docs(stops):
    docs = [("d0", "alpha beta"), ("d1", "alpha gamma"), ("d2", "delta zeta")]
    corpus = make_corpus(docs, stops)
    ref = rocchio_expand(QueryRecord("q", "alpha"), corpus,
                         Params(top_docs=2), stops=stops)
    assert {c.term for c in ref.expansion_terms} <= {"beta", "gamma"}


def test_no_reduction_no_nominal_filter(stops):
    # "ignores" would be dropped by the reformulator; Rocchio keeps it.
    corpus = make_corpus([("d0", "ignores widget"), ("d1", "alpha")], stops)
    ref = rocchio_expand(QueryRecord("q", "widget"), corpus, stops=stops)
    assert "ignores" in [c.term for c in ref.expansion_terms]
    assert ref.query_text().split()[0] == "widget"


def test_empty_title_is_error(stops):
    corpus = make_corpus([("d0", "alpha")], stops)
    with pytest.raises(QueryEmptyError):
        rocchio_expand(QueryRecord("q", "the of"), corpus, stops=stops)


def test_deterministic(stops):
    corpus = make_corpus([(f"d{i}", "alpha beta gamma") for i in range(6)], stops)
    runs = [rocchio_expand(QueryRecord("q", "alpha"), corpus, stops=stops).query_text()
            for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]
