"""The whole evaluation against a reference composed of the oracles.

`run_evaluation` reformulates each query once for the four modes, keeps
each rank by the sorted rendered terms, ranks a gold document by counting,
keeps the reduction-only rank of `all` when that alone improves, and pairs
the Mann-Whitney samples by row position, every strategy's rows following
the kept queries' order. `oracles.reference_run_evaluation` shares nothing
between strategies, reads every rank off a full ranking and pairs the
samples by query id. The two reports must agree exactly, apart from p,
which scipy computes with its own normal tail. The worlds are the
`tests/data/evaluate` fixture, three generated by `bench/gen.py` at its
tiny scale, one of equal documents, in which the order of equal scores
decides every rank, and worlds that hypothesis generates.
"""

from __future__ import annotations

import itertools
import logging
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_run_evaluation
from quickar import adjacency, corpus
from quickar.adjacency import TitleRecord
from quickar.corpus import build_corpus
from quickar.evaluate import STRATEGIES, parse_queries_tsv, run_evaluation
from quickar.reformulate import QueryRecord
from quickar.textprep import default_language_keywords

from conftest import WORD_POOL, make_corpus

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import gen  # noqa: E402
import workloads  # noqa: E402

EVAL_DATA = Path(__file__).parent / "data" / "evaluate"
TINY_SEEDS = (1, 5, 7)


@pytest.fixture(scope="module",
                params=["fixture", *(f"tiny-{seed}" for seed in TINY_SEEDS), "ties"])
def world(request, tmp_path_factory, stops):
    """The queries, index and database of one world."""
    if request.param == "ties":
        # Three texts, twelve documents each: whole groups tie on every query.
        texts = ("alpha bravo canvas", "alpha delta ember", "alpha fjord gadget harbor")
        index = make_corpus([(f"d{i:02d}", texts[i % 3]) for i in range(36)], stops)
        titles = [TitleRecord(n, f"{a} {b}", ("java",))
                  for n, (a, b) in enumerate(itertools.combinations(WORD_POOL[:8], 2), 1)]
        queries = [QueryRecord("q1", "alpha", frozenset({"d13"})),
                   QueryRecord("q2", "alpha canvas", frozenset({"d30"})),
                   QueryRecord("q3", "ember harbor", frozenset({"d35", "d26"})),
                   QueryRecord("q4", "bravo", frozenset({"d33"}))]
        return queries, index, adjacency.build(titles, stops, source="ties")
    if request.param == "fixture":
        titles = adjacency.read_title_dump(EVAL_DATA / "dump.tsv")
        db = adjacency.build(adjacency.filter_titles(titles, "java"), stops,
                             source="dump.tsv:java")
        index = build_corpus(EVAL_DATA / "src", stops, default_language_keywords())
        return parse_queries_tsv(EVAL_DATA / "queries.tsv"), index, db
    root = tmp_path_factory.mktemp(request.param)
    logger = logging.getLogger("quickar")
    level = logger.level
    try:  # `prepare` quiets the package's logger, as for a benchmark child
        workloads.prepare("eval-batch", int(request.param.split("-")[1]), str(root), gen.TINY)
    finally:
        logger.setLevel(level)
    lay = workloads.Layout(root)
    return parse_queries_tsv(lay.queries), corpus.load(lay.ref_index), adjacency.load(lay.ref_db)


@pytest.mark.parametrize("strict", [False, True], ids=["all", "strict"])
@pytest.mark.parametrize("strategies", [STRATEGIES, ("red", "prep", "rocchio", "so")],
                         ids=["every-strategy", "no-all"])
def test_report_matches_the_reference_evaluation(world, stops, oracle, strategies, strict):
    queries, index, db = world
    report = run_evaluation(queries, index, db, strategies, stops=stops, oracle=oracle,
                            strict=strict)
    expected = reference_run_evaluation(queries, index, db, strategies, stops=stops,
                                        oracle=oracle, strict=strict)
    assert report["dataset"]["kept"] > 0
    p_values = [(row.pop("p"), ref.pop("p")) for row, ref in zip(report["mwu"], expected["mwu"])]
    assert report == expected
    for got, want in p_values:
        assert got == pytest.approx(want, abs=1e-12)


# Generated worlds: twelve to thirty documents, each one of a few texts of
# one to five words over twenty words, so that whole groups of documents
# tie and a gold document often ranks below 10; a database mined from titles
# over the same words; and queries whose gold documents are drawn from the
# documents after the first ten. A title takes its words from the text of its first gold
# document and from two words that no document holds, so some baselines
# and some reformulations retrieve no gold document.
VOCAB = WORD_POOL[:20]
TEXTS = st.lists(st.sampled_from(VOCAB), min_size=1, max_size=5).map(" ".join)


@st.composite
def worlds(draw, stops):
    texts = draw(st.lists(TEXTS, min_size=1, max_size=4))
    chosen = draw(st.lists(st.sampled_from(texts), min_size=12, max_size=30))
    index = make_corpus([(f"d{i:02d}", text) for i, text in enumerate(chosen)], stops)
    titles = [TitleRecord(n, title, ("java",))
              for n, title in enumerate(draw(st.lists(TEXTS, min_size=1, max_size=12)), 1)]
    queries = []
    for n in range(draw(st.integers(1, 8))):
        gold = draw(st.lists(st.integers(10, len(chosen) - 1), min_size=1, max_size=2))
        words = chosen[gold[0]].split() + WORD_POOL[len(VOCAB):len(VOCAB) + 2]
        title = draw(st.lists(st.sampled_from(words), min_size=1, max_size=3))
        queries.append(QueryRecord(f"q{n}", " ".join(title),
                                   frozenset(index.documents[i].doc_id for i in gold)))
    return queries, index, adjacency.build(titles, stops, source="generated")


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_generated_world_matches_the_reference_evaluation(stops, oracle, data):
    queries, index, db = data.draw(worlds(stops))
    strategies = data.draw(st.sampled_from([STRATEGIES, ("red", "prep", "rocchio", "so")]))
    for strict in (False, True):
        report = run_evaluation(queries, index, db, strategies, stops=stops, oracle=oracle,
                                strict=strict)
        expected = reference_run_evaluation(queries, index, db, strategies, stops=stops,
                                            oracle=oracle, strict=strict)
        p_values = [(row.pop("p"), ref.pop("p"))
                    for row, ref in zip(report["mwu"], expected["mwu"])]
        assert report == expected
        for got, want in p_values:
            assert got == pytest.approx(want, abs=1e-12)
