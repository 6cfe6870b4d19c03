"""The whole evaluation against a reference composed of the oracles.

`run_evaluation` reformulates each query once for the four modes, keeps
each rank by the sorted rendered terms, ranks a gold document by counting,
keeps the reduction-only rank of `all` when that alone improves, and pairs
the Mann-Whitney samples by query id. `oracles.reference_run_evaluation`
shares nothing between strategies and reads every rank off a full ranking.
The two reports must agree exactly, apart from p, which scipy computes
with its own normal tail. The worlds are the `tests/data/evaluate` fixture,
three generated by `bench/gen.py` at its tiny scale, and one of equal
documents, in which the order of equal scores decides every rank.
"""

from __future__ import annotations

import itertools
import logging
import sys
from pathlib import Path

import pytest

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
