"""Evaluation harness: rank statistics against the oracles and scipy, the
dataset filter's boundaries, the reduction-first rule, the strategy list
checks, the percentage denominators, the text report as a function of the
JSON one, and report writes that fail."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import interpolated_quartiles, mwu_statistic
from quickar import adjacency
from quickar.corpus import build_corpus
from quickar.evaluate import (
    EXCLUDED,
    STRATEGIES,
    IMPROVED,
    PRESERVED,
    WORSENED,
    evaluate_strategy,
    filter_dataset,
    mann_whitney_u,
    parse_queries_tsv,
    render_report_text,
    run_evaluation,
    strategy_report,
    summarize_ranks,
)
from quickar.errors import DataError
from quickar.reformulate import MODE_ALL, Params, QueryRecord, reformulate
from quickar.search import Searcher, rank_of_first_relevant
from quickar.textprep import default_language_keywords

from conftest import make_corpus

EVAL_DATA = Path(__file__).parent / "data" / "evaluate"

# Small rank values, so that ties are common.
samples = st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=25)


@settings(max_examples=300, deadline=None)
@given(samples, samples)
def test_mwu_statistic_matches_pairwise_count(a, b):
    # The oracle counts the pairs sample A wins by ranking closer to the top.
    assert mann_whitney_u(a, b)["u"] == len(a) * len(b) - mwu_statistic(a, b)


@settings(max_examples=300, deadline=None)
@given(samples, samples)
def test_mwu_matches_scipy(a, b):
    stats = pytest.importorskip("scipy.stats")
    expected = stats.mannwhitneyu(a, b, alternative="two-sided",
                                  method="asymptotic", use_continuity=True)
    result = mann_whitney_u(a, b)
    assert result["u"] == expected.statistic
    assert result["p"] == pytest.approx(expected.pvalue, abs=1e-12)
    assert result["mrd"] == pytest.approx(sum(a) / len(a) - sum(b) / len(b))


def test_mwu_rejects_empty_sample():
    with pytest.raises(ValueError):
        mann_whitney_u([], [1])


@given(st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=40))
def test_summarize_ranks_matches_quartile_oracle(ranks):
    summary = summarize_ranks(ranks)
    q1, q2, q3 = interpolated_quartiles(ranks)
    assert (summary["q1"], summary["q2"], summary["q3"]) == pytest.approx((q1, q2, q3), rel=1e-12)
    assert summary["count"] == len(ranks)
    assert (summary["min"], summary["max"]) == (min(ranks), max(ranks))
    assert summary["mean"] == pytest.approx(sum(ranks) / len(ranks))


def test_summarize_no_ranks():
    assert summarize_ranks([]) == {"count": 0, "mean": None, "q1": None, "q2": None,
                                   "q3": None, "min": None, "max": None}


def test_filter_dataset_boundaries(stops):
    # Twenty equal documents: ties break by id, so d10 ranks 10th, d11 11th.
    corpus = make_corpus([(f"d{i:02d}", "alpha beta") for i in range(1, 21)], stops)
    queries = [
        QueryRecord("at10", "alpha", frozenset({"d10"})),
        QueryRecord("at11", "alpha", frozenset({"d11"})),
        QueryRecord("best", "alpha", frozenset({"d11", "d20"})),
        QueryRecord("none", "zeta", frozenset({"d01"})),
    ]
    at11, best = queries[1:3]
    result = filter_dataset(queries, Searcher(corpus))
    assert result.kept == {at11: 11, best: 11}
    assert list(result.kept) == [at11, best]
    assert (result.dropped_low_rank, result.dropped_not_retrieved) == (1, 1)


def test_filter_dataset_requires_gold(stops):
    corpus = make_corpus([("d1", "alpha")], stops)
    with pytest.raises(DataError):
        filter_dataset([QueryRecord("q", "alpha")], Searcher(corpus))


@pytest.mark.parametrize("gold", [("d11", "d15"), ("d11", "d11")], ids=["different", "same"])
def test_filter_dataset_refuses_a_repeated_query_id(stops, rank_calls, gold):
    # Each kept query maps to its own baseline rank and its rows pair up by
    # position, so two queries held under one id, even two equal records,
    # are refused before any query is ranked.
    corpus = make_corpus([(f"d{i:02d}", "alpha beta") for i in range(1, 21)], stops)
    queries = [QueryRecord("q", "alpha", frozenset({doc})) for doc in gold]
    with pytest.raises(DataError) as exc:
        filter_dataset([QueryRecord("p", "beta", frozenset({"d01"})), *queries],
                       Searcher(corpus))
    assert str(exc.value) == "duplicate query ids: q"
    assert rank_calls == []


@pytest.fixture(scope="module")
def fixture_run(stops, oracle):
    db = adjacency.build(
        adjacency.filter_titles(adjacency.read_title_dump(EVAL_DATA / "dump.tsv"), "java"),
        stops, source="dump.tsv:java")
    corpus = build_corpus(EVAL_DATA / "src", stops, default_language_keywords())
    queries = parse_queries_tsv(EVAL_DATA / "queries.tsv")
    return corpus, db, queries


def test_full_pipeline_keeps_a_better_reduction_only_rank(fixture_run, stops, oracle):
    corpus, db, queries = fixture_run
    report = run_evaluation(queries, corpus, db, ("all", "red"), stops=stops, oracle=oracle)
    red = {o["query_id"]: o for o in report["strategies"]["red"]["outcomes"]}
    searcher = Searcher(corpus)
    applied = 0
    for outcome in report["strategies"]["all"]["outcomes"]:
        query = next(q for q in queries if q.query_id == outcome["query_id"])
        ref = reformulate(query, corpus, db, MODE_ALL, stops=stops, oracle=oracle)
        expanded = rank_of_first_relevant(searcher.search(ref.rendered_query.normalized()),
                                          set(query.gold_docs))
        reduced = red[outcome["query_id"]]["reformulated_rank"]
        if reduced is not None and reduced < outcome["baseline_rank"]:
            assert outcome["reformulated_rank"] == reduced
            applied += reduced != expanded
        else:
            assert outcome["reformulated_rank"] == expanded
    assert applied > 0  # the rule decides at least one outcome of the fixture


@pytest.fixture
def rank_calls(monkeypatch):
    """The terms and gold set of every Searcher.rank call made while the
    test runs."""
    rank = Searcher.rank
    calls = []

    def counted(self, terms, gold):
        calls.append((terms, gold))
        return rank(self, terms, gold)

    monkeypatch.setattr(Searcher, "rank", counted)
    return calls


@pytest.mark.parametrize("budget, expected", [(Params.budget, 17 + 13 * len(STRATEGIES)),
                                              (1, 17 + 13 * 2)],
                         ids=["default", "budget-1"])
def test_each_distinct_rendering_is_ranked_once_per_query(fixture_run, stops, oracle, rank_calls,
                                                           budget, expected):
    # After the 17 baseline ranks, each kept query is ranked once per
    # distinct multiset of rendered terms, whichever strategies render it.
    # With the default budget, the six strategies render each kept query of
    # the fixture six different ways. With a budget of one term, no mode
    # expands, so all four modes render the reduced keywords, and Rocchio
    # renders the unreduced keywords as `prep` does; the reduction drops a
    # keyword from every kept query, so that makes two ranks per query.
    corpus, db, queries = fixture_run
    report = run_evaluation(queries, corpus, db, stops=stops, oracle=oracle,
                            params=Params(budget=budget))
    assert (report["dataset"]["total"], report["dataset"]["kept"]) == (17, 13)
    scored = [(tuple(sorted(terms)), gold) for terms, gold in rank_calls[17:]]
    assert len(set(scored)) == len(scored)
    assert len(rank_calls) == expected


# A strategy list is checked whole before any query is ranked.
@pytest.mark.parametrize("strategies, message", [
    (("all", "p", "p"), "a strategy is named more than once: all,p,p"),
    (("all", "bogus"), "unknown strategies: bogus"),
], ids=["repeated", "unknown"])
def test_bad_strategy_list_is_a_data_error(fixture_run, stops, oracle, rank_calls,
                                           strategies, message):
    corpus, db, queries = fixture_run
    with pytest.raises(DataError) as exc:
        run_evaluation(queries, corpus, db, strategies, stops=stops, oracle=oracle)
    assert str(exc.value) == message
    assert rank_calls == []


def test_unknown_strategy_is_a_data_error(fixture_run, stops, oracle, rank_calls):
    # Called directly, evaluate_strategy checks its name as run_evaluation
    # checks its list, instead of evaluating the Rocchio baseline.
    corpus, db, queries = fixture_run
    with pytest.raises(DataError) as exc:
        evaluate_strategy(dict.fromkeys(queries, 11), corpus, db, "bogus", stops=stops,
                          oracle=oracle, searcher=Searcher(corpus), reformulated={})
    assert str(exc.value) == "unknown strategies: bogus"
    assert rank_calls == []


@pytest.mark.parametrize("subset", [("red",), ("so", "p"), ("prep", "all")],
                         ids=["red", "so-p", "prep-all"])
def test_strategy_subset_gives_the_outcomes_of_the_full_run(fixture_run, stops, oracle,
                                                            subset):
    # The mode strategies share one reformulation per query; which strategy
    # computes it first must not change any strategy's outcomes.
    corpus, db, queries = fixture_run
    full = run_evaluation(queries, corpus, db, stops=stops, oracle=oracle)
    part = run_evaluation(queries, corpus, db, subset, stops=stops, oracle=oracle)
    assert list(part["strategies"]) == list(subset)
    for name in subset:
        assert part["strategies"][name] == full["strategies"][name]
    stored = json.loads(json.dumps(part, sort_keys=True))
    assert render_report_text(part) == render_report_text(stored)


def test_strict_changes_only_the_denominator(fixture_run, stops, oracle):
    corpus, db, queries = fixture_run
    golden = json.loads((EVAL_DATA / "report.json").read_text(encoding="utf-8"))
    strict = run_evaluation(queries, corpus, db, stops=stops, oracle=oracle, strict=True)
    assert strict["denominator"] == "retrieved_only"
    for name, res in strict["strategies"].items():
        counts = res["counts"]
        retrieved = sum(counts.values()) - counts[EXCLUDED]
        for bucket in (IMPROVED, WORSENED, PRESERVED):
            assert res["percentages"][bucket] == pytest.approx(
                100.0 * counts[bucket] / retrieved)
        res["percentages"] = golden["strategies"][name]["percentages"]
    strict["denominator"] = "all"
    assert strict == golden


# Two improved, one worsened, one preserved and four excluded outcomes, two
# of them because the gold document was not retrieved.
OUTCOMES = [
    dict(zip(("query_id", "baseline_rank", "reformulated_rank", "classification", "reason"), row))
    for row in [
        ("q1", 20, 4, IMPROVED, ""),
        ("q2", 30, 12, IMPROVED, ""),
        ("q3", 15, 18, WORSENED, ""),
        ("q4", 11, 11, PRESERVED, ""),
        ("q5", 14, None, EXCLUDED, "gold not retrieved"),
        ("q6", 25, None, EXCLUDED, "gold not retrieved"),
        ("q7", 12, None, EXCLUDED, "empty query"),
        ("q8", 40, None, EXCLUDED, "empty query"),
    ]
]


@pytest.mark.parametrize("strict, denominator, percentages", [
    (False, "all", [25.0, 12.5, 12.5, 50.0]),
    (True, "retrieved_only", [50.0, 25.0, 25.0, 50.0]),
])
def test_percentage_denominators(strict, denominator, percentages):
    entry = strategy_report(OUTCOMES, strict)
    assert entry["counts"] == {IMPROVED: 2, WORSENED: 1, PRESERVED: 1, EXCLUDED: 4}
    pct = entry["percentages"]
    assert [pct[b] for b in (IMPROVED, WORSENED, PRESERVED, EXCLUDED)] == percentages
    assert entry["summaries"][IMPROVED] == {"count": 2, "mean": 8.0, "q1": 6.0, "q2": 8.0,
                                            "q3": 10.0, "min": 4, "max": 12}
    assert entry["outcomes"][4] == {"query_id": "q5", "baseline_rank": 14,
                                    "reformulated_rank": None, "classification": EXCLUDED,
                                    "reason": "gold not retrieved"}
    report = {"dataset": dict.fromkeys(("total", "kept", "dropped_low_rank",
                                        "dropped_not_retrieved"), 8),
              "denominator": denominator, "params": {}, "strategies": {"all": entry},
              "mwu": []}
    label = "retrieved queries only" if strict else "all evaluated queries"
    text = render_report_text(report)
    assert f"Outcomes (percent of {label})" in text
    assert f"all       2 ({percentages[0]:.2f}%)" in text


def test_text_report_is_rendered_from_the_json_report():
    golden = json.loads((EVAL_DATA / "report.json").read_text(encoding="utf-8"))
    assert render_report_text(golden) == (EVAL_DATA / "report.txt").read_text(encoding="utf-8")


# The smallest report: no strategy evaluated.
OLD_REPORT = {"dataset": dict.fromkeys(("total", "kept", "dropped_low_rank",
                                        "dropped_not_retrieved"), 0),
              "denominator": "all", "params": {"note": "old"}, "strategies": {}, "mwu": []}

# Writes both reports, then rewrites them under a file-size limit that the
# new report.json exceeds and the new report.txt does not, so the second
# write fails part-way with EFBIG.
FAILING_WRITE = """
import resource, signal, sys
from quickar.errors import DataError
from quickar.evaluate import emit_report

out, old = sys.argv[1], %r
emit_report(old, out)
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (4096, resource.RLIM_INFINITY))
try:
    emit_report({**old, "dataset": {**old["dataset"], "total": 7},
                 "params": {"note": "x" * 20000}}, out)
except DataError as exc:
    print(exc)
    sys.exit(3)
"""


def test_failed_report_write_keeps_previous_report(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", FAILING_WRITE % OLD_REPORT, str(tmp_path)],
                          env={"PYTHONPATH": str(src)}, capture_output=True, text=True)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout.startswith(f"cannot write report to {tmp_path}: ")
    assert json.loads((tmp_path / "report.json").read_text())["params"] == {"note": "old"}
    assert (tmp_path / "report.txt").read_text() == render_report_text(OLD_REPORT)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "report.txt"]
