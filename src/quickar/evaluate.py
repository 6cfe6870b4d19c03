"""Batch evaluation: rank comparison, outcome buckets, rank statistics.

Reproduces the experimental protocol end to end: keep only queries whose
verbatim-title search ranks the first relevant document worse than 10, run
one or more reformulation strategies, classify every query as improved,
worsened or preserved, summarize the rank distributions per bucket, and
compare strategies with two-sided Mann-Whitney U tests. Every row is a
plain dict, built once in the shape `report.json` stores.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from itertools import groupby
from pathlib import Path
from typing import Iterable, Sequence

from . import search
from .adjacency import AdjacencyDatabase
from .artifact import read_lines, replace_files
from .corpus import Corpus
from .errors import DataError, QueryEmptyError
from .nouns import NounOracle
from .reformulate import (
    MODE_ALL,
    MODE_REDUCE,
    MODE_ROCCHIO,
    MODES,
    Params,
    QueryRecord,
    Reformulation,
    collect_keywords,
    reformulations,
    render_terms,
    rocchio_expand,
)
from .textprep import StopList, tokenize

# Outcome classifications.
IMPROVED = "improved"
WORSENED = "worsened"
PRESERVED = "preserved"
EXCLUDED = "excluded"
BUCKETS = (IMPROVED, WORSENED, PRESERVED, EXCLUDED)
# The buckets of queries whose gold document the strategy retrieved.
RETRIEVED_BUCKETS = (IMPROVED, WORSENED, PRESERVED)

# Evaluation strategies. The first four are reformulation modes, "rocchio"
# is the feedback baseline, "prep" is the preprocessed title (no expansion).
STRATEGIES = MODES + (MODE_ROCCHIO, "prep")

POOR_RANK_THRESHOLD = 10

# What the strategies of one evaluation share per query: its reformulations
# by mode (empty until a mode strategy needs them) and its ranks by rendered
# terms, sorted.
SharedQuery = tuple[dict[str, Reformulation], dict[tuple[str, ...], int | None]]


# ---------------------------------------------------------------------------
# Dataset handling
# ---------------------------------------------------------------------------

def parse_queries_tsv(path) -> list[QueryRecord]:
    """`query_id<TAB>title<TAB>gold1;gold2;...`, one query per line; every
    query id is unique."""
    queries = []
    seen: set[str] = set()
    for lineno, line in enumerate(read_lines(path, "queries file"), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}")
        query_id, title, gold_field = parts
        if query_id in seen:
            raise DataError(f"{path}:{lineno}: duplicate query id {query_id!r}")
        seen.add(query_id)
        gold = frozenset(g.strip() for g in gold_field.split(";") if g.strip())
        queries.append(QueryRecord(query_id=query_id, text=title, gold_docs=gold))
    return queries


def baseline_terms(title: str) -> list[str]:
    """The verbatim-title query: plain lower-cased tokens, no camel
    splitting and no stop removal."""
    return [t.lower() for t in tokenize(title)]


class FilterResult:
    """The outcome of `filter_dataset`: `kept` maps each kept query, in file
    order, to its baseline rank. A plain mutable record."""

    def __init__(self, kept: dict[QueryRecord, int], dropped_low_rank: int,
                 dropped_not_retrieved: int):
        self.kept, self.dropped_low_rank = kept, dropped_low_rank
        self.dropped_not_retrieved = dropped_not_retrieved


def filter_dataset(
    queries: Sequence[QueryRecord],
    searcher: search.Searcher,
) -> FilterResult:
    """Keep the queries worth reformulating: baseline rank above
    POOR_RANK_THRESHOLD.

    Queries whose baseline never retrieves a gold document are dropped and
    reported separately. A query without gold documents, or a query id
    held twice, is a DataError, raised before any query is ranked.
    """
    missing = [q.query_id for q in queries if not q.gold_docs]
    if missing:
        raise DataError(f"queries without gold documents: {', '.join(missing)}")
    repeated = [qid for qid, n in Counter(q.query_id for q in queries).items() if n > 1]
    if repeated:
        raise DataError(f"duplicate query ids: {', '.join(repeated)}")
    result = FilterResult(kept={}, dropped_low_rank=0, dropped_not_retrieved=0)
    for query in queries:
        rank = searcher.rank(baseline_terms(query.text), query.gold_docs)
        if rank is None:
            result.dropped_not_retrieved += 1
        elif rank <= POOR_RANK_THRESHOLD:
            result.dropped_low_rank += 1
        else:
            result.kept[query] = rank
    return result


# ---------------------------------------------------------------------------
# Rank statistics
# ---------------------------------------------------------------------------

def _interpolated_quantile(sorted_vals: Sequence[float], q: float) -> float:
    """Linear interpolation between closest ranks (the common default)."""
    pos = (len(sorted_vals) - 1) * q
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(sorted_vals) - 1)
    frac = pos - lo
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * frac


def summarize_ranks(ranks: Iterable[int]) -> dict:
    """The report's summary row of `ranks`: count, mean, quartiles, min and
    max. With no ranks, every value but the count (0) is None."""
    values = sorted(ranks)
    if not values:
        return {"count": 0, **dict.fromkeys(("mean", "q1", "q2", "q3", "min", "max"))}
    q1, q2, q3 = (_interpolated_quantile(values, q) for q in (0.25, 0.50, 0.75))
    return {"count": len(values), "mean": sum(values) / len(values),
            "q1": q1, "q2": q2, "q3": q3, "min": values[0], "max": values[-1]}


def _fractional_ranks(values: Sequence[float]) -> tuple[list[float], int]:
    """Midrank assignment: ties share the mean of their ordinal ranks.
    Also returns the tie term, the sum of t**3 - t over the runs of t equal
    values."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    tie_sum = 0
    first = 0  # the 0-based ordinal rank of the run's first value
    for _, group in groupby(order, key=values.__getitem__):
        run = list(group)
        shared = first + (len(run) - 1) / 2.0 + 1.0
        for index in run:
            ranks[index] = shared
        tie_sum += len(run) ** 3 - len(run)
        first += len(run)
    return ranks, tie_sum


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def mann_whitney_u(sample_a: Sequence[float], sample_b: Sequence[float]) -> dict:
    """Two-sided Mann-Whitney U test, normal approximation with tie and
    continuity corrections. Returns sample A's U statistic `u`, the p-value
    `p` and `mrd`, the mean of A's ranks minus B's: negative when A sits
    closer to the top of the result list."""
    if not sample_a or not sample_b:
        raise ValueError("both samples must be non-empty")
    n1, n2 = len(sample_a), len(sample_b)
    combined = list(sample_a) + list(sample_b)
    ranks, tie_sum = _fractional_ranks(combined)
    r1 = sum(ranks[:n1])
    u1 = r1 - n1 * (n1 + 1) / 2.0
    u2 = n1 * n2 - u1
    n = n1 + n2
    sigma_sq = (n1 * n2 / 12.0) * ((n + 1) - tie_sum / (n * (n - 1)))

    if sigma_sq <= 0:
        p_value = 1.0
    else:
        mu = n1 * n2 / 2.0
        z = (max(u1, u2) - mu - 0.5) / math.sqrt(sigma_sq)
        p_value = min(1.0, 2.0 * _normal_sf(z))
    return {"u": u1, "p": p_value, "mrd": sum(sample_a) / n1 - sum(sample_b) / n2}


# ---------------------------------------------------------------------------
# Strategy evaluation
# ---------------------------------------------------------------------------

def _classify(baseline: int, reformulated: int | None) -> str:
    if reformulated is None:
        return EXCLUDED
    if reformulated < baseline:
        return IMPROVED
    if reformulated > baseline:
        return WORSENED
    return PRESERVED


def evaluate_strategy(
    kept: dict[QueryRecord, int],
    corpus: Corpus,
    db: AdjacencyDatabase,
    strategy: str,
    *,
    stops: StopList,
    oracle: NounOracle,
    searcher: search.Searcher,
    reformulated: dict[QueryRecord, SharedQuery],
    params: Params = Params(),
) -> list[dict]:
    """Evaluate one strategy over the kept queries, each mapped to its
    baseline rank as `filter_dataset` keeps them; returns one outcome row
    per query, in `kept` order, as the report stores it: `query_id`,
    `baseline_rank`, `reformulated_rank`, `classification` and `reason`.

    For the full pipeline, a query whose reduction step alone already
    improves the baseline keeps the reduction-only result and skips the
    expansion, mirroring the conservative reformulation policy. Each query's
    reformulations, and its rank for each rendering already scored, are
    taken from `reformulated` and filled in there when missing. A rank is
    keyed by the rendered terms as a sorted tuple: it depends only on that
    multiset and the gold documents, so equal renderings (say `prep` and
    `red`) are scored once. Share one dict across calls to reformulate a
    query once and score each distinct rendering once. A `strategy` not in
    STRATEGIES is a DataError, raised before any query is ranked.
    """
    if strategy not in STRATEGIES:
        raise DataError(f"unknown strategies: {strategy}")

    def ranked(query: QueryRecord, terms: list[str]) -> int | None:
        ranks = reformulated.setdefault(query, ({}, {}))[1]
        key = tuple(sorted(terms))
        if key not in ranks:
            ranks[key] = searcher.rank(terms, query.gold_docs)
        return ranks[key]

    def mode_rank(query: QueryRecord, mode: str) -> int | None:
        refs = reformulated.setdefault(query, ({}, {}))[0]
        if not refs:
            refs.update(reformulations(query, corpus, db, stops=stops, oracle=oracle,
                                       params=params, searcher=searcher))
        return ranked(query, refs[mode].rendered_query.normalized())

    outcomes = []
    for query, baseline in kept.items():
        try:
            if strategy in MODES:
                rank = mode_rank(query, strategy)
                if strategy == MODE_ALL:
                    reduced_rank = mode_rank(query, MODE_REDUCE)
                    if reduced_rank is not None and reduced_rank < baseline:
                        rank = reduced_rank
            elif strategy == MODE_ROCCHIO:
                rank = ranked(query, rocchio_expand(query, corpus, params, stops=stops,
                                                    searcher=searcher).rendered_query.normalized())
            else:
                rank = ranked(query, render_terms(collect_keywords(query, stops)).normalized())
        except QueryEmptyError as exc:
            rank, reason = None, str(exc)
        else:
            reason = "gold not retrieved" if rank is None else ""
        outcomes.append({"query_id": query.query_id, "baseline_rank": baseline,
                         "reformulated_rank": rank,
                         "classification": _classify(baseline, rank), "reason": reason})
    return outcomes


def strategy_report(outcomes: Sequence[dict], strict: bool) -> dict:
    """One strategy's entry in the report: bucket counts and percentages,
    the rank summary of each retrieved bucket (None when it is empty), and
    one row per outcome. With `strict`, the improved, worsened and preserved
    percentages leave out the excluded queries."""
    counts = dict.fromkeys(BUCKETS, 0)
    for outcome in outcomes:
        counts[outcome["classification"]] += 1
    total = len(outcomes)
    denominator = total - counts[EXCLUDED] if strict else total
    percentages = {bucket: 100.0 * counts[bucket] / denominator if denominator else 0.0
                   for bucket in RETRIEVED_BUCKETS}
    percentages[EXCLUDED] = 100.0 * counts[EXCLUDED] / total if total else 0.0
    summaries = {}
    for bucket in RETRIEVED_BUCKETS:
        summary = summarize_ranks(o["reformulated_rank"] for o in outcomes
                                  if o["classification"] == bucket)
        summaries[bucket] = summary if summary["count"] else None
    return {"counts": counts, "percentages": percentages, "summaries": summaries,
            "outcomes": list(outcomes)}


def run_evaluation(
    queries: Sequence[QueryRecord],
    corpus: Corpus,
    db: AdjacencyDatabase,
    strategies: Sequence[str] = STRATEGIES,
    *,
    stops: StopList,
    oracle: NounOracle,
    params: Params = Params(),
    strict: bool = False,
) -> dict:
    """Filter the dataset, evaluate every strategy, run the strategy-pair
    Mann-Whitney tests, and return the report as `report.json` stores it.
    With `strict`, the bucket percentages leave out the queries whose gold
    document was not retrieved. An unknown or repeated strategy is a
    DataError, raised before any query is ranked."""
    unknown = [s for s in strategies if s not in STRATEGIES]
    if unknown:
        raise DataError(f"unknown strategies: {', '.join(unknown)}")
    if len(set(strategies)) < len(strategies):
        raise DataError(f"a strategy is named more than once: {','.join(strategies)}")
    # search.Searcher is read at the call: bench/spans.py swaps in a timed subclass.
    searcher = search.Searcher(corpus)
    filtered = filter_dataset(queries, searcher)
    reformulated: dict[QueryRecord, SharedQuery] = {}
    outcomes = {
        strategy: evaluate_strategy(filtered.kept, corpus, db, strategy, stops=stops,
                                    oracle=oracle, params=params, searcher=searcher,
                                    reformulated=reformulated)
        for strategy in strategies
    }

    mwu = []
    anchor = "all" if "all" in outcomes else next(iter(outcomes), None)
    for other in outcomes:
        if other == anchor:
            continue
        sample_a, sample_b = _paired_ranks(outcomes[anchor], outcomes[other])
        if not sample_a:
            continue
        mwu.append({"a": anchor, "b": other, "n_a": len(sample_a), "n_b": len(sample_b),
                    **mann_whitney_u(sample_a, sample_b)})
    return {
        "dataset": {
            "total": len(queries),
            "kept": len(filtered.kept),
            "dropped_low_rank": filtered.dropped_low_rank,
            "dropped_not_retrieved": filtered.dropped_not_retrieved,
        },
        "denominator": "retrieved_only" if strict else "all",
        "params": {**params._asdict(), "threshold": POOR_RANK_THRESHOLD},
        "strategies": {name: strategy_report(o, strict) for name, o in outcomes.items()},
        "mwu": mwu,
    }


def _paired_ranks(a: Sequence[dict], b: Sequence[dict]) -> tuple[list[int], list[int]]:
    """Reformulated ranks of the queries both strategies retrieved; row i
    of `a` and of `b` is the same kept query, as rows follow `kept`."""
    sample_a, sample_b = [], []
    for outcome, other in zip(a, b, strict=True):
        rank, other_rank = outcome["reformulated_rank"], other["reformulated_rank"]
        if rank is not None and other_rank is not None:
            sample_a.append(rank)
            sample_b.append(other_rank)
    return sample_a, sample_b


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def _fmt(value, spec: str = ".2f", none: str = "-") -> str:
    return none if value is None else format(value, spec)


def render_report_text(report: dict) -> str:
    """The text report, read from the report dict that `run_evaluation`
    returns and `report.json` stores. Strategies are listed in STRATEGIES
    order, which the JSON's sorted keys do not keep, so the text is the same
    for the dict and for the JSON read back."""
    lines: list[str] = []
    out = lines.append
    out("QUICKAR evaluation report")
    out("=========================")
    out("")
    ds = report["dataset"]
    out("Dataset")
    out("-------")
    out(f"queries in file           : {ds['total']}")
    out(f"kept (baseline rank > {POOR_RANK_THRESHOLD}) : {ds['kept']}")
    out(f"dropped (rank <= {POOR_RANK_THRESHOLD})      : {ds['dropped_low_rank']}")
    out(f"dropped (not retrieved)   : {ds['dropped_not_retrieved']}")
    out("")
    strict = report["denominator"] == "retrieved_only"
    denom = "retrieved queries only" if strict else "all evaluated queries"
    out(f"Outcomes (percent of {denom})")
    out("-" * (22 + len(denom)))
    header = f"{'strategy':<10}" + "".join(f"{b:<18}" for b in BUCKETS)
    out(header)
    strategies = sorted(report["strategies"].items(), key=lambda item: STRATEGIES.index(item[0]))
    for name, res in strategies:
        counts, pct = res["counts"], res["percentages"]
        cells = "".join(f"{counts[b]} ({pct[b]:.2f}%)".ljust(18) for b in BUCKETS)
        out(f"{name:<10}{cells}")
    out("")
    out("Rank of first relevant document, reformulated query")
    out("----------------------------------------------------")
    out(f"{'strategy':<10}{'bucket':<11}{'count':>6}{'mean':>10}{'q1':>9}{'q2':>9}{'q3':>9}{'min':>7}{'max':>7}")
    empty = summarize_ranks(())
    for name, res in strategies:
        for bucket in RETRIEVED_BUCKETS:
            s = res["summaries"][bucket] or empty
            out(f"{name:<10}{bucket:<11}{s['count']:>6}{_fmt(s['mean']):>10}"
                f"{_fmt(s['q1']):>9}{_fmt(s['q2']):>9}{_fmt(s['q3']):>9}"
                f"{_fmt(s['min'], 'd'):>7}{_fmt(s['max'], 'd'):>7}")
    out("")
    out("Mann-Whitney U tests (reformulated ranks, two-sided)")
    out("----------------------------------------------------")
    if report["mwu"]:
        out(f"{'pair':<18}{'n_a':>5}{'n_b':>5}{'U':>9}{'p':>10}{'MRD':>10}")
        for c in report["mwu"]:
            pair = f"{c['a']} vs {c['b']}"
            out(f"{pair:<18}{c['n_a']:>5}{c['n_b']:>5}{c['u']:>9.1f}"
                f"{c['p']:>10.4f}{c['mrd']:>+10.2f}")
    else:
        out("(no comparable strategy pairs)")
    out("")
    return "\n".join(lines)


def emit_report(report: dict, out_dir) -> tuple[str, str]:
    """Write report.txt and report.json into `out_dir`; returns the paths.

    Output is byte-deterministic for fixed inputs: no timestamps, no
    absolute paths, sorted JSON keys. Neither file is replaced before both
    are completely written, so a failed write keeps both previous reports.
    """
    out_dir = Path(out_dir)
    text_path = out_dir / "report.txt"
    json_path = out_dir / "report.json"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        replace_files({
            text_path: render_report_text(report),
            json_path: json.dumps(report, indent=2, sort_keys=True) + "\n",
        })
    except OSError as exc:
        raise DataError(f"cannot write report to {out_dir}: {exc}") from exc
    return str(text_path), str(json_path)
