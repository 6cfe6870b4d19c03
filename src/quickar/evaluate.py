"""Batch evaluation: rank comparison, outcome buckets, rank statistics.

Reproduces the experimental protocol end to end: keep only queries whose
verbatim-title search ranks the first relevant document worse than 10, run
one or more reformulation strategies, classify every query as improved,
worsened or preserved, summarize the rank distributions per bucket, and
compare strategies with two-sided Mann-Whitney U tests.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .adjacency import AdjacencyDatabase
from .artifact import read_lines, replace_files
from .corpus import Corpus
from .errors import DataError, QueryEmptyError
from .nouns import NounOracle, default_noun_oracle
from .reformulate import (
    MODE_ALL,
    MODE_REDUCE,
    MODES,
    Params,
    QueryRecord,
    Reformulation,
    collect_keywords,
    reformulations,
    render_terms,
)
from .rocchio import rocchio_expand
from .search import Searcher, searcher_for
from .textprep import StopList, default_stoplist, tokenize

# Outcome classifications.
IMPROVED = "improved"
WORSENED = "worsened"
PRESERVED = "preserved"
EXCLUDED = "excluded"
BUCKETS = (IMPROVED, WORSENED, PRESERVED, EXCLUDED)

# Evaluation strategies. The first four are reformulation modes, "rocchio"
# is the feedback baseline, "prep" is the preprocessed title (no expansion).
STRATEGIES = MODES + ("rocchio", "prep")

POOR_RANK_THRESHOLD = 10


@dataclass(frozen=True)
class EvalOutcome:
    query_id: str
    baseline_rank: int | None
    reformulated_rank: int | None
    classification: str
    reason: str = ""


@dataclass(frozen=True)
class RankSummary:
    count: int
    mean: float | None = None
    q1: float | None = None
    q2: float | None = None
    q3: float | None = None
    min: int | None = None
    max: int | None = None


@dataclass(frozen=True)
class MwuResult:
    u_statistic: float
    p_value: float
    # Mean of sample A's ranks minus sample B's; negative means A sits
    # closer to the top of the result list.
    mean_rank_difference: float


@dataclass
class StrategyResult:
    strategy: str
    outcomes: list[EvalOutcome]
    counts: dict[str, int]
    summaries: dict[str, RankSummary]


@dataclass
class MwuComparison:
    strategy_a: str
    strategy_b: str
    n_a: int
    n_b: int
    result: MwuResult


@dataclass
class EvalReport:
    dataset: dict[str, int]
    strategies: dict[str, StrategyResult] = field(default_factory=dict)
    mwu: list[MwuComparison] = field(default_factory=list)
    strict: bool = False
    params: dict = field(default_factory=dict)


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


@dataclass
class FilterResult:
    kept: list[QueryRecord]
    dropped_low_rank: list[str]
    dropped_not_retrieved: list[str]
    baseline_ranks: dict[str, int]
    total: int = 0


def filter_dataset(
    queries: Sequence[QueryRecord],
    searcher: Searcher,
    threshold: int = POOR_RANK_THRESHOLD,
) -> FilterResult:
    """Keep the queries worth reformulating: baseline rank above `threshold`.

    Queries whose baseline never retrieves a gold document are dropped and
    reported separately. Queries without gold documents are an error.
    """
    missing = [q.query_id for q in queries if not q.gold_docs]
    if missing:
        raise DataError(f"queries without gold documents: {', '.join(missing)}")
    result = FilterResult(kept=[], dropped_low_rank=[], dropped_not_retrieved=[],
                          baseline_ranks={}, total=len(queries))
    for query in queries:
        rank = searcher.rank(baseline_terms(query.text), query.gold_docs)
        if rank is None:
            result.dropped_not_retrieved.append(query.query_id)
        elif rank <= threshold:
            result.dropped_low_rank.append(query.query_id)
        else:
            result.kept.append(query)
            result.baseline_ranks[query.query_id] = rank
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


def summarize_ranks(ranks: Iterable[int]) -> RankSummary:
    values = sorted(ranks)
    if not values:
        return RankSummary(count=0)
    return RankSummary(
        count=len(values),
        mean=sum(values) / len(values),
        q1=_interpolated_quantile(values, 0.25),
        q2=_interpolated_quantile(values, 0.50),
        q3=_interpolated_quantile(values, 0.75),
        min=values[0],
        max=values[-1],
    )


def _fractional_ranks(values: Sequence[float]) -> list[float]:
    """Midrank assignment: ties share the mean of their ordinal ranks."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        shared = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = shared
        i = j + 1
    return ranks


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def mann_whitney_u(sample_a: Sequence[float], sample_b: Sequence[float]) -> MwuResult:
    """Two-sided Mann-Whitney U test, normal approximation with tie and
    continuity corrections. The U statistic reported is sample A's."""
    if not sample_a or not sample_b:
        raise ValueError("both samples must be non-empty")
    n1, n2 = len(sample_a), len(sample_b)
    combined = list(sample_a) + list(sample_b)
    ranks = _fractional_ranks(combined)
    r1 = sum(ranks[:n1])
    u1 = r1 - n1 * (n1 + 1) / 2.0
    u2 = n1 * n2 - u1
    n = n1 + n2

    tie_sum = 0
    run = 1
    ordered = sorted(combined)
    for i in range(1, n + 1):
        if i < n and ordered[i] == ordered[i - 1]:
            run += 1
            continue
        tie_sum += run ** 3 - run
        run = 1
    sigma_sq = (n1 * n2 / 12.0) * ((n + 1) - tie_sum / (n * (n - 1)))

    if sigma_sq <= 0:
        p_value = 1.0
    else:
        mu = n1 * n2 / 2.0
        z = (max(u1, u2) - mu - 0.5) / math.sqrt(sigma_sq)
        p_value = min(1.0, 2.0 * _normal_sf(z))
    mrd = sum(sample_a) / n1 - sum(sample_b) / n2
    return MwuResult(u_statistic=u1, p_value=p_value, mean_rank_difference=mrd)


# ---------------------------------------------------------------------------
# Strategy evaluation
# ---------------------------------------------------------------------------

def _classify(baseline: int | None, reformulated: int | None) -> str:
    if baseline is None or reformulated is None:
        return EXCLUDED
    if reformulated < baseline:
        return IMPROVED
    if reformulated > baseline:
        return WORSENED
    return PRESERVED


def evaluate_strategy(
    queries: Sequence[QueryRecord],
    corpus: Corpus,
    db: AdjacencyDatabase,
    strategy: str,
    baseline_ranks: dict[str, int],
    *,
    stops: StopList,
    oracle: NounOracle,
    searcher: Searcher,
    reformulated: dict[QueryRecord, tuple[dict[str, Reformulation], dict[str, int | None]]],
    params: Params = Params(),
) -> StrategyResult:
    """Evaluate one strategy over an already-filtered dataset.

    For the full pipeline, a query whose reduction step alone already
    improves the baseline keeps the reduction-only result and skips the
    expansion, mirroring the conservative reformulation policy. The mode
    strategies take each query's reformulations, and the rank of each mode
    already ranked, from `reformulated`, filling in those missing; share one
    dict across calls to reformulate a query once and rank each mode once.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")

    def mode_rank(query: QueryRecord, mode: str) -> int | None:
        if query not in reformulated:
            reformulated[query] = (reformulations(query, corpus, db, stops=stops, oracle=oracle,
                                                  params=params, searcher=searcher), {})
        refs, ranks = reformulated[query]
        if mode not in ranks:
            ranks[mode] = searcher.rank(refs[mode].rendered_query.normalized(), query.gold_docs)
        return ranks[mode]

    outcomes = []
    for query in queries:
        baseline = baseline_ranks.get(query.query_id)
        try:
            if strategy in MODES:
                rank = mode_rank(query, strategy)
                if strategy == MODE_ALL and baseline is not None:
                    reduced_rank = mode_rank(query, MODE_REDUCE)
                    if reduced_rank is not None and reduced_rank < baseline:
                        rank = reduced_rank
            else:
                if strategy == "prep":
                    rendered = render_terms(collect_keywords(query, stops).tokens)
                else:
                    rendered = rocchio_expand(query, corpus, params, stops=stops,
                                              searcher=searcher).rendered_query
                rank = searcher.rank(rendered.normalized(), query.gold_docs)
        except QueryEmptyError as exc:
            outcomes.append(EvalOutcome(query.query_id, baseline, None, EXCLUDED,
                                        reason=str(exc)))
            continue
        reason = "gold not retrieved" if rank is None else ""
        outcomes.append(EvalOutcome(query.query_id, baseline, rank,
                                    _classify(baseline, rank), reason=reason))
    counts = {bucket: 0 for bucket in BUCKETS}
    for outcome in outcomes:
        counts[outcome.classification] += 1
    summaries = {
        bucket: summarize_ranks(
            o.reformulated_rank for o in outcomes
            if o.classification == bucket and o.reformulated_rank is not None
        )
        for bucket in (IMPROVED, WORSENED, PRESERVED)
    }
    return StrategyResult(strategy=strategy, outcomes=outcomes,
                          counts=counts, summaries=summaries)


def run_evaluation(
    queries: Sequence[QueryRecord],
    corpus: Corpus,
    db: AdjacencyDatabase,
    strategies: Sequence[str] = STRATEGIES,
    *,
    stops: StopList | None = None,
    oracle: NounOracle | None = None,
    params: Params = Params(),
    strict: bool = False,
) -> EvalReport:
    """Filter the dataset, evaluate every strategy, run the strategy-pair
    Mann-Whitney tests, and assemble the report. With `strict`, the bucket
    percentages leave out the queries whose gold document was not retrieved."""
    stops = stops if stops is not None else default_stoplist()
    oracle = oracle if oracle is not None else default_noun_oracle()
    searcher = searcher_for(corpus)
    filtered = filter_dataset(queries, searcher)
    report = EvalReport(
        dataset={
            "total": filtered.total,
            "kept": len(filtered.kept),
            "dropped_low_rank": len(filtered.dropped_low_rank),
            "dropped_not_retrieved": len(filtered.dropped_not_retrieved),
        },
        strict=strict,
        params={**asdict(params), "threshold": POOR_RANK_THRESHOLD},
    )
    reformulated: dict[QueryRecord, tuple[dict[str, Reformulation], dict[str, int | None]]] = {}
    for strategy in strategies:
        report.strategies[strategy] = evaluate_strategy(
            filtered.kept, corpus, db, strategy, filtered.baseline_ranks,
            stops=stops, oracle=oracle, params=params, searcher=searcher,
            reformulated=reformulated)

    anchor = "all" if "all" in report.strategies else (strategies[0] if strategies else None)
    if anchor is not None:
        for other in strategies:
            if other == anchor:
                continue
            pair = _paired_ranks(report.strategies[anchor], report.strategies[other])
            if pair is None:
                continue
            sample_a, sample_b = pair
            report.mwu.append(MwuComparison(
                strategy_a=anchor, strategy_b=other,
                n_a=len(sample_a), n_b=len(sample_b),
                result=mann_whitney_u(sample_a, sample_b)))
    return report


def _paired_ranks(a: StrategyResult, b: StrategyResult) -> tuple[list[int], list[int]] | None:
    """Reformulated ranks of the queries both strategies retrieved."""
    ranks_b = {o.query_id: o.reformulated_rank for o in b.outcomes}
    sample_a, sample_b = [], []
    for outcome in a.outcomes:
        other = ranks_b.get(outcome.query_id)
        if outcome.reformulated_rank is not None and other is not None:
            sample_a.append(outcome.reformulated_rank)
            sample_b.append(other)
    if not sample_a:
        return None
    return sample_a, sample_b


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def _percentages(counts: dict[str, int], strict: bool) -> dict[str, float]:
    total = sum(counts.values())
    real_denom = total - counts[EXCLUDED] if strict else total
    pct = {}
    for bucket in (IMPROVED, WORSENED, PRESERVED):
        pct[bucket] = 100.0 * counts[bucket] / real_denom if real_denom else 0.0
    pct[EXCLUDED] = 100.0 * counts[EXCLUDED] / total if total else 0.0
    return pct


def report_to_dict(report: EvalReport) -> dict:
    strategies = {}
    for name, res in report.strategies.items():
        strategies[name] = {
            "counts": res.counts,
            "percentages": _percentages(res.counts, report.strict),
            "summaries": {
                bucket: None if summary.count == 0 else {
                    "count": summary.count, "mean": summary.mean,
                    "q1": summary.q1, "q2": summary.q2, "q3": summary.q3,
                    "min": summary.min, "max": summary.max,
                }
                for bucket, summary in res.summaries.items()
            },
            "outcomes": [
                {
                    "query_id": o.query_id,
                    "baseline_rank": o.baseline_rank,
                    "reformulated_rank": o.reformulated_rank,
                    "classification": o.classification,
                    "reason": o.reason,
                }
                for o in res.outcomes
            ],
        }
    return {
        "dataset": report.dataset,
        "denominator": "retrieved_only" if report.strict else "all",
        "params": report.params,
        "strategies": strategies,
        "mwu": [
            {
                "a": c.strategy_a, "b": c.strategy_b,
                "n_a": c.n_a, "n_b": c.n_b,
                "u": c.result.u_statistic,
                "p": c.result.p_value,
                "mrd": c.result.mean_rank_difference,
            }
            for c in report.mwu
        ],
    }


def _fmt(value, spec: str = ".2f", none: str = "-") -> str:
    return none if value is None else format(value, spec)


def render_report_text(report: EvalReport) -> str:
    lines: list[str] = []
    out = lines.append
    out("QUICKAR evaluation report")
    out("=========================")
    out("")
    ds = report.dataset
    out("Dataset")
    out("-------")
    out(f"queries in file           : {ds['total']}")
    out(f"kept (baseline rank > {POOR_RANK_THRESHOLD}) : {ds['kept']}")
    out(f"dropped (rank <= {POOR_RANK_THRESHOLD})      : {ds['dropped_low_rank']}")
    out(f"dropped (not retrieved)   : {ds['dropped_not_retrieved']}")
    out("")
    denom = "retrieved queries only" if report.strict else "all evaluated queries"
    out(f"Outcomes (percent of {denom})")
    out("-" * (22 + len(denom)))
    header = f"{'strategy':<10}" + "".join(f"{b:<18}" for b in BUCKETS)
    out(header)
    for name, res in report.strategies.items():
        pct = _percentages(res.counts, report.strict)
        cells = "".join(
            f"{res.counts[b]} ({pct[b]:.2f}%)".ljust(18) for b in BUCKETS
        )
        out(f"{name:<10}{cells}")
    out("")
    out("Rank of first relevant document, reformulated query")
    out("----------------------------------------------------")
    out(f"{'strategy':<10}{'bucket':<11}{'count':>6}{'mean':>10}{'q1':>9}{'q2':>9}{'q3':>9}{'min':>7}{'max':>7}")
    for name, res in report.strategies.items():
        for bucket in (IMPROVED, WORSENED, PRESERVED):
            s = res.summaries[bucket]
            out(f"{name:<10}{bucket:<11}{s.count:>6}{_fmt(s.mean):>10}"
                f"{_fmt(s.q1):>9}{_fmt(s.q2):>9}{_fmt(s.q3):>9}"
                f"{_fmt(s.min, 'd'):>7}{_fmt(s.max, 'd'):>7}")
    out("")
    out("Mann-Whitney U tests (reformulated ranks, two-sided)")
    out("----------------------------------------------------")
    if report.mwu:
        out(f"{'pair':<18}{'n_a':>5}{'n_b':>5}{'U':>9}{'p':>10}{'MRD':>10}")
        for c in report.mwu:
            pair = f"{c.strategy_a} vs {c.strategy_b}"
            out(f"{pair:<18}{c.n_a:>5}{c.n_b:>5}{c.result.u_statistic:>9.1f}"
                f"{c.result.p_value:>10.4f}{c.result.mean_rank_difference:>+10.2f}")
    else:
        out("(no comparable strategy pairs)")
    out("")
    return "\n".join(lines)


def emit_report(report: EvalReport, out_dir) -> tuple[str, str]:
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
            json_path: json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n",
        })
    except OSError as exc:
        raise DataError(f"cannot write report to {out_dir}: {exc}") from exc
    return str(text_path), str(json_path)
