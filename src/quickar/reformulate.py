"""Crowd-assisted query reformulation: reduce, harvest, score, expand.

The pipeline for one change-request title:

1. collect keywords (camel-split, whole identifiers kept, stops removed)
2. reduce: drop non-nominal keywords and those in more than 25% of documents
3. harvest candidate terms from the project (top retrieved documents) and
   from the crowd adjacency database (neighbors of the keywords)
4. score: project candidates by accumulated adjacency-vector cosine against
   the keywords, crowd candidates by accumulated co-occurrence counts
5. shortlist each source once: rank its scores, keep the top few, drop the
   non-nominal ones and min-max normalize what is left, which is all that
   becomes a `CandidateScore`; each mode merges the shortlists it draws on
   and appends up to the 10-term query budget

The Rocchio pseudo-relevance-feedback baseline mines, keeps and renders
through the same helpers, with no reduction, crowd or nominal filter.
"""

from __future__ import annotations

import heapq
import operator
from typing import NamedTuple

from . import search
from .adjacency import AdjacencyDatabase
from .corpus import Corpus, Document
from .errors import QueryEmptyError
from .nouns import NounOracle
from .textprep import (
    CAMEL_PART,
    SPLIT_AND_KEEP_WHOLE,
    StopList,
    TermSequence,
    Token,
    WHOLE,
    preprocess,
    split_camel,
)

# Reformulation modes.
MODE_ALL = "all"        # candidates from project and crowd
MODE_PROJECT = "p"      # project candidates only
MODE_CROWD = "so"       # crowd candidates only
MODE_REDUCE = "red"     # reduction only, no expansion
MODES = (MODE_ALL, MODE_PROJECT, MODE_CROWD, MODE_REDUCE)
MODE_ROCCHIO = "rocchio"  # the feedback baseline's, not a reformulation mode

# Candidate sources.
SOURCE_PROJECT = "project"
SOURCE_CROWD = "crowd"
SOURCE_FEEDBACK = "feedback"


class Params:
    """The parameters shared by reformulation, the Rocchio baseline and the
    evaluation; the defaults are the paper's. A plain immutable record, equal
    and hashed by value. Not a NamedTuple: the class's attributes are the
    defaults, which callers read (`Params.top_k`)."""

    top_docs: int = 5            # retrieved documents mined for candidates
    top_k: int = 5               # candidates kept per source before merging
    budget: int = 10             # total query term budget, pre-rendering
    max_df_ratio: float = 0.25   # keywords in a larger share of documents are dropped

    def __init__(self, top_docs: int = top_docs, top_k: int = top_k, budget: int = budget,
                 max_df_ratio: float = max_df_ratio):
        vars(self).update(top_docs=top_docs, top_k=top_k, budget=budget, max_df_ratio=max_df_ratio)

    def __setattr__(self, name: str, *value):
        raise AttributeError(f"cannot set or delete field {name!r} of Params")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __repr__(self) -> str:
        return f"Params({', '.join(f'{name}={value!r}' for name, value in vars(self).items())})"

    def _asdict(self) -> dict:
        return dict(vars(self))


class QueryRecord(NamedTuple):
    """One change request: title text plus (for evaluation) gold documents."""

    query_id: str
    text: str
    gold_docs: frozenset[str] = frozenset()


class CandidateScore(NamedTuple):
    """A candidate expansion term with its source and accumulated score."""

    term: str      # normalized
    surface: str
    source: str    # SOURCE_PROJECT or SOURCE_CROWD
    score: float


class Reformulation:
    """One query's reformulation, whose keywords are reduced except for the
    Rocchio baseline's. A plain mutable record, equal by value."""

    def __init__(self, query_id: str, mode: str, keywords: TermSequence,
                 expansion_terms: list[CandidateScore], rendered_query: TermSequence):
        self.query_id, self.mode, self.keywords = query_id, mode, keywords
        self.expansion_terms, self.rendered_query = expansion_terms, rendered_query

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def query_text(self) -> str:
        return " ".join(self.rendered_query.surfaces())

    def keyword_query_text(self) -> str:
        return " ".join(render_terms(self.keywords).surfaces())


def _candidate_is_nominal(term: str, surface: str, oracle: NounOracle) -> bool:
    # Identifier-derived terms name things; only plain words face the oracle.
    return len(split_camel(surface)) > 1 or oracle.is_noun(term)


def _token_is_nominal(token: Token, oracle: NounOracle) -> bool:
    # A camel part came from an identifier even when its surface is one word.
    return token.origin == CAMEL_PART or _candidate_is_nominal(token.normalized, token.surface,
                                                               oracle)


def _top_documents(searcher: search.Searcher, words: list[str], top_docs: int) -> list[Document]:
    """The documents of the top `top_docs` hits of `words`, in rank order."""
    return [searcher.document(hit.doc_id) for hit in searcher.search(words, top_n=top_docs)]


def _top_k(scores: dict[str, float], k: int) -> list[tuple[str, float]]:
    """The `k` highest-scored `(term, score)` pairs, by descending score,
    ties by ascending term."""
    return [(term, -neg_score) for neg_score, term
            in heapq.nsmallest(k, zip(map(operator.neg, scores.values()), scores))]


def _render(query: QueryRecord, mode: str, keywords: TermSequence,
            expansions: list[CandidateScore]) -> Reformulation:
    """The reformulation of `query` that appends `expansions`, by their
    surfaces, to `keywords`, rendered camel-dual."""
    rendered = render_terms(keywords + [Token.from_surface(c.surface, WHOLE) for c in expansions])
    return Reformulation(query.query_id, mode, keywords, expansions, rendered)


def collect_keywords(query: QueryRecord, stops: StopList) -> TermSequence:
    """Preprocessed keywords of a title, deduplicated on normalized form
    (first wins).

    Raises QueryEmptyError when every term is filtered out, which marks the
    query as unreformulatable.
    """
    first: dict[str, Token] = {}
    for tok in preprocess(query.text, stops, SPLIT_AND_KEEP_WHOLE):
        first.setdefault(tok.normalized, tok)
    if not first:
        raise QueryEmptyError(f"query {query.query_id!r}: no keywords survive preprocessing")
    return TermSequence(first.values())


def reduce_keywords(
    keywords: TermSequence,
    corpus: Corpus,
    oracle: NounOracle,
    max_df_ratio: float = Params.max_df_ratio,
) -> TermSequence:
    """Drop non-nominal keywords and those occurring in more than
    `max_df_ratio` of the documents; if that empties the set, the original
    keywords are returned unchanged."""
    kept = [
        tok for tok in keywords
        if _token_is_nominal(tok, oracle)
        and corpus.document_frequency_ratio(tok.normalized) <= max_df_ratio
    ]
    if not kept:
        return keywords
    return TermSequence(kept)


def project_candidates(
    keywords: TermSequence,
    searcher: search.Searcher,
    top_docs: int = Params.top_docs,
) -> dict[str, str]:
    """Candidate terms mined from the top retrieved documents.

    Returns normalized term -> representative surface, excluding the
    keywords themselves. An empty retrieval yields an empty mapping.
    """
    words = keywords.normalized()
    exclude = set(words)
    found: dict[str, str] = {}
    for doc in _top_documents(searcher, words, top_docs):
        surfaces = doc.surfaces
        for term in sorted(doc.term_counts):
            if term not in exclude and term not in found:
                found[term] = surfaces[term]
    return found


def crowd_candidates(keywords: TermSequence, db: AdjacencyDatabase) -> set[str]:
    """Union of the keywords' adjacency lists, minus the keywords."""
    words = keywords.normalized()
    found: set[str] = set()
    for word in words:
        found.update(db.neighbors(word))
    return found - set(words)


def score_project_candidates(
    candidates: dict[str, str],
    keywords: TermSequence,
    db: AdjacencyDatabase,
) -> dict[str, float]:
    """Accumulated adjacency-vector cosine of each candidate against every
    keyword, by candidate term in ascending order; candidates or keywords
    without adjacency entries contribute 0. `AdjacencyDatabase.cosine_sums`
    reads each keyword's row once and adds the cosines left to right in
    keyword order, so every interpreter gives the same float."""
    terms = sorted(candidates)
    return dict(zip(terms, db.cosine_sums(terms, keywords.normalized())))


def score_crowd_candidates(
    candidates: set[str],
    keywords: TermSequence,
    db: AdjacencyDatabase,
) -> dict[str, float]:
    """Accumulated windowed co-occurrence count of each candidate against
    every keyword, by candidate term in ascending order. Each candidate's
    own row is read, once: a database need not be symmetric, so the
    keywords' rows would not do."""
    words = keywords.normalized()
    entries = db.entries
    scores = {}
    for term in sorted(candidates):
        total = 0
        row = entries.get(term)
        if row:
            for word in words:
                if word in row:
                    total += row[word]
        scores[term] = float(total)
    return scores


def shortlist(
    scores: dict[str, float],
    source: str,
    oracle: NounOracle,
    top_k: int = Params.top_k,
    surfaces: dict[str, str] | None = None,
) -> list[CandidateScore]:
    """One source's expansion shortlist: its top-k candidates by score
    (term-ascending ties), less the non-nominal ones, min-max normalized.

    The nominal filter runs after the cut, so a non-nominal candidate takes
    a slot. A single survivor gets 1.0; an all-equal list collapses to 1.0
    when the shared score is positive and 0.0 when it is zero. A candidate's
    surface is `surfaces[term]`, or the term itself without `surfaces`.
    Only the survivors become `CandidateScore`s.
    """
    kept = []
    for term, score in _top_k(scores, top_k):
        surface = surfaces[term] if surfaces is not None else term
        if _candidate_is_nominal(term, surface, oracle):
            kept.append((term, surface, score))
    if len(kept) < 2:
        values = [1.0] * len(kept)
    else:
        hi, lo = kept[0][2], kept[-1][2]  # ranked by descending score
        if hi == lo:
            values = [1.0 if hi > 0 else 0.0] * len(kept)
        else:
            values = [(score - lo) / (hi - lo) for _, _, score in kept]
    return [CandidateScore(term, surface, source, value)
            for (term, surface, _), value in zip(kept, values)]


def select_and_combine(
    project: list[CandidateScore],
    crowd: list[CandidateScore],
) -> list[CandidateScore]:
    """Merge the two sources' normalized shortlists into one expansion
    ranking: a term in both keeps its higher-scored entry, the project's on
    an exact tie, and the ranking is by score, project first, then term."""
    pool = {cand.term: cand for cand in project}
    for cand in crowd:
        existing = pool.get(cand.term)
        if existing is None or cand.score > existing.score:
            pool[cand.term] = cand
    return sorted(
        pool.values(),
        key=lambda c: (-c.score, 0 if c.source == SOURCE_PROJECT else 1, c.term),
    )


def render_terms(tokens: list[Token]) -> TermSequence:
    """Camel-dual rendering: every multi-part term contributes its parts and
    its whole form, deduplicated on normalized form keeping first position."""
    out: list[Token] = []
    seen: set[str] = set()
    for tok in tokens:
        parts = split_camel(tok.surface)
        if len(parts) > 1:
            emit = [Token.from_surface(p, CAMEL_PART) for p in parts if not p.isdigit()]
            emit.append(Token.from_surface(tok.surface, WHOLE))
        else:
            emit = [tok]
        for candidate in emit:
            if candidate.normalized in seen:
                continue
            seen.add(candidate.normalized)
            out.append(candidate)
    return TermSequence(out)


def reformulations(
    query: QueryRecord,
    corpus: Corpus,
    db: AdjacencyDatabase,
    *,
    stops: StopList,
    oracle: NounOracle,
    params: Params = Params(),
    searcher: search.Searcher | None = None,
) -> dict[str, Reformulation]:
    """One query's reformulation in every mode, keyed by mode: the keywords are
    reduced once, each pool is scored and shortlisted once, and the modes
    merge different shortlists. Without `searcher`, one is built for the
    project search, only when the reduced keywords leave room in the
    budget, and is not kept."""
    keywords = collect_keywords(query, stops)
    reduced = reduce_keywords(keywords, corpus, oracle, max_df_ratio=params.max_df_ratio)
    need = max(0, params.budget - len(reduced))

    project: list[CandidateScore] = []
    crowd: list[CandidateScore] = []
    if need > 0:
        if searcher is None:
            # search.Searcher is read at the call: bench/spans.py swaps in a timed subclass.
            searcher = search.Searcher(corpus)
        candidates = project_candidates(reduced, searcher, top_docs=params.top_docs)
        project = shortlist(score_project_candidates(candidates, reduced, db), SOURCE_PROJECT,
                            oracle, params.top_k, surfaces=candidates)
        crowd = shortlist(score_crowd_candidates(crowd_candidates(reduced, db), reduced, db),
                          SOURCE_CROWD, oracle, params.top_k)

    shortlists = {MODE_ALL: (project, crowd), MODE_PROJECT: (project, []),
                  MODE_CROWD: ([], crowd), MODE_REDUCE: ([], [])}
    return {mode: _render(query, mode, reduced, select_and_combine(*pair)[:need])
            for mode, pair in shortlists.items()}


def reformulate(
    query: QueryRecord,
    corpus: Corpus,
    db: AdjacencyDatabase,
    mode: str = MODE_ALL,
    *,
    stops: StopList,
    oracle: NounOracle,
    params: Params = Params(),
    searcher: search.Searcher | None = None,
) -> Reformulation:
    """Run the reformulation pipeline for one query in the given mode."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    return reformulations(query, corpus, db, stops=stops, oracle=oracle, params=params,
                          searcher=searcher)[mode]


def rocchio_expand(
    query: QueryRecord,
    corpus: Corpus,
    params: Params = Params(),
    *,
    stops: StopList,
    searcher: search.Searcher | None = None,
) -> Reformulation:
    """The Rocchio baseline: expand the unreduced keywords with the strongest
    terms of their top retrieved documents, up to the query budget.

    Each non-keyword term scores its tf'*idf weight (the retriever's own:
    tf' = 1 + ln count, smoothed idf) summed over the documents in rank order;
    the top `budget - len(keywords)` by score, ties by term, become expansions,
    with no nominal filter. An empty retrieval returns the keyword query
    unchanged. Raises QueryEmptyError when the title has no usable keywords
    at all. Without `searcher`, one is built for this call and is not kept.
    """
    if searcher is None:
        # search.Searcher is read at the call: bench/spans.py swaps in a timed subclass.
        searcher = search.Searcher(corpus)
    keywords = collect_keywords(query, stops)
    words = keywords.normalized()
    exclude = set(words)
    totals: dict[str, float] = {}
    surfaces: dict[str, str] = {}
    for doc in _top_documents(searcher, words, params.top_docs):
        for term, weight in searcher.tf_idf(doc.term_counts).items():
            if term in exclude:
                continue
            if term in totals:
                totals[term] += weight
            else:
                totals[term] = weight  # 0.0 + weight, to the bit
                surfaces[term] = doc.surfaces[term]
    expansions = [CandidateScore(term, surfaces[term], SOURCE_FEEDBACK, score)
                  for term, score in _top_k(totals, max(0, params.budget - len(keywords)))]
    return _render(query, MODE_ROCCHIO, keywords, expansions)
