"""Crowd-assisted query reformulation: reduce, harvest, score, expand.

The pipeline for one change-request title:

1. collect keywords (camel-split, whole identifiers kept, stops removed)
2. reduce: drop non-nominal keywords and those in more than 25% of documents
3. harvest candidate terms from the project (top retrieved documents) and
   from the crowd adjacency database (neighbors of the keywords)
4. score: project candidates by accumulated adjacency-vector cosine against
   the keywords, crowd candidates by accumulated co-occurrence counts
5. take the top few nominal candidates of each source, min-max normalize,
   merge, and append up to the 10-term query budget
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .adjacency import AdjacencyDatabase
from .corpus import Corpus
from .errors import QueryEmptyError
from .nouns import NounOracle
from .search import Searcher, searcher_for
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

# Candidate sources.
SOURCE_PROJECT = "project"
SOURCE_CROWD = "crowd"


@dataclass(frozen=True)
class Params:
    """The parameters shared by reformulation, the Rocchio baseline and the
    evaluation; the defaults are the paper's."""

    top_docs: int = 5            # retrieved documents mined for candidates
    top_k: int = 5               # candidates kept per source before merging
    budget: int = 10             # total query term budget, pre-rendering
    max_df_ratio: float = 0.25   # keywords in a larger share of documents are dropped


@dataclass(frozen=True)
class QueryRecord:
    """One change request: title text plus (for evaluation) gold documents."""

    query_id: str
    text: str
    gold_docs: frozenset[str] = frozenset()


@dataclass(frozen=True)
class CandidateScore:
    """A candidate expansion term with its source and accumulated score."""

    term: str      # normalized
    surface: str
    source: str    # SOURCE_PROJECT or SOURCE_CROWD
    score: float


@dataclass
class Reformulation:
    query_id: str
    mode: str
    keywords: TermSequence  # reduced, except for the Rocchio baseline
    expansion_terms: list[CandidateScore]
    rendered_query: TermSequence

    def query_text(self) -> str:
        return " ".join(self.rendered_query.surfaces())

    def keyword_query_text(self) -> str:
        return " ".join(render_terms(self.keywords.tokens).surfaces())


def _is_identifier(token: Token) -> bool:
    """Camel parts and multi-part camel surfaces came from identifiers."""
    return token.origin == CAMEL_PART or len(split_camel(token.surface)) > 1


def _token_is_nominal(token: Token, oracle: NounOracle) -> bool:
    # Identifier-derived terms name things; only plain words face the oracle.
    return _is_identifier(token) or oracle.is_noun(token.normalized)


def _candidate_is_nominal(cand: CandidateScore, oracle: NounOracle) -> bool:
    if len(split_camel(cand.surface)) > 1:
        return True
    return oracle.is_noun(cand.term)


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
    return TermSequence(tokens=list(first.values()))


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
    return TermSequence(tokens=kept)


def project_candidates(
    keywords: TermSequence,
    searcher: Searcher,
    top_docs: int = Params.top_docs,
) -> dict[str, str]:
    """Candidate terms mined from the top retrieved documents.

    Returns normalized term -> representative surface, excluding the
    keywords themselves. An empty retrieval yields an empty mapping.
    """
    words = keywords.normalized()
    hits = searcher.search(words, top_n=top_docs)
    exclude = set(words)
    found: dict[str, str] = {}
    for hit in hits:
        doc = searcher.document(hit.doc_id)
        for term in sorted(doc.term_counts):
            if term not in exclude:
                found.setdefault(term, doc.surfaces[term])
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
) -> list[CandidateScore]:
    """Accumulated adjacency-vector cosine of each candidate against every
    keyword; candidates or keywords without adjacency entries contribute 0."""
    words = keywords.normalized()
    scored = []
    for term in sorted(candidates):
        score = sum(db.cosine(term, word) for word in words)
        scored.append(CandidateScore(term=term, surface=candidates[term],
                                     source=SOURCE_PROJECT, score=score))
    return scored


def score_crowd_candidates(
    candidates: set[str],
    keywords: TermSequence,
    db: AdjacencyDatabase,
) -> list[CandidateScore]:
    """Accumulated windowed co-occurrence count of each candidate against
    every keyword."""
    words = keywords.normalized()
    scored = []
    for term in sorted(candidates):
        score = float(sum(db.cooccurrence_count(term, word) for word in words))
        scored.append(CandidateScore(term=term, surface=term,
                                     source=SOURCE_CROWD, score=score))
    return scored


def _top_nominal_normalized(
    scored: list[CandidateScore],
    oracle: NounOracle,
    top_k: int,
) -> list[CandidateScore]:
    """Top-k by score (term-ascending ties), nominal only, min-max normalized.

    A single survivor gets 1.0; an all-equal list collapses to 1.0 when the
    shared score is positive and 0.0 when it is zero.
    """
    ranked = sorted(scored, key=lambda c: (-c.score, c.term))[:top_k]
    ranked = [c for c in ranked if _candidate_is_nominal(c, oracle)]
    if not ranked:
        return []
    if len(ranked) == 1:
        return [replace(ranked[0], score=1.0)]
    hi = max(c.score for c in ranked)
    lo = min(c.score for c in ranked)
    if hi == lo:
        value = 1.0 if hi > 0 else 0.0
        return [replace(c, score=value) for c in ranked]
    return [replace(c, score=(c.score - lo) / (hi - lo)) for c in ranked]


def select_and_combine(
    r_project: list[CandidateScore],
    r_crowd: list[CandidateScore],
    oracle: NounOracle,
    top_k: int = Params.top_k,
) -> list[CandidateScore]:
    """Merge the per-source shortlists into one expansion ranking.

    Each source keeps its top-k nominal candidates with scores min-max
    normalized to [0, 1]; duplicates keep the higher normalized entry, and
    exact ties favor the project source.
    """
    pool: dict[str, CandidateScore] = {}
    for cand in _top_nominal_normalized(r_project, oracle, top_k):
        pool[cand.term] = cand
    for cand in _top_nominal_normalized(r_crowd, oracle, top_k):
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
    return TermSequence(tokens=out)


def reformulations(
    query: QueryRecord,
    corpus: Corpus,
    db: AdjacencyDatabase,
    *,
    stops: StopList,
    oracle: NounOracle,
    params: Params = Params(),
    searcher: Searcher | None = None,
) -> dict[str, Reformulation]:
    """One query's reformulation in every mode, keyed by mode: the keywords are
    reduced once, each pool is scored once, and the modes merge different pools."""
    keywords = collect_keywords(query, stops)
    reduced = reduce_keywords(keywords, corpus, oracle, max_df_ratio=params.max_df_ratio)
    need = max(0, params.budget - len(reduced))

    scored_project: list[CandidateScore] = []
    scored_crowd: list[CandidateScore] = []
    if need > 0:
        if searcher is None:
            searcher = searcher_for(corpus)
        candidates = project_candidates(reduced, searcher, top_docs=params.top_docs)
        scored_project = score_project_candidates(candidates, reduced, db)
        scored_crowd = score_crowd_candidates(crowd_candidates(reduced, db), reduced, db)

    pools = {MODE_ALL: (scored_project, scored_crowd), MODE_PROJECT: (scored_project, []),
             MODE_CROWD: ([], scored_crowd), MODE_REDUCE: ([], [])}
    out = {}
    for mode, (r_project, r_crowd) in pools.items():
        expansions = select_and_combine(r_project, r_crowd, oracle, top_k=params.top_k)[:need]
        rendered = render_terms(
            reduced.tokens + [Token.from_surface(c.surface, WHOLE) for c in expansions])
        out[mode] = Reformulation(query.query_id, mode, reduced, expansions, rendered)
    return out


def reformulate(
    query: QueryRecord,
    corpus: Corpus,
    db: AdjacencyDatabase,
    mode: str = MODE_ALL,
    *,
    stops: StopList,
    oracle: NounOracle,
    params: Params = Params(),
    searcher: Searcher | None = None,
) -> Reformulation:
    """Run the reformulation pipeline for one query in the given mode."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    return reformulations(query, corpus, db, stops=stops, oracle=oracle, params=params,
                          searcher=searcher)[mode]
