"""Rocchio-style pseudo-relevance-feedback expansion, the comparison baseline.

The top retrieved documents of the unreduced keyword query are assumed
relevant; candidate terms are ranked by their summed tf-idf weight across
those documents and appended to the keywords. No nominal filtering and no
reduction step: this baseline expands, nothing more.
"""

from __future__ import annotations

from .corpus import Corpus
from .reformulate import (
    CandidateScore,
    Params,
    QueryRecord,
    Reformulation,
    collect_keywords,
    render_terms,
)
from .search import Searcher, searcher_for
from .textprep import StopList, TermSequence, Token, WHOLE

MODE_ROCCHIO = "rocchio"

SOURCE_FEEDBACK = "feedback"


def rank_feedback_terms(
    keywords: TermSequence,
    searcher: Searcher,
    top_docs: int = Params.top_docs,
) -> list[CandidateScore]:
    """Candidate terms of the top documents ranked by summed tf'*idf.

    Uses the retriever's own weighting (tf' = 1 + ln count, smoothed idf) so
    the baseline and the retriever agree on what "important" means.
    """
    words = keywords.normalized()
    hits = searcher.search(words, top_n=top_docs)
    exclude = set(words)
    totals: dict[str, float] = {}
    surfaces: dict[str, str] = {}
    for hit in hits:
        doc = searcher.document(hit.doc_id)
        for term, weight in searcher.tf_idf(doc.term_counts).items():
            if term in exclude:
                continue
            totals[term] = totals.get(term, 0.0) + weight
            surfaces.setdefault(term, doc.surfaces[term])
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    return [
        CandidateScore(term=term, surface=surfaces[term], source=SOURCE_FEEDBACK, score=score)
        for term, score in ranked
    ]


def rocchio_expand(
    query: QueryRecord,
    corpus: Corpus,
    params: Params = Params(),
    *,
    stops: StopList,
    searcher: Searcher | None = None,
) -> Reformulation:
    """Expand a query with the strongest terms of its top retrieved documents,
    up to the query budget.

    An empty retrieval returns the keyword query unchanged. Raises
    QueryEmptyError when the title has no usable keywords at all.
    """
    if searcher is None:
        searcher = searcher_for(corpus)
    keywords = collect_keywords(query, stops)
    count = max(0, params.budget - len(keywords))
    expansions = rank_feedback_terms(keywords, searcher, top_docs=params.top_docs)[:count]
    return Reformulation(
        query_id=query.query_id,
        mode=MODE_ROCCHIO,
        keywords=keywords,
        expansion_terms=expansions,
        rendered_query=render_terms(
            keywords.tokens + [Token.from_surface(c.surface, WHOLE) for c in expansions]),
    )
