"""Rocchio-style pseudo-relevance-feedback expansion, the comparison baseline.

The top retrieved documents of the unreduced keyword query are assumed
relevant; each of their terms is scored by its summed tf-idf weight across
those documents, and only the strongest terms that fit the query budget
become candidates, appended to the keywords. No nominal filtering and no
reduction step: this baseline expands, nothing more.
"""

from __future__ import annotations

import heapq
import operator

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
from .textprep import StopList, Token, WHOLE

MODE_ROCCHIO = "rocchio"

SOURCE_FEEDBACK = "feedback"


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

    Each non-keyword term scores its tf'*idf weight (the retriever's own:
    tf' = 1 + ln count, smoothed idf) summed over the documents in rank order;
    the top `budget - len(keywords)` by score, ties by term, become expansions.
    An empty retrieval returns the keyword query unchanged. Raises
    QueryEmptyError when the title has no usable keywords at all.
    """
    if searcher is None:
        searcher = searcher_for(corpus)
    keywords = collect_keywords(query, stops)
    words = keywords.normalized()
    exclude = set(words)
    totals: dict[str, float] = {}
    surfaces: dict[str, str] = {}
    for hit in searcher.search(words, top_n=params.top_docs):
        doc = searcher.document(hit.doc_id)
        for term, weight in searcher.tf_idf(doc.term_counts).items():
            if term in exclude:
                continue
            totals[term] = totals.get(term, 0.0) + weight
            surfaces.setdefault(term, doc.surfaces[term])
    count = max(0, params.budget - len(keywords))
    ranked = heapq.nsmallest(count, zip(map(operator.neg, totals.values()), totals))
    expansions = [CandidateScore(term, surfaces[term], SOURCE_FEEDBACK, -neg_score)
                  for neg_score, term in ranked]
    return Reformulation(
        query_id=query.query_id,
        mode=MODE_ROCCHIO,
        keywords=keywords,
        expansion_terms=expansions,
        rendered_query=render_terms(
            keywords + [Token.from_surface(c.surface, WHOLE) for c in expansions]),
    )
