"""Deterministic TF-IDF cosine retrieval over a method-level corpus.

Classic log-scaled term frequency with smoothed inverse document frequency:

    tf'(t, d) = 1 + ln(count(t, d))
    idf(t)    = ln((N + 1) / (df(t) + 1)) + 1
    score     = cosine of the L2-normalized tf'*idf vectors

Ties break by ascending document id, which makes every ranked list total and
reproducible; the evaluation harness relies on that.

A `Searcher` takes each term's df from its corpus's `doc_freq`, counted once
per corpus on first read, and computes no weight when it is built. The rest
is computed the first time a query needs it and memoized on the searcher: a
df's idf and a count's `1 + ln count` when a weight needs them, a
document's L2 norm when a posting of that document is built or a top-n
search scores it exactly, and a term's postings when a full scoring
(`rank`, `search` without `top_n`) first reads it. A one-shot call
therefore weights only what it scores, and every float is the one a fully
built index gives. Postings come from the corpus's `positions`, its
inverted index, which only full scoring builds. A term's postings are a
pair of lists, the positions and the L2-normalized weights of the
documents holding the term, with no tuple per posting, keyed by the
corpus's own term strings.

A full scoring adds each query term's postings, in ascending term order,
into one list holding a score per document position. A document sharing no
term with the query keeps exactly 0.0, because every product added is
positive. `rank` sorts nothing: it counts the documents scoring above the
best gold document, and walks the doc-id tie-break only when another
document has that very score.

Hits are picked with no Python key function. The document positions are
sorted by doc id once per searcher, on first use by a full or a warm top-n
search, position breaking ties between equal ids. Full `search` sorts the
positions with a nonzero score, in that order, by descending score, and a
warm top-n search takes their `heapq.nlargest`, both keyed by the score
list itself. Both are stable, so equal scores keep the doc-id order. A
pruned top-n search puts its few exactly scored positions in the same
order by sorting just them, so a one-shot search never sorts every
position.

Every float sum is added left to right in ascending term order
(`functools.reduce`, not `sum`, which compensates float sums from CPython
3.12 on), so scores are the same bits on every supported interpreter.

A top-n search (`search(terms, top_n=n)`) scores exactly only the documents
that can still reach the top n (MaxScore-style safe pruning), and builds no
inverted index: it finds each query term's documents by a scan of the
documents' term counts. A weight `(1 + ln count) * idf` is at least its
idf, because a count is at least 1, and the terms of a document that the
query does not hold are distinct terms of the vocabulary. With F[m] the sum
of the m smallest idf squared over the vocabulary (the idf floor), a
document with m such terms has

    ||d||^2 >= sum of its matched weights squared + F[m]

One pass over the query terms' documents gives each hit document its
unnormalized dot product with the query vector; divided by the root of that
lower bound, it bounds the document's cosine from above. Documents are then
scored exactly, with the same additions in the same order as a full ranking,
in descending bound order. The search stops once it holds n exact scores and
the next bound, raised by a relative 1e-9 that absorbs float rounding, is
below the n-th best. A document tying the n-th score is therefore always
scored, and hits, score floats and the doc-id tie-break are those of the
full ranking. When the postings of every query term are already memoized,
one memoized addition per posting is cheaper than the bound pass, and every
hit is scored that way instead.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
from itertools import accumulate, compress, repeat
from operator import attrgetter
from typing import Iterable, NamedTuple, Sequence

from .corpus import Corpus, Document
from .errors import DataError

# Raises a pruning bound above float rounding: the bound and the exact score
# it bounds each carry a relative rounding error far below 1e-9.
_BOUND_MARGIN = 1.0 + 1e-9


class SearchHit(NamedTuple):
    doc_id: str
    score: float
    rank: int  # 1-based, consecutive


class _IdfMemo(dict):
    """Smoothed idf by document frequency, computed on a df's first lookup.
    A corpus has far fewer distinct dfs than terms, and a term that no
    document holds has df 0, the unknown-term idf."""

    __slots__ = ("_n_docs",)

    def __init__(self, n_docs: int):
        super().__init__()
        self._n_docs = n_docs

    def __missing__(self, df: int) -> float:
        idf = self[df] = math.log((self._n_docs + 1) / (df + 1)) + 1.0
        return idf


class _TfMemo(dict):
    """Log-scaled term frequency `1 + ln count` by count, computed on a
    count's first lookup."""

    __slots__ = ()

    def __missing__(self, count: int) -> float:
        tf = self[count] = 1.0 + math.log(count)
        return tf


class Searcher:
    """TF-IDF retriever bound to one immutable corpus: the corpus, its
    `doc_freq`, each document's id by position and the positions of each
    id, and the memos that the module docstring describes (idf by df,
    `1 + ln count` by count, norms by position, postings by term, the idf
    floor of top-n pruning and the positions in doc-id order)."""

    def __init__(self, corpus: Corpus):
        if corpus.n_docs == 0:
            raise DataError("cannot search an empty corpus")
        self.corpus = corpus
        self._doc_ids = [doc.doc_id for doc in corpus.documents]
        self._positions_by_id: dict[str, list[int]] = {}
        for index, doc_id in enumerate(self._doc_ids):
            self._positions_by_id.setdefault(doc_id, []).append(index)
        self._doc_freq = corpus.doc_freq
        # Memos, filled on first use.
        self._idf = _IdfMemo(corpus.n_docs)
        self._tf = _TfMemo()
        self._norms: dict[int, float] = {}
        self._postings: dict[str, tuple[list[int], list[float]]] = {}
        self._floor: list[float] | None = None
        self._id_order: list[int] | None = None

    def _weights(self, counts: dict[str, int], terms: list[str]):
        """tf'*idf weight of each of `terms`, in their order."""
        dfs = map(self._doc_freq.get, terms, repeat(0))
        return map(operator.mul, map(self._tf.__getitem__, map(counts.__getitem__, terms)),
                   map(self._idf.__getitem__, dfs))

    def tf_idf(self, counts: dict[str, int]) -> dict[str, float]:
        """tf'*idf weight of each term of a document's or a query's term
        counts, in ascending term order."""
        terms = sorted(counts)
        return dict(zip(terms, self._weights(counts, terms)))

    def _norm(self, index: int) -> float:
        """L2 norm of the document at `index`, computed and memoized; callers
        look in the memo first."""
        counts = self.corpus.documents[index].term_counts
        # Summed in ascending term order, as tf_idf returns them.
        weights = list(self._weights(counts, sorted(counts)))
        norm = self._norms[index] = math.sqrt(
            functools.reduce(operator.add, map(operator.mul, weights, weights), 0.0))
        return norm

    def _postings_of(self, term: str) -> tuple[list[int], list[float]]:
        """The positions and normalized weights of the documents holding
        `term`, built on first use together with any norm they need."""
        postings = self._postings.get(term)
        if postings is None:
            positions = self.corpus.positions.get(term, [])
            idf, tf, norms = self._idf[len(positions)], self._tf, self._norms
            documents = self.corpus.documents
            weights = []
            for index in positions:
                norm = norms.get(index)
                if norm is None:
                    norm = self._norm(index)
                weights.append(tf[documents[index].term_counts[term]] * idf / norm)
            postings = self._postings[term] = (positions, weights)
        return postings

    def query_vector(self, terms: Sequence[str]) -> dict[str, float]:
        """L2-normalized tf'*idf weights of a term query.

        Unknown terms keep their smoothed idf and only affect normalization
        (they match nothing).
        """
        counts: dict[str, int] = {}
        for term in terms:
            counts[term] = counts.get(term, 0) + 1
        weights = self.tf_idf(counts)
        norm = math.sqrt(functools.reduce(operator.add, (w * w for w in weights.values()), 0.0))
        return {term: w / norm for term, w in weights.items()}

    def document(self, doc_id: str) -> Document:
        """The corpus document with this id (the last one, should ids repeat)."""
        return self.corpus.documents[self._positions_by_id[doc_id][-1]]

    def _scores(self, query_terms: Sequence[str]) -> list[float]:
        """Cosine score of every document, by document position: 0.0 for a
        document sharing no term with the query. Terms are added in
        ascending order, so a score is the same float whichever method asks
        for it."""
        qvec = self.query_vector(query_terms)
        scores = [0.0] * self.corpus.n_docs
        for term in sorted(qvec):
            weight = qvec[term]
            positions, doc_weights = self._postings_of(term)
            for index, doc_weight in zip(positions, doc_weights):
                scores[index] += weight * doc_weight
        return scores

    def _in_id_order(self, scores) -> Iterable[int]:
        """The positions of the documents with a nonzero entry in `scores`,
        a list by position, in the order that breaks score ties: ascending
        doc id, then position. That order of every position is sorted on
        first use."""
        order = self._id_order
        if order is None:
            order = self._id_order = sorted(range(len(scores)), key=self._doc_ids.__getitem__)
        return compress(order, map(scores.__getitem__, order))

    def _top_scores(self, query_terms: Sequence[str],
                    top_n: int) -> tuple[Iterable[int], Sequence[float] | dict[int, float]]:
        """The positions of every document that can reach the top `top_n`
        of the full ranking, in the tie-break order of `_in_id_order`, and
        their exact scores by position, each the very float `_scores`
        gives; documents that cannot are left out unscored. Once the
        postings of every query term are memoized, these are the nonzero
        entries of `_scores`."""
        doc_freq, postings = self._doc_freq, self._postings
        known = sorted(term for term in set(query_terms) if term in doc_freq)
        if top_n < 1 or not known:
            return (), ()
        if all(map(postings.__contains__, known)):
            scores = self._scores(query_terms)
            return self._in_id_order(scores), scores
        qvec = self.query_vector(query_terms)
        held = list(map(attrgetter("term_counts"), self.corpus.documents))
        tf, norms, floor = self._tf, self._norms, self._floor
        if floor is None:
            # F[m] for every m up to the longest document's term count.
            dfs = heapq.nlargest(max(map(len, held)), doc_freq.values())
            idfs = map(self._idf.__getitem__, dfs)
            floor = self._floor = list(accumulate((idf * idf for idf in idfs), initial=0.0))
        terms = [(term, qvec[term], self._idf[doc_freq[term]]) for term in known]
        # Per hit document: its dot product with the unnormalized document
        # vector, the sum of its matched weights squared, and their number.
        dots: dict[int, float] = {}
        squares: dict[int, float] = {}
        matched: dict[int, int] = {}
        for term, weight, idf in terms:
            for index in compress(range(len(held)), map(operator.contains, held, repeat(term))):
                doc_weight = tf[held[index][term]] * idf
                dots[index] = dots.get(index, 0.0) + weight * doc_weight
                squares[index] = squares.get(index, 0.0) + doc_weight * doc_weight
                matched[index] = matched.get(index, 0) + 1
        bounds = {index: dot / math.sqrt(squares[index] + floor[len(held[index]) - matched[index]])
                  for index, dot in dots.items()}
        scores: dict[int, float] = {}
        best: list[float] = []  # min-heap of the top_n highest exact scores
        for index in sorted(bounds, key=bounds.__getitem__, reverse=True):
            if len(best) == top_n and bounds[index] * _BOUND_MARGIN < best[0]:
                break
            norm = norms.get(index)
            if norm is None:
                norm = self._norm(index)
            counts = held[index]
            score = 0.0
            for term, weight, idf in terms:
                count = counts.get(term)
                if count is not None:
                    score = score + weight * (tf[count] * idf / norm)
            scores[index] = score
            if len(best) < top_n:
                heapq.heappush(best, score)
            else:
                heapq.heappushpop(best, score)
        # Sorts only the scored positions: a one-shot search never needs
        # the order of every position.
        return sorted(sorted(scores), key=self._doc_ids.__getitem__), scores

    def search(self, query_terms: Sequence[str], top_n: int | None = None) -> list[SearchHit]:
        """Ranked documents for a query of normalized terms; zero-overlap
        documents are omitted, an empty query returns an empty list. With
        `top_n`, the first `top_n` of that list, picked without sorting the
        rest and scoring exactly only the documents whose score bound can
        reach it."""
        if top_n is None:
            scores = self._scores(query_terms)
            order = sorted(self._in_id_order(scores), key=scores.__getitem__, reverse=True)
        else:
            candidates, scores = self._top_scores(query_terms, top_n)
            order = heapq.nlargest(top_n, candidates, key=scores.__getitem__)
        doc_ids = self._doc_ids
        return [
            SearchHit(doc_ids[index], scores[index], rank)
            for rank, index in enumerate(order, start=1)
        ]

    def rank(self, query_terms: Sequence[str], gold: set[str] | frozenset[str]) -> int | None:
        """Rank of the first `gold` document in `search(query_terms)`, or
        None when no gold document scores: 1 + the number of documents
        whose score is above the best gold score, plus those tying it with
        a smaller doc id than the best gold one's. Every document whose id
        is in `gold` counts as gold, repeated ids included. Nothing is
        sorted and no hit is built."""
        _check_gold(gold)
        scores = self._scores(query_terms)
        doc_ids = self._doc_ids
        by_id = self._positions_by_id
        gold_positions = [index for doc_id in gold for index in by_id.get(doc_id, ())]
        best = max(map(scores.__getitem__, gold_positions), default=0.0)
        if not best:
            return None
        before = sum(1 for score in scores if score > best)
        if scores.count(best) > 1:
            best_id = min(doc_ids[index] for index in gold_positions if scores[index] == best)
            before += sum(1 for index, score in enumerate(scores)
                          if score == best and doc_ids[index] < best_id)
        return 1 + before


def _check_gold(gold) -> None:
    """Refuse an empty gold set, and a `str`, whose `in` tests substrings."""
    if isinstance(gold, str):
        raise TypeError("gold must be a set of doc ids, not a str")
    if not gold:
        raise ValueError("gold document set must not be empty")


def rank_of_first_relevant(hits: Iterable[SearchHit], gold: set[str]) -> int | None:
    """Smallest rank whose doc_id is in `gold`, or None."""
    _check_gold(gold)
    best: int | None = None
    for hit in hits:
        if hit.doc_id in gold and (best is None or hit.rank < best):
            best = hit.rank
    return best
