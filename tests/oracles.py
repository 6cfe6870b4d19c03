"""Independent brute-force oracles used by the test suite.

Everything here recomputes expected values from first principles on plain
dicts and lists: no inverted index, no cached norms, no shared code paths
with the package internals. The four frozen references at the end are
the exception: earlier versions of package code, kept so that a rewrite must
return exactly what the code it replaced returned. The reference evaluation
at the very end composes the protocol from these oracles alone.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import logging
import math
import operator
import re
from typing import Sequence

from quickar.corpus import Corpus, Document, MethodUnit
from quickar.errors import DataError, QueryEmptyError
from quickar.reformulate import (
    MODE_ALL,
    MODE_CROWD,
    MODE_PROJECT,
    MODE_REDUCE,
    MODES,
    CandidateScore,
    Params,
    Reformulation,
    collect_keywords,
    crowd_candidates,
    project_candidates,
    reduce_keywords,
    SOURCE_CROWD,
    SOURCE_PROJECT,
    render_terms,
)
from quickar.search import SearchHit, Searcher
from quickar.textprep import (
    CAMEL_PART,
    SPLIT_AND_KEEP_WHOLE,
    SPLIT_ONLY,
    WHOLE,
    StopList,
    TermSequence,
    Token,
)

log = logging.getLogger(__name__)


def window_pair_counts(token_lists: list[list[str]], window: int) -> dict[tuple[str, str], int]:
    """Count distinct-word pairs at index distance < window, both directions."""
    counts: dict[tuple[str, str], int] = {}
    for tokens in token_lists:
        for i in range(len(tokens)):
            for j in range(i + 1, len(tokens)):
                if j - i >= window:
                    break
                a, b = tokens[i], tokens[j]
                if a == b:
                    continue
                counts[(a, b)] = counts.get((a, b), 0) + 1
                counts[(b, a)] = counts.get((b, a), 0) + 1
    return counts


def dense_cosine_ranking(
    doc_term_counts: dict[str, dict[str, int]],
    query_terms: list[str],
) -> list[tuple[str, float]]:
    """Full dense-vector TF-IDF cosine ranking over every document.

    Recomputes tf' = 1 + ln(count), idf = ln((N+1)/(df+1)) + 1 and cosine on
    dense vectors spanning the whole vocabulary, sorted by score descending
    then doc_id ascending. Zero-score documents are omitted.
    """
    n_docs = len(doc_term_counts)
    df: dict[str, int] = {}
    for counts in doc_term_counts.values():
        for term in counts:
            df[term] = df.get(term, 0) + 1
    vocab = sorted(set(df) | set(query_terms))

    def idf(term: str) -> float:
        return math.log((n_docs + 1) / (df.get(term, 0) + 1)) + 1.0

    def dense(counts: dict[str, int]) -> list[float]:
        vec = [
            (1.0 + math.log(counts[t])) * idf(t) if t in counts else 0.0
            for t in vocab
        ]
        norm = math.sqrt(sum(w * w for w in vec))
        return [w / norm for w in vec] if norm else vec

    qcounts: dict[str, int] = {}
    for term in query_terms:
        qcounts[term] = qcounts.get(term, 0) + 1
    qvec = dense(qcounts)

    scored = []
    for doc_id, counts in doc_term_counts.items():
        dvec = dense(counts)
        score = sum(q * d for q, d in zip(qvec, dvec))
        if score > 0.0:
            scored.append((doc_id, score))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored


def sparse_cosine(a: dict[str, int], b: dict[str, int]) -> float:
    """Plain cosine of two sparse count vectors, 0.0 when either is empty."""
    if not a or not b:
        return 0.0
    dot = sum(a[k] * b[k] for k in a if k in b)
    norm_a = math.sqrt(sum(v * v for v in a.values()))
    norm_b = math.sqrt(sum(v * v for v in b.values()))
    return dot / (norm_a * norm_b)


def rocchio_term_ranking(
    top_doc_counts: list[dict[str, int]],
    df: dict[str, int],
    n_docs: int,
    exclude: set[str],
) -> list[tuple[str, float]]:
    """Summed tf-idf of every candidate term over the given documents."""
    totals: dict[str, float] = {}
    for counts in top_doc_counts:
        for term, count in counts.items():
            if term in exclude:
                continue
            idf = math.log((n_docs + 1) / (df.get(term, 0) + 1)) + 1.0
            totals[term] = totals.get(term, 0.0) + (1.0 + math.log(count)) * idf
    return sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))


def mwu_statistic(sample_a: list[float], sample_b: list[float]) -> float:
    """U of sample A, counting pairwise wins (ties count half)."""
    u = 0.0
    for x in sample_a:
        for y in sample_b:
            if x < y:
                u += 1.0
            elif x == y:
                u += 0.5
    return u


def exact_mwu_p(sample_a: list[float], sample_b: list[float]) -> float:
    """Exact two-sided p by enumerating every label assignment.

    Only sensible for small samples; doubles the one-sided tail probability
    of the observed U, capped at 1.
    """
    n1 = len(sample_a)
    combined = list(sample_a) + list(sample_b)
    observed = mwu_statistic(sample_a, sample_b)
    u_values = []
    for positions in itertools.combinations(range(len(combined)), n1):
        chosen = [combined[i] for i in positions]
        rest = [combined[i] for i in range(len(combined)) if i not in positions]
        u_values.append(mwu_statistic(chosen, rest))
    total = len(u_values)
    p_low = sum(1 for u in u_values if u <= observed) / total
    p_high = sum(1 for u in u_values if u >= observed) / total
    return min(1.0, 2.0 * min(p_low, p_high))


def interpolated_quartiles(values: list[float]) -> tuple[float, float, float]:
    """Linear-interpolation quartiles of a sorted copy of `values`."""
    data = sorted(values)
    result = []
    for q in (0.25, 0.5, 0.75):
        pos = (len(data) - 1) * q
        lo = math.floor(pos)
        hi = math.ceil(pos)
        frac = pos - lo
        result.append(data[lo] * (1 - frac) + data[hi] * frac)
    return tuple(result)


# ---------------------------------------------------------------------------
# Reference method splitter
# ---------------------------------------------------------------------------
#
# The original character-loop splitter, frozen verbatim apart from the names
# of its two entry points. It is quadratic per file (every candidate
# signature slices and regex-scans the whole file prefix), which is why the
# package no longer uses it; the tests require the package's splitter to
# return exactly what this one returns.

# Keywords that look like `name (...) {` but never open a method body.
_CONTROL_WORDS = frozenset({
    "if", "else", "for", "while", "do", "switch", "case", "catch", "try",
    "finally", "synchronized", "return", "throw", "new", "assert", "break",
    "continue", "default", "instanceof", "yield",
})

_SIGNATURE_RE = re.compile(r"([A-Za-z_$][A-Za-z0-9_$]*)\s*\(")
_WORD_TAIL_RE = re.compile(r"([A-Za-z_$][A-Za-z0-9_$]*)\s*$")

# Characters that may not directly precede a method name (call chains,
# operators, annotations). `>` stays legal: generic return types end with it.
_BAD_PRECEDERS = ".@=!&|+-*/%,([~^"

# `new Name() {` opens an anonymous class, `record Name(...) {` a type body.
_BAD_PRECEDING_WORDS = frozenset({"new", "record"})


class UnbalancedBraces(Exception):
    """Raised internally when a file's braces do not balance."""


def reference_mask_comments_and_strings(text: str) -> tuple[str, str]:
    """Return (scan_text, no_comment_text), both the same length as `text`.

    scan_text blanks comments and string/char literals so brace and paren
    matching cannot be fooled; no_comment_text blanks only comments, for the
    optional strip-comments extraction mode.
    """
    scan = list(text)
    nocom = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = i
            while j < n and text[j] != "\n":
                scan[j] = " "
                nocom[j] = " "
                j += 1
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = i + 2
            while j < n and not (text[j] == "*" and j + 1 < n and text[j + 1] == "/"):
                j += 1
            end = min(n, j + 2)
            for k in range(i, end):
                if text[k] != "\n":
                    scan[k] = " "
                    nocom[k] = " "
            i = end
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                if text[j] == "\\":
                    j += 1
                j += 1
            end = min(n, j + 1)
            for k in range(i + 1, min(j, n)):
                if text[k] != "\n":
                    scan[k] = " "
            i = end
        else:
            i += 1
    return "".join(scan), "".join(nocom)


def _check_balanced(scan: str) -> None:
    depth = 0
    for c in scan:
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth < 0:
                raise UnbalancedBraces("closing brace without opener")
    if depth != 0:
        raise UnbalancedBraces(f"{depth} unclosed brace(s)")


def _depth_before(scan: str) -> list[int]:
    """depths[i] = brace depth immediately before scan[i]."""
    depths = [0] * (len(scan) + 1)
    d = 0
    for i, c in enumerate(scan):
        depths[i] = d
        if c == "{":
            d += 1
        elif c == "}":
            d -= 1
    depths[len(scan)] = d
    return depths


def _matching_brace(scan: str, open_idx: int) -> int:
    depth = 0
    for i in range(open_idx, len(scan)):
        if scan[i] == "{":
            depth += 1
        elif scan[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    raise UnbalancedBraces("unterminated body")


def _closing_paren(scan: str, open_idx: int) -> int:
    depth = 0
    for i in range(open_idx, len(scan)):
        if scan[i] == "(":
            depth += 1
        elif scan[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    raise UnbalancedBraces("unterminated parameter list")


def _body_open_after_params(scan: str, close_paren: int) -> int | None:
    """Index of the `{` opening the body, allowing a throws clause; None if
    this is not a method declaration."""
    i = close_paren + 1
    n = len(scan)
    while i < n and scan[i].isspace():
        i += 1
    if scan[i:i + 6] == "throws" and (i + 6 == n or not (scan[i + 6].isalnum() or scan[i + 6] in "_$")):
        i += 6
        while i < n and scan[i] not in "{;":
            i += 1
    if i < n and scan[i] == "{":
        return i
    return None


def reference_split_methods(text: str, fallback_name: str = "file") -> list[MethodUnit]:
    """Split one curly-brace-language source file into method-like units.

    A unit starts at an identifier followed by a parameter list and an
    opening brace, sitting at class-body depth; its text runs from the
    previous statement boundary through the balanced closing brace (so
    modifiers, annotations and the signature are included). Files with no
    matches, or with unbalanced braces, yield one whole-file unit.
    """
    scan, _ = reference_mask_comments_and_strings(text)
    try:
        _check_balanced(scan)
    except UnbalancedBraces as exc:
        log.warning("unbalanced braces (%s); indexing whole file", exc)
        return [MethodUnit(name=fallback_name, text=text, whole_file=True)]

    depths = _depth_before(scan)
    units: list[MethodUnit] = []
    cursor = 0
    for match in _SIGNATURE_RE.finditer(scan):
        if match.start() < cursor:
            continue
        name = match.group(1)
        if name in _CONTROL_WORDS:
            continue
        if depths[match.start()] < 1:
            continue
        before = scan[:match.start()].rstrip()
        if before and before[-1] in _BAD_PRECEDERS:
            continue
        prev_word = _WORD_TAIL_RE.search(before)
        if prev_word and prev_word.group(1) in _BAD_PRECEDING_WORDS:
            continue
        open_paren = match.end() - 1
        try:
            close_paren = _closing_paren(scan, open_paren)
            body_open = _body_open_after_params(scan, close_paren)
            if body_open is None:
                continue
            body_close = _matching_brace(scan, body_open)
        except UnbalancedBraces as exc:
            log.warning("unbalanced braces (%s); indexing whole file", exc)
            return [MethodUnit(name=fallback_name, text=text, whole_file=True)]
        sig_start = max(before.rfind(";"), before.rfind("{"), before.rfind("}")) + 1
        units.append(MethodUnit(name=name, text=text[sig_start:body_close + 1].strip()))
        cursor = body_close + 1

    if not units:
        return [MethodUnit(name=fallback_name, text=text, whole_file=True)]
    return units


# ---------------------------------------------------------------------------
# Reference reformulation
# ---------------------------------------------------------------------------

# The mode-by-mode `reformulate`, frozen verbatim apart from its name: each
# call reduces the keywords and scores only the candidate pools its mode
# merges. `reformulations` computes every mode in one pass and must agree
# with it field by field. It collects, reduces and harvests candidates with
# the package's stages, and scores, shortlists and merges them with the
# frozen stages below it.

def reference_reformulate(query, corpus, db, mode=MODE_ALL, *, stops, oracle,
                          params=Params(), searcher=None) -> Reformulation:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    keywords = collect_keywords(query, stops)
    reduced = reduce_keywords(keywords, corpus, oracle, max_df_ratio=params.max_df_ratio)
    need = max(0, params.budget - len(reduced))

    expansions: list[CandidateScore] = []
    if mode != MODE_REDUCE and need > 0:
        if searcher is None:
            searcher = Searcher(corpus)
        scored_project: list[CandidateScore] = []
        scored_crowd: list[CandidateScore] = []
        if mode in (MODE_ALL, MODE_PROJECT):
            candidates = project_candidates(reduced, searcher, top_docs=params.top_docs)
            scored_project = reference_score_project_candidates(candidates, reduced, db)
        if mode in (MODE_ALL, MODE_CROWD):
            candidates_so = crowd_candidates(reduced, db)
            scored_crowd = reference_score_crowd_candidates(candidates_so, reduced, db)
        combined = reference_select_and_combine(scored_project, scored_crowd, oracle,
                                                top_k=params.top_k)
        expansions = combined[:need]

    return Reformulation(
        query_id=query.query_id,
        mode=mode,
        keywords=reduced,
        expansion_terms=expansions,
        rendered_query=render_terms(
            list(reduced)
            + [Token.from_surface(c.surface, WHOLE) for c in expansions]),
    )


# The scoring and selection stages `reference_reformulate` calls, frozen
# verbatim apart from their names and from the project score's float sum,
# which runs left to right (`functools.reduce`) as the package's does, so
# every interpreter adds in the same order. They build one `CandidateScore`
# per candidate and rank a scored pool again for every mode that merges it;
# the package scores into plain numbers, shortlists each pool once and
# builds a `CandidateScore` only for what its shortlist keeps.

def _reference_candidate_is_nominal(cand: CandidateScore, oracle) -> bool:
    if len(reference_split_camel(cand.surface)) > 1:
        return True
    return oracle.is_noun(cand.term)


def reference_score_project_candidates(
    candidates: dict[str, str],
    keywords: TermSequence,
    db,
) -> list[CandidateScore]:
    """Accumulated adjacency-vector cosine of each candidate against every
    keyword, each cosine `sparse_cosine` of the two rows, added left to
    right; candidates or keywords without adjacency entries contribute 0."""
    words = keywords.normalized()
    rows = db.entries
    scored = []
    for term in sorted(candidates):
        score = functools.reduce(operator.add, (sparse_cosine(rows.get(term, {}),
                                                              rows.get(word, {}))
                                                for word in words), 0.0)
        scored.append(CandidateScore(term=term, surface=candidates[term],
                                     source=SOURCE_PROJECT, score=score))
    return scored


def reference_score_crowd_candidates(
    candidates: set[str],
    keywords: TermSequence,
    db,
) -> list[CandidateScore]:
    """Accumulated windowed co-occurrence count of each candidate against
    every keyword."""
    words = keywords.normalized()
    scored = []
    for term in sorted(candidates):
        score = float(sum(db.entries.get(term, {}).get(word, 0) for word in words))
        scored.append(CandidateScore(term=term, surface=term,
                                     source=SOURCE_CROWD, score=score))
    return scored


def reference_top_nominal_normalized(
    scored: list[CandidateScore],
    oracle,
    top_k: int,
) -> list[CandidateScore]:
    """Top-k by score (term-ascending ties), nominal only, min-max normalized.

    A single survivor gets 1.0; an all-equal list collapses to 1.0 when the
    shared score is positive and 0.0 when it is zero.
    """
    ranked = sorted(scored, key=lambda c: (-c.score, c.term))[:top_k]
    ranked = [c for c in ranked if _reference_candidate_is_nominal(c, oracle)]
    if not ranked:
        return []
    if len(ranked) == 1:
        return [ranked[0]._replace(score=1.0)]
    hi = max(c.score for c in ranked)
    lo = min(c.score for c in ranked)
    if hi == lo:
        value = 1.0 if hi > 0 else 0.0
        return [c._replace(score=value) for c in ranked]
    return [c._replace(score=(c.score - lo) / (hi - lo)) for c in ranked]


def reference_select_and_combine(
    r_project: list[CandidateScore],
    r_crowd: list[CandidateScore],
    oracle,
    top_k: int = Params.top_k,
) -> list[CandidateScore]:
    """Merge the per-source shortlists into one expansion ranking.

    Each source keeps its top-k nominal candidates with scores min-max
    normalized to [0, 1]; duplicates keep the higher normalized entry, and
    exact ties favor the project source.
    """
    pool: dict[str, CandidateScore] = {}
    for cand in reference_top_nominal_normalized(r_project, oracle, top_k):
        pool[cand.term] = cand
    for cand in reference_top_nominal_normalized(r_crowd, oracle, top_k):
        existing = pool.get(cand.term)
        if existing is None or cand.score > existing.score:
            pool[cand.term] = cand
    return sorted(
        pool.values(),
        key=lambda c: (-c.score, 0 if c.source == SOURCE_PROJECT else 1, c.term),
    )


# ---------------------------------------------------------------------------
# Reference preprocessing
# ---------------------------------------------------------------------------

# The token-by-token `preprocess`, frozen verbatim apart from its name: it
# splits and filters every occurrence of a raw token afresh. The package's
# `preprocess` expands each distinct raw token once per stop list and
# setting, and must return the same tokens. The tokenizer and camel
# splitter it calls are frozen too, apart from their names and doctests: every
# fragment is matched and digit-only ones filtered out afterwards, and each
# boundary rule tries its lookbehind at every position. The package's
# patterns must split every text at the same places.

_REFERENCE_TOKEN_RE = re.compile(r"[0-9A-Za-z]+")

_REFERENCE_CAMEL_BOUNDARY_RE = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")


def reference_tokenize(text: str) -> list[str]:
    """Split raw text into alphanumeric fragments.

    Splits on any non-alphanumeric character; empty and pure-digit fragments
    are discarded, mixed alphanumerics ("utf8") are kept whole. Surfaces keep
    their original casing.
    """
    return [frag for frag in _REFERENCE_TOKEN_RE.findall(text) if not frag.isdigit()]


def reference_split_camel(token: str) -> list[str]:
    """Split one identifier at camel-case boundaries, preserving casing.

    Lower-to-upper transitions and acronym boundaries (an upper-case run
    followed by Upper+lower splits before the last upper) both break the
    token; single-case tokens come back unchanged. Parts always concatenate
    to exactly the input.
    """
    return _REFERENCE_CAMEL_BOUNDARY_RE.split(token)


def reference_preprocess(
    text: str,
    stops: StopList,
    mode: str = SPLIT_ONLY,
    extra_drop: frozenset[str] | None = None,
) -> TermSequence:
    """Tokenize, camel-split, and stop-filter `text` into a TermSequence.

    In SPLIT_AND_KEEP_WHOLE mode every multi-part camel token also
    contributes its whole form, right after its parts. Stop words (and any
    `extra_drop` words, e.g. language keywords) are removed after
    normalization, so camel parts are filtered too. Pure-digit camel parts
    are dropped. No stemming.
    """
    if mode not in (SPLIT_ONLY, SPLIT_AND_KEEP_WHOLE):
        raise ValueError(f"unknown preprocessing mode: {mode!r}")
    tokens: list[Token] = []
    for raw in reference_tokenize(text):
        parts = reference_split_camel(raw)
        if len(parts) == 1:
            candidates = [Token.from_surface(raw, WHOLE)]
        else:
            candidates = [
                Token.from_surface(p, CAMEL_PART) for p in parts if not p.isdigit()
            ]
            if mode == SPLIT_AND_KEEP_WHOLE:
                candidates.append(Token.from_surface(raw, WHOLE))
        for tok in candidates:
            if tok.normalized in stops:
                continue
            if extra_drop and tok.normalized in extra_drop:
                continue
            tokens.append(tok)
    return TermSequence(tokens)


# ---------------------------------------------------------------------------
# Reference searcher
# ---------------------------------------------------------------------------

# The eagerly built `Searcher`, frozen verbatim apart from its name and from
# its two float sums, which run left to right (`functools.reduce`) as the
# package's do: it weights every posting of every term when it is constructed. The package's
# `Searcher` builds idf values, norms and postings on first use, and must
# return the same hits, ranks and weights, float for float.

class ReferenceSearcher:
    """Inverted-index retriever bound to one immutable corpus.

    Each term's postings are a pair of lists, the ascending positions of the
    documents holding the term and their weights, with no tuple per posting.
    The postings are keyed by the corpus's own term strings, which
    `corpus.load` shares between the documents holding the same cell.
    """

    def __init__(self, corpus: Corpus):
        if corpus.n_docs == 0:
            raise DataError("cannot search an empty corpus")
        self.corpus = corpus
        n = corpus.n_docs
        self._idf = {
            term: math.log((n + 1) / (df + 1)) + 1.0
            for term, df in corpus.doc_freq.items()
        }
        self._unknown_idf = math.log(n + 1) + 1.0
        # Postings hold final L2-normalized document weights.
        self._postings: dict[str, tuple[list[int], list[float]]] = {}
        self._doc_ids = [doc.doc_id for doc in corpus.documents]
        self._by_id = {doc.doc_id: doc for doc in corpus.documents}
        for index, doc in enumerate(corpus.documents):
            if not doc.term_counts:
                continue
            weights = self.tf_idf(doc.term_counts)
            norm = math.sqrt(functools.reduce(operator.add,
                                              (w * w for w in weights.values()), 0.0))
            for term, weight in weights.items():
                postings = self._postings.get(term)
                if postings is None:
                    postings = self._postings[term] = ([], [])
                postings[0].append(index)
                postings[1].append(weight / norm)

    def tf_idf(self, counts: dict[str, int]) -> dict[str, float]:
        """tf'*idf weight of each term of a document's or a query's term
        counts, in ascending term order."""
        idf, unknown = self._idf, self._unknown_idf
        return {
            term: (1.0 + math.log(count)) * idf.get(term, unknown)
            for term, count in sorted(counts.items())
        }

    def query_vector(self, terms: Sequence[str]) -> dict[str, float]:
        """L2-normalized tf'*idf weights of a term query.

        Unknown terms keep their smoothed idf and only affect normalization
        (they match nothing).
        """
        counts: dict[str, int] = {}
        for term in terms:
            counts[term] = counts.get(term, 0) + 1
        weights = self.tf_idf(counts)
        norm = math.sqrt(functools.reduce(operator.add,
                                          (w * w for w in weights.values()), 0.0))
        if norm == 0.0:
            return {}
        return {term: w / norm for term, w in weights.items()}

    def document(self, doc_id: str) -> Document:
        """The corpus document with this id (the last one, should ids repeat)."""
        return self._by_id[doc_id]

    def _scores(self, query_terms: Sequence[str]) -> dict[int, float]:
        """Cosine score of every document sharing a term with the query, by
        document position. Terms are added in ascending order, so a score is
        the same float whichever method asks for it."""
        qvec = self.query_vector(query_terms)
        scores: dict[int, float] = {}
        for term in sorted(qvec):
            weight = qvec[term]
            positions, doc_weights = self._postings.get(term, ((), ()))
            for index, doc_weight in zip(positions, doc_weights):
                scores[index] = scores.get(index, 0.0) + weight * doc_weight
        return scores

    def search(self, query_terms: Sequence[str], top_n: int | None = None) -> list[SearchHit]:
        """Ranked documents for a query of normalized terms; zero-overlap
        documents are omitted, an empty query returns an empty list. With
        `top_n`, the first `top_n` of that list, picked without sorting the
        rest."""
        scores = self._scores(query_terms)
        doc_ids = self._doc_ids

        def key(item):
            return -item[1], doc_ids[item[0]]

        if top_n is None:
            order = sorted(scores.items(), key=key)
        else:
            order = heapq.nsmallest(top_n, scores.items(), key=key)
        return [
            SearchHit(doc_id=doc_ids[index], score=score, rank=rank)
            for rank, (index, score) in enumerate(order, start=1)
        ]

    def rank(self, query_terms: Sequence[str], gold: set[str] | frozenset[str]) -> int | None:
        """Rank of the first `gold` document in `search(query_terms)`, or
        None: 1 + the number of scored documents that sort before
        the best gold one, counted without building or sorting the hits."""
        if not gold:
            raise ValueError("gold document set must not be empty")
        scores = self._scores(query_terms)
        doc_ids = self._doc_ids
        best = min(((-score, doc_ids[index]) for index, score in scores.items()
                    if doc_ids[index] in gold), default=None)
        if best is None:
            return None
        best_score, best_id = -best[0], best[1]
        return 1 + sum(1 for index, score in scores.items()
                       if score > best_score or (score == best_score and doc_ids[index] < best_id))



# ---------------------------------------------------------------------------
# Reference evaluation
# ---------------------------------------------------------------------------
#
# The paper's protocol, composed of the oracles above and of nothing that the
# package's `run_evaluation` shares between its steps: every rank is read off
# a full `ReferenceSearcher` ranking, each mode is reformulated on its own by
# `reference_reformulate`, the Rocchio baseline ranks its terms with
# `rocchio_term_ranking`, the summaries take `interpolated_quartiles`, and p
# is scipy's asymptotic two-sided Mann-Whitney test. It returns the report
# dict `run_evaluation` returns.

_OUTCOME_BUCKETS = ("improved", "worsened", "preserved", "excluded")


def reference_run_evaluation(queries, corpus, db, strategies, *, stops, oracle,
                             params=Params(), strict=False) -> dict:
    from scipy.stats import mannwhitneyu

    searcher = ReferenceSearcher(corpus)

    def first_gold_rank(terms, gold) -> int | None:
        return next((hit.rank for hit in searcher.search(terms) if hit.doc_id in gold), None)

    def rocchio_tokens(query) -> list[Token]:
        keywords = collect_keywords(query, stops)
        words = [tok.normalized for tok in keywords]
        top = [searcher.document(hit.doc_id) for hit in searcher.search(words)[:params.top_docs]]
        ranking = rocchio_term_ranking([doc.term_counts for doc in top], corpus.doc_freq,
                                       corpus.n_docs, exclude=set(words))
        room = max(0, params.budget - len(keywords))
        surfaces = [next(doc.surfaces[term] for doc in top if term in doc.term_counts)
                    for term, _ in ranking[:room]]
        return list(keywords) + [Token.from_surface(surface, WHOLE) for surface in surfaces]

    def strategy_rank(query, strategy: str, baseline: int) -> int | None:
        if strategy in MODES:
            ref = reference_reformulate(query, corpus, db, strategy, stops=stops, oracle=oracle,
                                        params=params, searcher=searcher)
            rank = first_gold_rank(ref.rendered_query.normalized(), query.gold_docs)
            if strategy == MODE_ALL:
                reduced = reference_reformulate(query, corpus, db, MODE_REDUCE, stops=stops,
                                                oracle=oracle, params=params, searcher=searcher)
                reduced_rank = first_gold_rank(reduced.rendered_query.normalized(),
                                               query.gold_docs)
                if reduced_rank is not None and reduced_rank < baseline:
                    rank = reduced_rank
            return rank
        tokens = rocchio_tokens(query) if strategy == "rocchio" else collect_keywords(query, stops)
        return first_gold_rank(render_terms(tokens).normalized(), query.gold_docs)

    kept, baselines, low, unretrieved = [], {}, 0, 0
    for query in queries:
        rank = first_gold_rank([tok.lower() for tok in reference_tokenize(query.text)],
                               query.gold_docs)
        if rank is None:
            unretrieved += 1
        elif rank <= 10:
            low += 1
        else:
            kept.append(query)
            baselines[query.query_id] = rank

    ranks: dict[str, dict[str, int | None]] = {}
    entries = {}
    for strategy in strategies:
        outcomes = []
        for query in kept:
            baseline = baselines[query.query_id]
            try:
                rank = strategy_rank(query, strategy, baseline)
                reason = "gold not retrieved" if rank is None else ""
            except QueryEmptyError as exc:
                rank, reason = None, str(exc)
            bucket = ("excluded" if rank is None else "improved" if rank < baseline
                      else "worsened" if rank > baseline else "preserved")
            outcomes.append({"query_id": query.query_id, "baseline_rank": baseline,
                             "reformulated_rank": rank, "classification": bucket,
                             "reason": reason})
        ranks[strategy] = {o["query_id"]: o["reformulated_rank"] for o in outcomes}
        counts = {b: sum(o["classification"] == b for o in outcomes) for b in _OUTCOME_BUCKETS}
        total = len(outcomes)
        retrieved = total - counts["excluded"] if strict else total
        percentages = {b: 100.0 * counts[b] / retrieved if retrieved else 0.0
                       for b in _OUTCOME_BUCKETS[:3]}
        percentages["excluded"] = 100.0 * counts["excluded"] / total if total else 0.0
        summaries = dict.fromkeys(_OUTCOME_BUCKETS[:3])
        for b in summaries:
            values = [o["reformulated_rank"] for o in outcomes if o["classification"] == b]
            if values:
                q1, q2, q3 = interpolated_quartiles(values)
                summaries[b] = {"count": len(values), "mean": sum(values) / len(values),
                                "q1": q1, "q2": q2, "q3": q3,
                                "min": min(values), "max": max(values)}
        entries[strategy] = {"counts": counts, "percentages": percentages,
                             "summaries": summaries, "outcomes": outcomes}

    mwu = []
    anchor = MODE_ALL if MODE_ALL in strategies else strategies[0] if strategies else None
    for other in strategies:
        if other == anchor:
            continue
        both = [query.query_id for query in kept
                if ranks[anchor][query.query_id] is not None
                and ranks[other][query.query_id] is not None]
        if not both:
            continue
        sample_a = [ranks[anchor][qid] for qid in both]
        sample_b = [ranks[other][qid] for qid in both]
        test = mannwhitneyu(sample_a, sample_b, alternative="two-sided",
                            method="asymptotic", use_continuity=True)
        mwu.append({"a": anchor, "b": other, "n_a": len(both), "n_b": len(both),
                    "u": float(test.statistic), "p": float(test.pvalue),
                    "mrd": sum(sample_a) / len(both) - sum(sample_b) / len(both)})
    return {
        "dataset": {"total": len(queries), "kept": len(kept), "dropped_low_rank": low,
                    "dropped_not_retrieved": unretrieved},
        "denominator": "retrieved_only" if strict else "all",
        "params": {**params._asdict(), "threshold": 10},
        "strategies": entries,
        "mwu": mwu,
    }
