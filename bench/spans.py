"""In-memory spans recorded from outside the program, and the per-layer
report computed from them.

`instrument()` swaps timing wrappers onto the public functions the CLI
calls (module attributes only; no file of the package is edited) and
restores the originals on exit. Spans nest by call order, so a layer's self
time is its span's duration minus the time of the spans opened inside it.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter

from quickar import adjacency, cli, corpus, evaluate
from quickar.textprep import TermSequence

# The package re-exports functions named `search` and `reformulate`, which
# shadow the submodules as package attributes.
search = importlib.import_module("quickar.search")

# Spans that make up a CLI call's set-up, the time before its first unit of
# work: reading the word lists and the artifacts, building the searcher and
# parsing the query file. They never nest inside one another.
SETUP_SPANS = frozenset({"textprep.load_words", "corpus.load", "adjacency.load",
                         "search.searcher_build", "evaluate.parse_queries"})

# Per-layer metrics of the traced run, in report order. Times are self times
# in seconds; the rest are counts over one traced pass.
LAYER_METRICS = {
    "adjacency.read_dump_s": "s",
    "adjacency.build_s": "s",
    "adjacency.titles_read": "count",
    "adjacency.titles_malformed": "count",
    "adjacency.titles_kept": "count",
    "adjacency.pairs": "count",
    "corpus.build_s": "s",
    "corpus.split_s": "s",
    "textprep.preprocess_s": "s",
    "textprep.tokens": "count",
    "corpus.files": "count",
    "corpus.docs": "count",
    "corpus.whole_file_docs": "count",
    "adjacency.save_s": "s",
    "corpus.save_s": "s",
    "adjacency.artifact_bytes": "bytes",
    "corpus.artifact_bytes": "bytes",
    "textprep.load_words_s": "s",
    "corpus.load_s": "s",
    "adjacency.load_s": "s",
    "search.searcher_build_s": "s",
    "search.full_rank_s": "s",
    "search.top_n_s": "s",
    "search.calls": "count",
    "search.hits_built": "count",
    "search.hits_per_call": "hits/call",
    "search.postings_scanned": "count",
    "reformulate.self_s": "s",
    "reformulate.keywords_in": "count",
    "reformulate.keywords_kept": "count",
    "reformulate.project_pool": "count",
    "reformulate.crowd_pool": "count",
    "reformulate.expansions": "count",
    "rocchio.self_s": "s",
    "evaluate.parse_queries_s": "s",
    "evaluate.filter_s": "s",
    "evaluate.queries_kept": "count",
    "evaluate.stats_s": "s",
    "cli.self_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans as [name, start, end, parent index] rows, plus counters; times
    are read from `clock`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        row = [name, self.clock(), None, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        try:
            yield
        finally:
            row[2] = self.clock()
            self._stack.pop()

    def setup_since(self, first: int) -> float:
        """Total duration of the set-up spans opened at or after `first`."""
        return sum(end - start for name, start, end, _ in self.spans[first:]
                   if name in SETUP_SPANS)

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus the children's durations."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            totals[name] = totals.get(name, 0.0) + (end - start) - inner
        return totals

    def layer_metrics(self) -> dict[str, float]:
        """Every LAYER_METRICS entry that spans and counters can give; zero
        for layers this pass never entered."""
        out = {name: 0 for name in LAYER_METRICS}
        for name, seconds in self.self_times().items():
            out[name + "_s" if "." in name else name + ".self_s"] = seconds
        out.update(self.counts)
        calls = self.counts["search.calls"]
        out["search.hits_per_call"] = self.counts["search.hits_built"] / calls if calls else 0
        return out


def _timed(tracer: Tracer, name: str, func):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return func(*args, **kwargs)
    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer, setup_only: bool = False):
    """Install span wrappers on the functions the CLI calls; undo on exit.

    With `setup_only`, only the set-up steps (SETUP_SPANS) are wrapped: a
    handful of spans per CLI call, so untraced runs can take `setup_s` from
    the program's own loads at no measurable cost.
    """
    count = tracer.counts

    class BuildTimedSearcher(search.Searcher):
        def __init__(self, *args, **kwargs):
            with tracer.span("search.searcher_build"):
                super().__init__(*args, **kwargs)

    class TimedSearcher(BuildTimedSearcher):
        def search(self, query_terms, top_n=None):
            terms = query_terms.normalized() if isinstance(query_terms, TermSequence) else query_terms
            with tracer.span("search.full_rank" if top_n is None else "search.top_n"):
                hits = super().search(terms, top_n=top_n)
            count["search.calls"] += 1
            count["search.hits_built"] += len(hits)
            count["search.postings_scanned"] += sum(
                self.corpus.doc_freq.get(term, 0) for term in set(terms))
            return hits

    def read_title_dump(path, stats):
        with tracer.span("adjacency.read_dump"):
            yield from originals[adjacency, "read_title_dump"](path, stats)
        count["adjacency.titles_read"] += stats.read
        count["adjacency.titles_malformed"] += stats.malformed

    def build_adjacency(titles, *args, **kwargs):
        with tracer.span("adjacency.build"):
            db = originals[adjacency, "build"](titles, *args, **kwargs)
        count["adjacency.titles_kept"] += len(titles)
        count["adjacency.pairs"] += db.total_pair_count
        return db

    def build_corpus(root, stops, keywords, **kwargs):
        with tracer.span("corpus.build"):
            built = originals[corpus, "build_corpus"](root, stops, keywords, **kwargs)
        count["corpus.files"] += kwargs["stats"].files
        count["corpus.docs"] += built.n_docs
        count["corpus.whole_file_docs"] += sum(
            doc.doc_id.split("#", 1)[1].startswith("0:") for doc in built.documents)
        return built

    def preprocess(*args, **kwargs):
        with tracer.span("textprep.preprocess"):
            terms = originals[corpus, "preprocess"](*args, **kwargs)
        count["textprep.tokens"] += len(terms)
        return terms

    def evaluate_strategy(queries, corpus_, db, strategy, *args, **kwargs):
        with tracer.span("rocchio" if strategy == "rocchio" else "reformulate"):
            return originals[evaluate, "evaluate_strategy"](
                queries, corpus_, db, strategy, *args, **kwargs)

    def filter_dataset(queries, searcher, *args, **kwargs):
        with tracer.span("evaluate.filter"):
            result = originals[evaluate, "filter_dataset"](queries, searcher, *args, **kwargs)
        count["evaluate.queries_kept"] += len(result.kept)
        return result

    setup = {
        (cli, "load_stoplist"): _timed(tracer, "textprep.load_words", cli.load_stoplist),
        (cli, "load_language_keywords"):
            _timed(tracer, "textprep.load_words", cli.load_language_keywords),
        (corpus, "load"): _timed(tracer, "corpus.load", corpus.load),
        (adjacency, "load"): _timed(tracer, "adjacency.load", adjacency.load),
        (search, "Searcher"): BuildTimedSearcher,
        (evaluate, "parse_queries_tsv"):
            _timed(tracer, "evaluate.parse_queries", evaluate.parse_queries_tsv),
    }
    work = {
        (adjacency, "read_title_dump"): read_title_dump,
        (adjacency, "build"): build_adjacency,
        (adjacency, "save"): _timed(tracer, "adjacency.save", adjacency.save),
        (corpus, "build_corpus"): build_corpus,
        (corpus, "split_methods"): _timed(tracer, "corpus.split", corpus.split_methods),
        (corpus, "preprocess"): preprocess,
        (corpus, "save"): _timed(tracer, "corpus.save", corpus.save),
        (search, "Searcher"): TimedSearcher,
        (evaluate, "filter_dataset"): filter_dataset,
        (evaluate, "evaluate_strategy"): evaluate_strategy,
        (evaluate, "summarize_ranks"): _timed(tracer, "evaluate.stats", evaluate.summarize_ranks),
        (evaluate, "mann_whitney_u"): _timed(tracer, "evaluate.stats", evaluate.mann_whitney_u),
        (cli, "reformulate"): _timed(tracer, "reformulate", cli.reformulate),
        (cli, "rocchio_expand"): _timed(tracer, "rocchio", cli.rocchio_expand),
    }
    patches = setup if setup_only else {**setup, **work}
    originals = {key: getattr(*key) for key in patches}
    try:
        for (module, attr), wrapper in patches.items():
            setattr(module, attr, wrapper)
        yield tracer
    finally:
        for (module, attr), func in originals.items():
            setattr(module, attr, func)
