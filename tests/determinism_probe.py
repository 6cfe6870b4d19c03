"""Print the score bits and report digests of the evaluate fixture.

Builds the `tests/data/evaluate` database and index, saves both to a
temporary directory, prints the sha256 of each saved file and loads them
back, so the scores come through the load path and the surfaces a loaded
index decodes on first read. For every
query it prints `float.hex` of each search score of the baseline terms, of
the top-1, top-5 and top-10 scores of those terms, each from a fresh
`Searcher` and so through the pruned top-n path, the doc ids and score bits
of a top-5 search by the searcher that has just ranked them in full (the
warm path), the raw project and crowd score of each candidate of the
reduced keywords, each expansion score of the `all` reformulation and of
each Rocchio expansion score. It then
prints the sha256 of the JSON report and of the text report, for all six
strategies and for `so`, `prep` and `red` with `strict`, whose
Mann-Whitney tests pair each strategy with `so` for want of `all`, and of what
the method splitter, its masker and its comment stripper return for a
fixed Java text, and of what the tokenizer and the camel splitter return for
a fixed mixed-script text, so that the regular expressions are compared too.
Only the standard library and quickar are imported, so any interpreter can
run it from a checkout:

    python3.13 tests/determinism_probe.py

Two interpreters that print different lines disagree on some score's bits.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from quickar import adjacency  # noqa: E402
from quickar import corpus as corpus_mod  # noqa: E402
from quickar.errors import QueryEmptyError  # noqa: E402
from quickar.evaluate import (  # noqa: E402
    baseline_terms,
    parse_queries_tsv,
    render_report_text,
    run_evaluation,
)
from quickar.nouns import default_noun_oracle  # noqa: E402
from quickar.reformulate import (  # noqa: E402
    MODE_ALL,
    collect_keywords,
    crowd_candidates,
    project_candidates,
    reduce_keywords,
    reformulations,
    rocchio_expand,
    score_crowd_candidates,
    score_project_candidates,
)
from quickar.search import Searcher  # noqa: E402
from quickar.textprep import (  # noqa: E402
    default_language_keywords,
    default_stoplist,
    split_camel,
    tokenize,
)

EVAL_DATA = Path(__file__).resolve().parent / "data" / "evaluate"

# Java that reaches every branch of the masker: both comment kinds, an
# empty and a `/*/` comment, escapes in both literal kinds, an escaped
# line feed, a `throws` clause, `\xa0` whitespace before a body, and then
# an unclosed literal or an unclosed comment at the end.
JAVA = (
    "class A {\n"
    "  // a line comment { \"\n"
    "  /* a block comment { */ /**/ /*/ still a comment } */\n"
    "  char q = '\\'', b = '\\\\'; String s = \"a \\\" { \\\n still\";\n"
    "  void f(int x) throws java.io.IOException\xa0{ g(\"}\"); }\n"
    "  int h() { return 1; }\n"
    "}\n"
)
SPLITTER_TEXTS = (JAVA, JAVA + 'String open = "never closed { ', JAVA + "/* never closed {")

# Text that reaches every branch of the tokenizer and the camel splitter:
# acronym and digit boundaries, digit runs alone and glued to letters, `_`
# and `-`, whitespace, non-ASCII letters (`Σ`, `ς`, `İ`, `é`) and a soft
# hyphen.
WORDS_TEXT = (
    "XMLHttpRequest utf8Codec toUTF8String 007x x007 42 0x7F_getValue-ABc\t"
    "naïveParser ΣigmaςFinal İstanbulIO café\u00adBar HTTP2Server\nSQLiteOpenHelper"
)


def _hex(scores) -> str:
    return " ".join(float(score).hex() for score in scores)


def _named_hex(scores) -> str:
    return " ".join(f"{name}={float(score).hex()}" for name, score in scores)


def main() -> None:
    stops, oracle = default_stoplist(), default_noun_oracle()
    db = adjacency.build(
        adjacency.filter_titles(adjacency.read_title_dump(EVAL_DATA / "dump.tsv"), "java"),
        stops, source="dump.tsv:java")
    corpus = corpus_mod.build_corpus(EVAL_DATA / "src", stops, default_language_keywords())
    with tempfile.TemporaryDirectory() as tmp:
        adjacency.save(db, Path(tmp, "adjacency.db"))
        corpus_mod.save(corpus, Path(tmp, "index.txt"))
        for name in ("adjacency.db", "index.txt"):
            print(name, hashlib.sha256(Path(tmp, name).read_bytes()).hexdigest())
        db = adjacency.load(Path(tmp, "adjacency.db"))
        corpus = corpus_mod.load(Path(tmp, "index.txt"))
    queries = parse_queries_tsv(EVAL_DATA / "queries.tsv")
    searcher = Searcher(corpus)
    for query in queries:
        terms = baseline_terms(query.text)
        print(query.query_id, "search", _hex(h.score for h in searcher.search(terms)))
        for top_n in (1, 5, 10):
            print(query.query_id, f"top{top_n}",
                  _hex(h.score for h in Searcher(corpus).search(terms, top_n=top_n)))
        print(query.query_id, "warm-top5",
              _named_hex((h.doc_id, h.score) for h in searcher.search(terms, top_n=5)))
        try:
            reduced = reduce_keywords(collect_keywords(query, stops), corpus, oracle)
            project = score_project_candidates(project_candidates(reduced, searcher), reduced, db)
            crowd = score_crowd_candidates(crowd_candidates(reduced, db), reduced, db)
            refs = reformulations(query, corpus, db, stops=stops, oracle=oracle,
                                  searcher=searcher)
            rocchio = rocchio_expand(query, corpus, stops=stops, searcher=searcher)
        except QueryEmptyError:
            print(query.query_id, "empty")
            continue
        print(query.query_id, "project", _named_hex(project.items()))
        print(query.query_id, "crowd", _named_hex(crowd.items()))
        print(query.query_id, "all", _hex(c.score for c in refs[MODE_ALL].expansion_terms))
        print(query.query_id, "rocchio", _hex(c.score for c in rocchio.expansion_terms))
    for label, report in (
            ("", run_evaluation(queries, corpus, db, stops=stops, oracle=oracle)),
            ("so,prep,red strict ", run_evaluation(queries, corpus, db, ("so", "prep", "red"),
                                                   stops=stops, oracle=oracle, strict=True))):
        for name, text in (("report.json", json.dumps(report, indent=2, sort_keys=True)),
                           ("report.txt", render_report_text(report))):
            print(f"{label}{name}", hashlib.sha256(text.encode("utf-8")).hexdigest())
    for split in (corpus_mod.split_methods, corpus_mod._mask, corpus_mod._strip_comments):
        results = repr([split(text) for text in SPLITTER_TEXTS])
        print(split.__name__, hashlib.sha256(results.encode("utf-8")).hexdigest())
    words = repr([tokenize(WORDS_TEXT), split_camel(WORDS_TEXT),
                  [split_camel(raw) for raw in tokenize(WORDS_TEXT)]])
    print("tokenize+split_camel", hashlib.sha256(words.encode("utf-8")).hexdigest())


if __name__ == "__main__":
    main()
