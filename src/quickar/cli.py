"""Command-line entry point: build-db, index, search, reformulate, evaluate.

Every subcommand is a pure function of its inputs and configuration:
re-running any of them reproduces byte-identical artifacts. Exit codes:
0 success, 1 usage error, 2 data error.

`main` resolves each setting that a `--config` key can set, once: a flag
that was given wins, then the config file, then the built-in default.
"""

from __future__ import annotations

import argparse
import configparser
import itertools
import json
import logging
import sys
from pathlib import Path

from . import __version__, adjacency, corpus as corpus_mod, evaluate as eval_mod, search
from .artifact import read_lines
from .errors import DataError, QuickarError
from .nouns import default_noun_oracle
from .reformulate import (MODES, MODE_ALL, MODE_REDUCE, MODE_ROCCHIO, Params, QueryRecord,
                          reformulate, rocchio_expand)
from .textprep import SPLIT_AND_KEEP_WHOLE, load_language_keywords, load_stoplist, preprocess

USAGE_ERROR = 1
DATA_ERROR = 2


def _at_least(minimum: int):
    """The rule of a number flag or key: an integer no smaller than `minimum`.
    A rule returns the value of its text. It raises ValueError for a text that
    is no integer, and ArgumentTypeError worded to follow the flag's or key's name."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _path(text: str) -> str:
    """A path, not empty: for a word list no path at all is the bundled
    list, and an empty source tree would be the working directory."""
    if not text:
        raise argparse.ArgumentTypeError(f"must name a file, got {text!r}")
    return text


def _mode(text: str) -> str:
    if text not in MODES:
        raise argparse.ArgumentTypeError(f"must be one of {', '.join(MODES)}, got {text!r}")
    return text


# Each config key: the setting it sets, named after the argument it
# defaults or after a field of the one `params` setting, and its rule.
_KEYS = {
    "stoplist_path": ("stoplist", _path),
    "keywords_path": ("keywords", _path),
    "window": ("window", _at_least(2)),
    "top_docs": ("top_docs", _at_least(1)),
    "top_k": ("top_k", _at_least(1)),
    "query_budget": ("budget", _at_least(1)),
    "mode": ("mode", _mode),
}
CONFIG_KEYS = tuple(_KEYS)
# The built-in defaults; a word list that is not given (None) is the bundled one.
_DEFAULTS = {"window": adjacency.DEFAULT_WINDOW, "mode": MODE_ALL, "params": Params()}


def load_config(path: str | None) -> dict:
    """The settings that the config file `path` sets, by the argument each
    one defaults, with top_docs, top_k and query_budget as one `params`;
    none when `path` is None."""
    if path is None:
        return {}
    parser = configparser.ConfigParser()
    settings: dict = {}
    try:
        parser.read_file(read_lines(path, "config file"), source=path)
        if not parser.has_section("quickar"):
            raise DataError(f"{path}: missing [quickar] section")
        section = parser["quickar"]
        unknown = [key for key in section if key not in _KEYS]  # [DEFAULT]'s too
        if unknown:
            raise DataError(f"{path}: unknown key {unknown[0]!r} in [quickar]")
        for key, (name, rule) in _KEYS.items():
            if (text := section.get(key)) is not None:
                try:
                    settings[name] = rule(text)
                except ValueError:
                    raise DataError(f"{path}: {key} must be an integer, got {text!r}") from None
                except argparse.ArgumentTypeError as exc:
                    raise DataError(f"{path}: {key} {exc}") from None
    except configparser.Error as exc:
        raise DataError(f"config file {path}: {' '.join(str(exc).split())}") from exc
    fields = {f: settings.pop(f) for f in ("top_docs", "top_k", "budget") if f in settings}
    return {**settings, "params": Params(**fields)} if fields else settings


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for data
    errors, so remap."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="quickar",
                     description="Crowd-assisted query reformulation for code search.")
    parser.add_argument("--version", action="version", version=f"quickar {__version__}")
    parser.add_argument("--config", metavar="FILE",
                        help="INI config file with a [quickar] section")
    parser.add_argument("-v", "--verbose", action="store_true", help="log warnings and info")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("build-db", help="build the word adjacency database from a title dump")
    p.set_defaults(run=_cmd_build_db)
    p.add_argument("--dump", required=True, metavar="TSV",
                   help="title dump: question_id<TAB>title<TAB>tag1;tag2;...")
    p.add_argument("--tag", default="java", help="keep only titles carrying this tag")
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--window", type=_at_least(2), help="sliding window size (default 2)")
    p.add_argument("--limit", type=_at_least(0), default=None, metavar="N",
                   help="use only the first N tag-filtered titles")

    p = sub.add_parser("index", help="index a source tree into a method-level corpus")
    p.set_defaults(run=_cmd_index)
    tree = p.add_mutually_exclusive_group(required=True)
    tree.add_argument("--src", type=_path, metavar="DIR", help="source tree to split into methods")
    tree.add_argument("--pre-split", dest="pre_split", type=_path, metavar="DIR",
                      help="directory of one-document-per-file text (bypasses the splitter)")
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--keywords", type=_path, metavar="FILE",
                   help="language keyword list to remove (default: bundled Java list)")
    p.add_argument("--ext", action="append", default=None, metavar=".java",
                   help="source extension to index (repeatable, default .java)")
    p.add_argument("--strip-comments", action="store_true")

    p = sub.add_parser("search", help="run a TF-IDF cosine search against an index")
    p.set_defaults(run=_cmd_search)
    p.add_argument("--index", required=True, metavar="FILE")
    p.add_argument("--query", required=True)
    p.add_argument("--top", type=_at_least(1), default=10, metavar="N")

    p = sub.add_parser("reformulate", help="suggest reformulations for one query")
    p.set_defaults(run=_cmd_reformulate)
    p.add_argument("--index", required=True, metavar="FILE")
    p.add_argument("--db", metavar="FILE", help="required by the quickar strategy")
    p.add_argument("--query", required=True, help="change-request title")
    p.add_argument("--mode", choices=MODES, help="expansion source of the quickar strategy")
    p.add_argument("--strategy", choices=("quickar", MODE_ROCCHIO), default="quickar",
                   help="rocchio runs the baseline, which reads neither --db nor --mode "
                        "and ignores a config-file mode")
    p.add_argument("--json", action="store_true", dest="as_json")

    p = sub.add_parser("evaluate", help="run the batch evaluation harness")
    p.set_defaults(run=_cmd_evaluate)
    p.add_argument("--index", required=True, metavar="FILE")
    p.add_argument("--db", required=True, metavar="FILE")
    p.add_argument("--queries", required=True, metavar="TSV",
                   help="query_id<TAB>title<TAB>gold_doc1;gold_doc2;...")
    p.add_argument("--strategies", default=",".join(eval_mod.STRATEGIES),
                   help="comma-separated subset of: " + ",".join(eval_mod.STRATEGIES))
    p.add_argument("--strict", action="store_true",
                   help="exclude unretrieved queries from bucket percentages")
    p.add_argument("--out", required=True, metavar="DIR")

    for p in sub.choices.values():  # every command reads a stop list
        p.add_argument("--stoplist", type=_path, metavar="FILE")
    return parser


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_build_db(args) -> int:
    stops = load_stoplist(args.stoplist)
    stats = adjacency.DumpStats()
    tagged = adjacency.filter_titles(adjacency.read_title_dump(args.dump, stats), args.tag)
    titles = list(itertools.islice(tagged, args.limit))
    # The tag as `filter_titles` matches it, so equal filters write equal files.
    source = f"{Path(args.dump).name}:{args.tag.strip().lower()}"
    db = adjacency.build(titles, stops, window=args.window, source=source)
    adjacency.save(db, args.out)
    # `--limit 0` keeps no title by request: warn only when none is tagged.
    if not titles and next(tagged, None) is None:
        print(f"warning: no title tagged {args.tag!r}", file=sys.stderr)
    if stats.malformed:
        print(f"warning: skipped {stats.malformed} malformed record(s)", file=sys.stderr)
    print(f"adjacency database: {len(titles)} titles, {db.vocab_size} words, "
          f"{db.total_pair_count} pairs -> {args.out}")
    return 0


def _cmd_index(args) -> int:
    stops = load_stoplist(args.stoplist)
    keywords = load_language_keywords(args.keywords)
    stats = corpus_mod.IngestStats()
    if args.pre_split:
        built = corpus_mod.build_corpus_presplit(args.pre_split, stops, keywords, stats=stats)
        wanted = f"no readable file under {args.pre_split}"
    else:
        extensions = tuple(args.ext) if args.ext else corpus_mod.DEFAULT_EXTENSIONS
        built = corpus_mod.build_corpus(args.src, stops, keywords, extensions=extensions,
                                        strip_comments=args.strip_comments, stats=stats)
        wanted = (f"no readable file with extension {' or '.join(map(repr, extensions))} "
                  f"under {args.src}")
    if built.n_docs == 0:
        # An index with no documents is one that search cannot use.
        raise DataError(f"nothing to index: {wanted}")
    corpus_mod.save(built, args.out)
    if stats.skipped:
        print(f"warning: skipped {stats.skipped} unreadable file(s)", file=sys.stderr)
    if stats.whole_file:
        print(f"warning: {stats.whole_file} file(s) indexed as a single whole-file document",
              file=sys.stderr)
    terms = set().union(*(doc.term_counts for doc in built.documents))
    print(f"corpus: {stats.files} files, {built.n_docs} documents, "
          f"{len(terms)} terms -> {args.out}")
    return 0


def _cmd_search(args) -> int:
    stops = load_stoplist(args.stoplist)
    index = corpus_mod.load(args.index)
    terms = preprocess(args.query, stops, SPLIT_AND_KEEP_WHOLE)
    # search.Searcher is read at the call: bench/spans.py swaps in a timed subclass.
    hits = search.Searcher(index).search(terms.normalized(), top_n=args.top)
    for hit in hits:
        print(f"{hit.rank}\t{hit.doc_id}\t{hit.score:.6f}")
    return 0


def _warn_meta_mismatch(db_meta, corpus_meta, stops) -> None:
    if db_meta.stoplist_sha and corpus_meta.stoplist_sha \
            and db_meta.stoplist_sha != corpus_meta.stoplist_sha:
        print("warning: adjacency database and index were built with different "
              "stop lists", file=sys.stderr)
    if db_meta.stoplist_sha and stops.sha != db_meta.stoplist_sha:
        print("warning: active stop list differs from the one the adjacency "
              "database was built with", file=sys.stderr)


def _cmd_reformulate(args) -> int:
    stops = load_stoplist(args.stoplist)
    index = corpus_mod.load(args.index)
    query = QueryRecord(query_id="cli", text=args.query)

    if args.strategy == MODE_ROCCHIO:
        # The baseline reads no crowd knowledge, so --db is not loaded. A
        # config-file mode is the quickar strategy's default, so it is
        # ignored here, as evaluate ignores it.
        ref = rocchio_expand(query, index, args.params, stops=stops)
    else:
        db = adjacency.load(args.db)
        _warn_meta_mismatch(db.meta, index.meta, stops)
        ref = reformulate(query, index, db, mode=args.mode, stops=stops,
                          oracle=default_noun_oracle(), params=args.params)

    if args.as_json:
        payload = {
            "query": args.query,
            "strategy": args.strategy,
            "mode": ref.mode,
            "reduced_keywords": [
                {"term": t.normalized, "surface": t.surface} for t in ref.keywords
            ],
            "expansion_terms": [
                {"term": c.term, "surface": c.surface, "source": c.source, "score": c.score}
                for c in ref.expansion_terms
            ],
            "reduced_query": ref.keyword_query_text(),
            "rendered_query": ref.query_text(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"reduced query : {ref.keyword_query_text()}")
        if ref.mode != MODE_REDUCE:
            print(f"expanded query: {ref.query_text()}")
            if ref.expansion_terms:
                print("expansion terms:")
                for c in ref.expansion_terms:
                    print(f"  {c.surface:<24}{c.source:<10}{c.score:.4f}")
    return 0


def _cmd_evaluate(args) -> int:
    stops = load_stoplist(args.stoplist)
    index = corpus_mod.load(args.index)
    db = adjacency.load(args.db)
    _warn_meta_mismatch(db.meta, index.meta, stops)
    strategies = tuple(s.strip() for s in args.strategies.split(",") if s.strip())
    if not strategies:
        raise DataError(f"no strategy named in --strategies {args.strategies!r}")
    queries = eval_mod.parse_queries_tsv(args.queries)
    report = eval_mod.run_evaluation(queries, index, db, strategies,
                                     stops=stops, oracle=default_noun_oracle(),
                                     params=args.params, strict=args.strict)
    text_path, json_path = eval_mod.emit_report(report, args.out)
    print(eval_mod.render_report_text(report))
    print(f"report written to {text_path} and {json_path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "reformulate":
        if args.strategy == MODE_ROCCHIO and args.mode is not None:
            parser.error(f"argument --mode: not allowed with argument --strategy {MODE_ROCCHIO}")
        if args.strategy == "quickar" and args.db is None:
            parser.error("argument --db: required by --strategy quickar")
    if args.command == "build-db" and not args.tag.strip():
        parser.error("argument --tag: expected a tag, got a blank one")
    logging.basicConfig(level=logging.INFO if args.verbose else logging.ERROR,
                        format="%(levelname)s %(name)s: %(message)s")
    if args.command is None:
        parser.print_help()
        return USAGE_ERROR
    try:
        for name, value in (_DEFAULTS | load_config(args.config)).items():
            if getattr(args, name, None) is None:
                setattr(args, name, value)
        return args.run(args)
    except QuickarError as exc:
        print(f"quickar {args.command}: error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
