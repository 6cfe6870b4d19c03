"""CLI regressions: indexes the loader must read back, warnings on stderr,
and the strip-comments extraction mode."""

from __future__ import annotations

import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from quickar import corpus, search
from quickar.cli import load_config, main
from quickar.corpus import build_corpus
from quickar.reformulate import MODES, Params, QueryRecord
from quickar.reformulate import rocchio_expand
from quickar.textprep import (default_language_keywords, default_stoplist, load_language_keywords,
                              load_stoplist, words_sha)


def write_tree(root, files: dict[str, str]):
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")
    return root


# A top-level "#gen" directory puts a document line starting with "#" right
# after the header; a directory name with a tab puts a tab in a document id.
@pytest.mark.parametrize("directory", ["#gen", "gen\tsrc"])
def test_index_then_search_with_odd_directory_names(tmp_path, capsys, directory):
    src = write_tree(tmp_path / "src", {
        f"{directory}/Gen.java": "class Gen { void parseToken() { } }",
        "Main.java": "class Main { void run() { } }",
    })
    index = tmp_path / "index.txt"
    assert main(["index", "--src", str(src), "--out", str(index)]) == 0
    assert main(["search", "--index", str(index), "--query", "parse token"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[-1].rsplit("\t", 1)[0] == f"1\t{directory}/Gen.java#1:parseToken"


def test_whole_file_fallback_is_reported(tmp_path, capsys):
    # Defect still open: the masker does not know text blocks, so the odd
    # number of `"` in this one throws it out of step, the braces no longer
    # balance, and the whole file becomes one document. `index` says so.
    src = write_tree(tmp_path / "src", {
        "Block.java": 'class Block {\n    String s = """\n        he said "hi\n        """;\n'
                      '    void greet() { }\n}\n',
        "Plain.java": "class Plain { void a() { } }",
    })
    index = tmp_path / "index.txt"
    assert main(["index", "--src", str(src), "--out", str(index)]) == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: 1 file(s) indexed as a single whole-file document\n"
    assert captured.out.startswith("corpus: 2 files, 2 documents, ")
    assert [d.doc_id for d in corpus.load(index).documents] == [
        "Block.java#0:Block", "Plain.java#1:a"]


GREETER = """class Greeter {
    // bananaword in a line comment
    /* cherryword in a block comment */
    String greet() {
        return "durianword"; // figword
    }
}
"""


@pytest.mark.parametrize("flags, lines", [
    ([], ["Greeter.java#1:greet\tbananaword:1,block:1,cherryword:1,comment:2,durianword:1,"
          "figword:1,greet:1,line:1,String:1", "#docs=1,terms=10"]),
    (["--strip-comments"], ["Greeter.java#1:greet\tdurianword:1,greet:1,String:1",
                            "#docs=1,terms=3"]),
])
def test_index_strip_comments_golden(tmp_path, flags, lines):
    # Comment words go with --strip-comments; words in string literals stay.
    src = write_tree(tmp_path / "src", {"Greeter.java": GREETER})
    index = tmp_path / "index.txt"
    assert main(["index", "--src", str(src), "--out", str(index), *flags]) == 0
    assert index.read_text(encoding="utf-8").splitlines()[3:] == lines


EVAL_DATA = Path(__file__).parent / "data" / "evaluate"


def test_evaluate_golden(tmp_path, capsys):
    # Three Java files, a title dump with one malformed line, and 17 queries:
    # 3 dropped at rank <= 10 (one exactly at 10), 1 never retrieved, 13 kept.
    db, index, out = tmp_path / "db.txt", tmp_path / "index.txt", tmp_path / "out"
    assert main(["build-db", "--dump", str(EVAL_DATA / "dump.tsv"), "--out", str(db)]) == 0
    assert main(["index", "--src", str(EVAL_DATA / "src"), "--out", str(index)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--index", str(index), "--db", str(db),
                 "--queries", str(EVAL_DATA / "queries.tsv"), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    golden_text = (EVAL_DATA / "report.txt").read_text(encoding="utf-8")
    assert captured.err == ""
    assert captured.out == (f"{golden_text}\n"
                            f"report written to {out / 'report.txt'} and {out / 'report.json'}\n")
    assert (out / "report.txt").read_bytes() == (EVAL_DATA / "report.txt").read_bytes()
    assert (out / "report.json").read_bytes() == (EVAL_DATA / "report.json").read_bytes()


@pytest.fixture(scope="module")
def eval_artifacts(tmp_path_factory):
    """The database and index that the CLI builds from the evaluate fixture."""
    root = tmp_path_factory.mktemp("artifacts")
    db, index = root / "db.txt", root / "index.txt"
    assert main(["build-db", "--dump", str(EVAL_DATA / "dump.tsv"), "--out", str(db)]) == 0
    assert main(["index", "--src", str(EVAL_DATA / "src"), "--out", str(index)]) == 0
    return db, index


ROCCHIO_TITLE = "Merge session config payment fails when refund is empty"


@pytest.fixture(scope="module")
def library_rocchio():
    """The Rocchio baseline of ROCCHIO_TITLE, computed by the library on the
    corpus built from the fixture's sources."""
    stops = default_stoplist()
    built = build_corpus(EVAL_DATA / "src", stops, default_language_keywords())
    ref = rocchio_expand(QueryRecord("cli", ROCCHIO_TITLE), built, Params(), stops=stops)
    assert ref.expansion_terms  # the baseline expands this query
    return ref


def reformulate_rocchio(eval_artifacts, capsys, *flags) -> str:
    db, index = eval_artifacts
    capsys.readouterr()
    assert main(["reformulate", "--index", str(index), "--db", str(db), "--strategy", "rocchio",
                 "--query", ROCCHIO_TITLE, *flags]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


def test_reformulate_rocchio_text(eval_artifacts, library_rocchio, capsys):
    ref = library_rocchio
    assert reformulate_rocchio(eval_artifacts, capsys).splitlines() == [
        f"reduced query : {ref.keyword_query_text()}",
        f"expanded query: {ref.query_text()}",
        "expansion terms:",
        *(f"  {c.surface:<24}{c.source:<10}{c.score:.4f}" for c in ref.expansion_terms),
    ]


def test_reformulate_rocchio_json(eval_artifacts, library_rocchio, capsys):
    ref = library_rocchio
    assert json.loads(reformulate_rocchio(eval_artifacts, capsys, "--json")) == {
        "query": ROCCHIO_TITLE,
        "strategy": "rocchio",
        "mode": "rocchio",
        "reduced_keywords": [{"term": t.normalized, "surface": t.surface}
                             for t in ref.keywords],
        "expansion_terms": [{"term": c.term, "surface": c.surface, "source": c.source,
                             "score": c.score} for c in ref.expansion_terms],
        "reduced_query": ref.keyword_query_text(),
        "rendered_query": ref.query_text(),
    }


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_reformulate_rocchio_does_not_read_the_database(eval_artifacts, tmp_path, capsys, flags):
    _, index = eval_artifacts
    expected = reformulate_rocchio(eval_artifacts, capsys, *flags)
    assert main(["reformulate", "--index", str(index), "--db", str(tmp_path / "nosuch.db"),
                 "--strategy", "rocchio", "--query", ROCCHIO_TITLE, *flags]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (expected, "")


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_reformulate_rocchio_needs_no_database(eval_artifacts, capsys, flags):
    _, index = eval_artifacts
    expected = reformulate_rocchio(eval_artifacts, capsys, *flags)
    assert main(["reformulate", "--index", str(index), "--strategy", "rocchio",
                 "--query", ROCCHIO_TITLE, *flags]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (expected, "")


# `bench/spans.py` times each searcher build by putting a subclass in place
# of `quickar.search.Searcher`. So every command builds its one searcher
# through that module attribute, and a query whose reduced keywords fill
# the budget builds none.
@pytest.mark.parametrize("command, built", [
    ("search", 1), ("reformulate", 1), ("rocchio", 1), ("evaluate", 1), ("budget-filled", 0),
])
def test_each_command_builds_one_searcher(eval_artifacts, tmp_path, monkeypatch, capsys,
                                          command, built):
    db, index = eval_artifacts
    builds = []

    class CountingSearcher(search.Searcher):
        def __init__(self, index):
            builds.append(index)
            super().__init__(index)

    monkeypatch.setattr(search, "Searcher", CountingSearcher)
    config = tmp_path / "quickar.ini"
    config.write_text("[quickar]\nquery_budget = 1\n", encoding="utf-8")
    quickar = ["reformulate", "--index", str(index), "--db", str(db), "--json",
               "--query", ROCCHIO_TITLE]
    argv = {
        "search": ["search", "--index", str(index), "--query", ROCCHIO_TITLE],
        "reformulate": quickar,
        "rocchio": ["reformulate", "--index", str(index), "--strategy", "rocchio",
                    "--query", ROCCHIO_TITLE],
        "evaluate": ["evaluate", "--index", str(index), "--db", str(db),
                     "--queries", str(EVAL_DATA / "queries.tsv"), "--out", str(tmp_path / "out")],
        "budget-filled": ["--config", str(config), *quickar],
    }[command]
    assert main(argv) == 0
    assert len(builds) == built
    if command == "budget-filled":
        assert json.loads(capsys.readouterr().out)["expansion_terms"] == []


@pytest.mark.parametrize("strategy", [[], ["--strategy", "quickar"]], ids=["default", "quickar"])
def test_reformulate_quickar_without_a_database_is_a_usage_error(eval_artifacts, capsys, strategy):
    _, index = eval_artifacts
    with pytest.raises(SystemExit) as exc:
        main(["reformulate", "--index", str(index), *strategy, "--query", ROCCHIO_TITLE])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: argument --db: required by --strategy quickar\n")


@pytest.mark.parametrize("mode", MODES)
def test_reformulate_rocchio_with_a_mode_is_a_usage_error(eval_artifacts, capsys, mode):
    db, index = eval_artifacts
    with pytest.raises(SystemExit) as exc:
        main(["reformulate", "--index", str(index), "--db", str(db), "--strategy", "rocchio",
              "--mode", mode, "--query", ROCCHIO_TITLE])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        "error: argument --mode: not allowed with argument --strategy rocchio\n")


# A config file's `mode` is the quickar strategy's default. One config
# file serves every subcommand, so Rocchio ignores it instead of refusing.
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_reformulate_rocchio_ignores_a_config_mode(eval_artifacts, tmp_path, capsys, mode, flags):
    db, index = eval_artifacts
    expected = reformulate_rocchio(eval_artifacts, capsys, *flags)
    config = tmp_path / "quickar.ini"
    config.write_text(f"[quickar]\nmode = {mode}\n", encoding="utf-8")
    assert main(["--config", str(config), "reformulate", "--index", str(index), "--db", str(db),
                 "--strategy", "rocchio", "--query", ROCCHIO_TITLE, *flags]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (expected, "")


# Characters str.splitlines() breaks on besides "\n"; a document id holding
# one of them must read back whole.
@pytest.mark.parametrize("char", ["\r", "\x0c", "\x1c", "\x85", "\u2028"],
                         ids=["cr", "ff", "fs", "nel", "ls"])
def test_index_then_search_with_line_break_in_directory(tmp_path, capsys, char):
    directory = f"gen{char}src"
    src = write_tree(tmp_path / "src", {
        f"{directory}/Gen.java": "class Gen { void parseToken() { } }",
        "Main.java": "class Main { void run() { } }",
    })
    index = tmp_path / "index.txt"
    assert main(["index", "--src", str(src), "--out", str(index)]) == 0
    capsys.readouterr()
    assert main(["search", "--index", str(index), "--query", "parse token"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith(f"1\t{directory}/Gen.java#1:parseToken\t")
    assert captured.out.count("\n") == 1


DB_WARNING = ("warning: adjacency database and index were built with different "
              "stop lists\n")
ACTIVE_WARNING = ("warning: active stop list differs from the one the adjacency "
                  "database was built with\n")


@pytest.mark.parametrize("db_stops, index_stops, warnings", [
    (False, False, ""),
    (False, True, DB_WARNING),
    (True, True, ACTIVE_WARNING),
    (True, False, DB_WARNING + ACTIVE_WARNING),
], ids=["none", "db-vs-index", "active-vs-db", "both"])
def test_stop_list_mismatch_warnings(tmp_path, capsys, db_stops, index_stops, warnings):
    # Each artifact is built with the bundled stop list or a custom one;
    # `reformulate` always runs with the bundled list.
    custom = tmp_path / "stops.txt"
    custom.write_text("the\nof\n", encoding="utf-8")
    custom_flag = ["--stoplist", str(custom)]
    db, index = tmp_path / "db.txt", tmp_path / "index.txt"
    assert main(["build-db", "--dump", str(EVAL_DATA / "dump.tsv"), "--out", str(db),
                 *(custom_flag if db_stops else [])]) == 0
    assert main(["index", "--src", str(EVAL_DATA / "src"), "--out", str(index),
                 *(custom_flag if index_stops else [])]) == 0
    capsys.readouterr()
    assert main(["reformulate", "--index", str(index), "--db", str(db),
                 "--query", "Validate order cart fails"]) == 0
    assert capsys.readouterr().err == warnings


@pytest.mark.parametrize("argv", [
    ["build-db", "--dump", "d.tsv", "--out", "db.txt"],
    ["index", "--src", "src", "--out", "index.txt"],
    ["evaluate", "--index", "i", "--db", "d", "--queries", "q", "--out", "o"],
], ids=["build-db", "index", "evaluate"])
def test_jobs_flag_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--jobs", "2"])
    assert exc.value.code == 1
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: --jobs 2\n")


# Counting each pair at most once per title gained nothing and was removed.
def test_build_db_binary_flag_is_a_usage_error(tmp_path, capsys):
    dump, db = tmp_path / "dump.tsv", tmp_path / "db.txt"
    dump.write_text("1\tparse token list\tjava\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["build-db", "--dump", str(dump), "--out", str(db), "--binary"])
    assert exc.value.code == 1
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: --binary\n")
    assert not db.exists()


# A line feed would end an artifact line early: in a document id, in the
# source directory name of an index, in the dump name of a database.
@pytest.mark.parametrize("argv, tree, name", [
    (["index", "--src", "src"], {"src/gen\nsrc/Gen.java": "class Gen { void f() { } }"},
     "gen\nsrc/Gen.java"),
    (["index", "--src", "root\nx"], {"root\nx/A.java": "class A { void run() { } }"},
     "root\nx"),
    (["build-db", "--dump", "du\nmp.tsv"], {"du\nmp.tsv": "1\tparse token\tjava\n"},
     "du\nmp.tsv"),
], ids=["document-id", "index-source", "database-source"])
def test_line_feed_in_recorded_name_keeps_previous_artifact(
        tmp_path, monkeypatch, capsys, argv, tree, name):
    monkeypatch.chdir(tmp_path)
    write_tree(tmp_path, tree)
    previous = tmp_path / "artifact.txt"
    previous.write_bytes(b"previous artifact\n")
    assert main([*argv, "--out", "artifact.txt"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"quickar {argv[0]}: error: cannot ")
    assert repr(name)[1:-1] in captured.err and "holds a line feed" in captured.err
    assert previous.read_bytes() == b"previous artifact\n"
    assert len(list(tmp_path.iterdir())) == 2  # the tree and the artifact, no temporary file


def test_index_pre_split_then_search(tmp_path, capsys):
    pre = write_tree(tmp_path / "pre", {"one.txt": "parseToken lexer",
                                        "sub/two.txt": "render page"})
    index = tmp_path / "index.txt"
    assert main(["index", "--pre-split", str(pre), "--out", str(index)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == f"corpus: 2 files, 2 documents, 6 terms -> {index}\n"
    assert main(["search", "--index", str(index), "--query", "render"]) == 0
    assert capsys.readouterr().out.startswith("1\tsub/two.txt\t")


# Only a line feed ends a line of a dump or a query file; any other
# line-break character is part of the title.
def test_build_db_keeps_a_title_holding_a_carriage_return(tmp_path, capsys):
    dump = tmp_path / "dump.tsv"
    dump.write_bytes(b"1\tparse\rtoken list\tjava\n2\tparse token\tjava\n")
    assert main(["build-db", "--dump", str(dump), "--out", str(tmp_path / "db.txt")]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("adjacency database: 2 titles, ")


# The dump's tags are stripped and lower-cased, and so is `--tag`.
@pytest.mark.parametrize("tag", [" java", "JAVA\t"], ids=["padded", "upper-case-padded"])
def test_build_db_matches_a_padded_tag(tmp_path, capsys, tag):
    dump = tmp_path / "dump.tsv"
    dump.write_text("1\tparse token list\t Java ;xml\n2\trender page\tjava\n", encoding="utf-8")
    assert main(["build-db", "--dump", str(dump), "--out", str(tmp_path / "db.txt"),
                 "--tag", tag]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("adjacency database: 2 titles, ")


# The `#source=` header records the tag as it was matched, so two spellings
# of one tag write the same database.
def test_build_db_records_the_tag_as_matched(tmp_path, capsys):
    dump = tmp_path / "t.tsv"
    dump.write_text("1\tparse token list\tjava\n", encoding="utf-8")
    for tag, out in (("java", "plain.db"), (" JAVA", "padded.db")):
        assert main(["build-db", "--dump", str(dump), "--out", str(tmp_path / out),
                     "--tag", tag]) == 0
    plain = (tmp_path / "plain.db").read_bytes()
    assert b"#source=t.tsv:java\n" in plain
    assert (tmp_path / "padded.db").read_bytes() == plain


@pytest.mark.parametrize("tag", ["", "  "], ids=["empty", "spaces"])
def test_build_db_blank_tag_is_a_usage_error(tmp_path, capsys, tag):
    dump, db = tmp_path / "dump.tsv", tmp_path / "db.txt"
    dump.write_text("1\tparse token list\tjava\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["build-db", "--dump", str(dump), "--out", str(db), "--tag", tag])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: argument --tag: expected a tag, got a blank one\n")
    assert not db.exists()


# An empty database is still written, like `index`'s whole-file documents;
# `--limit 0` asks for no title, so it warns of nothing.
def test_build_db_warns_when_no_title_is_tagged(tmp_path, capsys):
    dump, db = tmp_path / "dump.tsv", tmp_path / "db.txt"
    dump.write_text("1\tparse token list\tjava\n", encoding="utf-8")
    assert main(["build-db", "--dump", str(dump), "--out", str(db), "--tag", "Python"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: no title tagged 'Python'\n"
    assert captured.out == f"adjacency database: 0 titles, 0 words, 0 pairs -> {db}\n"
    assert db.exists()
    assert main(["build-db", "--dump", str(dump), "--out", str(db), "--limit", "0"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("adjacency database: 0 titles, ")


def test_evaluate_reads_a_query_title_holding_a_next_line(tmp_path, capsys):
    db, index, out = tmp_path / "db.txt", tmp_path / "index.txt", tmp_path / "out"
    queries = tmp_path / "queries.tsv"
    queries.write_text("q1\tValidate order\x85cart fails\tShop.java#1:validate\n", encoding="utf-8")
    assert main(["build-db", "--dump", str(EVAL_DATA / "dump.tsv"), "--out", str(db)]) == 0
    assert main(["index", "--src", str(EVAL_DATA / "src"), "--out", str(index)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--index", str(index), "--db", str(db),
                 "--queries", str(queries), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads((out / "report.json").read_text(encoding="utf-8"))["dataset"]["total"] == 1


# An input file that is missing or not UTF-8 is a data error naming the
# file (exit 2), not a traceback.
@pytest.mark.parametrize("command, flag, content, message", [
    ("build-db", "--dump", b"1\tparse \xff token\tjava\n", "dump {} is not UTF-8 text"),
    ("evaluate", "--queries", b"q1\tparse \xff token\tA.java#1:f\n",
     "queries file {} is not UTF-8 text"),
    ("search", "--index", b"#source=\xff\n", "index {} is not UTF-8 text"),
    ("search", "--stoplist", b"the\n\xff\n", "word list {} is not UTF-8 text"),
    ("index", "--keywords", None, "cannot read word list {}: "),
    ("evaluate", "--stoplist", None, "cannot read word list {}: "),
], ids=["dump", "queries", "index", "stoplist", "missing-keywords", "missing-stoplist"])
def test_unreadable_input_is_a_data_error(tmp_path, capsys, command, flag, content, message):
    db, index, bad = tmp_path / "db.txt", tmp_path / "index.txt", tmp_path / "bad"
    assert main(["build-db", "--dump", str(EVAL_DATA / "dump.tsv"), "--out", str(db)]) == 0
    assert main(["index", "--src", str(EVAL_DATA / "src"), "--out", str(index)]) == 0
    capsys.readouterr()
    if content is not None:
        bad.write_bytes(content)
    options = {
        "build-db": {"--out": tmp_path / "new.db"},
        "evaluate": {"--index": index, "--db": db, "--queries": EVAL_DATA / "queries.tsv",
                     "--out": tmp_path / "out"},
        "search": {"--index": index, "--query": "cart"},
        "index": {"--src": EVAL_DATA / "src", "--out": tmp_path / "new.txt"},
    }[command] | {flag: bad}
    assert main([command, *(str(part) for item in options.items() for part in item)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"quickar {command}: error: {message.format(bad)}")


def test_config_file_values_are_read(tmp_path):
    config = tmp_path / "quickar.ini"
    config.write_text("[quickar]\nwindow = 3\ntop_docs = 4\ntop_k = 2\nquery_budget = 7\n"
                      "mode = p\nstoplist_path = stop%%.txt\n", encoding="utf-8")
    # Each setting is keyed by the argument it defaults; the three
    # parameters come as one Params.
    assert load_config(str(config)) == {"window": 3, "mode": "p", "stoplist": "stop%.txt",
                                         "params": Params(top_docs=4, top_k=2, budget=7)}


# A config file is read by the one line rule: only a line feed ends a
# line, so a "\r" inside a value is the value's own, and a CRLF line end
# still loads, as configparser strips a value's trailing "\r".
def test_config_value_keeps_a_carriage_return(tmp_path):
    words = tmp_path / "stop\rwords.txt"
    words.write_text("the\nof\nclass\n", encoding="utf-8")
    config, out = tmp_path / "quickar.ini", tmp_path / "index.txt"
    config.write_bytes(f"[quickar]\nstoplist_path = {words}\nmode = p\n".encode())
    assert load_config(str(config)) == {"stoplist": str(words), "mode": "p"}
    assert main(["--config", str(config), "index", "--src", str(EVAL_DATA / "src"),
                 "--out", str(out)]) == 0
    assert _header(out, "stoplist_sha") == load_stoplist(str(words)).sha != default_stoplist().sha


def test_config_file_with_crlf_line_ends_is_read(tmp_path):
    config = tmp_path / "quickar.ini"
    config.write_bytes(b"[quickar]\r\nwindow = 3\r\n# a comment\r\nmode = so\r\n")
    assert load_config(str(config)) == {"window": 3, "mode": "so"}


# A config file quickar cannot read is a data error (exit 2) naming the
# file, not a traceback.
@pytest.mark.parametrize("content, message", [
    (None, "cannot read config file {}: "),
    (b"[quickar]\nmode = p\xe9\n", "config file {} is not UTF-8 text: "),
    (b"window = 3\n", "config file {}: File contains no section headers. "),
    (b"[quickar]\nwindow = two\n", "{}: window must be an integer, got 'two'"),
    (b"[quickar]\ntop_docs = 2.5\n", "{}: top_docs must be an integer, got '2.5'"),
    (b"[quickar]\ntop_k = many\n", "{}: top_k must be an integer, got 'many'"),
    (b"[quickar]\nquery_budget =\n", "{}: query_budget must be an integer, got ''"),
    (b"[quickar]\nstoplist_path = stop%.txt\n", "config file {}: '%' must be followed by"),
    (b"[quickar]\ntop_doc = 1\nquery_budgte = 2\n", "{}: unknown key 'top_doc' in [quickar]"),
    (b"[DEFAULT]\nwindw = 3\n[quickar]\nwindow = 3\n", "{}: unknown key 'windw' in [quickar]"),
    (b"[quickar]\nwindow = 1\n", "{}: window must be at least 2, got 1"),
    (b"[quickar]\ntop_docs = 0\n", "{}: top_docs must be at least 1, got 0"),
    (b"[quickar]\ntop_k = -1\n", "{}: top_k must be at least 1, got -1"),
    (b"[quickar]\nquery_budget = 0\n", "{}: query_budget must be at least 1, got 0"),
    (b"[quickar]\nmode = rocchio\n", "{}: mode must be one of all, p, so, red, got 'rocchio'"),
], ids=["missing", "not-utf8", "no-section-header", "window", "top_docs", "top_k", "query_budget",
        "bad-interpolation", "unknown-key", "unknown-default-key", "window-range",
        "top_docs-range", "top_k-range", "query_budget-range", "mode"])
def test_unreadable_config_is_a_data_error(tmp_path, capsys, content, message):
    config = tmp_path / "quickar.ini"
    if content is not None:
        config.write_bytes(content)
    argv = ["--config", str(config), "search", "--index", str(tmp_path / "index.txt"),
            "--query", "cart"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"quickar search: error: {message.format(config)}")


# An empty word-list path names no file, whether a flag or a config key
# gives it; only a path that is not given at all means the bundled list.
@pytest.mark.parametrize("argv", [
    ["index", "--src", "src", "--out", "index.txt", "--stoplist", ""],
    ["index", "--src", "src", "--out", "index.txt", "--keywords", ""],
    ["search", "--index", "index.txt", "--query", "cart", "--stoplist", ""],
], ids=["index-stoplist", "index-keywords", "search-stoplist"])
def test_empty_word_list_flag_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert capsys.readouterr().err.endswith(f"error: argument {argv[-2]}: must name a file, "
                                            "got ''\n")


# `index` reads exactly one tree: naming neither or both is a usage error,
# as is an empty tree path, which would name the working directory.
@pytest.mark.parametrize("tree, message", [
    ([], "one of the arguments --src --pre-split is required"),
    (["--src", "src", "--pre-split", "docs"],
     "argument --pre-split: not allowed with argument --src"),
    (["--src", ""], "argument --src: must name a file, got ''"),
], ids=["neither", "both", "empty-src"])
def test_index_needs_exactly_one_tree(capsys, tree, message):
    with pytest.raises(SystemExit) as exc:
        main(["index", *tree, "--out", "index.txt"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: quickar index")
    assert err.endswith(f"quickar index: error: {message}\n")


@pytest.mark.parametrize("key", ["stoplist_path", "keywords_path"])
def test_empty_word_list_key_is_a_data_error(tmp_path, capsys, key):
    config = tmp_path / "quickar.ini"
    config.write_text(f"[quickar]\n{key} =\n", encoding="utf-8")
    assert main(["--config", str(config), "search", "--index", str(tmp_path / "index.txt"),
                 "--query", "cart"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"quickar search: error: {config}: {key} must name a file, got ''\n"


def _header(path, key: str) -> str:
    """The value of an artifact's `#key=` header line."""
    prefix = f"#{key}="
    return next(line[len(prefix):] for line in path.read_text(encoding="utf-8").splitlines()
                if line.startswith(prefix))


# Each setting that a flag and a config key share: the command that reads
# it, its flag and key, the texts that the flag and the file give, how to
# read back the value the command used, and that value when the flag, the
# file or the built-in default gave it.
@pytest.mark.parametrize("setting", ["window", "stoplist", "keywords", "mode"])
@pytest.mark.parametrize("given", ["flag-and-file", "file", "neither"])
def test_flag_wins_over_config_file_over_default(eval_artifacts, tmp_path, capsys, setting,
                                                 given):
    db, index = eval_artifacts
    out = tmp_path / "out.txt"
    small, large = str(tmp_path / "small.txt"), str(tmp_path / "large.txt")
    Path(small).write_text("the\n", encoding="utf-8")
    Path(large).write_text("the\nof\nclass\n", encoding="utf-8")
    stoplist_sha = lambda path: load_stoplist(path).sha
    keywords_sha = lambda path: words_sha(load_language_keywords(path))
    build_index = ["index", "--src", str(EVAL_DATA / "src"), "--out", str(out)]
    argv, flag, key, texts, used, values = {
        "window": (["build-db", "--dump", str(EVAL_DATA / "dump.tsv"), "--out", str(out)],
                   "--window", "window", ("3", "4"), lambda: _header(out, "window"),
                   ("3", "4", "2")),
        "stoplist": (build_index, "--stoplist", "stoplist_path", (small, large),
                     lambda: _header(out, "stoplist_sha"),
                     (stoplist_sha(small), stoplist_sha(large), stoplist_sha(None))),
        "keywords": (build_index, "--keywords", "keywords_path", (small, large),
                     lambda: _header(out, "keywords_sha"),
                     (keywords_sha(small), keywords_sha(large), keywords_sha(None))),
        "mode": (["reformulate", "--index", str(index), "--db", str(db), "--json",
                  "--query", ROCCHIO_TITLE], "--mode", "mode", ("p", "so"),
                 lambda: json.loads(capsys.readouterr().out)["mode"], ("p", "so", "all")),
    }[setting]
    config = tmp_path / "quickar.ini"
    config.write_text(f"[quickar]\n{key} = {texts[1]}\n", encoding="utf-8")
    given_argv = {"flag-and-file": ["--config", str(config), *argv, flag, texts[0]],
                  "file": ["--config", str(config), *argv], "neither": argv}[given]
    capsys.readouterr()
    assert main(given_argv) == 0
    assert used() == values[("flag-and-file", "file", "neither").index(given)]
    assert len(set(values)) == 3  # the three cases are told apart


def test_config_file_params_reach_the_report(eval_artifacts, tmp_path, capsys):
    db, index = eval_artifacts
    config, out = tmp_path / "quickar.ini", tmp_path / "out"
    config.write_text("[quickar]\ntop_docs = 3\ntop_k = 2\nquery_budget = 6\n", encoding="utf-8")
    assert main(["--config", str(config), "evaluate", "--index", str(index), "--db", str(db),
                 "--queries", str(EVAL_DATA / "queries.tsv"), "--out", str(out)]) == 0
    params = json.loads((out / "report.json").read_text(encoding="utf-8"))["params"]
    assert (params["top_docs"], params["top_k"], params["budget"]) == (3, 2, 6)


# Every test above calls `main` in-process; users run a process, whose exit
# code is what `main` returns or what argparse exits with.
def test_exit_codes_of_a_real_process(tmp_path):
    config = tmp_path / "quickar.ini"
    config.write_text("[quickar]\nwindow = 1\n", encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "quickar.cli", *argv], env=env,
                              capture_output=True, text=True)

    version = run("--version")
    assert (version.returncode, version.stdout) == (0, "quickar 0.1.0\n")
    usage = run("search", "--query", "cart")
    assert usage.returncode == 1
    assert usage.stderr.endswith("error: the following arguments are required: --index\n")
    data = run("--config", str(config), "search", "--index", "index.txt", "--query", "cart")
    assert (data.returncode, data.stderr) == (
        2, f"quickar search: error: {config}: window must be at least 2, got 1\n")


@pytest.mark.parametrize("argv, message", [
    (["build-db", "--dump", "d.tsv", "--out", "db.txt", "--limit", "-1"],
     "argument --limit: must be at least 0, got -1"),
    (["search", "--index", "i.txt", "--query", "cart", "--top", "0"],
     "argument --top: must be at least 1, got 0"),
    (["search", "--index", "i.txt", "--query", "cart", "--top", "-2"],
     "argument --top: must be at least 1, got -2"),
    (["search", "--index", "i.txt", "--query", "cart", "--top", "ten"],
     "argument --top: invalid int value: 'ten'"),
    (["build-db", "--dump", "d.tsv", "--out", "db.txt", "--window", "1"],
     "argument --window: must be at least 2, got 1"),
], ids=["limit-negative", "top-zero", "top-negative", "top-not-a-number", "window-one"])
def test_out_of_range_number_flag_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


# A query id names one query, and one row of each strategy in the report.
def test_evaluate_rejects_a_repeated_query_id(tmp_path, capsys):
    db, index, queries = tmp_path / "db.txt", tmp_path / "index.txt", tmp_path / "queries.tsv"
    rows = [line for line in (EVAL_DATA / "queries.tsv").read_text(encoding="utf-8").split("\n")
            if line.startswith(("Q02\t", "Q03\t"))]
    queries.write_text(rows[0] + "\n" + rows[1].replace("Q03", "Q02", 1) + "\n",
                       encoding="utf-8")
    assert main(["build-db", "--dump", str(EVAL_DATA / "dump.tsv"), "--out", str(db)]) == 0
    assert main(["index", "--src", str(EVAL_DATA / "src"), "--out", str(index)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--index", str(index), "--db", str(db), "--queries", str(queries),
                 "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"quickar evaluate: error: {queries}:2: duplicate query id 'Q02'\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("strategies, message", [
    ("all,p,p", "a strategy is named more than once: all,p,p"),
    (",", "no strategy named in --strategies ','"),
], ids=["repeated", "empty"])
def test_evaluate_rejects_a_bad_strategy_list(tmp_path, capsys, strategies, message):
    db, index = tmp_path / "db.txt", tmp_path / "index.txt"
    assert main(["build-db", "--dump", str(EVAL_DATA / "dump.tsv"), "--out", str(db)]) == 0
    assert main(["index", "--src", str(EVAL_DATA / "src"), "--out", str(index)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--index", str(index), "--db", str(db),
                 "--queries", str(EVAL_DATA / "queries.tsv"), "--strategies", strategies,
                 "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"quickar evaluate: error: {message}\n"
    assert not (tmp_path / "out").exists()


# An index without documents is one that search, reformulate and evaluate
# cannot use, so index refuses to write it.
@pytest.mark.parametrize("argv, message", [
    (["--src", "src", "--ext", "java"], "no readable file with extension 'java' under src"),
    (["--src", "docs"], "no readable file with extension '.java' under docs"),
    (["--pre-split", "empty"], "no readable file under empty"),
], ids=["ext-without-dot", "no-java-file", "empty-pre-split"])
def test_index_without_documents_keeps_previous_index(
        tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    write_tree(tmp_path, {"src/A.java": "class A { void run() { } }",
                          "docs/notes.txt": "parse token"})
    (tmp_path / "empty").mkdir()
    previous = tmp_path / "index.txt"
    previous.write_bytes(b"previous index\n")
    assert main(["index", *argv, "--out", "index.txt"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"quickar index: error: nothing to index: {message}\n"
    assert previous.read_bytes() == b"previous index\n"


def test_smallest_limit_and_top_are_accepted(tmp_path, capsys):
    db, index = tmp_path / "db.txt", tmp_path / "index.txt"
    assert main(["build-db", "--dump", str(EVAL_DATA / "dump.tsv"), "--out", str(db),
                 "--limit", "0"]) == 0
    assert capsys.readouterr().out.startswith("adjacency database: 0 titles, ")
    assert main(["index", "--src", str(EVAL_DATA / "src"), "--out", str(index)]) == 0
    capsys.readouterr()
    assert main(["search", "--index", str(index), "--query", "cart", "--top", "1"]) == 0
    assert capsys.readouterr().out.startswith("1\t")


# A term count below 1 passes the index checksum when the document's other
# counts make up the sum; tf-idf takes its logarithm, so load refuses it.
# A cell is split at its last ":", so one without a name is refused too.
@pytest.mark.parametrize("cells, message", [
    ("bar:1,foo:0", "term 'foo' of document 'src/A.java#1:run' has count 0, below 1"),
    ("bar:2,foo:-1", "term 'foo' of document 'src/A.java#1:run' has count -1, below 1"),
    ("bar:1,1", "document 'src/A.java#1:run' has a term without a name"),
], ids=["zero", "negative", "unnamed"])
@pytest.mark.parametrize("command", ["search", "reformulate"])
def test_index_term_count_below_one_is_a_data_error(tmp_path, capsys, command, cells, message):
    db, index = tmp_path / "db.txt", tmp_path / "index.txt"
    assert main(["build-db", "--dump", str(EVAL_DATA / "dump.tsv"), "--out", str(db)]) == 0
    index.write_text("#source=src\n#stoplist_sha=\n#keywords_sha=\n"
                     f"src/A.java#1:run\t{cells}\n#docs=1,terms=1\n", encoding="utf-8")
    capsys.readouterr()
    options = ["--db", str(db)] if command == "reformulate" else []
    assert main([command, "--index", str(index), *options, "--query", "foo bar"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"quickar {command}: error: unparseable index line in {index}: {message}\n")


# A neighbor count below 1 passes the database checksum when the other
# counts make up the sum, and a cell split at its last ":" may lack a name.
# Counting each pair once per title went with the removed build-db --binary,
# so a binary flag other than 0 is either such an older database or means
# nothing. Load refuses all of these.
BINARY_REMOVED = "build-db --binary was removed; rebuild the database"


@pytest.mark.parametrize("binary, rows, message", [
    ("0", "bar\tfoo:0,qux:1\nfoo\tbar:0\nqux\tbar:1",
     "neighbor 'foo' of word 'bar' has count 0, below 1"),
    ("0", "bar\tfoo:-1,qux:2\nfoo\tbar:-1\nqux\tbar:2",
     "neighbor 'foo' of word 'bar' has count -1, below 1"),
    ("0", "bar\tqux:1,1\nqux\tbar:1", "word 'bar' has a neighbor without a name"),
    ("yes", "bar\tqux:1\nqux\tbar:1", f"binary must be 0, got 'yes': {BINARY_REMOVED}"),
    ("1", "bar\tqux:1\nqux\tbar:1", f"binary must be 0, got '1': {BINARY_REMOVED}"),
], ids=["zero", "negative", "unnamed", "binary", "binary-removed"])
def test_bad_database_count_or_binary_flag_is_a_data_error(tmp_path, capsys, binary, rows,
                                                           message):
    db, index = tmp_path / "db.txt", tmp_path / "index.txt"
    assert main(["index", "--src", str(EVAL_DATA / "src"), "--out", str(index)]) == 0
    db.write_text(f"#window=2\n#stoplist_sha=\n#source=hand\n#binary={binary}\n{rows}\n"
                  "#pairs=1\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["reformulate", "--index", str(index), "--db", str(db), "--json",
                 "--query", "foo bar"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"quickar reformulate: error: unparseable database line in {db}: {message}\n")


def test_index_of_a_file_name_that_is_not_utf8_keeps_previous_index(tmp_path, capsys):
    src = write_tree(tmp_path / "src", {"Plain.java": "class Plain { void run() { } }"})
    index = tmp_path / "index.txt"
    assert main(["index", "--src", str(src), "--out", str(index)]) == 0
    previous = index.read_bytes()
    # On Linux a file name is bytes; this one is Latin-1, not UTF-8, and
    # reaches quickar as a str holding a lone surrogate.
    name = os.fsdecode(os.fsencode(src) + b"/caf\xe9.java")
    Path(name).write_text("class Cafe { void brew() { } }", encoding="utf-8")
    capsys.readouterr()
    assert main(["index", "--src", str(src), "--out", str(index)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"quickar index: error: cannot write index {index}: "
                            f"{Path(name).name + '#1:brew'!r} is not UTF-8 text\n")
    assert index.read_bytes() == previous
    assert sorted(p.name for p in tmp_path.iterdir()) == ["index.txt", "src"]


@pytest.mark.parametrize("command", ["build-db", "index"])
def test_out_that_is_not_a_regular_file_is_a_data_error(tmp_path, capsys, command):
    out = tmp_path / "out.fifo"
    os.mkfifo(out)
    inputs = (["--dump", str(EVAL_DATA / "dump.tsv")] if command == "build-db"
              else ["--src", str(EVAL_DATA / "src")])
    assert main([command, *inputs, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"quickar {command}: error: cannot write {out}: "
                            "it exists and is not a regular file\n")
    assert stat.S_ISFIFO(os.lstat(out).st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["out.fifo"]


def test_evaluate_into_a_report_that_is_not_a_regular_file_keeps_both(tmp_path, capsys):
    db, index, out = tmp_path / "db.txt", tmp_path / "index.txt", tmp_path / "out"
    assert main(["build-db", "--dump", str(EVAL_DATA / "dump.tsv"), "--out", str(db)]) == 0
    assert main(["index", "--src", str(EVAL_DATA / "src"), "--out", str(index)]) == 0
    out.mkdir()
    (out / "report.txt").write_text("previous report\n", encoding="utf-8")
    os.mkfifo(out / "report.json")
    capsys.readouterr()
    assert main(["evaluate", "--index", str(index), "--db", str(db),
                 "--queries", str(EVAL_DATA / "queries.tsv"), "--out", str(out)]) == 2
    assert capsys.readouterr().err.endswith(
        f"cannot write {out / 'report.json'}: it exists and is not a regular file\n")
    assert (out / "report.txt").read_text(encoding="utf-8") == "previous report\n"
    assert stat.S_ISFIFO(os.lstat(out / "report.json").st_mode)
    assert sorted(p.name for p in out.iterdir()) == ["report.json", "report.txt"]


def test_symlink_out_is_replaced_and_its_target_kept(tmp_path, capsys):
    target, link = tmp_path / "target.txt", tmp_path / "index.txt"
    target.write_bytes(b"target\n")
    link.symlink_to(target)
    assert main(["index", "--src", str(EVAL_DATA / "src"), "--out", str(link)]) == 0
    assert not link.is_symlink()
    assert link.read_bytes().startswith(b"#source=src\n")
    assert target.read_bytes() == b"target\n"
