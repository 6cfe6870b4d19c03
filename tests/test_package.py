"""The package's public surface."""

from __future__ import annotations

import argparse
import copy
import importlib
import json
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import quickar
from quickar.adjacency import DbMeta, TitleRecord
from quickar.cli import CONFIG_KEYS, build_parser
from quickar.corpus import CorpusMeta, Document, MethodUnit
from quickar.reformulate import CandidateScore, Params, QueryRecord, Reformulation
from quickar.search import SearchHit
from quickar.textprep import CAMEL_PART, TermSequence, Token

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
PACKAGE = ROOT / "src" / "quickar"


def test_every_exported_name_resolves():
    missing = [name for name in quickar.__all__ if not hasattr(quickar, name)]
    assert missing == []
    assert len(set(quickar.__all__)) == len(quickar.__all__)


def test_search_is_the_submodule():
    # No function of the same name shadows the module on the package.
    assert quickar.search is importlib.import_module("quickar.search")


def test_params_carry_the_paper_defaults():
    params = quickar.Params()
    assert (params.top_docs, params.top_k, params.budget, params.max_df_ratio) == (5, 5, 10, 0.25)


def _parser_flags(parser: argparse.ArgumentParser) -> set[str]:
    """Every long option of `parser` and of its subcommands."""
    flags = set()
    for action in parser._actions:
        flags.update(opt for opt in action.option_strings if opt.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _parser_flags(sub)
    return flags


def test_readme_and_cli_name_the_same_flags():
    readme = README.read_text(encoding="utf-8")
    # pytest's own flag appears in the test command line.
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme)) - {
        "--continue-on-collection-errors"}
    defined = _parser_flags(build_parser())
    assert documented - defined == set()
    # --help and --version are argparse's own; --verbose is documented as -v.
    assert defined - documented - {"--help", "--version", "--verbose"} == set()


def test_readme_documents_the_config_keys():
    # The configuration table's rows, in order, are the keys load_config accepts.
    rows = re.findall(r"^\| `(\w+)` \|", README.read_text(encoding="utf-8"), re.MULTILINE)
    assert tuple(rows) == CONFIG_KEYS


def test_no_module_of_the_package_imports_dataclasses():
    importing = [path.name for path in sorted(PACKAGE.glob("*.py"))
                 if re.search(r"^\s*(?:import|from)\s+dataclasses\b",
                              path.read_text(encoding="utf-8"), re.MULTILINE)]
    assert importing == []


def test_importing_the_cli_loads_no_dataclasses():
    # A fresh process: this one may have loaded dataclasses for pytest.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = "import sys, quickar.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60).stdout
    assert out == "False\n"


# Each immutable record, built twice from the same fields, and one field.
FROZEN_RECORDS = {
    "TitleRecord": (lambda: TitleRecord(1, "Memory leak", ("java",)), "title"),
    "DbMeta": (lambda: DbMeta(window=3, stoplist_sha="ab", source="t.tsv:java"), "window"),
    "MethodUnit": (lambda: MethodUnit("run", "void run() { }"), "text"),
    "CorpusMeta": (lambda: CorpusMeta("src", "ab", "cd"), "source"),
    "Params": (lambda: Params(top_k=3), "top_k"),
    "QueryRecord": (lambda: QueryRecord("q1", "Parse fails", frozenset({"d1"})), "gold_docs"),
    "CandidateScore": (lambda: CandidateScore("leak", "Leak", "crowd", 0.5), "score"),
    "SearchHit": (lambda: SearchHit("A.java#1:run", 0.25, 1), "rank"),
    "Token": (lambda: Token("Value", "value", CAMEL_PART), "surface"),
}


@pytest.mark.parametrize("make,field", FROZEN_RECORDS.values(), ids=FROZEN_RECORDS)
def test_frozen_records_refuse_assignment_and_are_equal_and_hashed_by_value(make, field):
    record, twin = make(), make()
    assert record is not twin and record == twin and not record != twin
    assert hash(record) == hash(twin) and len({record, twin}) == 1
    with pytest.raises(AttributeError):
        setattr(record, field, "other")
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert record == twin
    assert copy.copy(record) == copy.deepcopy(record) == pickle.loads(pickle.dumps(record)) == twin


def test_a_token_is_not_a_tuple():
    token = Token("Value", "value", CAMEL_PART)
    assert token != ("Value", "value", CAMEL_PART) and ("Value", "value", CAMEL_PART) != token
    assert not isinstance(token, tuple) and not hasattr(token, "__dict__")
    assert repr(token) == "Token('Value', 'value', 'camel_part')"


def test_mutable_records_are_equal_by_value_and_unhashable():
    def reformulation(score):
        keywords = TermSequence([Token.from_surface("leak")])
        return Reformulation("q1", "all", keywords, [CandidateScore("gc", "gc", "crowd", score)],
                             TermSequence(keywords))

    assert Document("d1", {"x": 1}, {"x": "X"}) == Document("d1", {"x": 1}, {"x": "X"})
    assert Document("d1", {"x": 1}, {"x": "X"}) != Document("d1", {"x": 1}, {"x": "x"})
    assert Document("empty") == Document("empty", {}, {})
    assert reformulation(1.0) == reformulation(1.0) and reformulation(1.0) != reformulation(0.5)
    for record in (Document("d1"), reformulation(1.0)):
        with pytest.raises(TypeError):
            hash(record)


def test_params_fields_are_the_report_params_but_the_threshold():
    golden = json.loads((ROOT / "tests" / "data" / "evaluate" / "report.json")
                        .read_text(encoding="utf-8"))
    assert {**Params()._asdict(), "threshold": 10} == golden["params"]
