"""The package's public surface."""

from __future__ import annotations

import argparse
import importlib
import re
from pathlib import Path

import quickar
from quickar.cli import CONFIG_KEYS, build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


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
