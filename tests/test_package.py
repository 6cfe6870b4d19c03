"""The package's public surface."""

from __future__ import annotations

import importlib

import quickar


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
