"""The package's public surface."""

from __future__ import annotations

import quickar


def test_every_exported_name_resolves():
    missing = [name for name in quickar.__all__ if not hasattr(quickar, name)]
    assert missing == []
    assert len(set(quickar.__all__)) == len(quickar.__all__)


def test_params_carry_the_paper_defaults():
    params = quickar.Params()
    assert (params.top_docs, params.top_k, params.budget, params.max_df_ratio) == (5, 5, 10, 0.25)
