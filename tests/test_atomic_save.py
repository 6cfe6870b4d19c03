"""A save that fails part-way leaves the previous artifact untouched."""

from __future__ import annotations

import pytest

from quickar import adjacency, corpus
from quickar.corpus import Corpus, Document

from conftest import make_corpus


def broken_corpus() -> Corpus:
    # Terms of the second document that do not sort make save raise
    # TypeError after the header and the first document are written.
    return Corpus([Document("a#1:f", {"alpha": 1}, {"alpha": "alpha"}),
                   Document("b#1:g", {"beta": 1, 2: 1}, {"beta": "beta", 2: "2"})])


def broken_db() -> adjacency.AdjacencyDatabase:
    # Neighbors that do not sort make save raise TypeError after the header
    # and the first word's line are written.
    return adjacency.AdjacencyDatabase({"alpha": {"beta": 1}, "beta": {"alpha": 1, 2: 1}})


@pytest.mark.parametrize("module, good, bad", [
    (corpus, lambda stops, db: make_corpus([("d1", "alpha beta")], stops), broken_corpus),
    (adjacency, lambda stops, db: db, broken_db),
], ids=["corpus", "adjacency"])
def test_failed_save_keeps_previous_artifact(tmp_path, stops, trio_db, module, good, bad):
    path = tmp_path / "artifact.txt"
    module.save(good(stops, trio_db), path)
    before = path.read_bytes()
    with pytest.raises(TypeError):
        module.save(bad(), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.txt"]
