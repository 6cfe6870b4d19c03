"""A save that fails part-way leaves the previous artifact untouched."""

from __future__ import annotations

import pytest

from quickar import adjacency, corpus
from quickar.corpus import Corpus, Document
from quickar.errors import DataError

from conftest import make_corpus


def broken_corpus() -> Corpus:
    # A term of the second document that is not a str makes save raise
    # DataError after the header and the first document are written.
    return Corpus([Document("a#1:f", {"alpha": 1}, {"alpha": "alpha"}),
                   Document("b#1:g", {"beta": 1, 2: 1}, {"beta": "beta", 2: "2"})])


def broken_db() -> adjacency.AdjacencyDatabase:
    # A neighbor that is not a str makes save raise DataError after the
    # header and the first word's line are written.
    return adjacency.AdjacencyDatabase({"alpha": {"beta": 1}, "beta": {"alpha": 1, 2: 1}})


@pytest.mark.parametrize("module, good, bad", [
    (corpus, lambda stops, db: make_corpus([("d1", "alpha beta")], stops), broken_corpus),
    (adjacency, lambda stops, db: db, broken_db),
], ids=["corpus", "adjacency"])
def test_failed_save_keeps_previous_artifact(tmp_path, stops, trio_db, module, good, bad):
    path = tmp_path / "artifact.txt"
    module.save(good(stops, trio_db), path)
    before = path.read_bytes()
    with pytest.raises(DataError):
        module.save(bad(), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.txt"]
