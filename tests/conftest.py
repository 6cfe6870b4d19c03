"""Shared fixtures: stop list, the three duplicate-question titles, corpus
builders, and a deterministic synthetic title generator."""

from __future__ import annotations

import random

import pytest

from quickar.adjacency import TitleRecord, build
from quickar.corpus import Corpus, Document
from quickar.nouns import default_noun_oracle
from quickar.textprep import SPLIT_AND_KEEP_WHOLE, default_stoplist, preprocess


@pytest.fixture(scope="session")
def stops():
    return default_stoplist()


@pytest.fixture(scope="session")
def oracle():
    return default_noun_oracle()


# Three crowd questions that describe the same memory-leak issue with
# different verbs; the canonical desk-scale adjacency fixture.
DUPLICATE_TITLES = [
    TitleRecord(6470651, "Creating a memory leak with Java", ("java",)),
    TitleRecord(4948529, "Easiest way to cause memory leak in Java?", ("java",)),
    TitleRecord(1071631, "Tracking down a memory leak/garbage-collection issue in Java", ("java",)),
]


@pytest.fixture(scope="session")
def trio_titles():
    return list(DUPLICATE_TITLES)


@pytest.fixture()
def trio_db(stops):
    return build(DUPLICATE_TITLES, stops, source="trio")


def make_document(doc_id: str, text: str, stops) -> Document:
    terms = preprocess(text, stops, SPLIT_AND_KEEP_WHOLE)
    return Document.from_terms(doc_id, terms)


def make_corpus(items: list[tuple[str, str]], stops) -> Corpus:
    return Corpus([make_document(doc_id, text, stops) for doc_id, text in items])


# Word pool for synthetic titles: plain nominal-looking words that are not
# stop words, so preprocessing passes them through untouched.
WORD_POOL = [
    "alpha", "bravo", "canvas", "delta", "ember", "fjord", "gadget", "harbor",
    "ingot", "jigsaw", "kelp", "lumen", "marble", "nectar", "onyx", "pylon",
    "quartz", "rivet", "sonar", "tundra", "umbra", "vertex", "wharf", "xenon",
    "yarrow", "zephyr",
]


def synthetic_titles(count: int, seed: int, min_len: int = 1, max_len: int = 8) -> list[TitleRecord]:
    rng = random.Random(seed)
    titles = []
    for i in range(count):
        length = rng.randint(min_len, max_len)
        words = [rng.choice(WORD_POOL) for _ in range(length)]
        titles.append(TitleRecord(i + 1, " ".join(words), ("java",)))
    return titles
