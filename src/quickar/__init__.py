"""quickar: crowd-assisted query reformulation for concept location.

Builds a word-adjacency database from crowd-sourced question titles, indexes
a source tree at method granularity, and suggests improved search queries by
combining project vocabulary with crowd vocabulary. Ships a TF-IDF cosine
retriever, a Rocchio-style expansion baseline, and an evaluation harness.
"""

__version__ = "0.1.0"

from .adjacency import AdjacencyDatabase, TitleRecord, build as build_adjacency
from .corpus import Corpus, Document, build_corpus, split_methods
from .errors import CorruptFileError, DataError, QueryEmptyError, QuickarError
from .evaluate import mann_whitney_u, run_evaluation
from .nouns import NounOracle, default_noun_oracle
from .reformulate import (
    CandidateScore,
    Params,
    QueryRecord,
    Reformulation,
    reformulate,
    rocchio_expand,
)
from .search import SearchHit, Searcher, rank_of_first_relevant
from .textprep import StopList, TermSequence, Token, default_stoplist, preprocess

__all__ = [
    "AdjacencyDatabase",
    "CandidateScore",
    "Corpus",
    "CorruptFileError",
    "DataError",
    "Document",
    "NounOracle",
    "Params",
    "QueryEmptyError",
    "QueryRecord",
    "QuickarError",
    "Reformulation",
    "SearchHit",
    "Searcher",
    "StopList",
    "TermSequence",
    "TitleRecord",
    "Token",
    "build_adjacency",
    "build_corpus",
    "default_noun_oracle",
    "default_stoplist",
    "mann_whitney_u",
    "preprocess",
    "rank_of_first_relevant",
    "reformulate",
    "rocchio_expand",
    "run_evaluation",
    "split_methods",
]
