"""Exception types shared across the package."""


class QuickarError(Exception):
    """Base class for all package errors."""


class DataError(QuickarError):
    """Bad input data: missing files, malformed dumps, unusable corpora."""


class CorruptFileError(DataError):
    """A file failed its encoding, structure or checksum check."""


class QueryEmptyError(QuickarError):
    """Every keyword of a query was filtered out; it cannot be reformulated."""
