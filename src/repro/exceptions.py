"""Exception hierarchy for the GraphGen reproduction.

Every error raised by the library derives from :class:`GraphGenError`, so
callers can catch a single base class at the API boundary.
"""

from __future__ import annotations


class GraphGenError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(GraphGenError):
    """A relational schema is malformed or violated (unknown table/column,
    arity mismatch, duplicate definition, broken foreign key, ...)."""


class QueryError(GraphGenError):
    """A relational query is invalid (unknown table, unbound variable,
    type mismatch in a comparison, ...)."""


class DSLSyntaxError(GraphGenError):
    """The Datalog extraction query could not be tokenized or parsed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        location = ""
        if line is not None:
            location = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + location)


class DSLValidationError(GraphGenError):
    """The extraction query parsed but is not a valid GraphGen specification
    (no Nodes statement, cyclic Edges body, unsafe head variable, ...)."""


class ExtractionError(GraphGenError):
    """Graph extraction against the database failed."""


class RepresentationError(GraphGenError):
    """An in-memory graph representation was used incorrectly
    (e.g. running a dedup-requiring operation on a duplicated graph)."""


class SnapshotFormatError(GraphGenError):
    """A persisted CSR snapshot file is unreadable (wrong magic, unsupported
    version, truncated sections, or a content-hash mismatch)."""


class DeduplicationError(GraphGenError):
    """A deduplication algorithm was given input it cannot handle
    (e.g. a multi-layer graph passed to a single-layer-only algorithm)."""


class VertexCentricError(GraphGenError):
    """The vertex-centric framework was misconfigured or a compute function
    raised during a superstep."""


class WorkerDiedError(VertexCentricError):
    """A worker process of a parallel pool exited or was killed mid-request.
    A server-side fault, not a caller mistake: the pool has closed itself,
    the next lease forks a fresh one, and the request can simply be retried
    (HTTP 503)."""


class UsageError(GraphGenError):
    """A user-supplied configuration value is invalid (bad CLI flag value,
    unknown kernel backend name, ...); reported as a message, never a
    traceback."""


class ServiceOverloadedError(GraphGenError):
    """The graph service's admission controller rejected a request because
    every execution slot is busy and the wait queue is full (HTTP 503)."""
