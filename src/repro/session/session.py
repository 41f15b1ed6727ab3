"""The GraphSession façade: extract once, snapshot once, analyze many times.

The paper's workflow is "declare a hidden graph, extract it, then run *many*
analyses on it", and real workloads batch heterogeneous queries against one
graph.  :class:`GraphSession` is the object that owns every resource that
workflow wants amortised:

* the :class:`~repro.core.graphgen.GraphGen` extractor (one per database),
* an optional :class:`~repro.graph.snapshot_store.SnapshotStore` directory
  of persisted, mmap-able CSR snapshot files,
* one resolved kernel backend (validated eagerly, so a bad name fails at
  session construction, not at the first analysis), and
* a worker-process budget (``parallelism``) for the two plan nodes that run
  sliced over a pool.

``session.graph(query)`` extracts (memoised per query/representation) and
returns a :class:`GraphHandle`; ``handle.analyze()`` starts an
:class:`~repro.session.AnalysisPlan` whose ``run()`` executes every chained
algorithm over **one** shared snapshot.  A typical session::

    session = GraphSession(db, snapshot_cache="./snapshots", parallelism=4)
    handle = session.graph(COAUTHOR_QUERY, representation="cdup")
    report = handle.analyze().pagerank().components().triangles().run()
    print(report["pagerank"].values)
    print(report.summary())

Handles are *version-tracked*: the snapshot is built lazily on first use,
reused (``"cache-hit"`` provenance) while the graph is structurally
unchanged, and rebuilt automatically after a mutation such as ``add_edge``
(the representations' version counters invalidate the cached snapshot, and
the store detects the stale file by content hash and rewrites it).

**Trusted reopen.**  A session may be given a CSV *directory* instead of a
loaded database.  ``session.graph()`` then asks the snapshot store first,
presenting a fingerprint of everything the snapshot would be produced from
(:meth:`GraphSession._source_key`).  On a match the handle's ``snapshot()``
*is* the store's verified mmap load — no CSV parsed, no sqlite mirror, no
extraction — and ``handle.graph`` / ``handle.extraction`` /
``session.database`` run the ordinary load + extraction on first touch.  Any
mismatch is an ordinary miss; journaled graphs never take this path.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from repro.core.config import ExtractionOptions
from repro.dsl.parser import parse
from repro.exceptions import UsageError
from repro.graph.backend import get_backend
from repro.graph.snapshot_store import FORMAT_VERSION, SnapshotStore, ensure_saved, hashed_codec
from repro.incremental import MaintainedResults
from repro.relational.csv_io import database_name, fingerprint_database
from repro.session.plan import AnalysisPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.graphgen import ExtractionResult, GraphGen
    from repro.dsl.ast import GraphSpec
    from repro.giraph.runner import GiraphRunResult
    from repro.graph.api import Graph
    from repro.graph.backend.python_backend import KernelBackend
    from repro.graph.kernel import CSRGraph
    from repro.relational.database import Database


def _canonical(query: "str | GraphSpec") -> str:
    """The query as its parsed form: layout and comments do not count."""
    return repr(parse(query) if isinstance(query, str) else query)


@dataclass
class RefreshReport:
    """Outcome of :meth:`GraphHandle.refresh` — what applying the journal
    cost, and which previous results were maintained vs. dropped."""

    #: pending edge-delta records the refresh merged over the base snapshot
    delta_edges: int
    #: provenance of the refreshed snapshot (``"base+delta"`` when the
    #: journal was applied; ``"heap"``/``"cache-hit"`` etc. otherwise)
    snapshot_source: str | None
    #: algorithm names whose remembered vector the dynamic maintainers
    #: carried forward — each name of a shared vector (``triangles`` and
    #: ``clustering``: one ``triangle-counts`` run), in entry order
    maintained: list[str] = field(default_factory=list)
    #: algorithm names whose vector could not be maintained (recomputed
    #: cold on their next request)
    dropped: list[str] = field(default_factory=list)
    #: wall-clock seconds for the whole refresh
    seconds: float = 0.0


class TakenSnapshot(NamedTuple):
    """One :meth:`GraphHandle.take_snapshot` call: the snapshot, how it got
    it (a :attr:`~GraphHandle.snapshot_source`), the pending edge-delta
    records behind it, the builds/loads it performed (0 = cache hit) and the
    provenance notes it drained."""

    csr: "CSRGraph"
    source: str
    delta_edges: int
    builds: int
    notes: tuple[str, ...]


class GraphHandle:
    """A representation-bound graph plus its lazily managed CSR snapshot.

    Obtained from :meth:`GraphSession.graph` (or :meth:`GraphSession.wrap`
    for an already-built :class:`~repro.graph.api.Graph`).  The handle does
    not copy anything: ``handle.graph`` is the live representation, and
    mutating it through the Graph API invalidates the snapshot as usual.

    A handle produced by a *trusted reopen* (module docstring) starts out
    holding only the store's verified snapshot; ``graph`` / ``extraction``
    run the deferred extraction on first access.
    """

    def __init__(
        self,
        session: "GraphSession",
        graph: "Graph | None",
        representation: str,
        store_key: str,
        extraction: ExtractionResult | None = None,
        *,
        source: str | None = None,
        reopened: "tuple[CSRGraph, Callable[[], tuple[ExtractionResult, str | None]]] | None" = None,
    ) -> None:
        self.session = session
        self._graph = graph
        #: trusted reopen only, until materialised: the store's verified
        #: snapshot, and the deferred extraction that yields the logical
        #: graph together with the source fingerprint it then has
        self._reopened = reopened
        #: fingerprint of what ``graph`` was extracted from, while the graph
        #: is still exactly that extraction (see :meth:`_pin_source`)
        self._source = source
        self._source_token = graph._snapshot_token() if graph is not None else None
        #: resolved representation name ("cdup", "exp", ...)
        self.representation = representation
        #: key under which this handle's snapshot persists in the session
        #: store; None = derive lazily from the first snapshot's content hash
        #: (wrapped graphs, so equal graphs share one stable store file)
        self._store_key = store_key
        self._extraction = extraction
        self._builds = 0
        self._snapshot_source: str | None = None
        self._delta_edges = 0
        # serialises snapshot builds/persists across service request threads:
        # concurrent analyses of one dataset share one build instead of
        # racing to produce two (RLock: persist() calls snapshot())
        self._lock = threading.RLock()
        #: previous results the dynamic maintainers carry over deltas
        #: (journaled graphs only), under this handle's lock
        self.maintained = MaintainedResults(self, self._lock)

    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> "Graph":
        """The live in-memory representation (Graph API)."""
        if self._graph is None:
            with self._lock:
                if self._graph is None:
                    # trusted reopen: something needs the logical graph after
                    # all — run the ordinary load + extraction now.  The next
                    # snapshot() goes through store.fetch like any live graph.
                    self._extraction, self._source = self._reopened[1]()
                    graph = self._extraction.graph
                    self._source_token = graph._snapshot_token()
                    self._graph = graph
                    self._reopened = None
        return self._graph

    @property
    def extraction(self) -> ExtractionResult | None:
        """Full extraction result (plan, condensed graph, report) when the
        handle came out of an extraction; None for wrapped graphs."""
        if self._extraction is None and self._reopened is not None:
            self.graph  # materialise
        return self._extraction

    @property
    def journal(self):
        """The graph's delta journal (journaled graphs only), else None —
        never materialises a reopened handle's graph to find out."""
        return getattr(self._graph, "journal", None)

    @property
    def store_key(self) -> str:
        """The handle's snapshot-store key.

        Extracted handles get a query-derived key up front; wrapped graphs
        derive theirs lazily as ``wrapped_<representation>_<content hash>``
        of the first snapshot — *stable across processes and sessions*, so a
        second session wrapping an equal graph gets an mmap cache hit instead
        of leaking a fresh ``.csr`` file per run (the key stays fixed after a
        mutation; the store then detects the stale file by hash and rewrites
        it, exactly like extracted handles).
        """
        with self._lock:
            if self._store_key is None:
                digest = self.graph.snapshot().content_hash.hex()[:16]
                self._store_key = f"wrapped_{self.representation}_{digest}"
            return self._store_key

    @property
    def builds(self) -> int:
        """How many snapshot builds/loads this handle has performed (an
        in-process cache hit does not count)."""
        return self._builds

    @property
    def snapshot_source(self) -> str | None:
        """Provenance of the most recent :meth:`snapshot` call — ``"heap"``,
        ``"mmap"`` (a store file matched the build, or was reopened on its
        source fingerprint without one) or ``"cache-hit"`` (None before the
        first call)."""
        return self._snapshot_source

    @property
    def delta_edges(self) -> int:
        """Pending edge-delta records behind the most recent :meth:`snapshot`
        (0 for non-journaled graphs) — surfaced as ``Provenance.delta_edges``."""
        return self._delta_edges

    def snapshot(self) -> "CSRGraph":
        """The graph's current CSR snapshot — built lazily, store-backed,
        version-tracked.

        While the graph is structurally unchanged the cached snapshot is
        returned (``"cache-hit"``).  Otherwise the session's snapshot store,
        if configured, is consulted: a file whose content hash matches the
        rebuilt snapshot is loaded zero-copy (``"mmap"``), anything else is
        (re)written from the fresh heap build (``"heap"``).
        """
        with self._lock:
            if self._graph is None:
                # trusted reopen: the store's verified mmap load is the
                # snapshot for as long as nobody asks for the logical graph
                self._snapshot_source = "mmap"
                self._builds = 1
                return self._reopened[0]
            graph = self._graph
            cached = graph.cached_snapshot()
            if cached is not None:
                self._snapshot_source = "cache-hit"
                self._delta_edges = getattr(graph, "delta_edges", 0)
                return cached
            store = self.session.store
            if store is not None:
                # the per-call outcome, not a read-back of shared store state:
                # another thread's fetch on the same store could land between
                # the two (see SnapshotStore.fetch)
                # a wrapped graph's key hashes the codec: a save writes that pickle
                codec = hashed_codec(graph.snapshot()) if self._store_key is None else None
                csr, outcome = store.fetch(graph, self.store_key, codec)
                if outcome == "base+delta":
                    # journaled graph: the base file stayed put, pending
                    # deltas went to the .csrd sidecar, and the served
                    # snapshot is the overlay merge
                    self._snapshot_source = "base+delta"
                else:
                    self._snapshot_source = "mmap" if outcome == "hit" else "heap"
                self._pin_source(store, csr)
            else:
                csr = graph.snapshot()
                journal = self.journal
                self._snapshot_source = (
                    "base+delta" if journal is not None and journal.records else "heap"
                )
            self._delta_edges = getattr(graph, "delta_edges", 0)
            self._builds += 1
            return csr

    def take_snapshot(self) -> TakenSnapshot:
        """:meth:`snapshot` plus this call's own provenance and the queued
        notes, read under the handle's lock — the handle properties are
        shared state another thread's :meth:`snapshot` may overwrite before
        a later read-back (a plan reports what *its* snapshot call did)."""
        with self._lock:
            before = self._builds
            csr = self.snapshot()
            builds = self._builds - before
            return TakenSnapshot(
                csr, self._snapshot_source, self._delta_edges, builds, self.consume_snapshot_notes()
            )

    def _pin_source(self, store: SnapshotStore, csr: "CSRGraph") -> None:
        """``store`` now holds ``csr`` under this handle's key: record the
        source it was extracted from, so the next session over the same
        source reopens the file without extracting.  Not for a graph mutated
        since — it is no longer what the source produces (and the ``.csr``
        written for it no longer matches the hash an older sidecar pins)."""
        if self._source is None:
            return
        if self._graph._snapshot_token() == self._source_token:
            store.record_source(self.store_key, self._source, csr, self.representation)
        else:
            self._source = None

    def persist(self) -> str | None:
        """Make sure the session store holds this handle's current snapshot;
        returns the file path (None when the session has no store).

        Pool workers mmap this file instead of rebuilding or unpickling the
        graph.  A journaled graph with pending records is saved beside its
        ``.csr``, which stays the base the journal's ``.csrd`` extends.
        """
        store = self.session.store
        if store is None:
            return None
        with self._lock:
            snap = self.snapshot()
            path = store.path_for(self.store_key)
            journal = self.journal
            if journal is not None and journal.records:
                path = store.merged_path_for(self.store_key)
            ensure_saved(snap, path)
            self._pin_source(store, snap)
            return str(path)

    # ------------------------------------------------------------------ #
    # incremental maintenance (journaled graphs)
    # ------------------------------------------------------------------ #
    def consume_snapshot_notes(self) -> tuple[str, ...]:
        """Drain any provenance notes the journaled graph queued for the
        next snapshot consumer (corrupt-sidecar rebuilds, out-of-band
        mutation detection); empty for non-journaled graphs."""
        consume = getattr(self._graph, "consume_notes", None)
        return consume() if consume is not None else ()

    def refresh(self) -> RefreshReport:
        """Apply the pending journal: rebuild the snapshot as base ⊕ deltas
        (one array merge of an overlay that nets only the records appended
        since the last snapshot) and carry every remembered result forward
        through its dynamic maintainer (:meth:`MaintainedResults.advance_all`:
        one copy of each dense vector plus work in the delta's neighbourhood,
        nothing shaped until a plan asks).  Entries no maintainer can repair
        (e.g. a component split) are dropped and recompute cold on their next
        request.
        """
        started = time.perf_counter()
        with self._lock:
            csr = self.snapshot()
            maintained, dropped = self.maintained.advance_all(csr, self.session.backend)
            return RefreshReport(
                delta_edges=self._delta_edges,
                snapshot_source=self._snapshot_source,
                maintained=maintained,
                dropped=dropped,
                seconds=time.perf_counter() - started,
            )

    # ------------------------------------------------------------------ #
    def analyze(self) -> AnalysisPlan:
        """Start a chainable multi-algorithm :class:`AnalysisPlan`."""
        return AnalysisPlan(self)

    def giraph(self, algorithm: str, **kwargs: Any) -> "GiraphRunResult":
        """Run one program on the simulated Giraph engine over this handle's
        graph, using the session's worker budget (an escape hatch to the
        Pregel-style layer for workloads the plan registry does not cover)."""
        from repro.giraph.runner import run_giraph

        kwargs.setdefault("parallelism", self.session.parallelism)
        return run_giraph(self.graph, algorithm, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<GraphHandle {self.representation} key={self._store_key!r} "
            f"builds={self._builds}>"
        )


class GraphSession:
    """Session façade composing extractor, snapshot store, kernel backend
    and parallelism into one analysis context (see the module docstring)."""

    def __init__(
        self,
        database: "Database | str | os.PathLike",
        *,
        snapshot_cache: str | None = None,
        backend: str | None = None,
        parallelism: int = 1,
        warm_pool: bool = False,
        options: ExtractionOptions | None = None,
        **option_overrides: Any,
    ) -> None:
        if parallelism < 1:
            raise UsageError(f"parallelism must be at least 1 (got {parallelism})")
        if options is not None and option_overrides:
            raise ValueError("pass either an ExtractionOptions object or keyword overrides, not both")
        self._options = options or ExtractionOptions(**option_overrides)
        # a CSV directory instead of a loaded database: parsing is deferred
        # until something needs the tables (a trusted reopen never does)
        self._graphgen: GraphGen | None = None
        self._source_dir: str | None = None
        self._load_lock = threading.Lock()
        if isinstance(database, (str, os.PathLike)):
            self._source_dir = os.fspath(database)
            self._database_name = database_name(database)
        else:
            from repro.core.graphgen import GraphGen

            self._graphgen = GraphGen(database, options=self._options)
            self._database_name = database.name
        self._store = SnapshotStore(snapshot_cache) if snapshot_cache is not None else None
        # resolve eagerly: an unknown or unavailable backend name fails here,
        # with a UsageError message, not at the first kernel call
        self._backend = get_backend(backend)
        self._parallelism = parallelism
        self._handles: dict[Any, GraphHandle] = {}
        self._wrapped: dict[tuple[int, str | None], GraphHandle] = {}
        # guards the handle memos against concurrent service request threads
        self._memo_lock = threading.Lock()
        if warm_pool:
            from repro.session.scheduler import SharedPoolManager

            self._pool_manager: "SharedPoolManager | None" = SharedPoolManager()
        else:
            self._pool_manager = None

    # ------------------------------------------------------------------ #
    @property
    def database(self) -> "Database":
        return self.graphgen.database

    @property
    def database_name(self) -> str:
        """``database.name`` — without loading a CSV-directory session's tables."""
        return self._database_name

    @property
    def graphgen(self) -> GraphGen:
        """The underlying extractor (for plan/explain and advanced options).
        A session opened on a CSV directory loads the tables here, once."""
        if self._graphgen is None:
            # a warm reopen never gets here, so it never imports extraction
            from repro.core.graphgen import GraphGen
            from repro.relational.csv_io import read_database

            with self._load_lock:
                if self._graphgen is None:
                    self._graphgen = GraphGen(
                        read_database(self._source_dir), options=self._options
                    )
        return self._graphgen

    @property
    def store(self) -> SnapshotStore | None:
        """The session's snapshot store, or None when not configured."""
        return self._store

    @property
    def backend(self) -> "KernelBackend":
        """The resolved kernel backend every plan in this session executes on."""
        return self._backend

    @property
    def parallelism(self) -> int:
        return self._parallelism

    @property
    def pool_manager(self):
        """The session's :class:`~repro.session.scheduler.SharedPoolManager`
        when constructed with ``warm_pool=True``, else None."""
        return self._pool_manager

    # ------------------------------------------------------------------ #
    def acquire_pool(
        self,
        num_items: int,
        snapshot_path: str,
        content_hash: bytes,
        backend_name: str,
    ):
        """A started :class:`~repro.vertexcentric.parallel.ParallelSuperstepExecutor`
        of :class:`~repro.session.scheduler.PlanWorker` processes over
        ``snapshot_path``, plus a ``release()`` callable the plan must invoke
        when done.

        Default sessions fork a fresh pool per plan and ``release`` closes
        it.  ``warm_pool=True`` sessions (the graph service) keep one pool
        alive across plans: ``release`` merely returns the lease, and the
        same worker processes (and their mmap of the snapshot file) serve
        the next plan, re-forking only when the snapshot's content hash,
        path, or the worker count changes — or a worker died.
        """
        from repro.session.scheduler import PlanWorker

        if self._pool_manager is not None:
            return self._pool_manager.acquire(
                self._parallelism, num_items, snapshot_path, content_hash, backend_name
            )
        from repro.vertexcentric.parallel import ParallelSuperstepExecutor

        pool = ParallelSuperstepExecutor(
            self._parallelism, num_items, PlanWorker.factory(snapshot_path, backend_name)
        ).start()
        return pool, pool.close

    def close(self) -> None:
        """Release session-owned process resources (the warm worker pool, if
        any).  Idempotent; a closed session can still run plans."""
        if self._pool_manager is not None:
            self._pool_manager.close()

    def __enter__(self) -> "GraphSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def explain(self, query: "str | GraphSpec") -> str:
        """Human-readable extraction plan plus generated SQL (no execution)."""
        return self.graphgen.explain(query)

    def graph(
        self,
        query: "str | GraphSpec",
        representation: str = "cdup",
        *,
        key: str | None = None,
        **extract_kwargs: Any,
    ) -> GraphHandle:
        """Extract the hidden graph declared by ``query`` and return its
        handle.

        Extraction is memoised per ``(query, representation, options)``:
        asking the session for the same graph twice returns the same handle,
        so the relational joins run once per session — also after
        ``db.insert``: the handle keeps the graph it was given.  A *new*
        session's C-DUP request after rows were appended is what extends:
        the database's extraction memo wires only the appended rows into a
        copy of the last graph and splices its snapshot
        (:meth:`repro.core.graphgen.GraphGen.extract_with_report` has the
        conditions; a cold fallback says why in the report).

        ``key`` overrides the
        snapshot-store cache key (callers who know more about the database's
        identity than ``database.name`` — e.g. the CLI with its dataset
        arguments — pass a fully qualified one; collisions are never unsafe,
        only wasteful, because the store rewrites on content-hash mismatch).
        """
        memo_key = (
            query if isinstance(query, str) else repr(query),
            representation,
            key,
            tuple(sorted(extract_kwargs.items())),
        )
        with self._memo_lock:
            handle = self._handles.get(memo_key)
            if handle is None:
                handle = self._open(query, representation, key, extract_kwargs)
                self._handles[memo_key] = handle
        return handle

    def _open(
        self, query: "str | GraphSpec", representation: str, key: str | None, extract_kwargs: dict
    ) -> GraphHandle:
        """A new handle for ``graph()``: reopened from the store when it
        holds a snapshot recorded under this request's source fingerprint,
        else extracted now."""
        store_key = key or self._store_key(query, representation, extract_kwargs)

        def extract() -> "tuple[ExtractionResult, str | None]":
            result = self.graphgen.extract_with_report(
                query, representation=representation, **extract_kwargs
            )
            return result, self._source_key(query, representation, extract_kwargs)

        source = self._source_key(query, representation, extract_kwargs)
        found = self._store.lookup(store_key, source) if source is not None else None
        if found is not None:
            csr, resolved = found
            return GraphHandle(self, None, resolved, store_key, reopened=(csr, extract))
        result, source = extract()
        return GraphHandle(
            self, result.graph, result.representation, store_key, result, source=source
        )

    def wrap(self, graph: "Graph", *, key: str | None = None) -> GraphHandle:
        """Adopt an already-built :class:`~repro.graph.api.Graph` into this
        session (it gains a store-backed snapshot and ``analyze()``).

        Wrapped handles are memoised by graph identity and ``key``: wrapping
        the same live graph object twice returns the *same* handle, so
        build-count provenance and per-dataset sharing (one snapshot, one
        warm pool in the service) survive repeated ``wrap()`` calls instead
        of resetting on every fresh handle.  The memo holds the handle (and
        through it the graph) alive, so an ``id()`` is never recycled while
        its entry exists.

        Without an explicit ``key`` the store key is derived lazily from the
        representation and the first snapshot's content hash (see
        :attr:`GraphHandle.store_key`), so wrapping an equal graph in any
        session or process hits the same cached ``.csr`` file.
        """
        memo_key = (id(graph), key)
        with self._memo_lock:
            handle = self._wrapped.get(memo_key)
            if handle is None or handle.graph is not graph:
                handle = GraphHandle(self, graph, graph.representation_name, key)
                self._wrapped[memo_key] = handle
        return handle

    # ------------------------------------------------------------------ #
    def _store_key(
        self, query: "str | GraphSpec", representation: str, extract_kwargs: dict
    ) -> str:
        """Default snapshot-store key: database name + requested
        representation + a digest of the parsed query and extraction options.
        Everything that changes the snapshot's logical content or vertex
        order is included; residual collisions (e.g. two databases sharing a
        name) are caught by the store's content-hash staleness check and cost
        only a rewrite."""
        text = _canonical(query)
        if extract_kwargs:
            text += "\0" + repr(sorted(extract_kwargs.items()))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
        return f"{self._database_name}_{representation}_{digest}"

    def _source_key(
        self, query: "str | GraphSpec", representation: str, extract_kwargs: dict
    ) -> str | None:
        """Fingerprint of everything a ``graph()`` request's snapshot is
        produced from: the source files' bytes, the *parsed* query (layout
        and comments do not count), requested representation, extraction
        options and keywords, package and snapshot-format version.

        ``None`` when there is no store to record it in, or the tables are not pinned to bytes on disk — built in memory, or
        mutated since they were read.
        """
        if self._store is None:
            return None
        if self._graphgen is None:
            base = fingerprint_database(self._source_dir)
        else:
            base = self._graphgen.database.source_fingerprint
        if base is None:
            return None
        import repro

        parts = (
            base,
            _canonical(query),
            representation,
            repr(self._options),
            sorted(extract_kwargs.items()),
            repro.__version__,
            FORMAT_VERSION,
        )
        return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        store = self._store.directory if self._store is not None else None
        return (
            f"<GraphSession db={self._database_name!r} backend={self._backend.name} "
            f"parallelism={self._parallelism} store={store}>"
        )
