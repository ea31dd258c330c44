"""The public facade: :class:`XmlStore`.

An ``XmlStore`` owns one relational backend (sqlite3 or minidb) and one
order encoding (global, local, or dewey), and exposes the operations the
paper evaluates:

* :meth:`load` — shred and bulk-load an XML document;
* :meth:`query` — translate an XPath query to SQL, execute it, and return
  matching items in document order (running the client-side
  order-resolution pass that Local order requires);
* :meth:`reconstruct` / :meth:`reconstruct_subtree` — rebuild documents
  from rows (see :mod:`repro.core.reconstruct`);
* :attr:`updates` — ordered insertions and deletions with per-encoding
  renumbering (see :mod:`repro.core.updates`).

Example
-------
>>> from repro import XmlStore
>>> store = XmlStore(backend="sqlite", encoding="dewey")
>>> doc_id = store.load("<bib><book><title>T</title></book></bib>")
>>> [item.value for item in store.query("/bib/book/title/text()", doc_id)]
['T']
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from functools import lru_cache
from time import perf_counter
from typing import (
    TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence,
    TypeVar, Union,
)

from repro.backends import Backend, make_backend
from repro.cache import StoreCache
from repro.obs import METRICS, slow_log, span
from repro.core.encodings import OrderEncoding, get_encoding
from repro.core.reconstruct import (
    ordered_rows, reconstruct_document, reconstruct_subtree,
)
from repro.core.schema import documents_table, index_tables
from repro.core.shredder import ShreddedNode, shred, shred_text
from repro.core.translator import (
    TranslatedQuery,
    extract_shape,
    make_translator,
)
from repro.errors import StorageError
from repro.xmldom import Document
from repro.xpath.parser import parse_xpath

if TYPE_CHECKING:  # pragma: no cover
    from repro.concurrent.writequeue import WriteQueue
    from repro.robust.retry import RetryPolicy

#: How many ids one ``IN (...)`` statement may carry (see
#: :meth:`XmlStore.in_batches`).
_ID_BATCH = 400

_T = TypeVar("_T")


@lru_cache(maxsize=512)
def _parse_and_extract(xpath: str):
    """Parse *xpath* and abstract its safe literals into slots.

    Returns ``(shaped_path, shape_key, literals)``.  Pure function of
    the text, so it is cached process-wide across stores and writes —
    parsing never repeats for a hot query, and the shape key string is
    computed once.  The shaped path is an immutable AST, safe to share.
    """
    path = parse_xpath(xpath)
    shaped, literals = extract_shape(path)
    return shaped, str(shaped), literals


@dataclass(frozen=True, slots=True)
class ResultItem:
    """One query result: a node row or an attribute.

    ``kind`` is ``elem``/``text``/``comment``/``pi`` for node results and
    ``attribute`` for attribute results.  ``node_id`` is the surrogate id
    of the node (for attributes: of the owner element).  ``label`` is the
    element tag, PI target, or attribute name.  ``value`` is the stored
    value (direct text value for elements; may be ``None``).
    """

    kind: str
    node_id: int
    label: Optional[str]
    value: Optional[str]

    def identity(self) -> tuple:
        """Hashable identity used when comparing against the oracle."""
        if self.kind == "attribute":
            return ("attribute", self.node_id, self.label)
        return ("node", self.node_id)


@dataclass(slots=True)
class DocumentInfo:
    """Catalogue entry of one stored document.

    ``encoding`` names the order encoding holding this document's rows
    (documents can migrate individually between encodings); ``None``
    means the store's default encoding.  ``indexed`` is whether the
    document has a secondary index (``indexes.create`` / ``drop`` write
    it): read with the row, so neither a query nor an update asks for
    it separately.
    """

    doc: int
    name: str
    node_count: int
    max_depth: int
    next_id: int
    encoding: Optional[str] = None
    indexed: bool = False


#: The catalogue read: the ``documents`` columns in
#: :class:`DocumentInfo` order, then the index's ``present`` marker
#: (0 or 1 rows of ``idx_stats``).
_CATALOGUE_SELECT = (
    "SELECT d.doc, d.name, d.node_count, d.max_depth, d.next_id, "
    "d.encoding, (SELECT COUNT(*) FROM idx_stats s WHERE s.doc = d.doc "
    "AND s.kind = 'meta' AND s.skey = 'present') FROM documents d"
)


def _catalogue_entry(row: tuple) -> DocumentInfo:
    return DocumentInfo(*row[:6], indexed=bool(row[6]))


class XmlStore:
    """Ordered XML stored in a relational backend.

    ``encoding`` is the store's *default* encoding (new loads use it);
    individual documents may live under a different encoding after a
    ``repro migrate`` — the catalogue's ``encoding`` column is
    authoritative, resolved per document by :meth:`encoding_for`.
    """

    def __init__(
        self,
        backend: Union[str, Backend] = "sqlite",
        encoding: Union[str, OrderEncoding] = "dewey",
        gap: int = 1,
        retry: Optional["RetryPolicy"] = None,
        cache: bool = True,
    ) -> None:
        """Create a store.

        Parameters
        ----------
        backend:
            A backend name (``"sqlite"`` / ``"minidb"``) or instance.
        encoding:
            An encoding name (``"global"`` / ``"local"`` / ``"dewey"`` /
            ``"ordpath"``) or instance.
        gap:
            Sparse-numbering gap factor.  1 means dense numbering (the
            paper's base case); larger values space order values out so
            bursts of insertions avoid renumbering (experiment E10).
        retry:
            Optional :class:`repro.robust.retry.RetryPolicy`.  When
            set, transient backend faults (sqlite BUSY/LOCKED, injected
            transients) are retried with bounded backoff — per
            statement for reads, per whole transaction for updates —
            surfacing :class:`repro.errors.TransientStorageError` only
            after the budget is exhausted.
        cache:
            Plan/catalog/result caching (see :mod:`repro.cache`);
            ``False`` makes every call translate and execute afresh
            (the benchmarks time such stores).
        """
        if gap < 1:
            raise StorageError(f"gap must be >= 1, got {gap}")
        self.retry = retry
        #: Optional single-writer queue; see :meth:`enable_write_queue`.
        self.write_queue: Optional["WriteQueue"] = None
        self.backend = (
            make_backend(backend) if isinstance(backend, str) else backend
        )
        #: Is the calling thread inside a transaction of its own?  Asked
        #: before every cache lookup, so it is the backend's bound
        #: method, not a wrapper around it.
        self._in_own_transaction = self.backend.in_transaction
        self.encoding = (
            get_encoding(encoding) if isinstance(encoding, str) else encoding
        )
        self.gap = gap
        #: Plan/catalog/result caches.  Every commit invalidates the
        #: catalog and result entries of the documents it wrote (see
        #: :meth:`transactionally`); plans are never invalidated.
        self.cache = StoreCache(enabled=cache)
        #: Per thread: ``writes`` is the write set of the submitted
        #: operation now running inside this thread's top-level
        #: transaction (see :meth:`note_write`), ``None`` outside one.
        self._scope = threading.local()
        self._docs_table = documents_table()
        #: Moved by every migration; queries that observe a move
        #: mid-flight re-run against the new encoding's tables.
        self._migration_epoch = 0
        self._create_schema()
        from repro.core.updates import UpdateManager
        from repro.index import IndexManager

        #: Ordered update operations (insert/delete with renumbering).
        self.updates = UpdateManager(self)
        #: Per-document secondary indexes (see :mod:`repro.index`),
        #: used for the documents that have them.
        self.indexes = IndexManager(self)

    # -- schema ----------------------------------------------------------

    def _create_schema(self) -> None:
        # Every statement carries IF NOT EXISTS, so reusing a backend
        # that already has the schema is fine and any failure is real.
        for statement in (
            *self.encoding.create_statements(),
            *self._docs_table.create_statements(),
            *(
                stmt
                for table in index_tables()
                for stmt in table.create_statements()
            ),
        ):
            try:
                self.backend.execute(statement)
            except Exception as exc:
                raise StorageError(
                    f"schema bootstrap failed: {statement!r}: {exc}"
                ) from exc
        self._clear_legacy_statistics()

    def _clear_legacy_statistics(self) -> None:
        """Delete what ``idx_stats`` holds besides ``present`` markers.

        Files written while the translator chose between scan and index
        from catalog statistics carry those statistics, their meta rows
        and a store-wide version clock (a row of document 0) there.
        Nothing reads them any more; they go when the store opens, so
        every reader of the table — the index manager, the auditor —
        may assume it holds markers only.  A store without leftovers
        issues the probe and writes nothing.
        """
        leftover = "kind <> 'meta' OR skey <> 'present'"
        if self._execute(
            f"SELECT 1 FROM idx_stats WHERE {leftover} LIMIT 1"
        ).rows:
            self._execute(f"DELETE FROM idx_stats WHERE {leftover}")

    # -- fault-tolerant execution -----------------------------------------

    def _execute(self, sql: str, params: Sequence = ()):
        """One statement, retried per the store's policy (if any)."""
        if self.retry is None:
            return self.backend.execute(sql, params)
        return self.retry.run(lambda: self.backend.execute(sql, params))

    @staticmethod
    def in_batches(
        sql_prefix: str, column: str, ids: Iterable[int],
        params: Sequence = (),
    ) -> Iterator[tuple[str, tuple]]:
        """``<sql_prefix> AND <column> IN (?, ...)`` over *ids*, at most
        :data:`_ID_BATCH` per statement, as ``(sql, params)`` pairs.
        *params* bind the placeholders of *sql_prefix*, which must end
        inside its ``WHERE`` clause.  The caller executes each pair:
        reads go through the statement-level retry, DML inside an
        update's transaction does not (see :meth:`transactionally`)."""
        pending = list(ids)
        for start in range(0, len(pending), _ID_BATCH):
            batch = pending[start:start + _ID_BATCH]
            placeholders = ", ".join("?" for _ in batch)
            yield (
                f"{sql_prefix} AND {column} IN ({placeholders})",
                (*params, *batch),
            )

    def transactionally(self, operation: Callable[[], _T]) -> _T:
        """Run *operation* inside a transaction scope.

        With a retry policy configured, a transient failure retries the
        *whole* transaction — but only from outside the outermost
        scope, where the rollback has already undone every partial
        effect.  Nested calls just join the enclosing transaction.

        With a :meth:`write queue <enable_write_queue>` attached, the
        operation is shipped to the single writer thread instead (the
        caller blocks for the result), where adjacent operations group
        into one commit; calls already on the writer thread, or nested
        inside this thread's own transaction, run locally and join it.

        **Write-set contract.**  All writers (loads, deletes, update
        operations, index builds and migrations) funnel through here,
        and every top-level commit invalidates the cache entries of
        exactly the documents it wrote, before its caller sees the
        result.  An operation names those documents by calling
        :meth:`note_write` from inside the transaction; one that notes
        any document thereby declares its *complete* write set.  An
        operation that notes none (a raw callable) has an unknown
        write set, and its commit invalidates every document's
        catalog and result entries instead — never fewer.  Nested
        calls note into the outermost scope, whose commit actually
        publishes the change.
        """
        queue = self.write_queue
        if (
            queue is not None
            and queue.accepting()
            and not queue.on_writer_thread()
            and not self._in_own_transaction()
        ):
            # The writer thread invalidates right after the group
            # commit, before this call's future resolves.
            return queue.call(operation)
        if self._in_own_transaction():
            with self.backend.transaction():
                return operation()
        return self._commit([operation])[0]

    def note_write(self, doc: int) -> None:
        """Declare that the running transaction writes document *doc*
        (see the write-set contract on :meth:`transactionally`)."""
        writes = getattr(self._scope, "writes", None)
        if writes is not None:
            writes.add(doc)

    def _commit(self, operations: Sequence[Callable[[], _T]]) -> list[_T]:
        """Run *operations* as one top-level transaction (a write-queue
        batch is several), retried whole per the store's policy, then
        invalidate what they wrote.  Returns their results in order."""
        if self.retry is None:
            results, writes = self._attempt(operations)
        else:
            results, writes = self.retry.run(
                lambda: self._attempt(operations)
            )
        self.cache.bump(writes)
        return results

    def _attempt(
        self, operations: Sequence[Callable[[], _T]]
    ) -> tuple[list[_T], set[int]]:
        """One BEGIN ... COMMIT around *operations*; returns their
        results and the union of their write sets — empty when any of
        them noted nothing, i.e. when the commit's write set is
        unknown.  Every attempt starts from empty write sets, and a
        rolled-back one returns nothing to invalidate."""
        scope = self._scope
        results: list[_T] = []
        written: set[int] = set()
        known = True
        try:
            with self.backend.transaction():
                for operation in operations:
                    scope.writes = noted = set()
                    results.append(operation())
                    known = known and bool(noted)
                    written |= noted
        finally:
            scope.writes = None
        return results, (written if known else set())

    # -- concurrent serving ------------------------------------------------

    def enable_write_queue(
        self, max_batch: int = 16, autostart: bool = True
    ) -> "WriteQueue":
        """Funnel this store's update transactions through one writer.

        Afterwards every top-level :meth:`transactionally` call —
        loads, inserts, deletes, value updates — is executed on a
        dedicated writer thread, with adjacent operations group-
        committed in one ``BEGIN ... COMMIT``.  Reads are unaffected:
        on a pooled backend they keep running concurrently on the
        calling threads.  Returns the queue (idempotent).
        """
        if self.write_queue is None:
            from repro.concurrent.writequeue import WriteQueue

            self.write_queue = WriteQueue(
                self, max_batch=max_batch, autostart=autostart
            )
        return self.write_queue

    def close(self) -> None:
        """Drain the write queue (if any) and close the backend."""
        if self.write_queue is not None:
            self.write_queue.close()
        self.backend.close()

    def __enter__(self) -> "XmlStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def node_table(self) -> str:
        return self.encoding.node_table.name

    @property
    def attr_table(self) -> str:
        return self.encoding.attr_table.name

    # -- per-document encoding resolution ---------------------------------

    def encoding_for(self, doc: int) -> OrderEncoding:
        """The encoding holding *doc*'s rows (catalogue-authoritative).

        Documents migrate individually (``repro migrate``), so every
        doc-scoped read and update resolves its encoding here instead
        of assuming the store default.  Served from the catalogue
        cache; inside a transaction it reads the backend directly, so
        an update serialized behind a migration sees the new encoding.
        """
        name = self.document_info(doc).encoding
        return self.encoding if name is None else get_encoding(name)

    def node_table_for(self, doc: int) -> str:
        return self.encoding_for(doc).node_table.name

    def attr_table_for(self, doc: int) -> str:
        return self.encoding_for(doc).attr_table.name

    # -- loading ------------------------------------------------------------

    def load(
        self,
        document: Union[str, Document],
        name: str = "doc",
        strip_whitespace: bool = False,
    ) -> int:
        """Shred *document* and bulk-load it; returns the new doc id."""
        with span("load"):
            # Shredding finishes before the transaction opens, so a
            # malformed document leaves no rows.
            with span("shred"):
                if isinstance(document, str):
                    shredded = shred_text(document, strip_whitespace)
                else:
                    shredded = shred(document)

            def load_in_transaction() -> int:
                doc_id = self._next_doc_id()
                self.note_write(doc_id)
                self._bulk_insert(
                    self.encoding, doc_id, shredded.nodes,
                    (
                        (doc_id, attr.owner, attr.name, attr.value)
                        for attr in shredded.attributes
                    ),
                )
                self.backend.execute(
                    "INSERT INTO documents VALUES (?, ?, ?, ?, ?, ?)",
                    (
                        doc_id,
                        name,
                        shredded.node_count(),
                        shredded.max_depth,
                        shredded.node_count() + 1,
                        self.encoding.name,
                    ),
                )
                return doc_id

            with span("bulk_insert"):
                doc_id = self.transactionally(load_in_transaction)
            with span("analyze"):
                self.backend.analyze()
            METRICS.inc("load.documents")
            METRICS.inc("load.nodes", shredded.node_count())
        return doc_id

    def _next_doc_id(self) -> int:
        result = self._execute(
            "SELECT COALESCE(MAX(doc), 0) FROM documents"
        )
        return int(result.rows[0][0]) + 1

    def _bulk_insert(
        self, encoding: OrderEncoding, doc_id: int,
        nodes: Sequence[ShreddedNode], attr_rows: Iterable[tuple],
    ) -> None:
        """Write a labelled document into *encoding*'s tables: a load
        into the store's, a migration into its target's."""
        placeholders = ", ".join("?" for _ in encoding.node_columns())
        self.backend.executemany(
            f"INSERT INTO {encoding.node_table.name} "
            f"VALUES ({placeholders})",
            encoding.node_rows(doc_id, nodes, self.gap),
        )
        self.backend.executemany(
            f"INSERT INTO {encoding.attr_table.name} VALUES (?, ?, ?, ?)",
            attr_rows,
        )

    # -- catalogue ---------------------------------------------------------------

    def document_info(self, doc: int, fresh: bool = False) -> DocumentInfo:
        """The catalogue entry of *doc* (cached; ``fresh=True`` forces
        a read from the backend — auditors and any caller that shares
        the database file with other writers should use it)."""
        cache = self.cache
        if fresh or not cache.enabled or self._in_own_transaction():
            # Inside a transaction the catalogue may hold uncommitted
            # state (updates read-modify-write it); always go direct.
            return self._document_info_uncached(doc)
        cached = cache.get_catalog(doc)
        if cached is not None:
            return replace(cached)  # callers may mutate their copy
        epoch = cache.epoch(doc)
        info = self._document_info_uncached(doc)
        cache.put_catalog(doc, replace(info), epoch)
        return info

    def _document_info_uncached(self, doc: int) -> DocumentInfo:
        result = self._execute(
            f"{_CATALOGUE_SELECT} WHERE d.doc = ?", (doc,)
        )
        if not result.rows:
            raise StorageError(f"no document {doc}")
        return _catalogue_entry(result.rows[0])

    def update_document_info(self, info: DocumentInfo) -> None:
        self._execute(
            "UPDATE documents SET node_count = ?, max_depth = ?, "
            "next_id = ? WHERE doc = ?",
            (info.node_count, info.max_depth, info.next_id, info.doc),
        )

    def delete_document(self, doc: int) -> int:
        """Drop a whole document; returns the number of rows removed."""
        self.document_info(doc)  # raises StorageError if unknown

        def drop_in_transaction() -> int:
            # Resolve the tables inside the transaction: a concurrent
            # migration may have just moved the rows.
            self.note_write(doc)
            encoding = self.encoding_for(doc)
            nodes = self.backend.execute(
                f"DELETE FROM {encoding.node_table.name} WHERE doc = ?",
                (doc,),
            )
            attrs = self.backend.execute(
                f"DELETE FROM {encoding.attr_table.name} WHERE doc = ?",
                (doc,),
            )
            self.backend.execute(
                "DELETE FROM documents WHERE doc = ?", (doc,)
            )
            self.indexes.purge_in_transaction(doc)
            return max(nodes.rowcount, 0) + max(attrs.rowcount, 0)

        removed = self.transactionally(drop_in_transaction)
        self.cache.forget(doc)
        return removed

    def documents(self) -> list[DocumentInfo]:
        result = self._execute(f"{_CATALOGUE_SELECT} ORDER BY d.doc")
        return [_catalogue_entry(row) for row in result.rows]

    # -- querying ------------------------------------------------------------------

    def translate(
        self, xpath: str, doc: int, context_id: Optional[int] = None
    ) -> TranslatedQuery:
        """Translate *xpath* for this store's encoding (no execution).

        Relative paths navigate from *context_id* (a node's surrogate
        id); absolute paths start at the document.

        Compiled plans are cached per ``(encoding, shape, indexed)``
        where *shape* is the query with its safe predicate literals
        abstracted away — one plan serves every document, however
        deep, and every literal value (``//item[@id='a']`` and
        ``//item[@id='b']`` share a plan; the values bind as
        parameters).  The context kind is part of the shape string
        (absolute vs relative).  The key determines the plan, so plans
        outlive every write; nothing in a plan depends on a document's
        contents (Local's closure axes recurse over the parent
        pointers at run time, to whatever depth the rows have).
        *indexed* is whether the document has an index
        (``indexes.create`` / ``drop`` are writes to it): an index is
        used when it exists.
        """
        shaped, shape_key, literals = _parse_and_extract(xpath)
        info = self.document_info(doc)  # raises if unknown
        indexed = info.indexed
        encoding_name = info.encoding or self.encoding.name
        key = (encoding_name, shape_key, indexed)
        cache = self.cache
        use_cache = cache.enabled and not self._in_own_transaction()
        plan = cache.get_plan(key) if use_cache else None
        if plan is None:
            translator = make_translator(encoding_name)
            plan = translator.compile(shaped, indexed=indexed)
            if use_cache:
                cache.put_plan(key, plan)
        else:
            METRICS.inc("translate.plan_shared")
        METRICS.inc(f"translate.access.{plan.access_path}")
        if plan.index_miss:
            METRICS.inc("index.miss")  # feeds the index advisor
        return plan.bind(doc, context_id, literals)

    def query(
        self, xpath: str, doc: int, context_id: Optional[int] = None
    ) -> list[ResultItem]:
        """Run *xpath* via SQL; results arrive in document order.

        Torn-read guard: a migration can commit between this query's
        translate and execute steps — the plan is bound to the source
        encoding's table, which is by then empty of the document.
        Every migration moves ``_migration_epoch`` (see
        :func:`repro.migrate.migrate_document` for when), so a query
        that observes a move mid-flight simply re-runs — the second
        pass reads the new catalogue row and the new tables.  So does
        one that *failed* across a move: Local's client-order pass
        resolves the encoding again after executing, and finds another
        encoding's columns or an empty table.
        """
        for attempt in range(4):
            epoch = self._migration_epoch
            try:
                items = self._query_once(xpath, doc, context_id)
            except Exception:
                if self._migration_epoch == epoch or attempt == 3:
                    raise
            else:
                if self._migration_epoch == epoch:
                    return items
            METRICS.inc("query.migration_retries")
        return items

    def _query_once(
        self, xpath: str, doc: int, context_id: Optional[int] = None
    ) -> list[ResultItem]:
        cache = self.cache
        use_cache = cache.enabled and not self._in_own_transaction()
        if use_cache:
            result_key = (doc, xpath, context_id)
            cached = cache.get_result(result_key)
            if cached is not None:
                return list(cached)
            # Captured before any backend state is read: a write to
            # this document committing from here on refuses the put.
            epoch = cache.epoch(doc)
        log = slow_log()
        if log is None:
            with span("query", xpath=xpath):
                _translated, items = self._run_query(
                    xpath, doc, context_id, None
                )
        else:
            started = perf_counter()
            phases: dict[str, float] = {}
            with span("query", xpath=xpath):
                translated, items = self._run_query(
                    xpath, doc, context_id, phases
                )
            elapsed_ms = (perf_counter() - started) * 1000.0
            # Short-circuit below the threshold: dropped records pay
            # neither the per-phase dict conversion nor the log call.
            if elapsed_ms >= log.threshold_ms:
                log.maybe_record(
                    xpath=xpath,
                    sql=translated.sql,
                    params=translated.params,
                    elapsed_ms=elapsed_ms,
                    breakdown_ms={
                        name: seconds * 1000.0
                        for name, seconds in phases.items()
                    },
                )
        if use_cache:
            # Stored as a tuple of frozen ResultItems; every hit hands
            # out a fresh list, so callers may mutate what they get.
            cache.put_result(result_key, tuple(items), epoch)
        return items

    def _run_query(
        self,
        xpath: str,
        doc: int,
        context_id: Optional[int],
        collect: Optional[dict],
    ) -> tuple[TranslatedQuery, list[ResultItem]]:
        with span("translate", collect):
            translated = self.translate(xpath, doc, context_id=context_id)
        METRICS.inc("query.executed")
        with span("execute", collect):
            result = self._execute(translated.sql, translated.params)
        rows = result.rows
        METRICS.inc("query.rows", len(rows))
        if translated.access_path != "scan":
            METRICS.inc("index.plan_queries")
        if translated.result_kind == "attribute":
            with span("materialize", collect):
                items, owner_ids = self._attribute_items(rows)
            if translated.needs_client_order:
                METRICS.inc("query.client_order_sorts")
                with span("client_order", collect):
                    items = self._client_sort_attributes(
                        doc, items, owner_ids
                    )
            return translated, items
        if translated.needs_client_order:
            METRICS.inc("query.client_order_sorts")
            with span("client_order", collect):
                rows = self._client_sort_nodes(
                    doc, rows, translated.columns
                )
        with span("materialize", collect):
            items = [
                ResultItem(
                    kind=row[2], node_id=row[0], label=row[3],
                    value=row[4],
                )
                for row in rows
            ]
        return translated, items

    def query_values(self, xpath: str, doc: int) -> list[Optional[str]]:
        """Shorthand: the stored value of each result item."""
        return [item.value for item in self.query(xpath, doc)]

    def _attribute_items(
        self, rows: list[tuple]
    ) -> tuple[list[ResultItem], list[int]]:
        items = []
        owners = []
        for row in rows:
            owner, name, value = row[0], row[1], row[2]
            items.append(ResultItem("attribute", owner, name, value))
            owners.append(owner)
        return items, owners

    # -- client-side order resolution (Local encoding) ---------------------------------

    def _fetch_structure(
        self, doc: int, ids: Iterable[int]
    ) -> dict[int, tuple[int, int]]:
        """Fetch ``id -> (parent, sibling order value)`` for the ids."""
        encoding = self.encoding_for(doc)
        order_column = encoding.sibling_order_column
        statements = self.in_batches(
            f"SELECT id, parent, {order_column} "
            f"FROM {encoding.node_table.name} WHERE doc = ?",
            "id", [i for i in set(ids) if i != 0], (doc,),
        )
        return {
            node_id: (parent, order_value)
            for sql, params in statements
            for node_id, parent, order_value
            in self._execute(sql, params).rows
        }

    def _order_keys(
        self,
        doc: int,
        ids: list[int],
        known: Optional[dict[int, tuple[int, int]]] = None,
    ) -> dict[int, tuple[int, ...]]:
        """Root-to-node sibling-order paths for each id (client sort
        keys; document order for any encoding).  *known* is structure
        the caller already holds (``_fetch_structure``'s shape), so
        only the rest is fetched."""
        structure: dict[int, tuple[int, int]] = dict(known or {})
        frontier = set(ids) | {
            parent for parent, _lpos in structure.values()
        }
        while frontier := frontier - structure.keys() - {0}:
            fetched = self._fetch_structure(doc, frontier)
            structure.update(fetched)
            frontier = {parent for parent, _lpos in fetched.values()}
        keys: dict[int, tuple[int, ...]] = {}
        for node_id in ids:
            path: list[int] = []
            current = node_id
            # A path visits each fetched row at most once; the bound
            # only bites on a corrupt parent cycle, which has no root.
            while current != 0 and len(path) < len(structure):
                parent, lpos = structure[current]
                path.append(lpos)
                current = parent
            keys[node_id] = tuple(reversed(path))
        return keys

    def _client_sort_nodes(
        self, doc: int, rows: list[tuple], columns: tuple[str, ...]
    ) -> list[tuple]:
        # The result rows carry their own parent and sibling position;
        # only their ancestors' are left to fetch.
        order = columns.index(self.encoding_for(doc).sibling_order_column)
        parent = columns.index("parent")
        keys = self._order_keys(
            doc,
            [row[0] for row in rows],
            {row[0]: (row[parent], row[order]) for row in rows},
        )
        return sorted(rows, key=lambda row: keys[row[0]])

    def _client_sort_attributes(
        self, doc: int, items: list[ResultItem], owner_ids: list[int]
    ) -> list[ResultItem]:
        keys = self._order_keys(doc, owner_ids)
        return sorted(
            items, key=lambda item: (keys[item.node_id], item.label or "")
        )

    # -- reconstruction ------------------------------------------------------------------

    def reconstruct(self, doc: int) -> Document:
        """Rebuild the full document from its rows."""
        return reconstruct_document(self, doc)

    def reconstruct_subtree(self, doc: int, node_id: int):
        """Rebuild the subtree rooted at *node_id* (returns a DOM node)."""
        return reconstruct_subtree(self, doc, node_id)

    def string_value(self, doc: int, node_id: int) -> str:
        """The XPath *string-value* of a node: all descendant text.

        Unlike the stored ``value`` column (direct text only), this
        reads the whole subtree — one ordered range scan of its text
        rows for Global/Dewey/ORDPATH, the level-by-level fetch of
        :func:`~repro.core.reconstruct.ordered_rows` for Local.
        """
        row = self.fetch_node(doc, node_id)
        if row is None:
            raise StorageError(f"no node {node_id} in document {doc}")
        if row["kind"] != "elem":
            return row["value"] or ""
        encoding = self.encoding_for(doc)
        subtree = encoding.subtree_where(row, include_root=False)
        if subtree is None:
            return "".join(
                value or "" for _id, _parent, kind, _tag, value
                in ordered_rows(self, doc, row) if kind == "text"
            )
        where, bounds = subtree
        result = self._execute(
            f"SELECT value FROM {encoding.node_table.name} "
            f"WHERE doc = ? AND {where} "
            f"AND kind = 'text' ORDER BY {encoding.order_by_column}",
            (doc, *bounds),
        )
        return "".join(r[0] for r in result.rows if r[0] is not None)

    def query_string_values(self, xpath: str, doc: int) -> list[str]:
        """XPath string-values of every result, in document order."""
        out = []
        for item in self.query(xpath, doc):
            if item.kind == "attribute":
                out.append(item.value or "")
            else:
                out.append(self.string_value(doc, item.node_id))
        return out

    # -- row-level helpers shared with updates/reconstruct ------------------------------

    def fetch_node(
        self, doc: int, node_id: int,
        encoding: Optional[OrderEncoding] = None,
    ) -> Optional[dict]:
        """Fetch one node row as a column->value dict.  A caller that
        has already resolved *doc*'s encoding (an update, which reads
        the catalogue once per transaction) passes it."""
        encoding = encoding or self.encoding_for(doc)
        columns = encoding.node_columns()
        result = self._execute(
            f"SELECT {', '.join(columns)} FROM {encoding.node_table.name} "
            f"WHERE doc = ? AND id = ?",
            (doc, node_id),
        )
        if not result.rows:
            return None
        return dict(zip(columns, result.rows[0]))

    def fetch_children(
        self, doc: int, parent_id: int,
        encoding: Optional[OrderEncoding] = None,
    ) -> list[dict]:
        """Fetch the child rows of *parent_id*, in document order
        (*encoding* as for :meth:`fetch_node`)."""
        encoding = encoding or self.encoding_for(doc)
        columns = encoding.node_columns()
        order = encoding.sibling_order_column
        result = self._execute(
            f"SELECT {', '.join(columns)} FROM {encoding.node_table.name} "
            f"WHERE doc = ? AND parent = ? ORDER BY {order}",
            (doc, parent_id),
        )
        return [dict(zip(columns, row)) for row in result.rows]

    def node_count(self, doc: int) -> int:
        result = self._execute(
            f"SELECT COUNT(*) FROM {self.node_table_for(doc)} "
            f"WHERE doc = ?",
            (doc,),
        )
        return int(result.rows[0][0])
