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
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import (
    Callable, Iterable, Iterator, NamedTuple, Optional, Sequence,
    TypeVar, Union,
)

from repro.backends import Backend, make_backend
from repro.cache import StoreCache
from repro.obs import METRICS, span
from repro.core.encodings import ENCODINGS, OrderEncoding, get_encoding
from repro.core.reconstruct import (
    ordered_rows, reconstruct_document, reconstruct_subtree,
)
from repro.core.schema import documents_table, index_table
from repro.core.shredder import ShreddedNode, shred, shred_text
from repro.core.translator import (
    TranslatedQuery,
    extract_shape,
    make_translator,
)
from repro.errors import ReproError, StorageError
from repro.xmldom import Document
from repro.xpath.parser import parse_xpath

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


class ResultItem(NamedTuple):
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


@dataclass(frozen=True, slots=True)
class DocumentInfo:
    """Catalogue entry of one stored document: a ``documents`` row.

    ``encoding`` names the order encoding holding this document's rows
    (documents can migrate individually between encodings).
    ``indexed`` is whether the document has a secondary index
    (``indexes.create`` / ``drop`` write it): read with the row, so
    neither a query nor an update asks for it separately.  ``gap`` is
    the sparse-numbering gap the document was labelled with at load:
    inserts, rebalances and migrations label with it, so every session
    writes the document at one gap.
    """

    doc: int
    name: str
    node_count: int
    next_id: int
    encoding: str
    indexed: bool
    gap: int


#: A node row's ``(kind, id, tag, value)``: its :class:`ResultItem`.
_NODE_ITEM = itemgetter(2, 0, 3, 4)
_new_tuple = tuple.__new__


#: The catalogue read: the ``documents`` columns in
#: :class:`DocumentInfo` order.
_CATALOGUE_SELECT = (
    "SELECT doc, name, node_count, next_id, encoding, indexed, gap "
    "FROM documents"
)


def _catalogue_entry(row: tuple) -> DocumentInfo:
    doc, name, node_count, next_id, encoding, indexed, gap = row
    if encoding not in ENCODINGS:
        raise StorageError(
            f"document {doc} is catalogued under unknown encoding "
            f"{encoding!r}; expected one of {sorted(ENCODINGS)}"
        )
    return DocumentInfo(doc, name, node_count, next_id, encoding,
                        bool(indexed), gap)


class XmlStore:
    """Ordered XML stored in a relational backend.

    ``encoding`` is the store's *default* encoding (new loads use it);
    individual documents may live under a different encoding after a
    ``repro migrate`` — the catalogue's ``encoding`` column is
    authoritative, resolved per document by :meth:`encoding_for`.
    Likewise ``gap`` is what new loads label with, and each document's
    own gap is its catalogue entry's (:attr:`DocumentInfo.gap`).
    """

    def __init__(
        self,
        backend: Union[str, Backend] = "sqlite",
        encoding: Union[str, OrderEncoding] = "dewey",
        gap: Optional[int] = None,
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
            Sparse-numbering gap factor of the documents this store
            loads.  ``None`` (the default) is the encoding's declared
            :attr:`~repro.core.encodings.OrderEncoding.load_gap`; 1 means
            dense numbering (the paper's base case); larger values space
            order values out so bursts of insertions avoid renumbering
            (experiment E10).  Each document records its gap in the
            catalogue, and its inserts use that one, whatever gap the
            store that writes them was opened with.
        cache:
            Plan/catalog/result/keys caching (see :mod:`repro.cache`);
            ``False`` makes every call translate and execute afresh
            (the benchmarks time such stores).
        """
        if gap is not None and gap < 1:
            raise StorageError(f"gap must be >= 1, got {gap}")
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
        #: The gap :meth:`load` labels new documents with.  Only a load
        #: reads it: a stored document's gap is its catalogue entry's.
        self.gap = self.encoding.load_gap if gap is None else gap
        #: Plan/catalog/result/keys caches.  Every commit invalidates
        #: the catalog, result and keys entries of the documents it
        #: wrote (see :meth:`transactionally`); plans are never
        #: invalidated.
        self.cache = StoreCache(enabled=cache)
        #: Per thread: ``writes`` is the write set of the operation
        #: now running inside this thread's top-level transaction (see
        #: :meth:`note_write`), ``None`` outside one.
        self._scope = threading.local()
        self._docs_table = documents_table()
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
        sval = index_table()
        tables = (
            self.encoding.node_table, self.encoding.attr_table,
            self._docs_table, sval,
        )
        # The bootstrap would re-create a dropped node, attribute or
        # element index table empty, and the documents catalogued over
        # it would read as documents without those rows, so every
        # encoding the catalogue names must still have both of its
        # tables, and an indexed document the index table.  A backend
        # that cannot list its tables skips this, as the auditor does.
        try:
            existing = set(self.backend.list_tables())
        except NotImplementedError:
            existing = set()
        if self._docs_table.name in existing:
            catalogue = self._read_schema(_CATALOGUE_SELECT,
                                          "document catalogue")
            named = {row[4] for row in catalogue} & ENCODINGS.keys()
            required = [
                (name, table)
                for name in sorted(named)
                for table in (ENCODINGS[name].node_table,
                              ENCODINGS[name].attr_table)
            ]
            if any(row[5] for row in catalogue):
                required.append(("indexed", sval))
            for name, table in required:
                if table.name not in existing:
                    raise StorageError(
                        f"the store has {name} documents but no "
                        f"{table.name!r} table"
                    )
        self._bootstrap(table.to_sql() for table in tables)
        # CREATE TABLE IF NOT EXISTS keeps a table an older build
        # wrote, columns and all.  This build reads only its own
        # columns and upgrades nothing, so such a file is refused here,
        # before an index over a missing column fails or anything reads
        # or writes it.
        self._read_schema(f"{_CATALOGUE_SELECT} WHERE doc = 0",
                          "document catalogue")
        self._read_schema("SELECT leaf_text, path FROM idx_sval "
                          "WHERE doc = 0", "element index")
        self._bootstrap(
            index.to_sql() for table in tables for index in table.indexes
        )

    def _read_schema(self, probe: str, what: str) -> list[tuple]:
        """Run *probe* against the schema; a table of an older build,
        which lacks a column it names, refuses the store.  Only an
        engine's error says so: every backend raises this library's
        errors, and anything else is a bug that must surface as
        itself."""
        try:
            return self.backend.execute(probe).rows
        except ReproError as exc:
            raise StorageError(
                "the store was written by an older build, whose "
                f"{what} this build cannot read ({exc})"
            ) from exc

    def _bootstrap(self, statements: Iterable[str]) -> None:
        for statement in statements:
            try:
                self.backend.execute(statement)
            except Exception as exc:
                raise StorageError(
                    f"schema bootstrap failed: {statement!r}: {exc}"
                ) from exc

    # -- statements and transactions ----------------------------------------

    @staticmethod
    def in_batches(
        sql_prefix: str, column: str, ids: Iterable[int],
        params: Sequence = (),
    ) -> Iterator[tuple[str, tuple]]:
        """``<sql_prefix> AND <column> IN (?, ...)`` over *ids*, at most
        :data:`_ID_BATCH` per statement, as ``(sql, params)`` pairs.
        *params* bind the placeholders of *sql_prefix*, which must end
        inside its ``WHERE`` clause.  The caller executes each pair.

        A batch is padded to the next power of two (at most
        :data:`_ID_BATCH`) by repeating its last id, so that the texts
        are a handful, not one per id count, and sqlite's statement
        cache and minidb's parse cache keep them.  ``IN`` matches a row
        once whatever its list repeats, on both engines, so the rows a
        statement reads or writes, and its rowcount, are the same."""
        pending = list(ids)
        for start in range(0, len(pending), _ID_BATCH):
            batch = pending[start:start + _ID_BATCH]
            width = min(1 << (len(batch) - 1).bit_length(), _ID_BATCH)
            batch += batch[-1:] * (width - len(batch))
            placeholders = ", ".join("?" for _ in batch)
            yield (
                f"{sql_prefix} AND {column} IN ({placeholders})",
                (*params, *batch),
            )

    def transactionally(self, operation: Callable[[], _T]) -> _T:
        """Run *operation* inside a transaction scope; nested calls
        join the enclosing one, and the backend serializes top-level
        calls from several threads.

        **Write-set contract.**  Every writer funnels through here, and
        every top-level commit invalidates the cache entries of exactly
        the documents it wrote (:meth:`_commit`).  An operation names
        them by calling :meth:`note_write` inside the transaction, and
        one that notes any declares its *complete* write set; one that
        notes none has an unknown write set, and its commit invalidates
        every document's catalog, result and keys entries — never
        fewer.
        """
        if self._in_own_transaction():
            with self.backend.transaction():
                return operation()
        return self._commit(operation)

    def note_write(self, doc: int) -> None:
        """Declare that the running transaction writes document *doc*
        (see the write-set contract on :meth:`transactionally`)."""
        writes = getattr(self._scope, "writes", None)
        if writes is not None:
            writes.add(doc)

    def _commit(self, operation: Callable[[], _T]) -> _T:
        """One BEGIN ... COMMIT around *operation*; what it wrote is
        invalidated just before the COMMIT, under the writer lock an
        in-memory read scope holds, so that none finds a stale entry,
        and again after it: a reader beside the writer on a file may
        cache from the old state in between (and serve it, as its own
        snapshot would).  A rollback invalidates nothing."""
        scope = self._scope
        scope.writes = written = set()
        try:
            with self.backend.transaction():
                result = operation()
                self.cache.bump(written)
        finally:
            scope.writes = None
        self.cache.bump(written)
        return result

    def close(self) -> None:
        """Close the backend."""
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
        return ENCODINGS[self.document_info(doc).encoding]

    def node_table_for(self, doc: int) -> str:
        return self.encoding_for(doc).node_table.name

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
                    self.gap,
                )
                self.backend.execute(
                    "INSERT INTO documents VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (
                        doc_id,
                        name,
                        shredded.node_count(),
                        shredded.node_count() + 1,
                        self.encoding.name,
                        0,
                        self.gap,
                    ),
                )
                return doc_id

            with span("bulk_insert"):
                doc_id = self.transactionally(load_in_transaction)
            self.refresh_statistics(
                self.encoding.node_table.name, self.encoding.attr_table.name
            )
            METRICS.inc("load.documents")
            METRICS.inc("load.nodes", shredded.node_count())
        return doc_id

    def _next_doc_id(self) -> int:
        result = self.backend.execute(
            "SELECT COALESCE(MAX(doc), 0) FROM documents"
        )
        return int(result.rows[0][0]) + 1

    def refresh_statistics(self, *tables: str) -> None:
        """After a bulk write into *tables* has committed (a load, a
        migration, an index create), let the backend re-measure the
        ones that have grown stale (:meth:`Backend.analyze`).

        A failure is counted (``statistics.failed``), not raised: the
        write it follows is committed, and stale statistics cost plan
        quality, not answers.
        """
        try:
            self.backend.analyze(tables)
        except StorageError:
            METRICS.inc("statistics.failed")

    def _bulk_insert(
        self, encoding: OrderEncoding, doc_id: int,
        nodes: Sequence[ShreddedNode], attr_rows: Iterable[tuple],
        gap: int,
    ) -> None:
        """Write a labelled document into *encoding*'s tables at *gap*:
        a load into the store's, a migration into its target's."""
        placeholders = ", ".join("?" for _ in encoding.node_columns())
        self.backend.executemany(
            f"INSERT INTO {encoding.node_table.name} "
            f"VALUES ({placeholders})",
            encoding.node_rows(doc_id, nodes, gap),
        )
        self.backend.executemany(
            f"INSERT INTO {encoding.attr_table.name} VALUES (?, ?, ?, ?)",
            attr_rows,
        )

    # -- catalogue ---------------------------------------------------------------

    def document_info(self, doc: int, fresh: bool = False) -> DocumentInfo:
        """The catalogue entry of *doc* (cached; ``fresh=True`` forces
        a read from the backend — auditors and any caller that shares
        the database file with other writers should use it).  Entries
        are frozen, so the cached one is handed out as it is; an update
        writes a changed copy back with :meth:`update_document_info`."""
        cache = self.cache
        if (fresh or not cache.enabled or self._in_own_transaction()
                or self.backend.reads_beside_writers()):
            # Inside a transaction the catalogue may hold uncommitted
            # state (updates read-modify-write it), and a read scope
            # beside writers must plan from its own snapshot, which a
            # cached entry may be ahead of or behind; go direct.
            return self._document_info_uncached(doc)
        cached = cache.get_catalog(doc)
        if cached is not None:
            return cached
        epoch = cache.epoch(doc)
        info = self._document_info_uncached(doc)
        cache.put_catalog(doc, info, epoch)
        return info

    def _document_info_uncached(self, doc: int) -> DocumentInfo:
        result = self.backend.execute(
            f"{_CATALOGUE_SELECT} WHERE doc = ?", (doc,)
        )
        if not result.rows:
            raise StorageError(f"no document {doc}")
        return _catalogue_entry(result.rows[0])

    def update_document_info(self, info: DocumentInfo) -> None:
        self.backend.execute(
            "UPDATE documents SET node_count = ?, next_id = ? WHERE doc = ?",
            (info.node_count, info.next_id, info.doc),
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
        result = self.backend.execute(f"{_CATALOGUE_SELECT} ORDER BY doc")
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
        key = (info.encoding, shape_key, indexed)
        cache = self.cache
        use_cache = cache.enabled and not self._in_own_transaction()
        plan = cache.get_plan(key) if use_cache else None
        if plan is None:
            translator = make_translator(info.encoding)
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

        A result-cache miss reads in one read scope
        (:meth:`Backend.snapshot`), as every multi-statement read does:
        the catalogue entry the plan is bound with (see
        :meth:`document_info`), the statement and Local's client-order
        fetches all see one committed state.
        """
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
        else:
            epoch = None
        with span("query", xpath=xpath) as traced:
            translated, items = self._run_query(xpath, doc, context_id, epoch)
            if traced is not None:
                # Which plan ran: `repro trace` and `repro stats` show it.
                traced.attrs["sql"] = translated.sql
                traced.attrs["params"] = translated.params
        if use_cache:
            # Stored as a tuple of immutable ResultItems; every hit
            # hands out a fresh list, so callers may mutate what they
            # get.
            cache.put_result(result_key, tuple(items), epoch)
        return items

    def _run_query(
        self,
        xpath: str,
        doc: int,
        context_id: Optional[int],
        epoch: Optional[int],
    ) -> tuple[TranslatedQuery, list[ResultItem]]:
        with self.backend.snapshot():
            with span("translate"):
                translated = self.translate(xpath, doc, context_id)
            METRICS.inc("query.executed")
            with span("execute"):
                rows = self.backend.execute(
                    translated.sql, translated.params
                ).rows
            if ENCODINGS[translated.encoding].order_by_column is None:
                METRICS.inc("query.client_order_sorts")
                with span("client_order"):
                    rows = self._client_order(doc, rows, translated, epoch)
        METRICS.inc("query.rows", len(rows))
        if translated.access_path != "scan":
            METRICS.inc("index.plan_queries")
        with span("materialize"):
            # Built as the tuples they are: ResultItem's own __new__
            # takes keywords, and a result may hold thousands of rows.
            if translated.result_kind == "attribute":
                # (owner, name, value)
                items = [
                    _new_tuple(ResultItem, ("attribute", *row[:3]))
                    for row in rows
                ]
            else:
                # (id, parent, kind, tag, value, ...)
                items = [
                    _new_tuple(ResultItem, _NODE_ITEM(row)) for row in rows
                ]
        return translated, items

    def query_values(self, xpath: str, doc: int) -> list[Optional[str]]:
        """Shorthand: the stored value of each result item."""
        return [item.value for item in self.query(xpath, doc)]

    # -- client-side order resolution (Local encoding) ---------------------------------

    def _order_keys(
        self,
        encoding: OrderEncoding,
        doc: int,
        starts: Iterable[int],
        known: dict[int, tuple[int, int]],
        kept: dict[int, tuple[int, int]],
        epoch: Optional[int],
    ) -> dict[int, tuple[int, ...]]:
        """Client sort keys: each of *starts*' sibling-order path down
        from the node where all their ancestor chains meet.

        A head's ``(parent, sibling order value)`` comes from *known*
        (what the rows carry), from *kept* (the document's parent
        pointers from earlier walks) or from a step's fetch of the heads
        neither holds, one statement per batch.  Every chain climbs one
        level per step until all stand on one node, the document node
        (0) when their depths differ; a chain that reaches 0 waits
        there.  With *epoch* (``None``: no caching here) a walk that
        fetched anything adds *known*, the fetched pairs included, to
        the kept pointers under it.
        """
        heads = {node: node for node in starts}
        paths: dict[int, list[int]] = {node: [] for node in heads}
        fetched = False
        steps = 0
        # A valid chain reaches 0 within as many steps as it has nodes,
        # each of them known or kept; only a corrupt parent cycle, which
        # never reaches 0, outlasts that, and keeps whatever order it has.
        while len(set(heads.values())) > 1 and (
            steps <= len(known) + len(kept)
        ):
            missing = {
                head for head in heads.values()
                if head and head not in kept and head not in known
            }
            if missing:
                fetched = True
                for sql, params in self.in_batches(
                    f"SELECT id, parent, {encoding.sibling_order_column} "
                    f"FROM {encoding.node_table.name} WHERE doc = ?",
                    "id", missing, (doc,),
                ):
                    for row_id, parent, order_value in self.backend.execute(
                        sql, params
                    ).rows:
                        known[row_id] = (parent, order_value)
            for node, head in heads.items():
                if head:
                    heads[node], order_value = kept.get(head) or known[head]
                    paths[node].append(order_value)
            steps += 1
        if fetched and epoch is not None:
            self.cache.put_keys(doc, known, epoch)
        return {node: tuple(reversed(path)) for node, path in paths.items()}

    def _client_order(
        self, doc: int, rows: list[tuple], translated: TranslatedQuery,
        epoch: Optional[int],
    ) -> list[tuple]:
        """*rows* in document order, for a plan whose encoding has no
        order column (Local), by the sibling-order paths of their nodes
        or owners in the plan's encoding (the rows' table).

        A caching read (*epoch* is the one its result is put under)
        climbs through and adds to the document's kept parent pointers,
        except in a read scope writers commit beside (a file), whose
        snapshot may be older than the pointers."""
        encoding = ENCODINGS[translated.encoding]
        if epoch is not None and self.backend.reads_beside_writers():
            epoch = None
        kept = (None if epoch is None else self.cache.get_keys(doc)) or {}
        if translated.result_kind == "attribute":
            # The walk starts at the owners (several rows may share one).
            keys = self._order_keys(
                encoding, doc, {row[0] for row in rows}, {}, kept, epoch
            )
            return sorted(rows, key=lambda row: (keys[row[0]], row[1] or ""))
        parent = translated.columns.index("parent")
        order = translated.columns.index(encoding.sibling_order_column)
        known = {row[0]: (row[parent], row[order]) for row in rows}
        keys = self._order_keys(encoding, doc, list(known), known, kept, epoch)
        return sorted(rows, key=lambda row: keys[row[0]])

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
        with self.backend.snapshot():
            encoding = self.encoding_for(doc)
            row = self.fetch_node(doc, node_id, encoding)
            if row is None:
                raise StorageError(f"no node {node_id} in document {doc}")
            if row["kind"] != "elem":
                return row["value"] or ""
            subtree = encoding.subtree_where(row, include_root=False)
            if subtree is None:
                return "".join(
                    value or "" for _id, _parent, kind, _tag, value
                    in ordered_rows(self, doc, row, encoding)
                    if kind == "text"
                )
            where, bounds = subtree
            result = self.backend.execute(
                f"SELECT value FROM {encoding.node_table.name} "
                f"WHERE doc = ? AND {where} "
                f"AND kind = 'text' ORDER BY {encoding.order_by_column}",
                (doc, *bounds),
            )
        return "".join(r[0] for r in result.rows if r[0] is not None)

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
        result = self.backend.execute(
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
        result = self.backend.execute(
            f"SELECT {', '.join(columns)} FROM {encoding.node_table.name} "
            f"WHERE doc = ? AND parent = ? ORDER BY {order}",
            (doc, parent_id),
        )
        return [dict(zip(columns, row)) for row in result.rows]

    def node_count(self, doc: int) -> int:
        result = self.backend.execute(
            f"SELECT COUNT(*) FROM {self.node_table_for(doc)} "
            f"WHERE doc = ?",
            (doc,),
        )
        return int(result.rows[0][0])
