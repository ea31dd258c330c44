"""Online, crash-safe re-encoding of one live document.

``migrate_document`` converts a document between order encodings
(global / local / dewey / ordpath, including their sparse-gap variants)
while the store keeps serving reads and writes.  The staged state
machine:

``START``
    create the shadow tables (``mig_`` + the target encoding's tables)
    and the target encoding's real tables, then install the migration
    state — from that point every committed update against the
    document is journalled (see :mod:`repro.migrate.journal`).
``SNAPSHOT``
    one transaction: drop journal entries that pre-date the snapshot,
    then read the document's catalogue row and every node/attribute
    row of the source encoding.
``COPY``
    convert the snapshot to target-encoding rows (the snapshot was read
    in document order, so the load path's labeler assigns ranks /
    sibling indexes / Dewey paths to it as to a freshly parsed text)
    and insert them into the shadow tables in bounded batches, each
    batch its own transaction.
``REPLAY``
    drain the journal in rounds and apply each entry through a shadow
    store facade — a real :class:`~repro.store.XmlStore` update
    manager pointed at the shadow tables, so replayed operations
    allocate the same surrogate ids the live operations did.
``CUTOVER``
    one transaction: replay the remaining journal entries, check the
    shadow converged (identical ``next_id`` / ``node_count``), copy
    the shadow rows into the target encoding's real tables, delete the
    source rows, and swap the catalogue's ``encoding`` column.
``CLEANUP``
    post-commit: bump the store's migration epoch (in-flight queries
    re-run), drop the shadow tables, clear the migration state.

Every stage transaction declares the migrating document as its write
set, so its commit invalidates that document's cached catalogue row
and results and nothing else; replay through the shadow store touches
no cache at all (the shadow's is disabled).

Crash safety: nothing outside the shadow tables changes until the
single cutover transaction commits, and the shadow tables are dropped
by :meth:`~repro.store.XmlStore._recover_shadow_state` on the next
open.  A crash at *any* statement boundary therefore recovers to
exactly the pre-migration store (cutover not committed) or exactly the
post-migration store (cutover committed, orphan shadow copies
dropped) — never a hybrid.

Concurrency: stages run through :meth:`XmlStore.transactionally`, so
they are serialized with live writers by whatever serializes the store
(the shared connection's lock, the write queue's single writer thread,
or WAL's single-writer rule).  A live update that cannot be replayed
safely — journal overflow, or a commit failure after its journal entry
was promoted — aborts the migration instead; the live document is
never at risk.  (A pooled backend *without* a write queue does not
serialize writers against the snapshot and is not supported for
migration.)
"""

from __future__ import annotations

import copy
import threading
from dataclasses import dataclass, replace
from typing import Callable, TypeVar, Union

from repro.cache import StoreCache
from repro.core.encodings import OrderEncoding, get_encoding
from repro.core.reconstruct import ordered_rows
from repro.core.schema import documents_table, shadow_table
from repro.core.shredder import relabel
from repro.errors import MigrationAborted, MigrationError
from repro.migrate.journal import MigrationJournal
from repro.obs import METRICS, span
from repro.store import XmlStore


@dataclass
class MigrationState:
    """In-flight migration bookkeeping, hung on the live store."""

    doc: int
    source: OrderEncoding
    target: OrderEncoding
    journal: MigrationJournal


@dataclass
class MigrationReport:
    """What one ``migrate_document`` call did."""

    doc: int
    source: str
    target: str
    outcome: str = "migrated"  # "migrated" | "noop"
    rows_copied: int = 0
    attrs_copied: int = 0
    journal_replayed: int = 0
    replay_rounds: int = 0


def _shadow_encoding(target: OrderEncoding) -> OrderEncoding:
    """The target encoding with its tables renamed ``mig_*``.

    A copy of the real target singleton, so every order computation —
    and with it the values shadow rows carry — is exactly what the
    target's real tables will receive at cutover.
    """
    shadow = copy.copy(target)
    shadow.node_table = shadow_table(target.node_table)
    shadow.attr_table = shadow_table(target.attr_table)
    return shadow


class _ShadowStore(XmlStore):
    """An :class:`XmlStore` facade over the shadow tables.

    Shares the live store's backend (so shadow writes join the same
    transactions and locks) but resolves every table through the
    shadow encoding and serves the catalogue from an in-memory overlay
    — the real ``documents`` row belongs to the live document.  The
    update manager then works on it verbatim, which is what makes
    journal replay allocate the same surrogate ids as the live
    operations: both run the identical code over identical catalogue
    state.
    """

    is_shadow = True

    def __init__(
        self, base: XmlStore, encoding: OrderEncoding, info
    ) -> None:
        # Deliberately no super().__init__(): the backend is shared and
        # already bootstrapped, and a shadow must never recover (drop)
        # the very tables it is writing.
        self.backend = base.backend
        self._in_own_transaction = base._in_own_transaction
        self.encoding = encoding
        self.gap = base.gap
        self.retry = base.retry
        self.write_queue = None
        self.cache = StoreCache(enabled=False)
        self._scope = threading.local()
        self._docs_table = documents_table()
        self._migration = None
        self._migration_epoch = 0
        # encoding=None so the update manager resolves the shadow
        # encoding (this store's default) for every operation.
        self._info = replace(info, encoding=None)
        from repro.core.updates import UpdateManager

        self.updates = UpdateManager(self)

    # -- catalogue overlay -------------------------------------------------

    def document_info(self, doc: int, fresh: bool = False):
        if doc != self._info.doc:
            raise MigrationError(
                f"shadow store only holds document {self._info.doc}, "
                f"not {doc}"
            )
        return replace(self._info)

    def update_document_info(self, info) -> None:
        self._info = replace(info)

    def reset_overlay(self, info) -> None:
        """Restore the overlay (cutover re-execution after a rollback)."""
        self._info = replace(info, encoding=None)

    def encoding_for(self, doc: int) -> OrderEncoding:
        return self.encoding

    def transactionally(self, operation):
        # The overlay is plain memory: roll it back by hand when the
        # operation (or its transaction) fails, so a retried attempt
        # re-reads the same next_id the live operation used.
        def guarded():
            saved = replace(self._info)
            try:
                return operation()
            except BaseException:
                self._info = saved
                raise

        return super().transactionally(guarded)

    def load(self, *args, **kwargs):  # pragma: no cover - misuse guard
        raise MigrationError("shadow stores do not load documents")


def _bootstrap_tables(store: XmlStore, encoding: OrderEncoding) -> None:
    for statement in encoding.create_statements():
        try:
            store.backend.execute(statement)
        except Exception as exc:
            raise MigrationError(
                f"migration table bootstrap failed: {statement!r}: {exc}"
            ) from exc


def _drop_shadow_tables(
    store: XmlStore, encoding: OrderEncoding
) -> bool:
    """Best-effort drop; returns False when any drop failed (the
    reopen-time recovery sweep picks the leftovers up)."""
    clean = True
    for table in (encoding.node_table.name, encoding.attr_table.name):
        try:
            store.backend.execute(f"DROP TABLE {table}")
        except Exception:
            clean = False
    return clean


def _apply_entry(shadow: _ShadowStore, doc: int, entry: tuple) -> None:
    kind = entry[0]
    if kind == "insert":
        _, parent_id, index, shredded = entry
        shadow.updates.insert_shredded(doc, parent_id, index, shredded)
    elif kind == "delete":
        shadow.updates.delete(doc, entry[1])
    elif kind == "set_text":
        shadow.updates.set_text(doc, entry[1], entry[2])
    elif kind == "rename":
        shadow.updates.rename(doc, entry[1], entry[2])
    elif kind == "set_attribute":
        shadow.updates.set_attribute(doc, entry[1], entry[2], entry[3])
    else:  # pragma: no cover - future entry kinds
        raise MigrationError(f"unknown journal entry kind {kind!r}")


def _check_journal(journal: MigrationJournal) -> None:
    if journal.poisoned:
        raise MigrationAborted(
            "migration aborted: a commit failed after its journal "
            "entry was promoted, so the journal may not match the "
            "live document",
            reason="poisoned-journal",
        )
    if journal.overflowed:
        raise MigrationAborted(
            "migration aborted: journal overflowed (live updates are "
            "outrunning replay)",
            reason="journal-overflow",
        )


_T = TypeVar("_T")

#: How many drain-and-replay rounds to run before forcing cutover (the
#: cutover transaction replays whatever is still pending, so this only
#: bounds how much work lands inside that single transaction).
_MAX_REPLAY_ROUNDS = 8


def migrate_document(
    store: XmlStore,
    doc: int,
    target: Union[str, OrderEncoding],
    batch_size: int = 500,
) -> MigrationReport:
    """Re-encode document *doc* of *store* into *target*, online.

    Returns a :class:`MigrationReport`; raises
    :class:`~repro.errors.MigrationAborted` when the migration rolled
    itself back (the live document is untouched) and
    :class:`~repro.errors.MigrationError` on invalid requests.
    """
    if isinstance(target, str):
        target = get_encoding(target)
    if store.is_shadow:
        raise MigrationError("cannot migrate a shadow store")
    if batch_size < 1:
        raise MigrationError(f"batch_size must be >= 1, got {batch_size}")
    if store._migration is not None:
        raise MigrationError(
            "a migration is already running on this store"
        )

    info = store.document_info(doc, fresh=True)
    source = get_encoding(info.encoding or store.encoding.name)
    report = MigrationReport(doc=doc, source=source.name,
                             target=target.name)
    if source.name == target.name:
        report.outcome = "noop"
        return report

    shadow_encoding = _shadow_encoding(target)
    journal = MigrationJournal()
    state = MigrationState(doc=doc, source=source, target=target,
                           journal=journal)
    METRICS.inc("migrate.started")

    # START -- tables first (outside any transaction: DDL), then the
    # journal hook.  Installing through transactionally serializes the
    # install against in-flight writer transactions, so no update can
    # commit "between" the hook and the snapshot unjournalled.
    _bootstrap_tables(store, shadow_encoding)
    _bootstrap_tables(store, target)

    def staged(operation: Callable[[], _T]) -> _T:
        """One stage transaction.  Its write set is the migrating
        document — the only one whose cached entries a stage can
        outdate — so every other document's entries survive the whole
        migration."""

        def body() -> _T:
            store.note_write(doc)
            return operation()

        return store.transactionally(body)

    def install() -> None:
        store._migration = state

    staged(install)

    try:
        # SNAPSHOT -- one transaction over catalogue + rows.  Entries
        # promoted before this transaction began are already in the
        # rows we read (writers are serialized), so drop them first —
        # and likewise this thread's *staged* entries: when the
        # snapshot runs inside a write-queue batch, earlier operations
        # of the same batch share its transaction, so their effects
        # are in the snapshot too.
        def snapshot():
            journal.drain()
            journal.discard()
            snap_info = store.document_info(doc, fresh=True)
            attrs = store.backend.execute(
                f"SELECT doc, owner, name, value "
                f"FROM {source.attr_table.name} WHERE doc = ?",
                (doc,),
            ).rows
            return snap_info, ordered_rows(store, doc), attrs

        with span("migrate.snapshot"):
            snap_info, source_rows, attr_rows = staged(snapshot)

        # COPY -- convert and land in bounded batches.
        with span("migrate.copy"):
            # Labelled afresh, as a rebalance does: a migration also
            # compacts whatever gaps and carets the source accumulated.
            records = relabel(source_rows)
            node_sql = (
                f"INSERT INTO {shadow_encoding.node_table.name} VALUES "
                f"({', '.join('?' * len(shadow_encoding.node_columns()))})"
            )
            node_rows = list(
                shadow_encoding.node_rows(doc, records, store.gap)
            )
            for start in range(0, len(node_rows), batch_size):
                batch = node_rows[start:start + batch_size]
                staged(
                    lambda b=batch: store.backend.executemany(node_sql, b)
                )
                report.rows_copied += len(batch)
                METRICS.inc("migrate.rows_copied", len(batch))
            attr_sql = (
                f"INSERT INTO {shadow_encoding.attr_table.name} "
                f"VALUES (?, ?, ?, ?)"
            )
            for start in range(0, len(attr_rows), batch_size):
                batch = attr_rows[start:start + batch_size]
                staged(
                    lambda b=batch: store.backend.executemany(attr_sql, b)
                )
                report.attrs_copied += len(batch)

        # REPLAY -- drain rounds until the journal runs dry (or the
        # round budget is spent; the cutover replays the remainder).
        shadow = _ShadowStore(store, shadow_encoding, snap_info)
        with span("migrate.replay"):
            for _ in range(_MAX_REPLAY_ROUNDS):
                _check_journal(journal)
                entries = journal.drain()
                if not entries:
                    break
                report.replay_rounds += 1
                for entry in entries:
                    _apply_entry(shadow, doc, entry)
                    report.journal_replayed += 1
                    METRICS.inc("migrate.journal_replayed")

        # CUTOVER -- one transaction makes the shadow authoritative.
        # The journal is read non-destructively and the overlay reset
        # at entry, so a rolled-back-and-retried cutover re-executes
        # identically.
        cutover_overlay = shadow.document_info(doc)

        def cutover() -> int:
            _check_journal(journal)
            shadow.reset_overlay(cutover_overlay)
            remainder = [*journal.pending(), *journal.staged()]
            for entry in remainder:
                _apply_entry(shadow, doc, entry)
                METRICS.inc("migrate.journal_replayed")

            live = store.document_info(doc, fresh=True)
            mirror = shadow.document_info(doc)
            if (live.next_id, live.node_count) != (
                mirror.next_id, mirror.node_count
            ):
                raise MigrationAborted(
                    f"migration aborted: shadow diverged from live "
                    f"document (live next_id={live.next_id} "
                    f"node_count={live.node_count}, shadow "
                    f"next_id={mirror.next_id} "
                    f"node_count={mirror.node_count})",
                    reason="divergence",
                )
            shadow_count = store.backend.execute(
                f"SELECT COUNT(*) FROM {shadow_encoding.node_table.name} "
                f"WHERE doc = ?",
                (doc,),
            ).rows[0][0]
            if shadow_count != live.node_count:
                raise MigrationAborted(
                    f"migration aborted: shadow holds {shadow_count} "
                    f"rows, live catalogue says {live.node_count}",
                    reason="row-count",
                )

            # Publish: shadow rows into the target's real tables (read
            # + executemany — minidb has no INSERT ... SELECT), source
            # rows out, catalogue swapped.  All-or-nothing with the
            # enclosing transaction.
            columns = target.node_columns()
            moved = store.backend.execute(
                f"SELECT {', '.join(columns)} "
                f"FROM {shadow_encoding.node_table.name} WHERE doc = ?",
                (doc,),
            ).rows
            store.backend.executemany(
                f"INSERT INTO {target.node_table.name} VALUES "
                f"({', '.join('?' * len(columns))})",
                [tuple(r) for r in moved],
            )
            moved_attrs = store.backend.execute(
                f"SELECT doc, owner, name, value "
                f"FROM {shadow_encoding.attr_table.name} WHERE doc = ?",
                (doc,),
            ).rows
            if moved_attrs:
                store.backend.executemany(
                    f"INSERT INTO {target.attr_table.name} "
                    f"VALUES (?, ?, ?, ?)",
                    [tuple(r) for r in moved_attrs],
                )
            store.backend.execute(
                f"DELETE FROM {source.node_table.name} WHERE doc = ?",
                (doc,),
            )
            store.backend.execute(
                f"DELETE FROM {source.attr_table.name} WHERE doc = ?",
                (doc,),
            )
            store.backend.execute(
                "UPDATE documents SET encoding = ? WHERE doc = ?",
                (target.name, doc),
            )
            return len(remainder)

        with span("migrate.cutover"):
            report.journal_replayed += staged(cutover)
    except BaseException:
        # Abort: the live document is untouched; discard the shadow.
        # Clearing the state first stops new entries from staging; the
        # drops are best-effort (a crashed backend cannot drop — the
        # reopen-time recovery sweep handles that case).
        store._migration = None
        try:
            _drop_shadow_tables(store, shadow_encoding)
        except BaseException:
            pass  # crashed backend: the reopen-time sweep drops them
        METRICS.inc("migrate.aborted")
        raise

    # CLEANUP -- post-commit (the cutover's commit already invalidated
    # the document's cached catalogue row and results): wake in-flight
    # queries, then discard the published shadow copy.  A crash in here
    # leaves only orphan shadow tables (the cutover is durable),
    # dropped on the next open.
    store._migration_epoch += 1
    _drop_shadow_tables(store, shadow_encoding)
    store._migration = None
    METRICS.inc("migrate.completed")
    return report
