"""Re-encoding one stored document: a single transaction.

``migrate_document`` moves a document between order encodings (global /
local / dewey / ordpath, at the store's gap) the way a rebalance
renumbers one: read it in document order, label the rows afresh
(:func:`repro.core.shredder.relabel`, which keeps the stored surrogate
ids), and write them once — here into the target encoding's tables,
after which the source rows go and the catalogue's ``encoding`` column
flips.  All of it is one :meth:`XmlStore.transactionally` body, so

* crash safety is the transaction's: a crash at any statement boundary
  recovers to exactly the pre- or the post-migration store, and there is
  no migration state outside the transaction to recover;
* writers are serialized with it by whatever serializes the store's
  transactions (the shared connection's lock, the write queue's single
  writer thread), and wait for its whole duration — reported as
  ``MigrationReport.blocked_ms``.  A pooled backend *without* a write
  queue does not serialize writers and is not supported;
* two migrations of one document serialize too: the source encoding is
  resolved from the catalogue row as read inside the transaction, so
  the second one starts from where the first one ended.

Index tables carry no order columns and are not touched.  The commit
invalidates the migrated document's cached catalogue row and results
and no other document's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.core.encodings import OrderEncoding, get_encoding
from repro.core.reconstruct import ordered_rows
from repro.core.shredder import relabel
from repro.errors import MigrationError
from repro.obs import METRICS, span
from repro.store import XmlStore


@dataclass
class MigrationReport:
    """What one ``migrate_document`` call did."""

    doc: int
    source: str
    target: str
    outcome: str = "migrated"  # "migrated" | "noop"
    rows_copied: int = 0
    attrs_copied: int = 0
    #: How long the transaction took, i.e. how long writers waited.
    blocked_ms: float = 0.0


def migrate_document(
    store: XmlStore, doc: int, target: Union[str, OrderEncoding]
) -> MigrationReport:
    """Re-encode document *doc* of *store* into *target*.

    Raises :class:`~repro.errors.MigrationError` when the target's
    tables cannot be created or the stored rows do not match the
    catalogue; on any failure the document is as it was.
    """
    if isinstance(target, str):
        target = get_encoding(target)
    # DDL, so outside the transaction; IF NOT EXISTS makes a repeat free.
    for statement in target.create_statements():
        try:
            store.backend.execute(statement)
        except Exception as exc:
            raise MigrationError(
                f"migration table bootstrap failed: {statement!r}: {exc}"
            ) from exc
    execute = store.backend.execute

    def body() -> MigrationReport:
        store.note_write(doc)
        info = store.document_info(doc, fresh=True)
        source = get_encoding(info.encoding or store.encoding.name)
        report = MigrationReport(doc, source.name, target.name)
        if source.name == target.name:
            report.outcome = "noop"
            return report
        METRICS.inc("migrate.started")  # per attempt, under a retry policy
        attrs = execute(
            f"SELECT doc, owner, name, value "
            f"FROM {source.attr_table.name} WHERE doc = ?",
            (doc,),
        ).rows
        rows = ordered_rows(store, doc, encoding=source)
        if len(rows) != info.node_count:
            raise MigrationError(
                f"document {doc} has {len(rows)} row(s) in "
                f"{source.node_table.name}, its catalogue entry says "
                f"{info.node_count}"
            )
        # Labelled afresh, as a rebalance does: a migration also
        # compacts whatever gaps and carets the source accumulated.
        store._bulk_insert(target, doc, relabel(rows), attrs)
        for table in (source.node_table, source.attr_table):
            execute(f"DELETE FROM {table.name} WHERE doc = ?", (doc,))
        execute(
            "UPDATE documents SET encoding = ? WHERE doc = ?",
            (target.name, doc),
        )
        report.rows_copied, report.attrs_copied = len(rows), len(attrs)
        # The torn-read guard (XmlStore.query): a reader resolves the
        # catalogue and executes without holding the writers' lock in
        # between.  Dropping the cached catalogue row and moving the
        # epoch here, before COMMIT, means a reader that resolved the
        # source encoding read the epoch before this line and re-runs,
        # and a later one finds no cached row and — on the shared
        # connection — waits for the commit to read it.
        store.cache.bump({doc})
        store._migration_epoch += 1
        return report

    timing: dict[str, float] = {}
    try:
        with span("migrate", timing):
            report = store.transactionally(body)
    except BaseException:
        METRICS.inc("migrate.aborted")
        raise
    if report.outcome == "migrated":
        # Readers with a connection of their own (a pooled backend
        # behind the write queue) do not wait: one can read the source
        # encoding between the bump above and the COMMIT, and execute
        # after it.  It read the epoch before this line.
        store._migration_epoch += 1
        report.blocked_ms = timing["migrate"] * 1000.0
        METRICS.inc("migrate.completed")
        METRICS.inc("migrate.rows_copied", report.rows_copied)
        METRICS.observe("migrate.blocked_ms", report.blocked_ms)
    return report
