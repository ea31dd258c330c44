"""One shard worker process: a wire server around one :class:`XmlStore`.

Run as ``python -m repro.serve.worker --db F --socket S [--encoding E]``
(the :class:`~repro.serve.supervisor.Supervisor` spawns these).  The
worker opens its shard's sqlite file through the pooled backend, turns
on the group-commit write queue, and serves the wire protocol on a unix
socket, one thread per connection — reads run concurrently on pooled
WAL connections while updates funnel through the single writer.

Document ids in this module are shard-local; the router owns the
global numbering.  ``update_batch`` applies a list of operations in one
transaction (its optional ``pause_ms`` stretches the transaction so the
shard-kill crashtest can land SIGKILL mid-batch and assert the WAL
rolls the whole batch back).
"""

from __future__ import annotations

import argparse
import os
import signal
import socket
import sys
import threading
import time
import traceback
from typing import Optional

from repro import obs
from repro.check.fuzz import apply_operation
from repro.check.invariants import audit_document
from repro.errors import ReproError
from repro.obs import METRICS
from repro.serve.protocol import (
    ProtocolError,
    error_response,
    ok_response,
    recv_frame,
    send_frame,
)
from repro.store import XmlStore
from repro.xmldom.serializer import serialize


def _result_items(items) -> list[list]:
    return [[i.kind, i.node_id, i.label, i.value] for i in items]


def _info_fields(info) -> dict:
    return {
        "doc": info.doc,
        "name": info.name,
        "node_count": info.node_count,
        "max_depth": info.max_depth,
        "next_id": info.next_id,
        "encoding": info.encoding,
    }


class ShardWorker:
    """The request handler half of a worker process (testable in-proc)."""

    def __init__(self, store: XmlStore, shard_index: int = 0) -> None:
        self.store = store
        self.shard_index = shard_index
        self._shutdown = threading.Event()

    # -- dispatch ---------------------------------------------------------

    def handle(self, request: dict) -> dict:
        op = request.get("op")
        handler = getattr(self, f"_op_{op}", None) if op else None
        if handler is None or not isinstance(op, str):
            return error_response(
                request, "bad_request", f"unknown op {op!r}"
            )
        try:
            return handler(request)
        except ReproError as exc:
            return error_response(request, "store_error", str(exc))
        except Exception as exc:  # noqa: BLE001 - wire boundary
            return error_response(
                request,
                "internal",
                f"{type(exc).__name__}: {exc}",
                traceback=traceback.format_exc(limit=8),
            )

    def shutdown_requested(self) -> bool:
        return self._shutdown.is_set()

    # -- ops --------------------------------------------------------------

    def _op_ping(self, request: dict) -> dict:
        return ok_response(
            request, pong=True, pid=os.getpid(), shard=self.shard_index
        )

    def _op_load(self, request: dict) -> dict:
        doc = self.store.load(
            request["xml"], name=request.get("name", "serve")
        )
        return ok_response(request, doc=doc)

    def _op_query(self, request: dict) -> dict:
        items = self.store.query(request["xpath"], doc=int(request["doc"]))
        return ok_response(request, items=_result_items(items))

    def _op_query_all(self, request: dict) -> dict:
        """Run one query over every document in this shard (the
        scatter half of a cross-document query: one round trip)."""
        xpath = request["xpath"]
        results = []
        for info in self.store.documents():
            items = self.store.query(xpath, doc=info.doc)
            results.append([info.doc, _result_items(items)])
        return ok_response(request, results=results)

    def _op_trace(self, request: dict) -> dict:
        with obs.tracing() as tracer:
            items = self.store.query(
                request["xpath"], doc=int(request["doc"])
            )
        return ok_response(
            request,
            items=_result_items(items),
            trace=tracer.to_json(),
        )

    def _op_update(self, request: dict) -> dict:
        report = apply_operation(
            self.store, int(request["doc"]), request["change"]
        )
        return ok_response(
            request,
            inserted=report.inserted,
            deleted=report.deleted,
            relabeled=report.relabeled,
            rows_touched=report.rows_touched(),
        )

    def _op_update_batch(self, request: dict) -> dict:
        """Apply a list of operations atomically (one transaction).

        Each operation notes its document into the outer scope's write
        set, so the one commit invalidates this document's cached
        entries and no other's."""
        doc = int(request["doc"])
        changes = request["changes"]
        pause = float(request.get("pause_ms", 0)) / 1000.0

        def run_batch() -> int:
            touched = 0
            for change in changes:
                report = apply_operation(self.store, doc, change)
                touched += report.rows_touched()
                if pause:
                    time.sleep(pause)
            return touched

        touched = self.store.transactionally(run_batch)
        return ok_response(
            request, applied=len(changes), rows_touched=touched
        )

    def _op_state(self, request: dict) -> dict:
        """Canonical durable state (the crashtest's pre/post probe)."""
        doc = int(request["doc"])
        info = self.store.document_info(doc, fresh=True)
        return ok_response(
            request,
            xml=serialize(self.store.reconstruct(doc)),
            info=_info_fields(info),
        )

    def _op_check(self, request: dict) -> dict:
        """Audit one document's invariants; returns the violations."""
        violations = audit_document(self.store, int(request["doc"]))
        return ok_response(
            request, violations=[str(v) for v in violations]
        )

    def _op_docs(self, request: dict) -> dict:
        return ok_response(
            request,
            docs=[_info_fields(i) for i in self.store.documents()],
        )

    def _op_stats(self, request: dict) -> dict:
        return ok_response(
            request,
            pid=os.getpid(),
            shard=self.shard_index,
            counters=METRICS.snapshot(),
            docs=len(self.store.documents()),
        )

    def _op_shutdown(self, request: dict) -> dict:
        self._shutdown.set()
        return ok_response(request, stopping=True)


# -- the socket server --------------------------------------------------------


def _serve_connection(worker: ShardWorker, conn: socket.socket) -> None:
    try:
        while True:
            try:
                request = recv_frame(conn)
            except ProtocolError:
                break
            if request is None:
                break
            response = worker.handle(request)
            try:
                send_frame(conn, response)
            except OSError:
                break
            if worker.shutdown_requested():
                break
    finally:
        try:
            conn.close()
        except OSError:
            pass


def run_worker(
    db: str,
    socket_path: str,
    encoding: Optional[str] = None,
    gap: Optional[int] = None,
    shard_index: int = 0,
    max_batch: int = 16,
) -> None:
    """Open the shard store and serve the unix socket until shutdown."""
    from repro.cli import open_store

    obs.enable()
    store = open_store(db, encoding=encoding, gap=gap, pooled=True)
    store.enable_write_queue(max_batch=max_batch)
    worker = ShardWorker(store, shard_index=shard_index)

    if os.path.exists(socket_path):
        os.unlink(socket_path)  # stale socket from a killed predecessor
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(socket_path)
    listener.listen(64)
    listener.settimeout(0.2)

    def stop(_signum, _frame) -> None:
        worker._shutdown.set()

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)

    try:
        while not worker.shutdown_requested():
            try:
                conn, _addr = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            thread = threading.Thread(
                target=_serve_connection,
                args=(worker, conn),
                daemon=True,
                name=f"shard{shard_index}-conn",
            )
            thread.start()
    finally:
        listener.close()
        try:
            os.unlink(socket_path)
        except OSError:
            pass
        store.close()


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.worker",
        description="one shard worker (spawned by the serve supervisor)",
    )
    parser.add_argument("--db", required=True)
    parser.add_argument("--socket", required=True)
    parser.add_argument("--encoding", default=None)
    parser.add_argument("--gap", type=int, default=None)
    parser.add_argument("--shard-index", type=int, default=0)
    parser.add_argument("--max-batch", type=int, default=16)
    args = parser.parse_args(argv)
    run_worker(
        args.db,
        args.socket,
        encoding=args.encoding,
        gap=args.gap,
        shard_index=args.shard_index,
        max_batch=args.max_batch,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
