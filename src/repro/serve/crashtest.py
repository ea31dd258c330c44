"""Shard-kill crashtest: SIGKILL a worker mid-batch, assert atomicity.

The per-statement fault-injection harness (:mod:`repro.robust.
crashtest`) proves the storage layer atomic under *simulated* process
death.  This harness kills the real thing: a live cluster's shard
worker takes SIGKILL in the middle of an ``update_batch`` transaction
(the batch's ``pause_ms`` stretches the transaction wide enough to hit),
the supervisor respawns it on the same database file, and the recovered
state must be **exactly** the pre-batch or post-batch document — sqlite's
WAL discards the half-written batch — with a clean invariant audit.
There is no statement count to sweep, so this module keeps its own
cell, but the verdict on a recovery (:func:`~repro.robust.crashtest.
recovery_verdict`), the failure record and its ``--shard-kill`` repro
line, and the report are the statement-level driver's.

An in-process twin store receives the same seeded operation stream, so
the expected pre/post states come from the same machinery the
differential fuzzer trusts (plans are expressed in surrogate ids, which
every store assigns identically).  If the recovered state is pre-batch,
the batch is replayed and must then land exactly on post-batch.

Wired to ``repro crashtest --shard-kill``.
"""

from __future__ import annotations

import random
import tempfile
import threading
import time
from functools import partial
from typing import Callable, Optional

from repro.check.fuzz import apply_operation, plan_operation
from repro.check.invariants import summarize_violations
from repro.errors import ReproError
from repro.robust.crashtest import (
    CrashFailure,
    CrashTestReport,
    recovery_verdict,
)
from repro.serve.client import ConnectionFailed, ShardClient
from repro.serve.supervisor import Supervisor
from repro.store import XmlStore
from repro.workload.docgen import random_document
from repro.xmldom import serialize


def _twin_state(twin: XmlStore, doc: int) -> str:
    return serialize(twin.reconstruct(doc))


def _wire_state(client: ShardClient, doc: int) -> str:
    response = client.request({"op": "state", "doc": doc})
    if not response.get("ok"):
        error = response.get("error") or {}
        raise ReproError(
            f"state probe failed [{error.get('type')}]: "
            f"{error.get('message')}"
        )
    return response["xml"]


def _wire_violations(client: ShardClient, doc: int) -> list[str]:
    response = client.request({"op": "check", "doc": doc})
    if not response.get("ok"):
        error = response.get("error") or {}
        raise ReproError(
            f"audit failed [{error.get('type')}]: {error.get('message')}"
        )
    return response["violations"]


def run_shard_kill_crashtest(
    seeds: int = 2,
    rounds: int = 3,
    ops_per_round: int = 4,
    base_seed: int = 0,
    encoding: Optional[str] = None,
    gap: Optional[int] = None,
    pause_ms: int = 25,
) -> CrashTestReport:
    """Kill a live shard worker mid-batch *seeds* times; audit recovery.

    Each seed gets its own single-shard cluster in a fresh directory
    (one shard keeps the kill aimed at the document under test; the
    router-level isolation of a dead shard is covered by the serve
    tests).  Per round: plan a batch on the twin, send it over the wire
    with ``pause_ms`` stretching the transaction, SIGKILL the worker
    mid-flight, respawn, and verify atomicity + invariants.
    """
    report = CrashTestReport()
    for seed in range(base_seed, base_seed + seeds):
        report.cells += 1
        fail = partial(
            CrashFailure, seed=seed, gap=gap or 1, backend="sqlite",
            encoding=encoding or "dewey", crash_at=0, mode="shard-kill",
        )
        with tempfile.TemporaryDirectory(prefix="shardkill-") as tmp:
            try:
                failure = _run_cell(
                    tmp, seed, rounds, ops_per_round,
                    encoding, gap, pause_ms, fail, report,
                )
            except ReproError as exc:
                failure = fail(
                    op_index=0, op="cluster", kind="crash", detail=str(exc)
                )
        if failure is not None:
            report.failures.append(failure)
    return report


def _run_cell(
    directory: str,
    seed: int,
    rounds: int,
    ops_per_round: int,
    encoding: Optional[str],
    gap: Optional[int],
    pause_ms: int,
    fail: Callable[..., CrashFailure],
    report: CrashTestReport,
) -> Optional[CrashFailure]:
    rng = random.Random(seed * 7919 + 23)
    document = random_document(seed)
    xml = serialize(document)

    twin = XmlStore(
        backend="sqlite", encoding=encoding or "dewey", gap=gap or 1
    )
    twin_doc = twin.load(document)

    supervisor = Supervisor(directory, 1, encoding=encoding, gap=gap)
    try:
        supervisor.start()
        spec = supervisor.specs[0]
        client = ShardClient(spec.socket_path, timeout=10.0)
        response = client.request({"op": "load", "xml": xml})
        if not response.get("ok"):
            return fail(
                op_index=0, op="load", kind="crash",
                detail=f"initial load failed: {response}",
            )
        doc = int(response["doc"])

        for round_index in range(1, rounds + 1):
            pre = _twin_state(twin, twin_doc)
            batch = []
            for _ in range(ops_per_round):
                op = plan_operation(rng, twin, twin_doc)
                apply_operation(twin, twin_doc, op)
                batch.append(op)
                report.operations += 1
            post = _twin_state(twin, twin_doc)
            failed = partial(
                fail, op_index=round_index,
                op="; ".join(op["describe"] for op in batch),
            )

            # Send the stretched batch from a side thread; the SIGKILL
            # below lands while it is inside the batch transaction.
            sender_error: list[Exception] = []

            def send_batch(conn: ShardClient = client) -> None:
                try:
                    conn.request({
                        "op": "update_batch",
                        "doc": doc,
                        "changes": batch,
                        "pause_ms": pause_ms,
                    })
                except ConnectionFailed as exc:
                    sender_error.append(exc)

            generation = supervisor.generations[0]
            sender = threading.Thread(target=send_batch, daemon=True)
            sender.start()
            # Aim for the middle of the batch window.
            time.sleep((pause_ms / 1000.0) * ops_per_round / 2)
            supervisor.kill(0)
            report.crashes += 1
            sender.join(timeout=15)
            client.close()  # pooled sockets died with the worker

            respawned = supervisor.ensure_alive()
            if 0 not in respawned:
                return failed(
                    kind="crash",
                    detail="supervisor did not respawn the killed worker",
                )
            if supervisor.generations[0] != generation + 1:
                return failed(
                    kind="crash",
                    detail=f"generation not bumped: {supervisor.generations}",
                )

            recovered = _wire_state(client, doc)
            verdict = recovery_verdict(
                summarize_violations(_wire_violations(client, doc)),
                recovered, pre, post,
            )
            if verdict is not None:
                return failed(kind=verdict[0], detail=verdict[1])
            if recovered == pre:
                # Whole batch rolled back: replay it (no pause) and the
                # store must land exactly on the twin's post state.
                response = client.request({
                    "op": "update_batch",
                    "doc": doc,
                    "changes": batch,
                    "pause_ms": 0,
                })
                if not response.get("ok"):
                    return failed(
                        kind="replay",
                        detail=f"replay after rollback failed: {response}",
                    )
                if _wire_state(client, doc) != post:
                    return failed(
                        kind="determinism",
                        detail="replayed batch diverged from twin "
                               "post-state",
                    )
            report.recoveries += 1
        client.close()
    finally:
        supervisor.stop()
        twin.close()
    return None
