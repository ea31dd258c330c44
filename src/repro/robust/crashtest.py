"""Crash-recovery verification: one sweep driver, five scenarios.

Every statement-level crashtest is the same experiment: run an action
against a file-backed sqlite store — the one backend that keeps data;
minidb is an in-memory engine with nothing to recover — kill the
engine at a chosen statement, reopen, and require the store to be
clean and to equal the state before or after the action, never
anything in between.  :func:`sweep` owns that experiment; a
:class:`CrashScenario` declares what varies (the action, the state
signature, the audit, which of pre/post may survive).  Per scenario
the driver:

1. saves the durable baseline and records the **pre** signature;
2. measures the action on a scratch clone: its statement count, its
   **post** signature, a clean audit;
3. picks crash points in ``[1, statements]`` (:func:`crash_points`:
   sampled, or every one under ``--sweep``);
4. per point restores the baseline, opens, arms a crash at that
   statement, runs the action and requires the crash (*determinism*);
   reopens, audits (*invariant*) and requires the signature to be a
   permitted survivor (*atomicity*);
5. applies the action for real and requires the measured post state
   (*replay*).

The scenarios, each a baseline setup plus a declaration:

* **ops** (:func:`run_crashtest`) — each operation of a seeded update
  stream (the differential fuzzer's generator);
* **migrate** (:func:`run_migration_crashtest`) — a whole
  re-encoding; the signature includes the catalogued encoding;
* **index** (:func:`run_index_crashtest`) — index create, an indexed
  update and index drop, over one node-tables + index-tables signature;
* **writer** (:func:`run_writer_crashtest`) — a batch of inserts in
  one transaction; only the pre-batch state may survive.

The fifth, **shard-kill** (:mod:`repro.serve.crashtest`), SIGKILLs a
real process and has no statement count to sweep; it keeps its own cell
and shares :func:`recovery_verdict`, :class:`CrashFailure` and
:class:`CrashTestReport`.  ``repro crashtest`` exposes all five;
failures carry a replaying command line just like fuzz failures.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from repro.backends.sqlite_backend import SqliteBackend
from repro.check.fuzz import (
    DEFAULT_ENCODINGS,
    apply_operation,
    plan_operation,
)
from repro.check.invariants import (
    audit_document,
    audit_store,
    summarize_violations,
)
from repro.migrate import migrate_document
from repro.robust.faults import (
    FaultInjectingBackend,
    FaultPlan,
    SimulatedCrash,
)
from repro.store import XmlStore
from repro.workload.docgen import random_document
from repro.workload.update_ops import make_fragment
from repro.xmldom import serialize


# -- configuration and results ------------------------------------------


@dataclass
class CrashTestConfig:
    """Parameters of one crashtest run."""

    #: Number of random documents (seeds ``base_seed .. base_seed+n-1``).
    seeds: int = 2
    #: Update operations applied per cell.
    ops: int = 6
    encodings: Sequence[str] = DEFAULT_ENCODINGS
    gaps: Sequence[int] = (1,)
    base_seed: int = 0
    #: Crash points sampled per operation; 0 sweeps every statement.
    crashes_per_op: int = 2
    #: Shape of the generated documents.
    max_depth: int = 3
    max_children: int = 3

    def cells(self) -> list[tuple[int, int, str]]:
        return [
            (self.base_seed + i, gap, encoding)
            for i in range(self.seeds)
            for gap in self.gaps
            for encoding in self.encodings
        ]


#: ``CrashFailure.mode`` -> the ``repro crashtest`` flags that select
#: that harness and pin the failing cell.
_MODE_FLAGS = {
    "ops": "--ops {index} --gaps {gap} --encodings {encodings}",
    "writer": "--ops 0 --writer-batches {index} --encodings {encodings}",
    "migrate": "--migrate --encodings {encodings}",
    "index": "--index --gaps {gap} --encodings {encodings}",
    "shard-kill": "--shard-kill --shard-rounds {index} --gaps {gap} "
                  "--encodings {encodings}",
}


@dataclass(frozen=True)
class CrashFailure:
    """One crashtest failure."""

    seed: int
    gap: int
    #: The cell's encoding; ``source->target`` for a migration.
    encoding: str
    #: 1-based index of the operation, writer batch or kill round under
    #: test (0 = baseline setup).
    op_index: int
    #: Statement the crash was injected at (0 = no crash injected).
    crash_at: int
    #: Human-readable description of the operation.
    op: str
    #: invariant | atomicity | determinism | replay | crash
    kind: str
    detail: str
    #: Which harness found it: a key of ``_MODE_FLAGS``.
    mode: str = "ops"

    def repro_command(self) -> str:
        """A CLI line that replays exactly this cell."""
        flags = _MODE_FLAGS[self.mode].format(
            index=self.op_index or 1, gap=self.gap,
            encodings=self.encoding.replace("->", ","),
        )
        return (
            f"repro crashtest --seeds 1 --base-seed {self.seed} "
            f"{flags} --sweep"
        )

    def __str__(self) -> str:
        where = f"op #{self.op_index} [{self.op}]"
        if self.crash_at:
            where += f", crash at statement {self.crash_at}"
        return (
            f"{self.kind} failure in {self.encoding} "
            f"(seed {self.seed}, gap {self.gap}) after {where}: "
            f"{self.detail}\n  reproduce: {self.repro_command()}"
        )


@dataclass
class CrashTestReport:
    """Aggregate result of a crashtest run."""

    cells: int = 0
    operations: int = 0
    crashes: int = 0
    recoveries: int = 0
    writer_batches: int = 0
    failures: list[CrashFailure] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.failures

    def merge(self, other: "CrashTestReport") -> None:
        self.cells += other.cells
        self.operations += other.operations
        self.crashes += other.crashes
        self.recoveries += other.recoveries
        self.writer_batches += other.writer_batches
        self.failures.extend(other.failures)

    def summary(self) -> str:
        status = "OK" if self.ok() else f"{len(self.failures)} FAILURE(S)"
        return (
            f"crashtest: {self.cells} cell(s), {self.operations} "
            f"operation(s), {self.crashes} injected crash(es), "
            f"{self.recoveries} recovery check(s), "
            f"{self.writer_batches} writer batch(es): {status}"
        )


# -- the durable medium -------------------------------------------------


def _clone_db(path: Path, clone: Path) -> None:
    """Copy a database file and its sqlite sidecars over *clone*."""
    for suffix in ("", "-wal", "-shm"):
        target = Path(str(clone) + suffix)
        target.unlink(missing_ok=True)
        source = Path(str(path) + suffix)
        if source.exists():
            shutil.copyfile(source, target)


class _Medium:
    """Where a cell's durable state lives — a file-backed sqlite store,
    where every commit is already durable — and how to reopen it."""

    def __init__(self, workdir: Path, encoding: str, gap: int) -> None:
        self.path = workdir / "store.db"
        self.baseline = workdir / "store.db.baseline"
        self.encoding = encoding
        self.gap = gap

    @contextmanager
    def session(
        self, clone: bool = False
    ) -> Iterator[tuple[XmlStore, FaultInjectingBackend]]:
        """Open the durable state (or a discardable scratch *clone* of
        it) behind a disarmed fault injector; closed on exit."""
        path = self.path
        if clone:
            path = self.path.with_name("scratch.db")
            _clone_db(self.path, path)
        injector = FaultInjectingBackend(SqliteBackend(str(path)))
        store = XmlStore(
            backend=injector, encoding=self.encoding, gap=self.gap
        )
        injector.arm(None)  # schema bootstrap must not consume the plan
        try:
            yield store, injector
        finally:
            store.close()

    def save_baseline(self) -> None:
        """Remember the durable state for :meth:`restore_baseline`."""
        _clone_db(self.path, self.baseline)

    def restore_baseline(self) -> None:
        """Reset the durable state to the saved baseline: a crash
        *after* a commit (a migration's, say) legitimately
        leaves the post state behind, which would turn every later
        trial into a no-op."""
        _clone_db(self.baseline, self.path)


# -- the driver ---------------------------------------------------------


@dataclass(frozen=True)
class CrashScenario:
    """One crashable action and how recovery from it is judged."""

    #: ``CrashFailure.op`` of every failure the sweep reports.
    label: str
    #: The work under test; all its statements go through the store.
    action: Callable[[XmlStore], object]
    #: Canonical durable state, compared for pre-or-post equality.
    signature: Callable[[XmlStore], tuple]
    #: Invariant audit of a reopened store (violations, empty = clean).
    audit: Callable[[XmlStore], list]
    #: Which of the pre/post states a crashed run may recover to.
    survivors: tuple[str, ...] = ("pre", "post")
    #: What the measured post signature must satisfy for the sweep to
    #: mean anything (e.g. "the migration really changed the encoding").
    post_ok: Optional[Callable[[tuple], bool]] = None


def crash_points(
    rng: random.Random, statements: int, per_op: int
) -> list[int]:
    """The statements to crash at: *per_op* sampled ones, or all of
    ``1..statements`` when *per_op* is 0 (sweep) or covers them."""
    if per_op <= 0 or per_op >= statements:
        return list(range(1, statements + 1))
    return sorted(rng.sample(range(1, statements + 1), per_op))


def recovery_verdict(
    listing: Optional[str], state, pre, post,
    survivors: Sequence[str] = ("pre", "post"),
) -> Optional[tuple[str, str]]:
    """Judge one recovery; ``(kind, detail)`` when it is unacceptable.

    *listing* is the audit's violation summary (``None`` = clean);
    *state* must equal one of the *survivors* among *pre* and *post*.
    """
    if listing is not None:
        return "invariant", listing
    matched = [
        name for name, known in (("pre", pre), ("post", post))
        if state == known
    ]
    if set(matched) & set(survivors):
        return None
    found = " and ".join(matched) or "neither pre nor post"
    return "atomicity", (
        f"recovered state equals {found}; only "
        f"{' or '.join(survivors)} may survive this crash"
    )


def _attempt(action, store: XmlStore) -> Optional[BaseException]:
    """Run *action*; what it raised (a crash included), else ``None``."""
    try:
        action(store)
    except (SimulatedCrash, Exception) as exc:
        return exc
    return None


def _inspect(scenario: CrashScenario, store: XmlStore):
    """``(violation listing, signature)``; a store that fails its
    audit is not reconstructed."""
    listing = summarize_violations(scenario.audit(store))
    return listing, None if listing else scenario.signature(store)


def sweep(
    medium: _Medium,
    scenario: CrashScenario,
    config: CrashTestConfig,
    crash_rng: random.Random,
    fail: Callable[..., CrashFailure],
    report: CrashTestReport,
) -> Optional[CrashFailure]:
    """Crash *scenario* at sampled (or all) statements; first failure.

    *medium* holds the durable pre state and is left holding the post
    state.  *fail* builds a :class:`CrashFailure` from ``crash_at``,
    ``op``, ``kind`` and ``detail`` — the caller has bound the cell's
    identity; *crash_rng* draws the crash points.
    """

    def failed(kind: str, detail: str, crash_at: int = 0) -> CrashFailure:
        return fail(
            crash_at=crash_at, op=scenario.label, kind=kind, detail=detail
        )

    medium.save_baseline()
    with medium.session() as (store, _):
        pre = scenario.signature(store)

    with medium.session(clone=True) as (scratch, counter):
        raised = _attempt(scenario.action, scratch)
        if raised is not None:
            return failed("replay", f"clean run on a clone raised {raised!r}")
        statements = counter.statements_executed
        listing, post = _inspect(scenario, scratch)
    if listing is not None:
        return failed("invariant", f"after the clean run: {listing}")
    if scenario.post_ok is not None and not scenario.post_ok(post):
        return failed(
            "replay", "clean run left a post state the scenario rejects"
        )

    for crash_at in crash_points(crash_rng, statements, config.crashes_per_op):
        medium.restore_baseline()
        report.crashes += 1
        with medium.session() as (store, injector):
            injector.arm(FaultPlan(crash_at_statement=crash_at))
            raised = _attempt(scenario.action, store)
        if not isinstance(raised, SimulatedCrash):
            outcome = "completed" if raised is None else f"raised {raised!r}"
            return failed(
                "determinism",
                f"crash point {crash_at} <= measured statement count "
                f"{statements} but the action {outcome}",
                crash_at,
            )
        with medium.session() as (recovered, _):
            listing, state = _inspect(scenario, recovered)
        report.recoveries += 1
        verdict = recovery_verdict(
            listing, state, pre, post, scenario.survivors
        )
        if verdict is not None:
            return failed(*verdict, crash_at)

    # Apply for real; the durable state must land exactly on post.
    medium.restore_baseline()
    with medium.session() as (store, _):
        raised = _attempt(scenario.action, store)
        if raised is not None:
            return failed("replay", f"clean run raised {raised!r}")
        listing, state = _inspect(scenario, store)
    if listing is not None:
        return failed("invariant", f"after the real run: {listing}")
    if state != post:
        return failed(
            "replay", "real run diverged from the measured post state"
        )
    return None


# -- shared cell plumbing ------------------------------------------------


def _state(store: XmlStore, doc: int) -> tuple:
    """Canonical durable state: serialized document + catalogue row."""
    info = store.document_info(doc)
    return (
        serialize(store.reconstruct(doc)),
        (info.node_count, info.next_id),
    )


def _run_cells(
    mode: str,
    cells: Iterable[tuple[int, int, str]],
    cell: Callable[..., Optional[CrashFailure]],
    workdir: Optional[Union[str, Path]],
) -> CrashTestReport:
    """Run ``cell(directory, fail, report, seed, gap, encoding)`` for
    every key in *cells*, each in a fresh directory; *fail* builds a
    :class:`CrashFailure` with the key and *mode* bound."""
    report = CrashTestReport()
    for seed, gap, encoding in cells:
        report.cells += 1
        fail = partial(
            CrashFailure, seed=seed, gap=gap, encoding=encoding, mode=mode,
        )
        with tempfile.TemporaryDirectory(
            dir=None if workdir is None else str(workdir),
            prefix="crashtest-",
        ) as directory:
            failure = cell(Path(directory), fail, report, seed, gap, encoding)
        if failure is not None:
            report.failures.append(failure)
    return report


def _load_baseline(
    medium: _Medium,
    config: CrashTestConfig,
    seed: int,
    fail: Callable[..., CrashFailure],
    updates_rng: Optional[random.Random] = None,
) -> tuple[int, Optional[CrashFailure]]:
    """Make the seeded document durable — after two seeded updates when
    *updates_rng* is given, so order values, attributes and string
    values are non-trivial — and audit it: ``(doc, failure)``."""
    document = random_document(
        seed, max_depth=config.max_depth, max_children=config.max_children
    )
    with medium.session() as (store, _):
        doc = store.load(document)
        for _ in range(2 if updates_rng is not None else 0):
            op = plan_operation(updates_rng, store, doc)
            apply_operation(store, doc, op)
        listing = summarize_violations(audit_store(store))
    if listing is None:
        return doc, None
    return doc, fail(
        op_index=0, crash_at=0, op="baseline", kind="invariant",
        detail=listing,
    )


# -- ops: each operation of a seeded update stream ------------------------


def run_crashtest(
    config: CrashTestConfig,
    workdir: Optional[Union[str, Path]] = None,
) -> CrashTestReport:
    """Crash every operation of a seeded update stream.

    One cell is ``(seed, gap, encoding)``: a seeded document,
    then ``config.ops`` operations each planned against the durable
    state and swept by :func:`sweep`.
    """

    def cell(directory, fail, report, seed, gap, encoding):
        medium = _Medium(directory, encoding, gap)
        doc, failure = _load_baseline(medium, config, seed, fail)
        if failure is not None:
            return failure
        rng = random.Random(seed * 7919 + gap)
        crash_rng = random.Random(seed * 104729 + gap)
        for op_index in range(1, config.ops + 1):
            with medium.session() as (store, _):
                op = plan_operation(rng, store, doc)
            report.operations += 1
            failure = sweep(
                medium,
                CrashScenario(
                    label=op["describe"],
                    action=partial(apply_operation, doc=doc, op=op),
                    signature=partial(_state, doc=doc),
                    audit=partial(audit_document, doc=doc),
                ),
                config, crash_rng, partial(fail, op_index=op_index), report,
            )
            if failure is not None:
                return failure
        return None

    return _run_cells("ops", config.cells(), cell, workdir)


# -- migrate: a whole re-encoding -----------------------------------------


def _migration_state(store: XmlStore, doc: int) -> tuple:
    """Durable state *including* the catalogued encoding — a migration
    crash must recover to exactly the pre- or post-migration encoding,
    never a hybrid."""
    return (*_state(store, doc), store.document_info(doc, fresh=True).encoding)


def run_migration_crashtest(
    config: CrashTestConfig,
    workdir: Optional[Union[str, Path]] = None,
) -> CrashTestReport:
    """Crash a migration at sampled (or all) statement boundaries.

    One cell is ``(seed, source, target)`` over every ordered
    pair of the configured encodings: a seeded, twice-updated document
    under *source*, then one :func:`sweep` of the full migration to
    *target*.  The audit is the full-store one (no rows in a
    wrong-encoding table) and the signature — document bytes, catalogue
    row, *and* encoding — must equal exactly the pre- or the
    post-migration state.
    """

    def cell(directory, fail, report, seed, gap, pair):
        source, target = pair.split("->")
        medium = _Medium(directory, source, gap)
        doc, failure = _load_baseline(
            medium, config, seed, fail, random.Random(seed * 6389 + 11)
        )
        if failure is not None:
            return failure
        report.operations += 1
        return sweep(
            medium,
            CrashScenario(
                label=f"migrate {source} -> {target}",
                action=partial(migrate_document, doc=doc, target=target),
                signature=partial(_migration_state, doc=doc),
                audit=audit_store,
                post_ok=lambda post: post[2] == target,
            ),
            config, random.Random(seed * 104729 + 29),
            partial(fail, op_index=1), report,
        )

    cells = [
        (config.base_seed + i, 1, f"{source}->{target}")
        for i in range(config.seeds)
        for source in config.encodings
        for target in config.encodings
        if source != target
    ]
    return _run_cells("migrate", cells, cell, workdir)


# -- index: create, indexed update, drop ----------------------------------


def _index_signature(store: XmlStore, doc: int) -> Optional[tuple]:
    """The complete durable index state of *doc*, or ``None`` if absent.

    The sorted ``idx_sval`` rows: a crashed create or drop must recover
    to exactly one of the two signatures — never part of a document's
    rows, or a catalogue row that says ``indexed`` over no rows.
    """
    if not store.indexes.exists(doc):
        return None
    return tuple(sorted(store.backend.execute(
        "SELECT * FROM idx_sval WHERE doc = ?", (doc,)
    ).rows))


def run_index_crashtest(
    config: CrashTestConfig,
    workdir: Optional[Union[str, Path]] = None,
) -> CrashTestReport:
    """Crash an index create, an indexed update and an index drop.

    Per ``(seed, gap, encoding)`` cell: a seeded, twice-
    updated, unindexed document, then three :func:`sweep` s in a row,
    each starting from the state the previous one left durable —
    ``indexes.create``, a seeded update maintaining that index,
    ``indexes.drop``.  All three share one signature, node
    tables plus the full contents of the index tables, so "a crashed
    create or drop changed the node tables", "the recovered index is
    partial" and "the update tore nodes from index" are all the same
    finding: neither pre nor post.
    """

    def cell(directory, fail, report, seed, gap, encoding):
        medium = _Medium(directory, encoding, gap)
        doc, failure = _load_baseline(
            medium, config, seed, fail, random.Random(seed * 6389 + 17)
        )
        if failure is not None:
            return failure

        def run(salt: int, label: str, action, **declared):
            report.operations += 1
            return sweep(
                medium,
                CrashScenario(
                    label=label,
                    action=action,
                    signature=lambda store: (
                        _state(store, doc), _index_signature(store, doc)
                    ),
                    audit=partial(audit_document, doc=doc),
                    **declared,
                ),
                config, random.Random(seed * 104729 + salt),
                partial(fail, op_index=1), report,
            )

        def indexed(post: tuple) -> bool:
            return post[1] is not None

        failure = run(
            37, "create index", lambda store: store.indexes.create(doc),
            post_ok=indexed,
        )
        if failure is not None:
            return failure
        with medium.session() as (store, _):
            op = plan_operation(random.Random(seed * 9791 + 7), store, doc)

        # Index maintenance rides the update's own transaction, so
        # node tables and index rows must tear together or not at all.
        return run(
            71, "indexed update",
            lambda store: apply_operation(store, doc, op),
            post_ok=indexed,
        ) or run(
            53, "drop index", lambda store: store.indexes.drop(doc),
            post_ok=lambda post: not indexed(post),
        )

    return _run_cells("index", config.cells(), cell, workdir)


# -- writer: one batch, one transaction ----------------------------------


def _writer_batch(
    store: XmlStore, doc: int, root_id: int, start_index: int,
    batch_size: int,
) -> None:
    """Insert *batch_size* fragments as ONE ``BEGIN ... COMMIT``."""

    def batch() -> None:
        for i in range(batch_size):
            store.updates.insert(
                doc, root_id, start_index + i,
                make_fragment("wc", payload_nodes=2),
            )

    store.transactionally(batch)


def run_writer_crashtest(
    config: CrashTestConfig,
    batches: int = 2,
    batch_size: int = 4,
    workdir: Optional[Union[str, Path]] = None,
) -> CrashTestReport:
    """Crash a writer mid-batch; reopen; audit.

    Each ``(seed, encoding)`` cell is a file-backed sqlite store.
    Per batch round a whole batch of deterministic inserts is one
    transaction and one :func:`sweep`: crash points are the batch's
    statements, none of them its ``COMMIT`` (the injector counts
    statements, not transaction boundaries), so the only state allowed
    to survive is the pre-batch one — never a partially, or a wholly,
    applied batch.
    """

    def cell(directory, fail, report, seed, gap, encoding):
        medium = _Medium(directory, encoding, gap)
        doc, failure = _load_baseline(medium, config, seed, fail)
        if failure is not None:
            return failure
        with medium.session() as (store, _):
            root_id = next(
                row["id"] for row in store.fetch_children(doc, 0)
                if row["kind"] == "elem"
            )
            start_index = len(store.fetch_children(doc, root_id))
        crash_rng = random.Random(seed * 104729 + 17)
        for batch_index in range(1, batches + 1):
            report.writer_batches += 1
            report.operations += batch_size
            failure = sweep(
                medium,
                CrashScenario(
                    label=f"writer batch of {batch_size} insert(s)",
                    action=partial(
                        _writer_batch, doc=doc, root_id=root_id,
                        start_index=start_index, batch_size=batch_size,
                    ),
                    signature=partial(_state, doc=doc),
                    audit=partial(audit_document, doc=doc),
                    survivors=("pre",),
                ),
                config, crash_rng, partial(fail, op_index=batch_index),
                report,
            )
            if failure is not None:
                return failure
            start_index += batch_size
        return None

    cells = [
        (config.base_seed + i, 1, encoding)
        for i in range(config.seeds)
        for encoding in config.encodings
    ]
    return _run_cells("writer", cells, cell, workdir)
