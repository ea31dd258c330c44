"""Fault injection: seeded transient errors, simulated crashes, torn
snapshots.

The adversary for the recovery machinery in this package.  A
:class:`FaultInjectingBackend` wraps any :class:`~repro.backends.base.
Backend` and, driven by a seeded :class:`FaultPlan`, either

* raises a :class:`TransientInjectedError` *before* a statement runs
  (sqlite-BUSY-style: the statement had no effect and retrying it is
  safe), or
* hard-crashes the store at the Nth statement: the wrapped engine is
  discarded exactly as a process death would leave it (the sqlite
  connection is closed abruptly so its uncommitted transaction is
  lost; the minidb engine object is dropped) and a
  :class:`SimulatedCrash` sentinel propagates.

:class:`SimulatedCrash` derives from ``BaseException`` so ordinary
``except Exception`` recovery code — including the retry policy —
cannot accidentally absorb a "process death".

:func:`simulate_crash_during_save` produces the exact on-disk states an
interrupted :func:`repro.minidb.persist.save` can leave behind, for the
torn-snapshot recovery tests.
"""

from __future__ import annotations

import os
import random
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from repro.backends.base import Backend, BackendResult
from repro.errors import DatabaseError
from repro.minidb import persist
from repro.minidb.engine import MiniDb


class SimulatedCrash(BaseException):
    """Sentinel: the process 'died' here.  Not an ``Exception`` on
    purpose — nothing short of the test harness may catch it."""


class TransientInjectedError(DatabaseError):
    """An injected sqlite-BUSY-style fault: the statement did not run
    and retrying it is safe."""


class FaultPlan:
    """A seeded schedule deciding the fate of each statement.

    Parameters
    ----------
    seed:
        Seeds the transient-fault coin flips (deterministic replay).
    transient_rate:
        Probability that a statement attempt first fails transiently.
    max_consecutive_transients:
        Cap on back-to-back transient failures of the same statement,
        so a bounded retry policy is guaranteed to make progress.
        Keep it below the retry policy's attempt budget.
    crash_at_statement:
        1-based index (counting successfully executed statements) at
        which the backend hard-crashes instead of executing.
    """

    def __init__(
        self,
        seed: int = 0,
        transient_rate: float = 0.0,
        max_consecutive_transients: int = 2,
        crash_at_statement: Optional[int] = None,
    ) -> None:
        if not 0.0 <= transient_rate < 1.0:
            raise ValueError(
                f"transient_rate must be in [0, 1), got {transient_rate}"
            )
        self.seed = seed
        self.transient_rate = transient_rate
        self.max_consecutive_transients = max_consecutive_transients
        self.crash_at_statement = crash_at_statement
        self._rng = random.Random(seed)
        self._consecutive = 0

    def next_fault(self, executed_statements: int) -> str:
        """Fate of the statement about to run: ok | transient | crash."""
        if (
            self.crash_at_statement is not None
            and executed_statements + 1 == self.crash_at_statement
        ):
            return "crash"
        if (
            self.transient_rate > 0.0
            and self._consecutive < self.max_consecutive_transients
            and self._rng.random() < self.transient_rate
        ):
            self._consecutive += 1
            return "transient"
        self._consecutive = 0
        return "ok"


class FaultInjectingBackend(Backend):
    """A :class:`Backend` decorator that injects faults per statement.

    Only ``execute``/``executemany`` are gated (and counted — one
    ``executemany`` call is one statement); ``begin``/``commit``/
    ``rollback`` pass through so a plan's statement indexes stay
    deterministic across runs.  After a crash every operation raises
    :class:`SimulatedCrash` except ``rollback``/``close``, which become
    no-ops — a dead process runs no rollback.
    """

    def __init__(
        self, inner: Backend, plan: Optional[FaultPlan] = None
    ) -> None:
        self.inner = inner
        self.plan = plan
        self.name = inner.name
        self.statements_executed = 0
        self.crashed = False

    def arm(self, plan: Optional[FaultPlan]) -> None:
        """Install *plan* and restart the statement counter (so schema
        bootstrap statements don't consume the plan's budget)."""
        self.plan = plan
        self.statements_executed = 0

    def _gate(self) -> None:
        if self.crashed:
            raise SimulatedCrash("backend already crashed")
        if self.plan is None:
            return
        fate = self.plan.next_fault(self.statements_executed)
        if fate == "crash":
            self._crash()
        if fate == "transient":
            raise TransientInjectedError(
                "injected transient fault (database is busy)"
            )

    def _crash(self) -> None:
        self.crashed = True
        # Discard the in-memory engine the way a process death would:
        # sqlite's connection closes abruptly (its open transaction is
        # lost; the journal/WAL recovers on reopen), a pooled backend
        # abandons every connection at once, and the minidb engine
        # object is dropped on the floor.
        abandon = getattr(self.inner, "abandon", None)
        if abandon is not None:
            try:
                abandon()
            except Exception:
                pass
        conn = getattr(self.inner, "_conn", None)
        if conn is not None:
            try:
                conn.close()
            except Exception:
                pass
        if hasattr(self.inner, "db"):
            self.inner.db = None
        raise SimulatedCrash(
            f"simulated crash at statement {self.statements_executed + 1}"
        )

    # -- gated statement execution ---------------------------------------

    def execute(self, sql: str, params: Sequence = ()) -> BackendResult:
        self._gate()
        result = self.inner.execute(sql, params)
        self.statements_executed += 1
        return result

    def executemany(
        self, sql: str, param_rows: Iterable[Sequence]
    ) -> BackendResult:
        self._gate()
        result = self.inner.executemany(sql, param_rows)
        self.statements_executed += 1
        return result

    # -- ungated passthrough ---------------------------------------------

    def rows_written(self) -> int:
        return self.inner.rows_written()

    def list_tables(self) -> list[str]:
        if self.crashed:
            raise SimulatedCrash("backend already crashed")
        return self.inner.list_tables()

    def analyze(self) -> None:
        if self.crashed:
            raise SimulatedCrash("backend already crashed")
        self.inner.analyze()

    def begin(self) -> None:
        if self.crashed:
            raise SimulatedCrash("backend already crashed")
        self.inner.begin()

    def commit_transaction(self) -> None:
        if self.crashed:
            raise SimulatedCrash("backend already crashed")
        self.inner.commit_transaction()

    def rollback(self) -> None:
        if self.crashed:
            return  # the "process" died; nobody is left to roll back
        self.inner.rollback()

    def close(self) -> None:
        if self.crashed:
            return
        self.inner.close()


# -- snapshot-file faults ------------------------------------------------

#: Stages at which a process death can interrupt an atomic snapshot save.
SAVE_CRASH_STAGES = ("mid-tmp-write", "after-tmp", "mid-rotate")


def simulate_crash_during_save(
    db: MiniDb,
    path: Union[str, Path],
    stage: str,
    rng: Optional[random.Random] = None,
) -> None:
    """Leave the filesystem exactly as an interrupted
    :func:`repro.minidb.persist.save` of *db* to *path* would.

    ``mid-tmp-write``
        died while writing the staging file: a truncated ``.tmp``,
        primary snapshot untouched.
    ``after-tmp``
        died between staging and rotation: a complete ``.tmp``,
        primary snapshot untouched.
    ``mid-rotate``
        died between rotating the old snapshot to ``.prev`` and
        renaming the staged file: no primary, good ``.prev``.
    """
    if stage not in SAVE_CRASH_STAGES:
        raise ValueError(
            f"unknown crash stage {stage!r}; expected one of "
            f"{SAVE_CRASH_STAGES}"
        )
    rng = rng or random.Random(0)
    path = Path(path)
    image = persist.snapshot_bytes(db)
    tmp = persist.temp_path(path)
    if stage == "mid-tmp-write":
        cut = rng.randrange(1, max(len(image), 2))
        tmp.write_bytes(image[:cut])
        return
    tmp.write_bytes(image)
    if stage == "mid-rotate" and path.exists():
        os.replace(path, persist.previous_path(path))


def garble_file(
    path: Union[str, Path],
    rng: Optional[random.Random] = None,
    flips: int = 8,
) -> None:
    """Flip *flips* random bytes of *path* in place (bit-rot / torn
    sector simulation); the CRC footer must catch it."""
    rng = rng or random.Random(0)
    path = Path(path)
    data = bytearray(path.read_bytes())
    if not data:
        return
    for _ in range(flips):
        index = rng.randrange(len(data))
        data[index] ^= 1 + rng.randrange(255)
    path.write_bytes(bytes(data))


def truncate_file(
    path: Union[str, Path], keep_fraction: float = 0.5
) -> None:
    """Truncate *path* to a fraction of its size (torn tail write)."""
    path = Path(path)
    data = path.read_bytes()
    path.write_bytes(data[: max(1, int(len(data) * keep_fraction))])
