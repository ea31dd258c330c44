"""Fault injection: simulated crashes.

The adversary for the recovery machinery in this package.  A
:class:`FaultInjectingBackend` wraps any :class:`~repro.backends.base.
Backend` and, driven by a :class:`FaultPlan`, hard-crashes the store
at the Nth statement: the wrapped engine is discarded exactly as a
process death would leave it (:meth:`~repro.backends.base.Backend.
abandon`: sqlite's connections close abruptly, so an uncommitted
transaction is lost; the minidb engine object is dropped) and a
:class:`SimulatedCrash` sentinel propagates.

:class:`SimulatedCrash` derives from ``BaseException`` so ordinary
``except Exception`` recovery code cannot accidentally absorb a
"process death".
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.backends.base import Backend, BackendResult


class SimulatedCrash(BaseException):
    """Sentinel: the process 'died' here.  Not an ``Exception`` on
    purpose — nothing short of the test harness may catch it."""


class FaultPlan:
    """The fate of each statement: run it, or crash instead.

    Parameters
    ----------
    crash_at_statement:
        1-based index (counting successfully executed statements) at
        which the backend hard-crashes instead of executing.
    """

    def __init__(self, crash_at_statement: Optional[int] = None) -> None:
        self.crash_at_statement = crash_at_statement

    def next_fault(self, executed_statements: int) -> str:
        """Fate of the statement about to run: ok | crash."""
        if (
            self.crash_at_statement is not None
            and executed_statements + 1 == self.crash_at_statement
        ):
            return "crash"
        return "ok"


class FaultInjectingBackend(Backend):
    """A :class:`Backend` decorator that injects faults per statement.

    Only ``execute``/``executemany`` are gated (and counted — one
    ``executemany`` call is one statement); ``begin``/``commit``/
    ``rollback`` and the read scope's hooks pass through so a plan's
    statement indexes stay deterministic across runs.  After a crash
    every operation raises :class:`SimulatedCrash` except ``rollback``,
    ``end_snapshot`` and ``close``, which become no-ops — a dead process
    runs no rollback.
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

    def _alive(self) -> None:
        if self.crashed:
            raise SimulatedCrash("backend already crashed")

    def _gate(self) -> None:
        self._alive()
        if self.plan is None:
            return
        if self.plan.next_fault(self.statements_executed) == "crash":
            self._crash()

    def _crash(self) -> None:
        self.crashed = True
        # Discard the engine the way a process death would: sqlite's
        # connections close abruptly (an open transaction is lost; the
        # WAL recovers on reopen), the minidb engine object is dropped.
        self.inner.abandon()
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
        self._alive()
        return self.inner.list_tables()

    def analyze(self, tables: Sequence[str]) -> None:
        self._alive()
        self.inner.analyze(tables)

    def begin(self) -> None:
        self._alive()
        self.inner.begin()

    def commit_transaction(self) -> None:
        self._alive()
        self.inner.commit_transaction()

    def rollback(self) -> None:
        if self.crashed:
            return  # the "process" died; nobody is left to roll back
        self.inner.rollback()

    def begin_snapshot(self) -> bool:
        self._alive()
        return self.inner.begin_snapshot()

    def end_snapshot(self) -> None:
        if self.crashed:
            return  # as rollback: the scope died with the process
        self.inner.end_snapshot()

    def close(self) -> None:
        if self.crashed:
            return
        self.inner.close()
