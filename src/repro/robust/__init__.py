"""Robustness: fault injection and crash-recovery testing.

The paper's hard case is *updates*: an insertion can renumber O(document)
rows, and a crash mid-renumber leaves the order encoding silently
corrupt.  This package supplies the adversary and the verification
loop:

* :mod:`repro.robust.faults` — a :class:`FaultInjectingBackend` wrapper
  that, driven by a :class:`FaultPlan`, hard-crashes the engine at the
  Nth statement (:class:`SimulatedCrash`);
* :mod:`repro.robust.crashtest` — the verification loop
  (``repro crashtest``): one ``sweep`` driver that measures an action,
  crashes it at sampled (or all) statement boundaries, reopens, audits
  invariants and asserts the store equals either the pre or the post
  state — and the scenarios it is run over (update streams,
  migrations, index create/update/drop, a writer's one-transaction
  batch), each a declaration.

Durability belongs to sqlite — its WAL, with a busy timeout past which
a locked database is a :class:`~repro.errors.StorageError` like any
other sqlite error — so every crash is swept on a file-backed sqlite
store.  minidb keeps no files: it is the in-memory engine whose row
counters make costs engine-independent, and its undo journal is checked
by rolling real operations back, not by crashing them.

:mod:`repro.robust.crashtest` is imported lazily (it depends on
:mod:`repro.store`); import it explicitly where needed.
"""

from repro.robust.faults import (
    FaultInjectingBackend,
    FaultPlan,
    SimulatedCrash,
)

__all__ = [
    "FaultInjectingBackend",
    "FaultPlan",
    "SimulatedCrash",
]
