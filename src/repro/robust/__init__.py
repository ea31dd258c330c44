"""Robustness: fault injection, retry/backoff, crash-recovery testing.

The paper's hard case is *updates*: an insertion can renumber O(document)
rows, and a crash mid-renumber leaves the order encoding silently
corrupt.  This package supplies both the adversary and the survival
machinery:

* :mod:`repro.robust.faults` — a :class:`FaultInjectingBackend` wrapper
  that, driven by a seeded :class:`FaultPlan`, raises transient
  BUSY-style errors, hard-crashes the engine at the Nth statement
  (:class:`SimulatedCrash`), or leaves torn snapshot files behind;
* :mod:`repro.robust.retry` — a bounded exponential-backoff
  :class:`RetryPolicy` (jittered, transient-vs-permanent classification)
  that :class:`repro.store.XmlStore` applies around read statements and
  whole update transactions, surfacing
  :class:`repro.errors.TransientStorageError` after exhaustion;
* :mod:`repro.robust.crashtest` — the verification loop
  (``repro crashtest``): one ``sweep`` driver that measures an action,
  crashes it at sampled (or all) statement boundaries, reopens, audits
  invariants and asserts the store equals either the pre or the post
  state — and the scenarios it is run over (update streams,
  migrations, index create/update/drop, group-committed writer
  batches), each a declaration.

Together with the atomic generation-rotating snapshots in
:mod:`repro.minidb.persist` and sqlite's WAL + busy-timeout, this is the
robustness layer later scaling work (pooling, sharding) builds on.

:mod:`repro.robust.crashtest` is imported lazily (it depends on
:mod:`repro.store`); import it explicitly where needed.
"""

from repro.robust.faults import (
    SAVE_CRASH_STAGES,
    FaultInjectingBackend,
    FaultPlan,
    SimulatedCrash,
    TransientInjectedError,
    garble_file,
    simulate_crash_during_save,
    truncate_file,
)
from repro.robust.retry import RetryPolicy, is_transient_error

__all__ = [
    "FaultInjectingBackend",
    "FaultPlan",
    "RetryPolicy",
    "SAVE_CRASH_STAGES",
    "SimulatedCrash",
    "TransientInjectedError",
    "garble_file",
    "is_transient_error",
    "simulate_crash_during_save",
    "truncate_file",
]
